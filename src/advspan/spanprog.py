"""Span programs: evaluation with explicit witnesses, witness sizes, and the
canonical program assembled from the class blocks of a solved witness SDP.

A span program holds a matrix A whose columns are grouped into 2n index
sets I_{j,b} (order I_{1,0}, I_{1,1}, I_{2,0}, ...) and a target vector t.
An input s selects the columns with b = s_j; f(s) = 1 exactly when t lies
in their span.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .advsdp import SdpSolution, class_pair_sums, coordinate_factors, factor_pair_sums, round_factor
from .boolfun import BooleanFunction, input_bits
from .errors import DimensionMismatchError, GramFailureError
from .matkernel import gram_factor

WITNESS_RTOL = 1e-7


@dataclass(frozen=True)
class SpanProgram:
    """orbit holds the least member of each input's orbit under a group of
    input symmetries the program respects exactly (every input its own under
    the trivial group); evaluate resolves one input per orbit and copies its
    values to the rest."""

    n: int
    block_sizes: tuple[tuple[int, int], ...]
    matrix: np.ndarray
    target: np.ndarray
    orbit: np.ndarray

    def __post_init__(self):
        if len(self.block_sizes) != self.n:
            raise DimensionMismatchError("need one (|I_{j,0}|, |I_{j,1}|) pair per coordinate")
        total = sum(a + b for a, b in self.block_sizes)
        if self.matrix.shape != (len(self.target), total):
            raise DimensionMismatchError(
                f"matrix shape {self.matrix.shape} != ({len(self.target)}, {total})"
            )
        if np.linalg.norm(self.target) == 0:
            raise DimensionMismatchError("target vector must be nonzero")

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def columns(self) -> int:
        return self.matrix.shape[1]

    def selection_masks(self) -> np.ndarray:
        """(2^n, columns) boolean: row s marks the columns Pi(s) keeps."""
        return literal_masks(self.n, self.block_sizes)


def literal_masks(n: int, block_sizes) -> np.ndarray:
    """(2^n, columns) boolean over the blocks I_{1,0}, I_{1,1}, I_{2,0}, ...
    of the given (|I_{j,0}|, |I_{j,1}|) sizes: row s marks the literals
    agreeing with s (b = s_j in I_{j,b})."""
    block = np.repeat(np.arange(2 * n), [size for pair in block_sizes for size in pair])
    return input_bits(n)[:, block // 2] == block % 2


@dataclass(frozen=True)
class Evaluation:
    """Outcome of running a span program on every input, stacked along the
    input axis.

    value[s] is f(s) as the program computes it.  For value True, witness[s]
    is the minimum-norm z (on the full column index, zero outside Pi(s))
    with A Pi(s) z = t, and residual[s] is ||A Pi(s) z - t|| / ||t||.  For
    value False it is the negative witness y with y* A Pi(s) = 0,
    <y|t> = 1 and minimal ||y* A||^2, and residual[s] is ||y* A Pi(s)||.
    witness_size[s] is the corresponding squared norm.  With the program's
    orbit given, only each orbit's least input is resolved: value,
    witness_size and residual are copied from it, and witness[s] is None on
    the other inputs.
    """

    value: np.ndarray
    witness: tuple[np.ndarray | None, ...]
    witness_size: np.ndarray
    residual: np.ndarray


def evaluate(p: SpanProgram) -> Evaluation:
    """Evaluate the program on all 2^n inputs, returning each branch and its
    optimal witness.

    Only the least input of each orbit (p.orbit) is resolved.  Resolved
    inputs that select equally many columns share one stacked SVD of their
    selected columns A Pi(s) (a canonical program is one such group).  It
    gives the true branch's least-norm solution and the false branch's basis
    of null((A Pi(s))^T), both cut at numpy's rank rule
    max(rows, columns) eps sigma_1, the rule of lstsq(rcond=None).  Only the
    false branch's KKT solve for the negative witness runs per input, in
    input order.
    """
    t = p.target
    tnorm = np.linalg.norm(t)
    masks = p.selection_masks()
    num_inputs, orbit = len(masks), p.orbit
    resolved = orbit == np.arange(num_inputs)
    counts = np.where(resolved, masks.sum(axis=1), -1)
    value = np.zeros(num_inputs, dtype=bool)
    sizes, residual = np.zeros(num_inputs), np.zeros(num_inputs)
    witness: list[np.ndarray | None] = [None] * num_inputs
    for k in np.unique(counts[resolved]).tolist():
        group = np.flatnonzero(counts == k)
        cols = np.nonzero(masks[group])[1].reshape(len(group), k)
        selected = p.matrix[:, cols].transpose(1, 0, 2)  # (inputs, rows, k)
        # the SVD of the transposes, selected = V S U^T: its rows x rows V^T
        # holds the null-space basis whether k < rows (full factors) or not
        u, sv, vt = np.linalg.svd(selected.transpose(0, 2, 1), full_matrices=k < p.rows)
        kept = sv > max(p.rows, k) * np.finfo(float).eps * sv[:, :1]
        rank = kept.sum(axis=1)
        width = sv.shape[1]
        coef = np.divide(vt[:, :width] @ t, sv, out=np.zeros_like(sv), where=kept)
        z = np.einsum("gkq,gq->gk", u[:, :, :width], coef)
        true_residual = np.linalg.norm(np.einsum("grk,gk->gr", selected, z) - t, axis=1)
        for s, res in zip(group.tolist(), true_residual.tolist()):
            if 0.1 * WITNESS_RTOL * tnorm < res < 10 * WITNESS_RTOL * tnorm:
                warnings.warn(
                    f"near-degenerate span program: membership residual {res:.3e} "
                    f"sits at the branch threshold for input {s:0{p.n}b}",
                    stacklevel=2,
                )
        positive = true_residual <= WITNESS_RTOL * tnorm
        value[group[positive]] = True
        sizes[group[positive]] = np.einsum("gk,gk->g", z[positive], z[positive])
        residual[group[positive]] = true_residual[positive] / tnorm
        for g in np.flatnonzero(positive).tolist():
            witness[group[g]] = np.zeros(p.columns)
            witness[group[g]][cols[g]] = z[g]

        # negative witnesses, y in null(selected^T) with <y|t> = 1 minimizing
        # ||y^T A||, one KKT solve per input
        for g in np.flatnonzero(~positive).tolist():
            s = int(group[g])
            basis = vt[g, rank[g]:].T
            t_comp = basis.T @ t
            if np.linalg.norm(t_comp) <= WITNESS_RTOL * tnorm:
                raise GramFailureError(f"no branch admits a witness on input {s:0{p.n}b}")
            reach = p.matrix.T @ basis
            d = len(t_comp)
            kkt = np.zeros((d + 1, d + 1))
            kkt[:d, :d] = reach.T @ reach
            kkt[:d, d] = kkt[d, :d] = t_comp
            rhs = np.zeros(d + 1)
            rhs[-1] = 1.0
            y = basis @ np.linalg.lstsq(kkt, rhs, rcond=None)[0][:d]
            pulled = y @ p.matrix
            witness[s], sizes[s], residual[s] = y, pulled @ pulled, np.linalg.norm(y @ selected[g])
    return Evaluation(value[orbit], tuple(witness), sizes[orbit], residual[orbit])


def program_witness_size(p: SpanProgram) -> float:
    """wsize(P) = max over all 2^n inputs of the witness size."""
    return float(evaluate(p).witness_size.max())


# ---------------------------------------------------------------------------
# Canonical span programs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CanonicalSpanProgram:
    """Canonical form: one row per false input, 2n column blocks of width m.

    vectors[s, j-1] is v_{s,j}; rows of the matrix hold the false-input
    vectors on the disagreeing blocks and zeros on the agreeing blocks.
    target is the graph normalization (1 / (3 sqrt(W))) * all-ones used by
    the bipartite-graph constructions; witness-size accounting uses the
    unit all-ones target (see witness_program).  orbit is the least member
    of each input's orbit under Aut(f) (Orbits.inputs), on which the SDP was
    solved, so that the program's per-input values are constant on them;
    every input is its own when Aut(f) is trivial.
    """

    f: BooleanFunction
    m: int
    witness_size: float
    vectors: np.ndarray
    matrix: np.ndarray
    target: np.ndarray
    orbit: np.ndarray

    @property
    def block_sizes(self) -> tuple[tuple[int, int], ...]:
        return tuple((self.m, self.m) for _ in range(self.f.n))

    def witness_program(self) -> SpanProgram:
        """The program with unit all-ones target, whose witness sizes realize
        wsize(P_f, s) = sum_j ||v_{s,j}||^2 at the SDP optimum."""
        return SpanProgram(
            n=self.f.n,
            block_sizes=self.block_sizes,
            matrix=self.matrix,
            target=np.ones(len(self.f.f0)),
            orbit=self.orbit,
        )

    @property
    def stored_witness_sizes(self) -> np.ndarray:
        """sum_j ||v_{s,j}||^2 for every input s, the canonical witness accounting."""
        return np.einsum("sjk,sjk->s", self.vectors, self.vectors)


def _check_pair_sums(sums: np.ndarray) -> None:
    worst = float(np.abs(sums - 1.0).max())
    if worst > 1e-6:
        raise GramFailureError(f"pair-sum constraint residual {worst:.3e} exceeds 1e-6")


def canonical_from_gram(f: BooleanFunction, sol: SdpSolution) -> CanonicalSpanProgram:
    """Canonical span program from the class blocks of a solved SDP.

    v_{s,j} is row s of a factor of coordinate j's Gram block X_j, zero
    between its two classes, so every coordinate shares one R^m with
    m = max_j rank X_j.  That is exact: coordinate j's vectors only ever
    appear in its own column blocks I_{j,b}, so the program reads no inner
    product across coordinates (AA^T[w,w'] is sum_{j : w_j = w'_j} X_j[w,w']).
    gram_factor factors only the solver's representative class blocks
    (SdpSolution.class_blocks), and coordinate_factors assembles each X_j's
    factor from its two classes through the group elements that carry the
    representatives onto them.  Every deficient input then gets one
    private dimension, which m counts too, spread evenly over the n
    coordinates so that sum_j ||v_{s,j}||^2 equals the witness size W
    exactly; the pair constraints are untouched because the private
    dimensions never meet across inputs.  This tightness is what makes the
    spectral-gap witness overlaps (9/10 and 1/(9W(W+1))) exact rather than
    one-sided.  Spread over every coordinate, the padding adds the same
    diagonal to each X_j, so the program respects Aut(f) whenever the blocks
    do: a group element then moves each coordinate's vectors by an
    orthogonal map, and every per-input value is equal within an orbit (a
    padding on one coordinate breaks that by up to 1e-3 in the effective-gap
    profile of MAJ:4).  Before the padding, Gauss-Newton steps on the
    representatives' factor (round_factor) tighten the pair constraints past
    the solver's tolerance to roundoff; xi and the dual multipliers are not
    touched.  Last, every pair constraint is checked on the assembled
    vectors themselves (factor_pair_sums), so a row copied wrongly onto a
    block that is not a representative fails loudly.
    """
    n, num_inputs, sdp, blocks = f.n, 2**f.n, sol.sdp, sol.class_blocks
    factor = gram_factor(blocks)
    gram = factor @ factor.transpose(0, 2, 1)
    if np.abs(gram - blocks).max() > 1e-6:
        raise GramFailureError("Gram factorization does not reproduce X within 1e-6")
    _check_pair_sums(class_pair_sums(sdp, gram))
    factor = coordinate_factors(sdp, round_factor(sdp, factor))
    rank = factor.shape[2]

    row_sums = np.einsum("sjk,sjk->s", factor, factor)
    # pad up to the worst row (not xi itself): feasibility slop can leave a
    # row marginally above xi, and exact tightness is what the witness
    # overlaps need
    w_size = max(sol.xi, float(row_sums.max()))
    gaps = w_size - row_sums
    deficient = np.flatnonzero(gaps > 1e-12 * max(1.0, w_size))
    m = rank + len(deficient)
    vectors = np.zeros((num_inputs, n, m))
    vectors[:, :, :rank] = factor
    vectors[deficient, :, rank + np.arange(len(deficient))] = np.sqrt(gaps[deficient] / n)[:, None]

    # row r holds v_{w,j} on the disagreeing block I_{j, 1 - w_j}
    f0 = np.array(f.f0)
    matrix = np.zeros((len(f0), n, 2, m))
    matrix[np.arange(len(f0))[:, None], np.arange(n), 1 - f.bits[f0]] = vectors[f0]
    target = np.ones(len(f0)) / (3 * np.sqrt(w_size))

    _check_pair_sums(factor_pair_sums(sdp, vectors))
    return CanonicalSpanProgram(f=f, m=m, witness_size=w_size, vectors=vectors, matrix=matrix.reshape(len(f0), -1),
                                target=target, orbit=sdp.orbits.inputs)
