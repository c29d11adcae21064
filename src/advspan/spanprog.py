"""Span programs: evaluation with explicit witnesses, witness sizes, and the
canonical program assembled from a Gram-matrix SDP solution.

A span program holds a matrix A whose columns are grouped into 2n index
sets I_{j,b} (order I_{1,0}, I_{1,1}, I_{2,0}, ...) and a target vector t.
An input s selects the columns with b = s_j; f(s) = 1 exactly when t lies
in their span.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .advsdp import SdpSolution, WitnessSdp, pair_adjoint, pair_sums
from .boolfun import BooleanFunction, input_bits
from .errors import DimensionMismatchError, GramFailureError
from .matkernel import gram_factor

WITNESS_RTOL = 1e-7


@dataclass(frozen=True)
class SpanProgram:
    n: int
    block_sizes: tuple[tuple[int, int], ...]
    matrix: np.ndarray
    target: np.ndarray

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

    def column_range(self, j: int, b: int) -> slice:
        """Columns of index set I_{j,b} (j is 1-based)."""
        start = sum(s0 + s1 for s0, s1 in self.block_sizes[: j - 1])
        if b:
            start += self.block_sizes[j - 1][0]
        return slice(start, start + self.block_sizes[j - 1][b])

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
    witness_size[s] is the corresponding squared norm.
    """

    value: np.ndarray
    witness: tuple[np.ndarray, ...]
    witness_size: np.ndarray
    residual: np.ndarray


def evaluate(p: SpanProgram) -> Evaluation:
    """Evaluate the program on all 2^n inputs, returning each branch and its
    optimal witness.

    Inputs that select equally many columns share one stacked SVD of their
    selected columns A Pi(s) (a canonical program is one such group).  It
    gives the true branch's least-norm solution and the false branch's
    basis of null((A Pi(s))^T), both cut at numpy's rank rule
    max(rows, columns) eps sigma_1, the rule of lstsq(rcond=None).  Only the
    false branch's KKT solve for the negative witness runs per input, in
    input order.
    """
    t = p.target
    tnorm = np.linalg.norm(t)
    masks = p.selection_masks()
    counts = masks.sum(axis=1)
    num_inputs = len(masks)
    value = np.zeros(num_inputs, dtype=bool)
    sizes, residual = np.zeros(num_inputs), np.zeros(num_inputs)
    witness: list[np.ndarray] = [np.zeros(0)] * num_inputs
    for k in np.unique(counts).tolist():
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
    return Evaluation(value, tuple(witness), sizes, residual)


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
    unit all-ones target (see witness_program).
    """

    f: BooleanFunction
    m: int
    witness_size: float
    vectors: np.ndarray
    matrix: np.ndarray
    target: np.ndarray

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
        )

    @property
    def stored_witness_sizes(self) -> np.ndarray:
        """sum_j ||v_{s,j}||^2 for every input s, the canonical witness accounting."""
        return np.einsum("sjk,sjk->s", self.vectors, self.vectors)

    def pair_sum(self, w: int, x: int) -> float:
        """sum over disagreeing coordinates of <v_{w,j}|v_{x,j}>."""
        differ = self.f.bits[w] != self.f.bits[x]
        return float(np.einsum("jk,jk->", self.vectors[w, differ], self.vectors[x, differ]))

    def to_json(self) -> str:
        payload = {
            "n": self.f.n,
            "table": self.f.name(),
            "m": self.m,
            "witness_size": self.witness_size,
            "vectors": self.vectors.tolist(),
            "matrix": self.matrix.tolist(),
            "target": self.target.tolist(),
            "block_sizes": [list(b) for b in self.block_sizes],
        }
        return json.dumps(payload, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "CanonicalSpanProgram":
        d = json.loads(text)
        f = BooleanFunction(d["n"], tuple(int(c) for c in d["table"]))
        return CanonicalSpanProgram(
            f=f,
            m=d["m"],
            witness_size=d["witness_size"],
            vectors=np.array(d["vectors"]),
            matrix=np.array(d["matrix"]),
            target=np.array(d["target"]),
        )


def _check_pair_sums(sdp: WitnessSdp, gram: np.ndarray) -> None:
    worst = float(np.abs(pair_sums(sdp, gram) - 1.0).max())
    if worst > 1e-6:
        raise GramFailureError(f"pair-sum constraint residual {worst:.3e} exceeds 1e-6")


def _round_factor(sdp: WitnessSdp, v: np.ndarray) -> np.ndarray:
    """Two least-norm Gauss-Newton steps on the Gram factors v_j (rows v_{s,j})
    towards the pair constraints sum_{j : w_j != x_j} <v_{w,j}|v_{x,j}> = 1,
    after Peyrl and Parrilo's rounding, done in the factor space.

    Each step is dV_j = -L_j V_j, with L_j the symmetric matrix holding the
    multiplier lambda_{wx} = ((J J^T)^-1 r)_{wx} at [w,x] and [x,w] for the
    pairs that differ in coordinate j (twice the Gram-block part of A^T
    lambda).  With pairs ordered w-major over F0 x F1,
    J J^T = sum_j D_j (I_{F0} (x) G_j[F1,F1] + G_j[F0,F0] (x) I_{F1}) D_j,
    G_j = V_j V_j^T and D_j the pairs' mask, so J itself is never formed.  The
    residual r falls to about |r|^2 / sigma_min(J)^2, and X = V V^T stays PSD
    because only the factor moves.  The rank cut drops the solver's mu-sized
    eigenvalues, which moves the pair sums by ~1e-9; one step leaves 7e-12
    where J is nearly singular (00000011, sigma_min 1e-5), a second reaches
    roundoff.

    With a nontrivial group (sdp.orbits) the residual and J J^T commute with
    it, so the system is solved on the pair orbits, E^T J J^T E mu = E^T r
    with E the pair columns of Orbits.expand, and lambda = E mu.
    """
    f, orbits = sdp.f, sdp.orbits
    f0, f1 = np.array(f.f0), np.array(f.f1)
    differ = (f.bits[f0][:, None, :] != f.bits[f1][None, :, :]).astype(float)  # (w, x, j)
    num_pairs = len(sdp.pairs)
    expand = None if orbits is None else orbits.expand[:num_pairs, : orbits.row[:num_pairs].max() + 1]
    for _ in range(2):
        gram = v @ v.transpose(0, 2, 1)
        residual = pair_sums(sdp, gram) - 1.0
        # J J^T[(w,x),(w',x')] = sum_j d_j[w,x] d_j[w',x'] (delta_ww' G_j[x,x'] + G_j[w,w'] delta_xx')
        jjt = np.zeros((len(f0), len(f1), len(f0), len(f1)))
        jjt[np.arange(len(f0)), :, np.arange(len(f0)), :] += np.einsum(
            "wxj,wyj,jxy->wxy", differ, differ, gram[:, f1[:, None], f1])
        jjt[:, np.arange(len(f1)), :, np.arange(len(f1))] += np.einsum(
            "wxj,vxj,jwv->xwv", differ, differ, gram[:, f0[:, None], f0])
        jjt = jjt.reshape(num_pairs, num_pairs)
        if expand is not None:
            jjt, residual = expand.T @ jjt @ expand, residual @ expand
        factor, info = scipy.linalg.lapack.dpotrf(jjt, lower=0, clean=0)
        if info == 0:
            lam = scipy.linalg.lapack.dpotrs(factor, residual, lower=0)[0]
        else:  # J J^T singular: the least-norm multipliers
            lam = np.linalg.lstsq(jjt, residual, rcond=None)[0]
        v = v - 2.0 * pair_adjoint(sdp, lam if expand is None else expand @ lam) @ v
    return v


def canonical_from_gram(f: BooleanFunction, sol: SdpSolution) -> CanonicalSpanProgram:
    """Canonical span program from the Gram blocks of a solved SDP.

    v_{s,j} is row s of gram_factor's factor of X_j, so every coordinate
    shares one R^m with m = max_j rank X_j.  That is exact: coordinate j's
    vectors only ever appear in its own column blocks I_{j,b}, so the program
    reads no inner product across coordinates (AA^T[w,w'] is
    sum_{j : w_j = w'_j} X_j[w,w']).  Every deficient input then gets one
    private dimension, which m counts too, so that sum_j ||v_{s,j}||^2 equals
    the witness size W exactly; the pair constraints are untouched because
    the private dimensions never meet across inputs.  This tightness is what
    makes the spectral-gap witness overlaps (9/10 and 1/(9W(W+1))) exact
    rather than one-sided.  Before the padding, Gauss-Newton steps on the
    factor make the pair constraints hold to roundoff, not only to the
    solver's tolerance; xi and the dual multipliers are not touched.
    """
    n, num_inputs = f.n, 2**f.n
    factor = gram_factor(sol.blocks)
    gram = factor @ factor.transpose(0, 2, 1)
    if np.abs(gram - sol.blocks).max() > 1e-6:
        raise GramFailureError("Gram factorization does not reproduce X within 1e-6")
    _check_pair_sums(sol.sdp, gram)
    factor = _round_factor(sol.sdp, factor)
    rank = factor.shape[2]

    row_sums = np.einsum("jsk,jsk->s", factor, factor)
    # pad up to the worst row (not xi itself): feasibility slop can leave a
    # row marginally above xi, and exact tightness is what the witness
    # overlaps need
    w_size = max(sol.xi, float(row_sums.max()))
    gaps = w_size - row_sums
    deficient = np.flatnonzero(gaps > 1e-12 * max(1.0, w_size))
    m = rank + len(deficient)
    vectors = np.zeros((num_inputs, n, m))
    vectors[:, :, :rank] = factor.transpose(1, 0, 2)
    vectors[deficient, 0, rank + np.arange(len(deficient))] = np.sqrt(gaps[deficient])

    # row r holds v_{w,j} on the disagreeing block I_{j, 1 - w_j}
    f0 = np.array(f.f0)
    matrix = np.zeros((len(f0), n, 2, m))
    matrix[np.arange(len(f0))[:, None], np.arange(n), 1 - f.bits[f0]] = vectors[f0]
    target = np.ones(len(f0)) / (3 * np.sqrt(w_size))

    _check_pair_sums(sol.sdp, np.einsum("wjk,xjk->jwx", vectors, vectors))
    return CanonicalSpanProgram(
        f=f, m=m, witness_size=w_size, vectors=vectors, matrix=matrix.reshape(len(f0), -1), target=target
    )
