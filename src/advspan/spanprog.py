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

from .advsdp import SdpSolution
from .boolfun import BooleanFunction
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

    def bit(self, s: int, j: int) -> int:
        return (s >> (self.n - j)) & 1

    def selection_mask(self, s: int) -> np.ndarray:
        """Boolean mask of the columns kept by Pi(s) (literals agreeing with s)."""
        mask = np.zeros(self.columns, dtype=bool)
        for j in range(1, self.n + 1):
            mask[self.column_range(j, self.bit(s, j))] = True
        return mask


@dataclass(frozen=True)
class Evaluation:
    """Outcome of running a span program on one input.

    For value True, witness is the minimum-norm z (on the full column
    index, zero outside Pi(s)) with A Pi(s) z = t.  For value False it is
    the negative witness y with y* A Pi(s) = 0, <y|t> = 1 and minimal
    ||y* A||^2.  witness_size is the corresponding squared norm.
    """

    value: bool
    witness: np.ndarray
    witness_size: float
    residual: float


def _nullspace_basis(mat: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of null(mat)."""
    rows, cols = mat.shape
    if rows == 0:
        return np.eye(cols)
    _, sv, vt = np.linalg.svd(mat, full_matrices=True)
    tol = max(rows, cols) * np.finfo(float).eps * (sv[0] if len(sv) else 0.0)
    rank = int((sv > tol).sum())
    return vt[rank:].T


def evaluate(p: SpanProgram, s: int) -> Evaluation:
    """Evaluate the program, returning the branch and its optimal witness."""
    mask = p.selection_mask(s)
    selected = p.matrix[:, mask]
    t = p.target
    tnorm = np.linalg.norm(t)

    if selected.shape[1]:
        z_sel, *_ = np.linalg.lstsq(selected, t, rcond=None)
        true_residual = float(np.linalg.norm(selected @ z_sel - t))
    else:
        z_sel = np.zeros(0)
        true_residual = float(tnorm)

    if 0.1 * WITNESS_RTOL * tnorm < true_residual < 10 * WITNESS_RTOL * tnorm:
        warnings.warn(
            f"near-degenerate span program: membership residual {true_residual:.3e} "
            f"sits at the branch threshold for input {s:0{p.n}b}",
            stacklevel=2,
        )
    if true_residual <= WITNESS_RTOL * tnorm:
        witness = np.zeros(p.columns)
        witness[mask] = z_sel
        return Evaluation(True, witness, float(z_sel @ z_sel), true_residual / tnorm)

    # negative witness: y in null(selected^T) with <y|t> = 1, minimizing ||y^T A||
    basis = _nullspace_basis(selected.T)
    t_comp = basis.T @ t
    if np.linalg.norm(t_comp) <= WITNESS_RTOL * tnorm:
        raise GramFailureError(f"no branch admits a witness on input {s:0{p.n}b}")
    reach = p.matrix.T @ basis
    h = reach.T @ reach
    kkt = np.block([[h, t_comp[:, None]], [t_comp[None, :], np.zeros((1, 1))]])
    rhs = np.zeros(len(t_comp) + 1)
    rhs[-1] = 1.0
    q = np.linalg.lstsq(kkt, rhs, rcond=None)[0][: len(t_comp)]
    y = basis @ q
    pulled = y @ p.matrix
    residual = float(np.linalg.norm(y @ selected)) if selected.shape[1] else 0.0
    return Evaluation(False, y, float(pulled @ pulled), residual)


def witness_size_input(p: SpanProgram, s: int) -> float:
    """Minimum squared witness norm on input s (||z||^2 or ||y* A||^2)."""
    return evaluate(p, s).witness_size


def program_witness_size(p: SpanProgram) -> float:
    """wsize(P) = max over all 2^n inputs of witness_size_input."""
    return max(witness_size_input(p, s) for s in range(2**p.n))


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

    def stored_witness_size(self, s: int) -> float:
        """sum_j ||v_{s,j}||^2, the canonical witness accounting for input s."""
        return float(np.einsum("jk,jk->", self.vectors[s], self.vectors[s]))

    def pair_sum(self, w: int, x: int) -> float:
        """sum over disagreeing coordinates of <v_{w,j}|v_{x,j}>."""
        total = 0.0
        for j in range(1, self.f.n + 1):
            if self.f.bit(w, j) != self.f.bit(x, j):
                total += float(self.vectors[w, j - 1] @ self.vectors[x, j - 1])
        return total

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


def canonical_from_gram(f: BooleanFunction, sol: SdpSolution) -> CanonicalSpanProgram:
    """Canonical span program from the Gram vectors of a solved SDP.

    gram_factor supplies v_{s,j} (m = numerical rank).  Every input is then
    padded with one private orthogonal dimension so sum_j ||v_{s,j}||^2
    equals the witness size W exactly; the pair constraints are untouched
    because padded dimensions never meet across inputs.  This tightness is
    what makes the spectral-gap witness overlaps (9/10 and 1/(9W(W+1)))
    exact rather than one-sided.
    """
    n = f.n
    flat = gram_factor(sol.x)
    if np.abs(flat @ flat.T - sol.x).max() > 1e-6:
        raise GramFailureError("Gram factorization does not reproduce X within 1e-6")
    m0 = flat.shape[1]

    row_sums = {
        s: sum(float(flat[s * n + j] @ flat[s * n + j]) for j in range(n)) for s in f.inputs
    }
    # pad up to the worst row (not xi itself): feasibility slop can leave a
    # row marginally above xi, and exact tightness is what the witness
    # overlaps need
    w_size = max(sol.xi, max(row_sums.values()))
    deficits = {}
    for s in f.inputs:
        gap = w_size - row_sums[s]
        if gap > 1e-12 * max(1.0, w_size):
            deficits[s] = gap
    m = m0 + len(deficits)
    vectors = np.zeros((2**n, n, m))
    for s in f.inputs:
        for j in range(n):
            vectors[s, j, :m0] = flat[s * n + j]
    for k, (s, gap) in enumerate(sorted(deficits.items())):
        vectors[s, 0, m0 + k] = np.sqrt(gap)

    matrix = np.zeros((len(f.f0), 2 * n * m))
    for r, w in enumerate(f.f0):
        for j in range(1, n + 1):
            b = 1 - f.bit(w, j)
            start = ((j - 1) * 2 + b) * m
            matrix[r, start : start + m] = vectors[w, j - 1]
    target = np.ones(len(f.f0)) / (3 * np.sqrt(w_size))

    program = CanonicalSpanProgram(
        f=f, m=m, witness_size=w_size, vectors=vectors, matrix=matrix, target=target
    )
    worst = max(
        abs(program.pair_sum(w, x) - 1.0) for w in f.f0 for x in f.f1
    )
    if worst > 1e-6:
        raise GramFailureError(f"pair-sum constraint residual {worst:.3e} exceeds 1e-6")
    return program
