"""Shared corpus of solved functions, cached once per session, and the dense
references of the canonical program and of the program and input graphs that
only tests build."""

from __future__ import annotations

import numpy as np
import pytest

from advspan import verify
from advspan.boolfun import BooleanFunction
from advspan.matkernel import gram_factor, nullspace_projector
from advspan.spanprog import CanonicalSpanProgram, _round_factor
from advspan.spectral import column_mask

# Lexicographically smallest truth table of each non-constant NPN class of
# 3-bit functions.
NPN3_CANONICAL = (
    "00000001", "00000011", "00000110", "00000111", "00001111", "00010110", "00010111",
    "00011000", "00011001", "00011011", "00011110", "00111100", "01101001",
)


def two_bit_dependent_tables() -> list[str]:
    """The ten 2-ary tables that are non-constant and depend on both inputs."""
    out = []
    for code in range(16):
        table = tuple((code >> (3 - s)) & 1 for s in range(4))
        f = BooleanFunction(2, table)
        if not f.is_constant and f.depends_on(1) and f.depends_on(2):
            out.append(f.name())
    return out


def corpus_specs() -> list[str]:
    """12 functions with n <= 2 (up to triviality) plus the three n = 3 anchors."""
    return ["01", "10"] + two_bit_dependent_tables() + ["PARITY:3", "OR:3", "MAJ:3"]


class SolvedFunction:
    """One default verify() run: its report and the objects it built."""

    def __init__(self, spec: str):
        self.spec = spec
        result = verify(spec)
        self.report = result.report
        self.solution = result.solution
        self.certificate = result.certificate
        self.program = result.program
        self.graph = result.graph
        self.f = self.program.f
        self.sdp = self.solution.sdp


@pytest.fixture(scope="session")
def solved():
    """Memoized access to fully solved functions: solved('PARITY:2')."""
    cache: dict[str, SolvedFunction] = {}

    def get(spec: str) -> SolvedFunction:
        if spec not in cache:
            cache[spec] = SolvedFunction(spec)
        return cache[spec]

    return get


@pytest.fixture(scope="session")
def corpus(solved):
    """All corpus functions, solved."""
    return [solved(spec) for spec in corpus_specs()]


# -- dense references -------------------------------------------------------


def dense_adjacency(g) -> np.ndarray:
    """A_G = [[0, B_G], [B_G^T, 0]] on F0 | mu0 | I."""
    nf0 = g.num_false
    a_g = np.zeros((g.dim, g.dim))
    a_g[:nf0, nf0:] = g.b_g
    a_g[nf0:, :nf0] = g.b_g.T
    return a_g


def dense_delta(g) -> np.ndarray:
    """Delta, the projector onto the kernel of the dense adjacency."""
    return nullspace_projector(dense_adjacency(g))


def pi_projector(g, s: int) -> np.ndarray:
    """Pi_s as the dense diagonal of g.pi_mask(s)."""
    return np.diag(g.pi_mask(s).astype(float))


def dense_unitary(g, s: int, delta=None) -> np.ndarray:
    """U_s = (2 Pi_s - I)(2 Delta - I) on the whole program graph."""
    delta = dense_delta(g) if delta is None else delta
    return (2.0 * pi_projector(g, s) - np.eye(g.dim)) @ (2.0 * delta - np.eye(g.dim))


def anchor_vector(g) -> np.ndarray:
    """|0>, the mu0 indicator of the program graph space F0 | mu0 | I."""
    e = np.zeros(g.dim)
    e[g.num_false] = 1.0
    return e


def input_biadjacency(g, s: int) -> tuple[np.ndarray, np.ndarray]:
    """(b_true, b_false): G(s) with rows F0 | I' and columns mu0 | I, and G'(s)
    with rows F0 | I' and columns I."""
    nf0, ni = g.num_false, g.b_g.shape[1] - 1
    pibar = np.diag(1.0 - column_mask(g.n, g.m, s).astype(float))
    b_true = np.zeros((nf0 + ni, 1 + ni))
    b_true[:nf0] = g.b_g
    b_true[nf0:, 1:] = pibar
    b_false = np.zeros((nf0 + ni, ni))
    b_false[:nf0] = g.b_g[:, 1:]
    b_false[nf0:] = pibar
    return b_true, b_false


def input_adjacency(g, s: int) -> tuple[np.ndarray, int]:
    """Dense adjacency [[0, B], [B^T, 0]] of G(s), B = b_true, on F0 | I' | mu0 | I,
    and the index of mu0 there."""
    b = input_biadjacency(g, s)[0]
    rows, cols = b.shape
    return np.block([[np.zeros((rows, rows)), b], [b.T, np.zeros((cols, cols))]]), rows


def whole_gram_program(f, sol) -> CanonicalSpanProgram:
    """The canonical program from one factor of the whole Gram matrix X of side
    n 2^n (index s n + j), assembled from the rounded Gram blocks: each
    coordinate then gets its own columns, m = sum_j rank X_j plus one private
    dimension per deficient input.  The reference for the shared layout of
    canonical_from_gram.  Its rounding maps each block G_j to
    (I - L_j) G_j (I - L_j), which no layout of the factor changes."""
    n, num_inputs = f.n, 2**f.n
    v = _round_factor(sol.sdp, gram_factor(sol.blocks))
    blocks = v @ v.transpose(0, 2, 1)
    x = np.einsum("jwx,jk->wjxk", blocks, np.eye(n)).reshape(n * num_inputs, n * num_inputs)
    flat = gram_factor(x).reshape(num_inputs, n, -1)
    row_sums = np.einsum("sjk,sjk->s", flat, flat)
    w_size = max(sol.xi, float(row_sums.max()))
    deficient = [s for s in f.inputs if w_size - row_sums[s] > 1e-12 * max(1.0, w_size)]
    m0 = flat.shape[2]
    vectors = np.zeros((num_inputs, n, m0 + len(deficient)))
    vectors[:, :, :m0] = flat
    for k, s in enumerate(deficient):
        vectors[s, 0, m0 + k] = np.sqrt(w_size - row_sums[s])
    m = vectors.shape[2]
    matrix = np.zeros((len(f.f0), 2 * n * m))
    for r, w in enumerate(f.f0):
        for j in range(1, n + 1):
            start = ((j - 1) * 2 + 1 - f.bit(w, j)) * m
            matrix[r, start : start + m] = vectors[w, j - 1]
    return CanonicalSpanProgram(f=f, m=m, witness_size=w_size, vectors=vectors, matrix=matrix,
                                target=np.ones(len(f.f0)) / (3 * np.sqrt(w_size)))
