"""Shared corpus of solved functions, cached once per session, every
non-constant table of up to 3 bits, and the acceptance gate's seeded random
5-bit tables; the n Gram blocks of side 2^n
of a class-block solution and the class blocks of Gram blocks; the dense
references of the SDP's constraint rows, of the canonical program and of the
program and input graphs that only tests build, the per-input span-program
evaluation, the oracle of the stacked `evaluate`, the whole Schur complement,
the oracle of the one `schur_complement` builds on the orbits of Aut(f), the
dense J J^T of the pair constraints, the oracle of the rounding's normal
matrix, and the interior-point loop on n full Gram blocks of side 2^n, the
oracle of the class-block `solve_sdp`.  Also the small helpers that only tests
call: the dense null-space projector and unitary eigensystem, Aut(f) element
by element, coordinate dependence, pair sums and index-set columns of a span
program, a canonical program with its padding on one coordinate, the
zero-query constant algorithm and the per-input run of a query algorithm.
Last, the dict-based minimal-formula search, the oracle of the array table
in `boolfun`."""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
import pytest
import scipy.linalg

from advspan import advsdp, verify
from advspan.advsdp import (
    DEFAULT_TOL, MAX_ITERATIONS, SdpSolution, WitnessSdp, _inverse_factors, _solver, build_witness_sdp,
    coordinate_factors, round_factor,
)
from advspan.boolfun import BooleanFunction, Formula, automorphism_cosets, element_maps
from advspan.matkernel import DEFAULT_ZERO_TOL, gram_factor
from advspan.errors import CheckError, NoConvergenceError
from advspan.qsim import QueryAlgorithm
from advspan.spanprog import WITNESS_RTOL, CanonicalSpanProgram, SpanProgram, literal_masks

# Lexicographically smallest truth table of each non-constant NPN class of
# 3-bit functions.
NPN3_CANONICAL = (
    "00000001", "00000011", "00000110", "00000111", "00001111", "00010110", "00010111",
    "00011000", "00011001", "00011011", "00011110", "00111100", "01101001",
)


def depends_on(f: BooleanFunction, j: int) -> bool:
    """True when flipping coordinate j changes the value of f somewhere."""
    flip = 1 << (f.n - j)
    return any(f.table[s] != f.table[s ^ flip] for s in f.inputs)


def two_bit_dependent_tables() -> list[str]:
    """The ten 2-ary tables that are non-constant and depend on both inputs."""
    out = []
    for code in range(16):
        table = tuple((code >> (3 - s)) & 1 for s in range(4))
        f = BooleanFunction(2, table)
        if not f.is_constant and depends_on(f, 1) and depends_on(f, 2):
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


def random_tables(n: int, count: int, seed: int) -> list[str]:
    """count seeded random n-bit truth tables, as bitstrings."""
    rng = np.random.default_rng(seed)
    return ["".join(str(b) for b in rng.integers(0, 2, 2**n)) for _ in range(count)]


def tables_up_to_three_bits() -> list[str]:
    """Every non-constant truth table with 1 <= n <= 3, as bitstrings."""
    return [format(code, f"0{2**n}b") for n in (1, 2, 3) for code in range(1, 2 ** 2**n - 1)]


@pytest.fixture(scope="session")
def five_bit_gate(solved):
    """The acceptance gate's 20 random 5-bit tables of default_rng(7),
    solved.  All but three have a trivial Aut(f), the common case at n = 5,
    which the corpus (n <= 3) does not reach."""
    tables = random_tables(5, 20, 7)
    assert all(len(set(table)) == 2 for table in tables)  # none is constant
    return [solved(table) for table in tables]


# -- small helpers off the verify path ----------------------------------------


def automorphisms(f: BooleanFunction) -> tuple[np.ndarray, np.ndarray]:
    """Aut(f) element by element, as (images, coordinates): images[g, s] is
    the input s maps to and coordinates[g, j] the 0-based coordinate j
    moves to (element_maps)."""
    perms, shifts, negations = automorphism_cosets(f)
    return element_maps(f.n, (perms[:, None] * 2**f.n + (shifts[:, None] ^ negations)).ravel())


def group_order(f: BooleanFunction) -> int:
    """|Aut(f)|: the SDP of f is solved on its orbits exactly when it is
    above 1."""
    perms, _, negations = automorphism_cosets(f)
    return len(perms) * len(negations)


def column_range(p: SpanProgram, j: int, b: int) -> slice:
    """Columns of index set I_{j,b} of p (j is 1-based)."""
    start = sum(s0 + s1 for s0, s1 in p.block_sizes[: j - 1])
    if b:
        start += p.block_sizes[j - 1][0]
    return slice(start, start + p.block_sizes[j - 1][b])


def pair_sums(prog: CanonicalSpanProgram) -> np.ndarray:
    """sum over the coordinates where w and x disagree of <v_{w,j}|v_{x,j}>,
    for every pair (w, x) of F0 x F1, w-major."""
    f = prog.f
    w, x = np.repeat(f.f0, len(f.f1)), np.tile(f.f1, len(f.f0))
    differ = f.bits[w] != f.bits[x]
    return np.einsum("pj,pjk,pjk->p", differ, prog.vectors[w], prog.vectors[x])


def constant_output_algorithm(n: int, output: int) -> QueryAlgorithm:
    """Zero-query algorithm that always answers `output`."""
    # minimal query register, one workspace state
    return QueryAlgorithm(n=n, query_dim=n, work_dim=1, unitaries=(np.eye(n),), proj1=output * np.eye(n))


def reference_run(a: QueryAlgorithm, f: BooleanFunction) -> tuple[np.ndarray, np.ndarray]:
    """(states, success) of run_query_algorithm, one input at a time: the
    oracle's diagonal from x's bits in a loop, one U psi per step.  The
    oracle of the stacked run."""
    steps, num_inputs = len(a.unitaries), 2**f.n
    states = np.zeros((steps, num_inputs, a.dim), dtype=complex)
    success = np.zeros(num_inputs)
    for x in f.inputs:
        phases = np.ones(a.query_dim)
        for j in range(1, a.n + 1):
            if (x >> (a.n - j)) & 1:
                phases[j - 1] = -1.0
        oracle = np.repeat(phases, a.work_dim)
        psi = a.unitaries[0][:, 0].astype(complex)
        states[0, x] = psi
        for t in range(1, steps):
            psi = a.unitaries[t] @ (oracle * psi)
            states[t, x] = psi
        proj = a.proj1 if f.value(x) else a.proj0
        success[x] = float(np.linalg.norm(proj @ psi) ** 2)
    return states, success


def nullspace_projector(m, zero_tol: float = DEFAULT_ZERO_TOL) -> np.ndarray:
    """Orthogonal projector onto the span of the |eigenvalue| <= tol eigenvectors
    of a Hermitian m, the tolerance relative to max(1, its spectral norm); an
    empty null space yields the zero matrix, the zero matrix the identity."""
    w, v = np.linalg.eigh(m)
    v = v[:, np.abs(w) <= zero_tol * max(1.0, float(np.abs(w).max(initial=0.0)))]
    p = v @ v.conj().T
    return (p + p.conj().T) / 2


def unitary_eigensystem(u, tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """Eigenphases in (-pi, pi] and orthonormal eigenvector columns of a unitary
    matrix, from a complex Schur decomposition, which stays orthonormal inside
    degenerate eigenspaces (plain nonsymmetric eig does not)."""
    a = np.asarray(u, dtype=complex)
    defect = float(np.abs(a.conj().T @ a - np.eye(a.shape[0])).max())
    if defect > tol * max(1.0, a.shape[0]):
        raise CheckError(f"matrix is not unitary (defect {defect:.3e})")
    t, z = scipy.linalg.schur(a, output="complex")
    offdiag = float(np.abs(t - np.diag(np.diag(t))).max())
    if offdiag > 1e-7:
        raise CheckError(f"Schur form of a unitary should be diagonal (offdiag {offdiag:.3e})")
    phases = np.angle(np.diag(t))
    return np.where(phases <= -np.pi + 1e-15, np.pi, phases), z


# -- dense references -------------------------------------------------------


def gram_blocks(sdp: WitnessSdp, class_blocks: np.ndarray) -> np.ndarray:
    """The n Gram blocks X_j of side 2^n, of shape (n, 2^n, 2^n) and zero
    between two classes, from a stack of the representative class blocks
    constant on its orbits (SdpSolution.class_blocks): the layout of the
    solution before the class-block split, which only tests read."""
    whole = sdp.orbits.expand_stack(class_blocks)
    # on every block, the row-sum gathers index X_j[s,t] for every s and t
    return np.append(whole, 0.0)[unreduced(sdp.f).gather["row_sums"]]


def class_blocks_of(sdp: WitnessSdp, gram: np.ndarray) -> np.ndarray:
    """The representative class blocks of sdp, of shape
    WitnessSdp.class_shape and zero on their padding, read off Gram blocks
    of shape (n, 2^n, 2^n); the entries between two classes are dropped."""
    members = sdp.members[sdp.classes]
    inside = members >= 0
    rows = np.where(inside, members, 0)
    blocks = gram[(sdp.classes // 2)[:, None, None], rows[:, :, None], rows[:, None, :]]
    return np.where(inside[:, :, None] & inside[:, None, :], blocks, 0.0)


def dense_constraints(sdp: WitnessSdp) -> np.ndarray:
    """The dense equality rows A of the witness SDP on its flat variable
    [stack | u | xi]; the solver never builds them."""
    p, s, nb = len(sdp.pairs), sdp.num_inputs, sdp.stack_size
    rows = np.zeros((p + s, nb + s + 1))
    rows[sdp.entry_pair, sdp.entry_index] = 0.5
    rows[sdp.entry_pair, sdp.entry_mirror] = 0.5
    rows[p + np.arange(s), sdp.diagonal] = 1.0
    rows[p:, nb:] = np.hstack([np.eye(s), -np.ones((s, 1))])
    return rows


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
    """Pi_s as the dense diagonal of row s of g.pi_masks()."""
    return np.diag(g.pi_masks()[s].astype(float))


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
    pibar = np.diag(1.0 - g.pi_masks()[s, nf0 + 1:].astype(float))
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
    v = coordinate_factors(sol.sdp, round_factor(sol.sdp, sol.class_blocks))
    blocks = np.einsum("sjk,tjk->jst", v, v)
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
    return CanonicalSpanProgram(f=f, witness_size=w_size, vectors=vectors, matrix=matrix,
                                target=np.ones(len(f.f0)) / (3 * np.sqrt(w_size)), orbit=np.arange(num_inputs))


def padding_on_first_coordinate(prog: CanonicalSpanProgram, sol: SdpSolution) -> CanonicalSpanProgram:
    """prog with each deficient input's private dimension on coordinate 0
    alone, the layout canonical_from_gram used before it spread the padding
    evenly over the coordinates: every Sum_j ||v_{s,j}||^2, pair sum and
    entry of AA^T stays, but no group element maps the padding onto itself.
    The private dimensions are the columns past the rank of the Gram factor."""
    f, n, m = prog.f, prog.f.n, prog.m
    rank = gram_factor(gram_blocks(sol.sdp, sol.class_blocks)).shape[2]
    vectors = prog.vectors.copy()
    vectors[:, 0, rank:] = np.sqrt(np.einsum("sjk,sjk->sk", vectors[:, :, rank:], vectors[:, :, rank:]))
    vectors[:, 1:, rank:] = 0.0
    f0 = np.array(f.f0)
    matrix = np.zeros((len(f0), n, 2, m))
    matrix[np.arange(len(f0))[:, None], np.arange(n), 1 - f.bits[f0]] = vectors[f0]
    return dataclasses.replace(prog, vectors=vectors, matrix=matrix.reshape(len(f0), -1))


# -- the per-input span-program evaluation ----------------------------------


def _nullspace_basis(mat: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of null(mat), cut at numpy's max(M, N) eps sigma_1."""
    rows, cols = mat.shape
    if rows == 0:
        return np.eye(cols)
    _, sv, vt = np.linalg.svd(mat, full_matrices=rows < cols)
    tol = max(rows, cols) * np.finfo(float).eps * (sv[0] if len(sv) else 0.0)
    rank = int((sv > tol).sum())
    return vt[rank:].T


def reference_evaluate(p, s: int) -> tuple[bool, np.ndarray, float]:
    """(branch, witness, witness size) of input s, one input at a time: lstsq
    for the positive witness, a null-space basis and a KKT lstsq for the
    negative one.  The oracle of the stacked spanprog.evaluate."""
    mask = literal_masks(p.block_sizes)[s]
    selected = p.matrix[:, mask]
    t = p.target
    tnorm = np.linalg.norm(t)
    if selected.shape[1]:
        z_sel = np.linalg.lstsq(selected, t, rcond=None)[0]
        true_residual = float(np.linalg.norm(selected @ z_sel - t))
    else:
        z_sel, true_residual = np.zeros(0), float(tnorm)
    if true_residual <= WITNESS_RTOL * tnorm:
        witness = np.zeros(p.columns)
        witness[mask] = z_sel
        return True, witness, float(z_sel @ z_sel)
    basis = _nullspace_basis(selected.T)
    t_comp = basis.T @ t
    if np.linalg.norm(t_comp) <= WITNESS_RTOL * tnorm:
        raise CheckError(f"no branch admits a witness on input {s:0{p.n}b}")
    reach = p.matrix.T @ basis
    kkt = np.block([[reach.T @ reach, t_comp[:, None]], [t_comp[None, :], np.zeros((1, 1))]])
    rhs = np.zeros(len(t_comp) + 1)
    rhs[-1] = 1.0
    y = basis @ np.linalg.lstsq(kkt, rhs, rcond=None)[0][: len(t_comp)]
    pulled = y @ p.matrix
    return False, y, float(pulled @ pulled)


# -- the whole Schur complement ------------------------------------------------


def trivial_group(f: BooleanFunction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Aut(f) as automorphism_cosets would give it were it trivial: the
    identity alone, whatever f."""
    return np.zeros(1, dtype=int), np.zeros(1, dtype=int), np.zeros(1, dtype=int)


def unreduced(f: BooleanFunction) -> WitnessSdp:
    """The SDP of f as solved on all of M and every class block, whatever
    its group: automorphism_cosets patched to report a trivial group, so f
    is solved at order 1 and every map of its orbit coordinates is the
    identity."""
    saved = advsdp.automorphism_cosets
    advsdp.automorphism_cosets = trivial_group
    try:
        return build_witness_sdp(f)
    finally:
        advsdp.automorphism_cosets = saved


def full_schur_complement(sdp: WitnessSdp, x: np.ndarray, z_inv: np.ndarray, lp_ratio: np.ndarray) -> np.ndarray:
    """The whole HKM Schur complement M[i,k] = tr(A_i X A_k Z^-1) + sum_l a_il a_kl x_l / z_l,
    every row of it, as the solver built it before it worked on the orbits of
    Aut(f): the oracle of advsdp.schur_complement.

    x and z_inv are stacks of the 2n class blocks and lp_ratio is x / z on
    (u, xi).  The pairs run over r x o, u-major, r the smaller of F0 and F1
    (WitnessSdp.pairs).  Pair rows (w,x) and (w',x') meet in class block (j,c) when all
    four inputs lie in C_{j,c}, where their entry is
    X[w,w'] Z^-1[x,x'] + Z^-1[w,w'] X[x,x'] + Z^-1[w,x'] X[x,w'] + X[w,x'] Z^-1[x,w']
    over 4, summed over the blocks.  Gathered from the stack with zeros off
    the class (WitnessSdp.gather), each term is a sum over the 4n (block, X
    or Z^-1) of an F0-side matrix times an F1-side one, so the first two are
    one GEMM over 4n products and the last two another.  Both run one slice
    of r at a time, each slice landing in M's pair block, so
    no temporary of M's size is made.  A pair-row entry is
    sum_j (Z^-1[w,s] X[x,s] + X[w,s] Z^-1[x,s]) / 2 over the coordinates j
    where s shares the class of w and x, a matmul over 2n products per s,
    and the row-row block is sum_j X_j o Z_j^-1 plus the (u, xi) part.  The
    gathers are those of f's SDP on every block (unreduced).
    """
    g, num_inputs = unreduced(sdp.f).gather, sdp.num_inputs
    nr, no = g["row_r"].shape[2], g["row_o"].shape[2]  # |r|, |o|
    p, k = nr * no, 4 * sdp.n
    src = np.zeros((2, sdp.stack_size + 1))  # [X | 0 | Z^-1 | 0]
    src[0, :-1] = x.ravel()
    src[1, :-1] = z_inv.ravel()
    flat = src.ravel()

    m = np.empty((p + num_inputs, p + num_inputs))
    # slice u of r holds (v, u', v') over the other side o
    pair_block = m[:p, :p].reshape(nr, no, nr, no)
    same_r = np.take(flat, g["same_r"])
    same_r *= 0.25
    across = np.take(flat, g["across"])
    across *= 0.25
    same_o = np.take(flat, g["same_o"]).reshape(k, no * no)
    back = np.take(flat, g["back"]).reshape(k, no * nr).T
    for u in range(nr):
        np.add((same_r[:, u].T @ same_o).reshape(nr, no, no).transpose(1, 0, 2),
               (back @ across[:, u]).reshape(no, nr, no), out=pair_block[u])
    ws = np.take(flat, g["row_r"])
    ws *= 0.5
    pair_row = np.matmul(ws.transpose(0, 2, 1), np.take(flat, g["row_o"])).reshape(num_inputs, p)
    m[p:, :p] = pair_row
    m[:p, p:] = pair_row.T
    row_block = m[p:, p:]
    np.take(src[0] * src[1], g["row_sums"]).sum(axis=0, out=row_block)
    row_block += lp_ratio[-1]
    row_block[np.diag_indices(num_inputs)] += lp_ratio[:-1]
    return m


def reference_pair_normal(sdp: WitnessSdp, gram: np.ndarray) -> np.ndarray:
    """J J^T of the pair constraints at Gram blocks gram = V V^T, of shape
    (n, 2^n, 2^n), assembled densely from the (u, v, j) mask of the pairs'
    differing coordinates: with pairs u-major over r x o (WitnessSdp.pairs),
    J J^T = sum_j D_j (I_r (x) G_j[o,o] + G_j[r,r] (x) I_o) D_j, and then
    E^T J J^T E on the pair orbits, E the pair columns of Orbits.expand (the
    identity when the group is trivial).  The oracle of round_factor's
    normal matrix."""
    f, orbits, num_pairs = sdp.f, sdp.orbits, len(sdp.pairs)
    r, o = sorted((np.array(f.f0), np.array(f.f1)), key=len)  # F0 on a tie
    differ = (f.bits[r][:, None, :] != f.bits[o][None, :, :]).astype(float)  # (u, v, j)
    jjt = np.zeros((len(r), len(o), len(r), len(o)))
    jjt[np.arange(len(r)), :, np.arange(len(r)), :] += np.einsum(
        "wxj,wyj,jxy->wxy", differ, differ, gram[:, o[:, None], o])
    jjt[:, np.arange(len(o)), :, np.arange(len(o))] += np.einsum(
        "wxj,vxj,jwv->xwv", differ, differ, gram[:, r[:, None], r])
    jjt = jjt.reshape(num_pairs, num_pairs)
    expand = orbits.expand[:num_pairs, : orbits.row[:num_pairs].max() + 1]
    return expand.T @ jjt @ expand


# -- the interior-point loop on the n full Gram blocks ------------------------


def reference_solve_sdp(f, tol: float = DEFAULT_TOL, max_iterations: int = MAX_ITERATIONS) -> SdpSolution:
    """The HKM predictor-corrector of solve_sdp on the n Gram blocks X_j of
    side 2^n, with the Schur complement summed over the whole split
    [w_j != x_j] = sum_c [w_j = c][x_j = 1 - c], all 8n products per entry
    (c = c' and c != c').  The same start, steps and stopping rule; only the
    cone's layout differs.  Returns the SdpSolution with the class blocks
    read off the final Gram blocks (class_blocks_of), xi, alpha (keyed like
    WitnessSdp.pairs), beta and the residuals iterations, history,
    duality_gap and gram_blocks, the final Gram blocks themselves."""
    n, s = f.n, 2**f.n
    sdp = build_witness_sdp(f)
    num_pairs = len(sdp.pairs)
    bits, f0, f1 = f.bits, np.array(f.f0), np.array(f.f1)
    pair, jj = np.nonzero((bits[f0][:, None, :] != bits[f1][None, :, :]).reshape(num_pairs, n))
    w, x_ = f0[pair // len(f1)], f1[pair % len(f1)]
    index, mirror = (jj * s + w) * s + x_, (jj * s + x_) * s + w
    diagonal = np.arange(n)[:, None] * s * s + np.arange(s) * (s + 1)
    nb, shape, order = n * s * s, (n, s, s), n * s + s + 1
    sides = (f0, f1)
    c = np.arange(2)[None, :, None]
    h = (0.5 * (bits.T[:, None, f0] == c), (bits.T[:, None, f1] == 1 - c).astype(float))
    hh = {(r, q): np.ascontiguousarray(h[r][:, :, None, :, None] * h[q][:, None, :, None, :])
          for r in range(2) for q in range(2)}

    def apply(v):
        pairs = 0.5 * np.bincount(pair, weights=v[index] + v[mirror], minlength=num_pairs)
        return np.concatenate([pairs, v[diagonal].sum(axis=0) + v[nb:-1] - v[-1]])

    def adjoint(y):
        v = np.zeros(nb + s + 1)
        v[index] = v[mirror] = 0.5 * y[:num_pairs][pair]
        v[diagonal] = v[nb:-1] = y[num_pairs:]
        v[-1] = -y[num_pairs:].sum()
        return v

    def schur(xb, z_inv, lp_ratio):
        """GEMMs over all k = 8n products, one slice of the smaller side at a time."""
        a, b, p, k = len(f0), len(f1), len(f0) * len(f1), 8 * n
        xz = np.stack([xb, z_inv])
        zx = xz[::-1]

        def split(y, r, q):
            block = np.take(np.take(y, sides[r], axis=2), sides[q], axis=3)
            return (block[:, :, None, None] * hh[r, q]).reshape(k, len(sides[r]), len(sides[q]))

        m = np.empty((p + s, p + s))
        r, o = (0, 1) if a <= b else (1, 0)
        pair_block = m[:p, :p].reshape(a, b, a, b)
        pair_block = pair_block if r == 0 else pair_block.transpose(1, 0, 3, 2)
        nr, no = len(sides[r]), len(sides[o])
        same_r, same_o = split(xz, r, r), split(zx, o, o).reshape(k, no * no)
        across, back = split(zx, r, o), split(xz, o, r).reshape(k, no * nr).T
        for u in range(nr):
            np.add((same_r[:, u].T @ same_o).reshape(nr, no, no).transpose(1, 0, 2),
                   (back @ across[:, u]).reshape(no, nr, no), out=pair_block[u])
        ws = (xz[:, :, :, f0][:, :, None] * h[0][:, :, None, :]).reshape(4 * n, s, a)
        xs = (zx[:, :, :, f1][:, :, None] * h[1][:, :, None, :]).reshape(4 * n, s, b)
        pair_row = np.matmul(ws.transpose(1, 2, 0), xs.transpose(1, 0, 2)).reshape(s, p)
        m[p:, :p] = pair_row
        m[:p, p:] = pair_row.T
        row_block = m[p:, p:]
        np.einsum("jst,jst->st", xb, z_inv, out=row_block)
        row_block += lp_ratio[-1]
        row_block[np.diag_indices(s)] += lp_ratio[:-1]
        return m

    def max_step(l_inv, dx, dz):
        low = np.linalg.eigvalsh(l_inv @ np.concatenate([dx[:nb], dz[:nb]]).reshape(2 * n, s, s)
                                 @ l_inv.transpose(0, 2, 1)).min(axis=1)
        steps = []
        for lam, v, d in ((low[:n].min(), x, dx), (low[n:].min(), z, dz)):
            shrink = d[nb:] < 0
            steps.append(min(np.inf if lam >= 0 else -1.0 / lam, (v[nb:][shrink] / -d[nb:][shrink]).min(initial=np.inf)))
        return steps

    b_vec = np.concatenate([np.ones(num_pairs), np.zeros(s)])
    cost = np.zeros(nb + s + 1)
    cost[-1] = 1.0
    x, z, y = np.zeros_like(cost), np.zeros_like(cost), np.zeros(num_pairs + s)
    x[diagonal], x[nb:], x[-1] = 1.0, 1.0, n + 1.0
    z[diagonal], z[nb:] = 1.0, 1.0
    history = []
    while True:
        rp, rd = b_vec - apply(x), cost - adjoint(y) - z
        xi, complementarity = float(x[-1]), float(x @ z)
        gap = xi - float(y[:num_pairs].sum())
        residual = max(np.abs(rp).max(), np.abs(rd).max(), abs(gap), complementarity)
        if residual <= tol * max(1.0, abs(xi)) or len(history) == max_iterations:
            break
        xb, zb = x[:nb].reshape(shape), z[:nb].reshape(shape)
        try:
            l_inv = _inverse_factors(np.concatenate([xb, zb]))
        except np.linalg.LinAlgError:
            break
        mu = complementarity / order
        z_inv = l_inv[n:].transpose(0, 2, 1) @ l_inv[n:]
        lp_x, lp_z = x[nb:], z[nb:]
        solve = _solver(schur(xb, z_inv, lp_x / lp_z))
        x_rd_zinv = (xb @ rd[:nb].reshape(shape) @ z_inv).ravel()
        lp_rd = lp_x * rd[nb:] / lp_z

        def direction(rc_zinv, rc_lp):
            dy = solve(rp + apply(np.concatenate([x_rd_zinv - rc_zinv.ravel(), lp_rd - rc_lp])))
            dz = rd - adjoint(dy)
            dxb = rc_zinv - xb @ dz[:nb].reshape(shape) @ z_inv
            dxb = 0.5 * (dxb + dxb.transpose(0, 2, 1))
            return np.concatenate([dxb.ravel(), rc_lp - lp_x * dz[nb:] / lp_z]), dy, dz

        dx, dy, dz = direction(-xb, -lp_x)
        step_p, step_d = (min(1.0, step) for step in max_step(l_inv, dx, dz))
        sigma = min(1.0, ((x + step_p * dx) @ (z + step_d * dz) / order / mu) ** 3)
        dx, dy, dz = direction(sigma * mu * z_inv - xb - dx[:nb].reshape(shape) @ dz[:nb].reshape(shape) @ z_inv,
                               (sigma * mu - dx[nb:] * dz[nb:]) / lp_z - lp_x)
        fraction = 0.9 + 0.09 * min(step_p, step_d)
        step_p, step_d = (min(1.0, fraction * step) for step in max_step(l_inv, dx, dz))
        x, y, z = x + step_p * dx, y + step_d * dy, z + step_d * dz
        history.append({"mu": mu, "step_primal": step_p, "step_dual": step_d})
    gram = x[:nb].reshape(shape)
    residuals = {"iterations": len(history), "history": history, "duality_gap": abs(gap), "gram_blocks": gram}
    if residual > tol * max(1.0, abs(xi)):
        raise NoConvergenceError(f"reference loop: no convergence after {len(history)} iterations", residuals)
    w, x_ = np.array(sdp.pairs).T  # this loop's pairs are w-major over F0 x F1
    alpha = y[:num_pairs][np.searchsorted(f0, w) * len(f1) + np.searchsorted(f1, x_)]
    return SdpSolution(sdp=sdp, class_blocks=class_blocks_of(sdp, gram), xi=xi, alpha=alpha,
                       beta=-y[num_pairs:], residuals=residuals)


# -- the dict-based minimal-formula search --------------------------------------


def _table_code(table: tuple[int, ...]) -> int:
    code = 0
    for s, v in enumerate(table):
        code |= v << s
    return code


@functools.lru_cache(maxsize=8)
def reference_formula_dp(n: int, max_leaves: int):
    """Tables reachable with at most max_leaves leaves, plus witness parents,
    the oracle of boolfun._formula_dp.

    Returns (best, parent): best maps table-code -> minimal leaf count,
    parent maps table-code -> ("LIT", var, negated) or (op, code1, code2).
    Bottom-up over exact minimal counts; correctness follows from
    L(g op h) decompositions using minimal subformulas only.
    """
    full = (1 << (2**n)) - 1
    best: dict[int, int] = {}
    parent: dict[int, tuple] = {}
    levels: list[list[int]] = [[]]  # levels[k] = codes first reached at k leaves

    first = []
    for var in range(1, n + 1):
        for negated in (False, True):
            code = _table_code(
                tuple(
                    (1 - ((s >> (n - var)) & 1)) if negated else ((s >> (n - var)) & 1)
                    for s in range(2**n)
                )
            )
            if code not in best:
                best[code] = 1
                parent[code] = ("LIT", var, negated)
                first.append(code)
    levels.append(first)

    for k in range(2, max_leaves + 1):
        fresh: list[int] = []
        for i in range(1, k // 2 + 1):
            a = np.array(levels[i], dtype=np.uint32)
            b = np.array(levels[k - i], dtype=np.uint32)
            if len(a) == 0 or len(b) == 0:
                continue
            # chunk the outer products to bound memory on n = 4
            step = max(1, (1 << 22) // max(1, len(b)))
            for lo in range(0, len(a), step):
                blk = a[lo : lo + step]
                for op, prod in (
                    ("AND", blk[:, None] & b[None, :]),
                    ("OR", blk[:, None] | b[None, :]),
                ):
                    codes, idx = np.unique(prod, return_index=True)
                    for code, flat in zip(codes.tolist(), idx.tolist()):
                        if code not in best:
                            best[code] = k
                            parent[code] = (op, int(blk[flat // len(b)]), int(b[flat % len(b)]))
                            fresh.append(code)
        levels.append(fresh)
        if len(best) == full + 1:
            break
    return best, parent


def reference_formula_size(f: BooleanFunction, max_leaves: int) -> int | None:
    return reference_formula_dp(f.n, max_leaves)[0].get(_table_code(f.table))


def reference_minimal_formula(f: BooleanFunction, max_leaves: int) -> Formula | None:
    best, parent = reference_formula_dp(f.n, max_leaves)
    code = _table_code(f.table)
    if code not in best:
        return None

    def rebuild(c: int) -> Formula:
        node = parent[c]
        if node[0] == "LIT":
            return Formula.literal(node[1], negated=node[2])
        return Formula.gate(node[0], rebuild(node[1]), rebuild(node[2]))

    return rebuild(code)
