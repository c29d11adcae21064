"""Bipartite graphs of a canonical span program, the two-reflection walk,
the anchor's spectral measure under it, and the spectral-gap profiles.

Index layouts (fixed throughout):
  program graph space:  F0 | mu0 | I      with |I| = 2 n m
  input graph space:    F0 | I' | mu0 | I with I' a copy of I
The vector |0> is the mu0 indicator in whichever space applies.

Nothing here builds a matrix of the program graph's dimension.  The
adjacency A_G = [[0, B_G], [B_G^T, 0]] has kernel projector Delta with
I - Delta = U_r U_r^T (+) V_r V_r^T from one thin SVD of B_G, so
U_s = (2 Pi_s - I)(2 Delta - I) is I - 2 U_r U_r^T on F0, where |0> has no
weight, and 2 Pi_s - I outside T = span(Pi_s V_r) (+) span((I - Pi_s) V_r),
a subspace of mu0 | I of dimension at most 2r.  On T, the spectral lemma
for two reflections (Szegedy, FOCS 2004) gives U_s in closed form: the
singular values c_k of V_r's kept rows are the cosines of the principal
angles between range(I - Delta) and range(Pi_s), and U_s turns the k-th
2-d block by +-2 arcsin(c_k).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .boolfun import BooleanFunction
from .errors import BadSpecError, CheckError
from .matkernel import DEFAULT_ZERO_TOL, require_hermitian
from .spanprog import CanonicalSpanProgram, literal_masks

# A singular value of B_G within this factor of the rank cut, on either side,
# makes the numerical rank ambiguous; verify then resolves every rank it could be.
RANK_WINDOW = 100.0
# Moments <0|U_s^t|0> are compared for t = 1..MOMENTS.
MOMENTS = 16


@dataclass(frozen=True)
class ProgramGraph:
    """Input-independent graph of the program: B_G = [t A], its singular
    values sigma (descending) and right singular vectors v, down to
    RANK_WINDOW below the numerical-rank cut.  The first `rank` of them
    resolve Delta, the projector onto the adjacency's kernel:
    I - Delta = U_r U_r^T on F0 (+) V_r V_r^T on mu0 | I, with
    U_r = B_G V_r diag(sigma)^-1.  near_ranks are the other ranks a cut
    within RANK_WINDOW of this one would pick.  f is the program's
    function; B_G has one row per false input and the columns mu0 | I."""

    f: BooleanFunction
    b_g: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    rank: int
    near_ranks: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.f.n

    @property
    def num_false(self) -> int:
        return self.b_g.shape[0]

    @property
    def m(self) -> int:
        """The width of each of the 2n column blocks of I."""
        return (self.b_g.shape[1] - 1) // (2 * self.n)

    @property
    def dim(self) -> int:
        """|F0| + 1 + 2 n m, B_G's rows and columns."""
        return sum(self.b_g.shape)

    @property
    def v_r(self) -> np.ndarray:
        return self.v[:, : self.rank]

    def pi_masks(self, inputs=slice(None)) -> np.ndarray:
        """(len(inputs), dim), every input by default: row i marks the
        coordinates of F0 | mu0 | I that Pi_s keeps for s = inputs[i], all
        but the (j, not s_j, k) entries."""
        kept = literal_masks(((self.m, self.m),) * self.n)[inputs]
        return np.hstack([np.ones((len(kept), self.num_false + 1), dtype=bool), kept])

    def edges(self) -> list[tuple[int, int, float]]:
        """The adjacency's nonzero entries in row-major order, read off B_G."""
        nf0 = self.num_false
        return ([(r, nf0 + c, w) for r, c, w in edge_list(self.b_g)]
                + [(nf0 + c, r, w) for c, r, w in edge_list(self.b_g.T)])


def build_program_graph(p: CanonicalSpanProgram) -> ProgramGraph:
    """B_G and its thin SVD, cut where the kernel projector of the adjacency
    (eigenvalues +-sigma and 0) cuts: sigma > DEFAULT_ZERO_TOL * max(1, sigma_max)."""
    b_g = np.hstack([p.target[:, None], p.matrix])
    _, sigma, vh = np.linalg.svd(b_g, full_matrices=False)
    cut = DEFAULT_ZERO_TOL * max(1.0, float(sigma.max(initial=0.0)))
    rank, low, high = (int((sigma > bound).sum()) for bound in (cut, cut * RANK_WINDOW, cut / RANK_WINDOW))
    return ProgramGraph(f=p.f, b_g=b_g, sigma=sigma[:high], v=vh[:high].T, rank=rank,
                        near_ranks=tuple(k for k in range(low, high + 1) if k != rank))


@dataclass(frozen=True)
class InputGraph:
    """A stack of inputs, each written in its own T coordinates: orthonormal
    directions of mu0 | I, first the left singular vectors of V_r's kept
    rows, which span Pi_s V_r and possibly more, then those of its dropped
    rows, which span (I - Pi_s) V_r and possibly more.  Every input keeps
    1 + n m rows and drops n m, so all of them share one shape.

    Row i describes input inputs[i]: w[i] is V_r in its T coordinates,
    cosines[i] the kept rows' singular values (one per kept coordinate) and
    anchor[i] is |0> projected onto T.  keep marks the T coordinates Pi_s
    keeps (the same for every input), and sigma is B_G's, to the same rank.
    """

    inputs: np.ndarray
    value: np.ndarray
    w: np.ndarray
    keep: np.ndarray
    cosines: np.ndarray
    anchor: np.ndarray
    sigma: np.ndarray

    @property
    def outside_weight(self) -> np.ndarray:
        """Weight of |0> outside T, per input; it lies in range(Pi_s) and in
        the kernels of B_G and of I - Delta."""
        return np.maximum(0.0, 1.0 - np.einsum("ik,ik->i", self.anchor, self.anchor))

    def select(self, rows) -> "InputGraph":
        """The sub-stack of the given rows."""
        return replace(self, inputs=self.inputs[rows], value=self.value[rows], w=self.w[rows],
                                   cosines=self.cosines[rows], anchor=self.anchor[rows])

    def biadjacency(self) -> np.ndarray:
        """The true-input biadjacencies B_{G(s)} = [B_G ; 0 | Pi-bar] on T, up to
        an isometry on the left: [diag(sigma) W^T ; I on the dropped
        coordinates], stacked.  Outside T, B_{G(s)} is zero on range(Pi_s)
        and an isometry on its kernel."""
        dropped = np.eye(len(self.keep))[~self.keep]
        top = self.sigma[:, None] * self.w.transpose(0, 2, 1)
        return np.concatenate([top, np.broadcast_to(dropped, (len(top), *dropped.shape))], axis=1)


def build_input_graph(g: ProgramGraph, rank: int | None = None, inputs: np.ndarray | None = None) -> InputGraph:
    """The T basis of each of the inputs (every input by default) from two
    stacked thin SVDs, of V_r's kept rows (inputs, 1 + n m, r) and of its
    dropped rows (inputs, n m, r); any orthonormal columns do, since T need
    only contain both row blocks' ranges to be invariant under Pi_s and
    Delta.  rank, g.rank by default, is how many of g's singular vectors
    make up V_r."""
    rank = g.rank if rank is None else rank
    inputs = np.arange(len(g.f.table)) if inputs is None else np.asarray(inputs)
    v_r = g.v[:, :rank]
    kept = g.pi_masks(inputs)[:, g.num_false:]  # on mu0 | I
    num_inputs = len(kept)
    rows_kept = np.nonzero(kept)[1].reshape(num_inputs, -1)
    rows_dropped = np.nonzero(~kept)[1].reshape(num_inputs, -1)
    blocks = v_r[rows_kept], v_r[rows_dropped]
    (u_kept, cosines, _), (u_dropped, _, _) = (np.linalg.svd(block, full_matrices=False) for block in blocks)
    w = np.concatenate([u_kept.transpose(0, 2, 1) @ blocks[0], u_dropped.transpose(0, 2, 1) @ blocks[1]], axis=1)
    keep = np.arange(w.shape[1]) < cosines.shape[1]
    anchor = np.zeros(w.shape[:2])
    anchor[:, keep] = u_kept[:, 0]  # mu0 is the first kept row
    return InputGraph(inputs=inputs, value=np.array(g.f.table)[inputs], w=w, keep=keep, cosines=cosines,
                      anchor=anchor, sigma=g.sigma[:rank])


def zero_witness_vectors(p: CanonicalSpanProgram) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray, np.ndarray]:
    """Kernel witnesses of the input graphs of every input, with their exact
    overlap guarantees.

    For f(s) = 1 the witness is psi = -3 sqrt(W) |0> + sum_j |j, s_j> v_{s,j}
    in the mu0 | I column space, a kernel vector of B_{G(s)} with
    |<0|psi>|^2 / ||psi||^2 = 9/10.  For f(s) = 0 it is
    psi' = -|s> + sum_j |j, not s_j> v_{s,j} in the F0 | I' row space, a
    kernel vector of B_{G'(s)}* with |<t|psi'>|^2 / ||psi'||^2 = 1/(9W(W+1)).
    Returns (psi, overlap ratios, kernel residuals): psi[v] stacks the
    witnesses of the inputs with f(s) = v (f.f0 or f.f1, in that order), the
    ratios and residuals are indexed by input.  Raises CheckError,
    naming the first offending input, when a residual or ratio betrays an
    inaccurate upstream SDP solution.
    """
    f, n, m = p.f, p.f.n, p.m
    w_size = p.witness_size
    values = np.array(f.table)
    f0 = np.array(f.f0)
    # each v_{s,j} on block (j, s_j) for a true input, (j, not s_j) for a false one
    blocks = np.zeros((len(values), n, 2, m))
    literal = np.where(values[:, None] == 1, f.bits, 1 - f.bits)
    blocks[np.arange(len(values))[:, None], np.arange(n), literal] = p.vectors
    blocks = blocks.reshape(len(values), -1)
    true_blocks, false_blocks = blocks[values == 1], blocks[f0]
    ratio, residual = np.zeros(len(values)), np.zeros(len(values))

    psi_true = np.hstack([np.full((len(true_blocks), 1), -3.0 * np.sqrt(w_size)), true_blocks])
    # B_{G(s)} psi = (t psi_0 + A psi_I, Pi-bar psi_I); the second part
    # vanishes because psi_I lives on the columns Pi(s) keeps
    residual[values == 1] = np.linalg.norm(psi_true[:, :1] * p.target + true_blocks @ p.matrix.T, axis=1)
    ratio[values == 1] = psi_true[:, 0] ** 2 / np.einsum("ik,ik->i", psi_true, psi_true)
    # false input number i is the i-th row of F0
    psi_false = np.hstack([-np.eye(len(f0)), false_blocks])
    # B_{G'(s)}^T psi = A^T psi_F0 + Pi-bar psi_I', and Pi-bar psi_I' = psi_I'
    residual[f0] = np.linalg.norm(false_blocks - p.matrix, axis=1)
    ratio[f0] = p.target**2 / np.einsum("ik,ik->i", psi_false, psi_false)

    floor = np.where(values == 1, 0.9, 1.0 / (9.0 * w_size * (w_size + 1.0)))
    bad = np.flatnonzero((residual > 1e-6) | (ratio < floor - 1e-9))
    if len(bad):
        s = int(bad[0])
        raise CheckError(
            f"{'true' if values[s] else 'false'} witness for input {s:0{n}b}: residual {residual[s]:.3e}, "
            f"ratio {ratio[s]:.12g} vs floor {floor[s]:.12g}"
        )
    return (psi_false, psi_true), ratio, residual


def anchor_measure(ig: InputGraph) -> tuple[np.ndarray, np.ndarray]:
    """Spectral measure of |0> under U_s, (phases, weights), in closed form,
    one row per input of the stack.

    Kept coordinate k of T lies at the principal angle arccos(c_k) to
    range(I - Delta); with its projection there it spans a block on which
    U_s turns by +-2 arcsin(c_k) (a line U_s fixes when c_k = 0, one it
    negates when c_k = 1), and |0>'s component along it, anchor[k], splits
    evenly between the block's two eigenvectors.  The weight of |0> outside
    T goes at phase 0, where U_s = 2 Pi_s - I fixes it.  The min guards
    cosines a rounding above 1.
    """
    theta = 2.0 * np.arcsin(np.minimum(ig.cosines, 1.0))
    half = ig.anchor[:, ig.keep] ** 2 / 2.0
    outside = ig.outside_weight[:, None]
    return np.hstack([theta, -theta, np.zeros_like(outside)]), np.hstack([half, half, outside])


def moments(phases: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """<0|U^t|0> = sum_k weights_k e^{i t phases_k} for t = 1..MOMENTS, over
    the last axis: (..., K) stacks give (..., MOMENTS)."""
    powers = np.arange(1, MOMENTS + 1)[:, None]
    return np.einsum("...tk,...k->...t", np.exp(1j * powers * phases[..., None, :]), weights)


def walk_moments(g: ProgramGraph, inputs=slice(None)) -> np.ndarray:
    """<0|U_s^t|0> for t = 1..MOMENTS and each of the inputs s (every input
    by default), (inputs, MOMENTS), by applying U_s to |0> on mu0 | I,
    x -> (2 Pi_s - I)(x - 2 V_r V_r^T x), to all of them at once as the
    columns of one block: no basis of T and no SVD, so it checks
    anchor_measure independently."""
    sign = np.where(g.pi_masks(inputs)[:, g.num_false:].T, 1.0, -1.0)  # (mu0 | I, inputs)
    v_r = g.v_r
    x = np.zeros(sign.shape)
    x[0] = 1.0
    out = np.zeros((sign.shape[1], MOMENTS))
    for t in range(MOMENTS):
        x = sign * (x - 2.0 * (v_r @ (v_r.T @ x)))
        out[:, t] = x[0]
    return out


def rank_spread(g: ProgramGraph, base: np.ndarray, ranks, inputs: np.ndarray | None = None) -> np.ndarray:
    """Largest difference, per input (of inputs, every input by default), of
    the anchor's moments between base, those of some cut of V_r (one row per
    input), and V_r cut to each of ranks."""
    others = (moments(*anchor_measure(build_input_graph(g, rank, inputs))) for rank in ranks)
    return np.max([np.abs(other - base).max(axis=1) for other in others], axis=0)


def effective_gap_profile(ig: InputGraph, w_size: float, c_grid) -> tuple[np.ndarray, np.ndarray]:
    """Low-eigenvalue overlap of |0> with A_{G(s)} versus 72 c^2 (1 + 1/W),
    for a stack of false inputs.

    A_{G(s)} is bipartite with biadjacency B = B_{G(s)}, so its eigenvalues
    are +-sigma_k over the singular values of B, and |0> is column mu0 of B:
    the eigenvectors at +-sigma_k together carry |<v_k|0>|^2 of it.  On T
    that is B's restriction ig.biadjacency(), which has at least as many
    rows as columns, so its thin SVD holds every right singular vector; the
    weight of |0> outside T sits at sigma = 0.  One stacked SVD serves the
    whole stack.  Returns (lhs, rhs): lhs[i, c] for input i and grid entry
    c, rhs[c].  Only defined on false inputs.
    """
    if ig.value.any():
        true_input = int(ig.inputs[ig.value.argmax()])
        raise CheckError(f"input {true_input:b} evaluates true; the profile needs f(s) = 0")
    c_grid = np.asarray(c_grid, dtype=float)
    _, sigma, vh = np.linalg.svd(ig.biadjacency(), full_matrices=False)
    sigma = np.hstack([sigma, np.zeros((len(sigma), 1))])
    overlaps = np.hstack([np.einsum("ikl,il->ik", vh, ig.anchor) ** 2, ig.outside_weight[:, None]])
    low = sigma[:, None, :] <= c_grid[None, :, None] / w_size
    lhs = np.einsum("ick,ik->ic", low.astype(float), overlaps)
    return lhs, 72.0 * c_grid * c_grid * (1.0 + 1.0 / w_size)


def phase_gap_profile(phases: np.ndarray, overlaps: np.ndarray, w_size: float, theta_grid,
                      input_value: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Low-phase overlap of the anchor with U_s versus (2 sqrt(6 Theta W) + Theta/2)^2.

    phases/overlaps resolve the mu0 anchor over the eigenvectors of U_s, one
    row per input, and input_value holds those inputs' f(s).  Returns
    (lhs, rhs): lhs[i, theta] for input i and grid entry theta, rhs[theta].
    Only defined on false inputs, and for finite Theta >= 0.
    """
    if np.any(input_value):
        raise CheckError("phase profile needs f(s) = 0")
    theta_grid = np.asarray(theta_grid, dtype=float)
    if not (np.isfinite(theta_grid).all() and (theta_grid >= 0).all()):
        raise BadSpecError(f"Theta must be finite and nonnegative, got {theta_grid.tolist()}")
    low = np.abs(phases)[:, None, :] <= theta_grid[None, :, None]
    lhs = np.einsum("itk,ik->it", low.astype(float), overlaps)
    return lhs, (2.0 * np.sqrt(6.0 * theta_grid * w_size) + theta_grid / 2.0) ** 2


def psd_spectral_bound_check(x, t: np.ndarray, gamma_grid) -> list[tuple[float, float, float]]:
    """Check sum over small positive eigenvalues of X' = X + |t><t| of
    |<t|beta>|^2 / theta(beta) against 4 gamma / delta.

    delta is the best kernel overlap ||P_null(X) t||^2; if the null space
    of X carries none of t the bound is undefined and CheckError
    is raised.  Eigenvalues at numerical zero are excluded from the sum
    (they provably carry no t component).  Only eigenvalues and |<t|beta>|^2
    are read, which no eigenvector phase changes.  Returns (gamma, lhs, rhs)
    triples.
    """
    xm = require_hermitian(x)
    w, v = np.linalg.eigh(xm)
    kernel = np.abs(w) <= DEFAULT_ZERO_TOL * max(1.0, float(np.abs(w).max(initial=0.0)))
    delta = float(np.linalg.norm(v[:, kernel].conj().T @ t) ** 2)
    if delta <= DEFAULT_ZERO_TOL * max(1.0, float(t @ t)):
        raise CheckError("null space of X is orthogonal to t; delta is undefined")
    w, v = np.linalg.eigh(xm + np.outer(t, t.conj()))
    scale = max(1.0, float(np.abs(w).max()))
    overlaps = np.abs(v.conj().T @ t) ** 2
    out = []
    for gamma in gamma_grid:
        sel = (w > DEFAULT_ZERO_TOL * scale) & (w <= gamma)
        lhs = float((overlaps[sel] / w[sel]).sum())
        rhs = 4.0 * gamma / delta
        out.append((float(gamma), lhs, rhs))
    return out


def edge_list(matrix: np.ndarray) -> list[tuple[int, int, float]]:
    """Nonzero entries as (row, col, weight) rows for external visualization."""
    mat = np.asarray(matrix)
    rows, cols = np.nonzero(mat)
    return list(zip(rows.tolist(), cols.tolist(), mat[rows, cols].astype(float).tolist()))
