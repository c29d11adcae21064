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

from dataclasses import dataclass

import numpy as np

from .errors import NoNullWitnessError, WitnessViolationError, WrongBranchError
from .matkernel import DEFAULT_ZERO_TOL, eig_hermitian, nullspace_projector, require_hermitian
from .spanprog import CanonicalSpanProgram

# A singular value of B_G within this factor of the rank cut, on either side,
# makes the numerical rank ambiguous; verify then resolves every rank it could be.
RANK_WINDOW = 100.0
# Moments <0|U_s^t|0> are compared for t = 1..MOMENTS.
MOMENTS = 16


def column_mask(n: int, m: int, s: int) -> np.ndarray:
    """Mask over I = blocks (j, b) of m columns each: True on the columns
    agreeing with s (b = s_j), which Pi(s) keeps."""
    bits = (s >> (n - 1 - np.arange(n))) & 1
    return np.repeat(bits[:, None] == np.arange(2), m, axis=1).ravel()


@dataclass(frozen=True)
class ProgramGraph:
    """Input-independent graph of the program: B_G = [t A], its singular
    values sigma (descending) and right singular vectors v, down to
    RANK_WINDOW below the numerical-rank cut.  The first `rank` of them
    resolve Delta, the projector onto the adjacency's kernel:
    I - Delta = U_r U_r^T on F0 (+) V_r V_r^T on mu0 | I, with
    U_r = B_G V_r diag(sigma)^-1.  near_ranks are the other ranks a cut
    within RANK_WINDOW of this one would pick."""

    n: int
    m: int
    num_false: int
    b_g: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    rank: int
    near_ranks: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.num_false + 1 + 2 * self.n * self.m

    @property
    def v_r(self) -> np.ndarray:
        return self.v[:, : self.rank]

    def pi_mask(self, s: int) -> np.ndarray:
        """Coordinates of F0 | mu0 | I that Pi_s keeps: all but the (j, not s_j, k) entries."""
        return np.concatenate([np.ones(self.num_false + 1, dtype=bool), column_mask(self.n, self.m, s)])

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
    return ProgramGraph(n=p.f.n, m=p.m, num_false=len(p.f.f0), b_g=b_g, sigma=sigma[:high], v=vh[:high].T,
                        rank=rank, near_ranks=tuple(k for k in range(low, high + 1) if k != rank))


@dataclass(frozen=True)
class InputGraph:
    """One input s, written in T coordinates: orthonormal directions of
    mu0 | I, first the left singular vectors of V_r's kept rows, which span
    Pi_s V_r and possibly more, then those of its dropped rows, which span
    (I - Pi_s) V_r and possibly more.

    w is V_r in T coordinates, keep marks the T coordinates Pi_s keeps,
    cosines are the kept rows' singular values (one per kept coordinate),
    anchor is |0> projected onto T, and sigma is B_G's, to the same rank.
    """

    s: int
    value: int
    w: np.ndarray
    keep: np.ndarray
    cosines: np.ndarray
    anchor: np.ndarray
    sigma: np.ndarray

    @property
    def outside_weight(self) -> float:
        """Weight of |0> outside T, which lies in range(Pi_s) and in the
        kernels of B_G and of I - Delta."""
        return max(0.0, 1.0 - float(self.anchor @ self.anchor))

    def biadjacency(self) -> np.ndarray:
        """The true-input biadjacency B_{G(s)} = [B_G ; 0 | Pi-bar] on T, up to an
        isometry on the left: [diag(sigma) W^T ; I on the dropped coordinates].
        Outside T, B_{G(s)} is zero on range(Pi_s) and an isometry on its kernel."""
        return np.vstack([self.sigma[:, None] * self.w.T, np.eye(len(self.keep))[~self.keep]])


def build_input_graph(g: ProgramGraph, p: CanonicalSpanProgram, s: int, rank: int | None = None) -> InputGraph:
    """Orthonormal bases of T from thin SVDs of V_r's kept rows and of its
    dropped rows; any orthonormal columns do, since T need only contain both
    row blocks' ranges to be invariant under Pi_s and Delta.  rank, g.rank
    by default, is how many of g's singular vectors make up V_r."""
    rank = g.rank if rank is None else rank
    v_r, kept = g.v[:, :rank], g.pi_mask(s)[g.num_false:]
    (u_kept, cosines, _), (u_dropped, _, _) = (np.linalg.svd(v_r[rows], full_matrices=False) for rows in (kept, ~kept))
    w = np.vstack([u_kept.T @ v_r[kept], u_dropped.T @ v_r[~kept]])
    keep = np.arange(len(w)) < len(cosines)
    anchor = np.zeros(len(w))
    anchor[keep] = u_kept[0]  # mu0 is the first kept row
    return InputGraph(s=s, value=p.f.value(s), w=w, keep=keep, cosines=cosines, anchor=anchor,
                      sigma=g.sigma[:rank])


def zero_witness_vectors(p: CanonicalSpanProgram, s: int) -> tuple[np.ndarray, float, float]:
    """Kernel witness of the input graph, with its exact overlap guarantees.

    For f(s) = 1 returns psi = -3 sqrt(W) |0> + sum_j |j, s_j> v_{s,j} in the
    mu0 | I column space, a kernel vector of B_{G(s)} with
    |<0|psi>|^2 / ||psi||^2 = 9/10.  For f(s) = 0 returns
    psi' = -|s> + sum_j |j, not s_j> v_{s,j} in the F0 | I' row space, a
    kernel vector of B_{G'(s)}* with |<t|psi'>|^2 / ||psi'||^2 = 1/(9W(W+1)).
    Returns (psi, overlap ratio, kernel residual).  Raises
    WitnessViolationError when the residual betrays an inaccurate upstream
    SDP solution.
    """
    f, n, m = p.f, p.f.n, p.m
    w_size = p.witness_size
    mask = column_mask(n, m, s)
    nf0 = len(f.f0)

    if f.value(s) == 1:
        psi = np.zeros(1 + 2 * n * m)
        psi[0] = -3.0 * np.sqrt(w_size)
        psi[1:][mask] = p.vectors[s].ravel()
        # B_{G(s)} psi = (t psi_0 + A psi_I, Pi-bar psi_I); the second part
        # vanishes because psi_I lives on the columns Pi(s) keeps
        residual = float(np.linalg.norm(p.target * psi[0] + p.matrix @ psi[1:]))
        ratio = psi[0] ** 2 / float(psi @ psi)
        if residual > 1e-6 or ratio < 0.9 - 1e-9:
            raise WitnessViolationError(
                f"true witness for input {s:0{n}b}: residual {residual:.3e}, ratio {ratio:.12f}"
            )
        return psi, ratio, residual

    psi = np.zeros(nf0 + 2 * n * m)
    psi[f.f0.index(s)] = -1.0
    psi[nf0:][~mask] = p.vectors[s].ravel()
    # B_{G'(s)}^T psi = A^T psi_F0 + Pi-bar psi_I', and Pi-bar psi_I' = psi_I'
    residual = float(np.linalg.norm(p.matrix.T @ psi[:nf0] + psi[nf0:]))
    ratio = float(p.target @ psi[:nf0]) ** 2 / float(psi @ psi)
    floor = 1.0 / (9.0 * w_size * (w_size + 1.0))
    if residual > 1e-6 or ratio < floor - 1e-9:
        raise WitnessViolationError(
            f"false witness for input {s:0{n}b}: residual {residual:.3e}, "
            f"ratio {ratio:.3e} vs floor {floor:.3e}"
        )
    return psi, ratio, residual


def anchor_measure(ig: InputGraph) -> tuple[np.ndarray, np.ndarray]:
    """Spectral measure of |0> under U_s, (phases, weights), in closed form.

    Kept coordinate k of T lies at the principal angle arccos(c_k) to
    range(I - Delta); with its projection there it spans a block on which
    U_s turns by +-2 arcsin(c_k) (a line U_s fixes when c_k = 0, one it
    negates when c_k = 1), and |0>'s component along it, anchor[k], splits
    evenly between the block's two eigenvectors.  The weight of |0> outside
    T goes at phase 0, where U_s = 2 Pi_s - I fixes it.  The min guards
    cosines a rounding above 1.
    """
    theta = 2.0 * np.arcsin(np.minimum(ig.cosines, 1.0))
    half = ig.anchor[ig.keep] ** 2 / 2.0
    return np.concatenate([theta, -theta, [0.0]]), np.concatenate([half, half, [ig.outside_weight]])


def moments(phases: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """<0|U^t|0> = sum_k weights_k e^{i t phases_k} for t = 1..MOMENTS."""
    return np.exp(1j * np.outer(np.arange(1, MOMENTS + 1), phases)) @ weights


def walk_moments(g: ProgramGraph, s: int) -> np.ndarray:
    """<0|U_s^t|0> for t = 1..MOMENTS by applying U_s to |0> on mu0 | I,
    x -> (2 Pi_s - I)(x - 2 V_r V_r^T x): no basis of T and no SVD, so it
    checks anchor_measure independently."""
    sign = np.where(g.pi_mask(s)[g.num_false:], 1.0, -1.0)
    x = np.zeros(len(sign))
    x[0] = 1.0
    out = np.zeros(MOMENTS)
    for t in range(MOMENTS):
        x = sign * (x - 2.0 * (g.v_r @ (g.v_r.T @ x)))
        out[t] = x[0]
    return out


def rank_spread(g: ProgramGraph, p: CanonicalSpanProgram, s: int, ranks) -> float:
    """Largest difference of the anchor's moments between input s resolved
    with V_r cut to ranks[0] and to each later rank."""
    base, *others = (moments(*anchor_measure(build_input_graph(g, p, s, rank))) for rank in ranks)
    return max(float(np.abs(other - base).max()) for other in others)


def effective_gap_profile(ig: InputGraph, w_size: float, c_grid) -> list[tuple[float, float, float]]:
    """Low-eigenvalue overlap of |0> with A_{G(s)} versus 72 c^2 (1 + 1/W).

    A_{G(s)} is bipartite with biadjacency B = B_{G(s)}, so its eigenvalues
    are +-sigma_k over the singular values of B (zero for the extra right
    singular vectors), and |0> is column mu0 of B: the eigenvectors at
    +-sigma_k together carry |<v_k|0>|^2 of it.  On T that is B's
    restriction ig.biadjacency(); the weight of |0> outside T sits at
    sigma = 0.  Returns (c, lhs, rhs) triples.  Only defined on false inputs.
    """
    if ig.value == 1:
        raise WrongBranchError(f"input {ig.s:b} evaluates true; the profile needs f(s) = 0")
    _, sigma, vh = np.linalg.svd(ig.biadjacency())
    # the extra right singular vectors, and then the weight outside T, sit at sigma = 0
    sigma = np.concatenate([sigma, np.zeros(vh.shape[0] - len(sigma) + 1)])
    overlaps = np.append(np.abs(vh @ ig.anchor) ** 2, ig.outside_weight)
    out = []
    for c in c_grid:
        lhs = float(overlaps[sigma <= c / w_size].sum())
        rhs = 72.0 * c * c * (1.0 + 1.0 / w_size)
        out.append((float(c), lhs, rhs))
    return out


def phase_gap_profile(
    phases: np.ndarray,
    overlaps: np.ndarray,
    w_size: float,
    theta_grid,
    input_value: int,
) -> list[tuple[float, float, float]]:
    """Low-phase overlap of the anchor with U_s versus (2 sqrt(6 Theta W) + Theta/2)^2.

    phases/overlaps resolve the mu0 anchor over the eigenvectors of U_s.
    Returns (Theta, lhs, rhs) triples.  Only defined on false inputs.
    """
    if input_value == 1:
        raise WrongBranchError("phase profile needs f(s) = 0")
    out = []
    for theta in theta_grid:
        lhs = float(overlaps[np.abs(phases) <= theta].sum())
        rhs = (2.0 * np.sqrt(6.0 * theta * w_size) + theta / 2.0) ** 2
        out.append((float(theta), lhs, rhs))
    return out


def psd_spectral_bound_check(x, t: np.ndarray, gamma_grid) -> list[tuple[float, float, float]]:
    """Check sum over small positive eigenvalues of X' = X + |t><t| of
    |<t|beta>|^2 / theta(beta) against 4 gamma / delta.

    delta is the best kernel overlap ||P_null(X) t||^2; if the null space
    of X carries none of t the bound is undefined and NoNullWitnessError
    is raised.  Eigenvalues at numerical zero are excluded from the sum
    (they provably carry no t component).  Returns (gamma, lhs, rhs)
    triples.
    """
    xm = require_hermitian(x)
    p_null = nullspace_projector(xm)
    delta = float(np.linalg.norm(p_null @ t) ** 2)
    if delta <= DEFAULT_ZERO_TOL * max(1.0, float(t @ t)):
        raise NoNullWitnessError("null space of X is orthogonal to t; delta is undefined")
    x_prime = xm + np.outer(t, t.conj())
    es = eig_hermitian(x_prime)
    scale = max(1.0, float(np.abs(es.eigenvalues).max()))
    overlaps = np.abs(es.eigenvectors.conj().T @ t.astype(complex)) ** 2
    out = []
    for gamma in gamma_grid:
        sel = (es.eigenvalues > DEFAULT_ZERO_TOL * scale) & (es.eigenvalues <= gamma)
        lhs = float((overlaps[sel] / es.eigenvalues[sel]).sum())
        rhs = 4.0 * gamma / delta
        out.append((float(gamma), lhs, rhs))
    return out


def edge_list(matrix: np.ndarray) -> list[tuple[int, int, float]]:
    """Nonzero entries as (row, col, weight) rows for external visualization."""
    mat = np.asarray(matrix)
    rows, cols = np.nonzero(mat)
    return [(int(r), int(c), float(mat[r, c])) for r, c in zip(rows, cols)]
