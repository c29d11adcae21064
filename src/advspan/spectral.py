"""Bipartite graphs of a canonical span program, the two-reflection unitary,
its Jordan decomposition, and the spectral-gap profiles.

Index layouts (fixed throughout):
  program graph space:  F0 | mu0 | I      with |I| = 2 n m
  input graph space:    F0 | I' | mu0 | I with I' a copy of I
The vector |0> is the mu0 indicator in whichever space applies.

Nothing here builds a matrix of the program graph's dimension.  The
adjacency A_G = [[0, B_G], [B_G^T, 0]] has kernel projector Delta with
I - Delta = U_r U_r^T (+) V_r V_r^T from one thin SVD of B_G, so
U_s = (2 Pi_s - I)(2 Delta - I) is I - 2 U_r U_r^T on F0, where |0> has no
weight, and 2 Pi_s - I outside T = span(Pi_s V_r) (+) span((I - Pi_s) V_r),
a subspace of mu0 | I of dimension at most 2r (Szegedy, FOCS 2004).  Every
per-input object lives in T coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cossin

from .errors import (
    DecompositionFailureError,
    NoNullWitnessError,
    WitnessViolationError,
    WrongBranchError,
)
from .matkernel import DEFAULT_ZERO_TOL, eig_hermitian, nullspace_projector, require_hermitian
from .spanprog import CanonicalSpanProgram


def column_mask(n: int, m: int, s: int) -> np.ndarray:
    """Mask over I = blocks (j, b) of m columns each: True on the columns
    agreeing with s (b = s_j), which Pi(s) keeps."""
    bits = (s >> (n - 1 - np.arange(n))) & 1
    return np.repeat(bits[:, None] == np.arange(2), m, axis=1).ravel()


@dataclass(frozen=True)
class ProgramGraph:
    """Input-independent graph of the program: B_G = [t A] and its thin SVD
    B_G = U_r diag(sigma) V_r^T cut to the numerical rank r, which resolves
    Delta, the projector onto the adjacency's kernel:
    I - Delta = U_r U_r^T on F0 (+) V_r V_r^T on mu0 | I."""

    n: int
    m: int
    num_false: int
    b_g: np.ndarray
    u_r: np.ndarray
    sigma: np.ndarray
    v_r: np.ndarray

    @property
    def dim(self) -> int:
        return self.num_false + 1 + 2 * self.n * self.m

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
    u, sigma, vh = np.linalg.svd(b_g, full_matrices=False)
    r = int((sigma > DEFAULT_ZERO_TOL * max(1.0, float(sigma.max(initial=0.0)))).sum())
    return ProgramGraph(n=p.f.n, m=p.m, num_false=len(p.f.f0), b_g=b_g,
                        u_r=u[:, :r], sigma=sigma[:r], v_r=vh[:r].T)


@dataclass(frozen=True)
class InputGraph:
    """One input s, written in T coordinates: orthonormal directions of
    mu0 | I, first those in range(Pi_s), which span Pi_s V_r and possibly
    more, then those in its kernel, which span (I - Pi_s) V_r and possibly more.

    delta_basis is an orthonormal eigenbasis of Delta on T, range first:
    its last r columns are V_r in T coordinates, its first delta_rank
    columns their orthogonal complement.  keep marks the T coordinates
    Pi_s keeps, anchor is |0> projected onto T, and sigma is B_G's.
    """

    s: int
    value: int
    delta_basis: np.ndarray
    delta_rank: int
    keep: np.ndarray
    anchor: np.ndarray
    sigma: np.ndarray

    @property
    def w(self) -> np.ndarray:
        """V_r in T coordinates: orthonormal columns spanning the range of I - Delta."""
        return self.delta_basis[:, self.delta_rank:]

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


def build_input_graph(g: ProgramGraph, p: CanonicalSpanProgram, s: int) -> InputGraph:
    """Orthonormal bases of T from thin SVDs of V_r's kept rows and of its
    dropped rows; any orthonormal columns do, since T need only contain both
    row blocks' ranges to be invariant under Pi_s and Delta."""
    kept = g.pi_mask(s)[g.num_false:]
    halves = [np.linalg.svd(g.v_r[rows], full_matrices=False)[0] for rows in (kept, ~kept)]
    w = np.vstack([half.T @ g.v_r[rows] for half, rows in zip(halves, (kept, ~kept))])
    complement = np.linalg.qr(w, mode="complete")[0][:, w.shape[1]:]
    keep = np.arange(len(w)) < halves[0].shape[1]
    anchor = np.zeros(len(w))
    anchor[keep] = halves[0][0]  # mu0 is the first kept row
    return InputGraph(s=s, value=p.f.value(s), delta_basis=np.hstack([complement, w]),
                      delta_rank=complement.shape[1], keep=keep, anchor=anchor, sigma=g.sigma)


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


def reflection_unitary(ig: InputGraph) -> np.ndarray:
    """U_s = (2 Pi_s - I)(2 Delta - I) on T: the rows of I - 2 W W^T that
    Pi_s drops change sign."""
    u = np.eye(len(ig.keep)) - 2.0 * ig.w @ ig.w.T
    u[~ig.keep] *= -1.0
    return u


@dataclass(frozen=True)
class JordanDecomposition:
    """Invariant 1-d / 2-d splitting of the space under two projectors.

    Column k of `fixed` is a 1-d direction with Delta v = b[k] v and
    Pi v = c[k] v; the two-reflection unitary acts there as +1 when
    b == c and -1 otherwise.  Columns k of `v` / `v_perp` span a 2-d block
    with Delta v = v and Delta v_perp = 0, on which the unitary rotates by
    theta[k] in (0, pi), and Pi projects onto
    w = cos(theta/2) v + sin(theta/2) v_perp.
    """

    fixed: np.ndarray
    b: np.ndarray
    c: np.ndarray
    v: np.ndarray
    v_perp: np.ndarray
    theta: np.ndarray

    @property
    def dim(self) -> int:
        return self.fixed.shape[0]

    def basis(self) -> np.ndarray:
        """All directions as columns: fixed | v | v_perp."""
        return np.hstack([self.fixed, self.v, self.v_perp])

    def reconstruct_unitary(self) -> np.ndarray:
        cos_t, sin_t = np.cos(self.theta), np.sin(self.theta)
        image = np.hstack([
            self.fixed * np.where(self.b == self.c, 1.0, -1.0),
            self.v * cos_t + self.v_perp * sin_t,
            self.v_perp * cos_t - self.v * sin_t,
        ])
        return image @ self.basis().conj().T

    def eigen_system(self) -> tuple[np.ndarray, np.ndarray]:
        """Orthonormal eigensystem of the reconstructed unitary.

        Phases lie in (-pi, pi]; 2-d blocks contribute the conjugate pair
        (v +- i v_perp)/sqrt(2) with phases -+ theta.
        """
        plus = (self.v + 1j * self.v_perp) / np.sqrt(2.0)
        minus = (self.v - 1j * self.v_perp) / np.sqrt(2.0)
        pairs = np.stack([plus, minus], axis=2).reshape(self.dim, -1)
        phases = np.concatenate([
            np.where(self.b == self.c, 0.0, np.pi),
            np.stack([-self.theta, self.theta], axis=1).ravel(),
        ])
        return phases, np.hstack([self.fixed, pairs])


# A principal angle within ANGLE_TOL of 0 or pi/2 is split into two 1-d
# directions.  That replaces a rotation by 2 phi with +-I on its block, which
# moves the reconstructed unitary by at most 2 sin(ANGLE_TOL) <= 2e-10 in
# spectral norm (the blocks are orthogonal, so the errors do not add up):
# below the 1e-8 reconstruction check.
ANGLE_TOL = 1e-10


def jordan_decompose(basis_d: np.ndarray, p: int, keep: np.ndarray) -> JordanDecomposition:
    """Split the space into invariant 1-d / 2-d subspaces of two projectors.

    Delta projects onto the first p columns of the orthonormal basis_d, Pi
    onto the coordinates where keep is True; any two projectors take this
    form in Pi's eigenbasis.  Jordan's lemma then comes from one CS
    decomposition of the kept-first rows of basis_d: its angles phi are the
    principal angles between range(Delta) and range(Pi) (Bjorck and Golub,
    Math. Comp. 1973), accurate at small and large angles alike.  Each
    angle strictly inside (0, pi/2) gives a 2-d block with theta = 2 phi;
    every other direction of the CS bases is shared by both projectors.
    """
    dim = basis_d.shape[0]
    perm = np.concatenate([np.flatnonzero(keep), np.flatnonzero(~keep)])
    k = int(np.count_nonzero(keep))
    r = min(p, k, dim - p, dim - k)
    if r:  # Pi's eigenbasis is eye[:, perm], so the overlap of the two bases is basis_d[perm]^*
        (u1, u2), phi, _ = cossin(basis_d[perm].conj().T, p=p, q=k, separate=True, compute_vh=False)
        basis_d = np.hstack([basis_d[:, :p] @ u1, basis_d[:, p:] @ u2])
    else:  # Delta or Pi is 0 or I, so there are no angles
        phi = np.zeros(0)
        if p in (0, dim):  # Pi's eigenbasis then fits the layout below, range first iff Delta = I
            basis_d = np.eye(dim)[:, perm if p else perm[::-1]]

    # CS layout (LAPACK xORCSD): the range(Delta) columns are n11 shared with
    # range(Pi), r cosine directions, then the rest inside ker(Pi); the
    # ker(Delta) columns are n22 inside ker(Pi), r sine partners, then the
    # rest inside range(Pi).
    n11, n22 = min(p, k) - r, min(dim - p, dim - k) - r
    top, bottom = basis_d[:, :p], basis_d[:, p:]
    v, v_perp = top[:, n11 : n11 + r], bottom[:, n22 : n22 + r]
    zero, right = phi <= ANGLE_TOL, phi >= np.pi / 2.0 - ANGLE_TOL
    groups = (
        (top[:, :n11], 1, 1), (v[:, zero], 1, 1), (top[:, n11 + r :], 1, 0), (v[:, right], 1, 0),
        (bottom[:, :n22], 0, 0), (v_perp[:, zero], 0, 0), (bottom[:, n22 + r :], 0, 1), (v_perp[:, right], 0, 1),
    )
    block = ~(zero | right)
    jd = JordanDecomposition(
        fixed=np.hstack([cols for cols, _, _ in groups]),
        b=np.concatenate([np.full(cols.shape[1], b) for cols, b, _ in groups]),
        c=np.concatenate([np.full(cols.shape[1], c) for cols, _, c in groups]),
        v=v[:, block],
        v_perp=v_perp[:, block],
        theta=2.0 * phi[block],
    )
    basis = jd.basis()
    if np.abs(basis @ basis.conj().T - np.eye(dim)).max() > 1e-8:
        raise DecompositionFailureError("subspaces do not resolve the identity within 1e-8")
    return jd


def anchor_measure(ig: InputGraph, jd: JordanDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """Spectral measure of |0> under U_s: (phases, weights) from jd, the
    Jordan decomposition on T, plus the weight of |0> outside T at phase 0,
    where U_s = 2 Pi_s - I fixes it."""
    phases, vectors = jd.eigen_system()
    return np.append(phases, 0.0), np.append(np.abs(ig.anchor @ vectors) ** 2, ig.outside_weight)


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
