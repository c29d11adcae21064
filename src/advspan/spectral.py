"""Bipartite graphs of a canonical span program, the two-reflection unitary,
its Jordan decomposition, and the spectral-gap profiles.

Index layouts (fixed throughout):
  program graph space:  F0 | mu0 | I      with |I| = 2 n m
  input graph space:    F0 | I' | mu0 | I with I' a copy of I
The vector |0> is the mu0 indicator in whichever space applies.
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
    """Input-independent graph of the program: B_G = [t A] and its adjacency."""

    n: int
    m: int
    num_false: int
    b_g: np.ndarray
    a_g: np.ndarray
    delta: np.ndarray

    @property
    def dim(self) -> int:
        return self.num_false + 1 + 2 * self.n * self.m

    @property
    def mu0_index(self) -> int:
        return self.num_false

    def mu0_vector(self) -> np.ndarray:
        e = np.zeros(self.dim)
        e[self.mu0_index] = 1.0
        return e

    def pi_projector(self, s: int) -> np.ndarray:
        """Pi_s on F0 | mu0 | I: diagonal, zero exactly on the (j, not s_j, k) entries."""
        diag = np.ones(self.dim)
        diag[self.num_false + 1 :] = column_mask(self.n, self.m, s)
        return np.diag(diag)


def build_program_graph(p: CanonicalSpanProgram) -> ProgramGraph:
    nf0 = len(p.f.f0)
    ni = 2 * p.f.n * p.m
    b_g = np.zeros((nf0, 1 + ni))
    b_g[:, 0] = p.target
    b_g[:, 1:] = p.matrix
    dim = nf0 + 1 + ni
    a_g = np.zeros((dim, dim))
    a_g[:nf0, nf0:] = b_g
    a_g[nf0:, :nf0] = b_g.T
    delta = nullspace_projector(a_g)
    return ProgramGraph(n=p.f.n, m=p.m, num_false=nf0, b_g=b_g, a_g=a_g, delta=delta)


@dataclass(frozen=True)
class InputGraph:
    """Graphs G(s)/G'(s) for one input: true and false biadjacency."""

    s: int
    value: int
    b_true: np.ndarray
    b_false: np.ndarray

    @property
    def a_gs(self) -> np.ndarray:
        """Dense adjacency [[0, B], [B^T, 0]] of G(s), B = b_true, built on each
        access: the tests' eigen reference; the profiles work on B itself."""
        (rows, cols), b = self.b_true.shape, self.b_true
        return np.block([[np.zeros((rows, rows)), b], [b.T, np.zeros((cols, cols))]])

    @property
    def mu0_index(self) -> int:
        # row order F0 | I' | mu0 | I
        return self.b_true.shape[0]


def build_input_graph(g: ProgramGraph, p: CanonicalSpanProgram, s: int) -> InputGraph:
    ni = 2 * p.f.n * p.m
    nf0 = g.num_false
    mask = column_mask(g.n, g.m, s)
    pibar = np.diag(1.0 - mask.astype(float))
    b_true = np.zeros((nf0 + ni, 1 + ni))
    b_true[:nf0] = g.b_g
    b_true[nf0:, 1:] = pibar
    b_false = np.zeros((nf0 + ni, ni))
    b_false[:nf0] = p.matrix
    b_false[nf0:] = pibar
    return InputGraph(s=s, value=p.f.value(s), b_true=b_true, b_false=b_false)


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


def reflection_unitary(g: ProgramGraph, s: int) -> np.ndarray:
    """U_s = (2 Pi_s - I)(2 Delta - I) on F0 | mu0 | I: the rows of
    (2 Delta - I) that Pi_s drops change sign."""
    u = 2.0 * g.delta - np.eye(g.dim)
    u[g.num_false + 1 :][~column_mask(g.n, g.m, s)] *= -1.0
    u += 0.0  # turns the -0.0 of negated zeros into the +0.0 a matrix product gives
    return u


@dataclass(frozen=True)
class JordanBlock:
    """One 2-d invariant subspace: Delta projects onto v, Pi onto w."""

    v: np.ndarray
    v_perp: np.ndarray
    w: np.ndarray
    w_perp: np.ndarray
    theta: float


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

    @property
    def one_dim(self) -> tuple[tuple[np.ndarray, int, int], ...]:
        return tuple((self.fixed[:, k], int(self.b[k]), int(self.c[k])) for k in range(len(self.b)))

    @property
    def two_dim(self) -> tuple[JordanBlock, ...]:
        cos_h, sin_h = np.cos(self.theta / 2.0), np.sin(self.theta / 2.0)
        w = self.v * cos_h + self.v_perp * sin_h
        w_perp = self.v_perp * cos_h - self.v * sin_h
        return tuple(
            JordanBlock(v=self.v[:, k], v_perp=self.v_perp[:, k], w=w[:, k], w_perp=w_perp[:, k],
                        theta=float(self.theta[k]))
            for k in range(len(self.theta))
        )

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
# moves any entry of the reconstructed unitary by at most 2 sin(ANGLE_TOL)
# <= 2e-10 (the blocks are orthogonal, so the errors do not add up): below
# the 1e-8 reconstruction check.
ANGLE_TOL = 1e-10


def _range_first_basis(proj: np.ndarray) -> tuple[np.ndarray, int]:
    """Eigenbasis of a projector with its range columns first, and its rank."""
    vals, vecs = np.linalg.eigh(proj)
    return vecs[:, ::-1], int((vals > 0.5).sum())


def jordan_decompose(delta, pi) -> JordanDecomposition:
    """Split the space into invariant 1-d / 2-d subspaces of two projectors.

    Jordan's lemma from one CS decomposition of the overlap between the
    eigenbases of Delta and Pi: its angles phi are the principal angles
    between range(Delta) and range(Pi) (Bjorck and Golub, Math. Comp. 1973),
    accurate at small and large angles alike.  Each angle strictly inside
    (0, pi/2) gives a 2-d block with theta = 2 phi; every other direction
    of the CS bases is shared by both projectors.
    """
    d = require_hermitian(delta, tol=1e-9)
    q = require_hermitian(pi, tol=1e-9)
    for name, proj in (("delta", d), ("pi", q)):
        if np.abs(proj @ proj - proj).max() > 1e-9:
            raise DecompositionFailureError(f"{name} is not idempotent within 1e-9")
    dim = d.shape[0]
    basis_d, p = _range_first_basis(d)
    basis_q, k = _range_first_basis(q)
    r = min(p, k, dim - p, dim - k)
    if r:
        (u1, u2), phi, _ = cossin(basis_d.conj().T @ basis_q, p=p, q=k, separate=True, compute_vh=False)
        basis_d = np.hstack([basis_d[:, :p] @ u1, basis_d[:, p:] @ u2])
    else:  # Delta or Pi is 0 or I, so there are no angles
        phi = np.zeros(0)
        if p in (0, dim):  # Pi's eigenbasis then fits the layout below, range first iff Delta = I
            basis_d = basis_q if p else basis_q[:, ::-1]

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


def effective_gap_profile(ig: InputGraph, w_size: float, c_grid) -> list[tuple[float, float, float]]:
    """Low-eigenvalue overlap of |0> with A_{G(s)} versus 72 c^2 (1 + 1/W).

    A_{G(s)} is bipartite with biadjacency B = b_true, so its eigenvalues
    are +-sigma_k over the singular values of B (zero for the extra right
    singular vectors), and |0> is column 0 of B: the eigenvectors at
    +-sigma_k together carry |V*[k, 0]|^2 of it.  Returns (c, lhs, rhs)
    triples.  Only defined on false inputs.
    """
    if ig.value == 1:
        raise WrongBranchError(f"input {ig.s:b} evaluates true; the profile needs f(s) = 0")
    _, sigma, vh = np.linalg.svd(ig.b_true)
    sigma = np.concatenate([sigma, np.zeros(vh.shape[0] - len(sigma))])
    overlaps = np.abs(vh[:, 0]) ** 2
    out = []
    for c in c_grid:
        lhs = float(overlaps[sigma <= c / w_size].sum())
        rhs = 72.0 * c * c * (1.0 + 1.0 / w_size)
        out.append((float(c), lhs, rhs))
    return out


def phase_gap_profile(
    jd: JordanDecomposition,
    w_size: float,
    theta_grid,
    anchor: np.ndarray,
    input_value: int,
) -> list[tuple[float, float, float]]:
    """Low-phase overlap of the anchor with U_s versus (2 sqrt(6 Theta W) + Theta/2)^2.

    anchor is the mu0 indicator in the reflection space.  Returns
    (Theta, lhs, rhs) triples.  Only defined on false inputs.
    """
    if input_value == 1:
        raise WrongBranchError("phase profile needs f(s) = 0")
    phases, vectors = jd.eigen_system()
    overlaps = np.abs(vectors.conj().T @ anchor.astype(complex)) ** 2
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
