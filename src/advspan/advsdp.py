"""Witness-size SDP for the general adversary bound, and its dual certificate.

The primal minimizes xi over PSD matrices X indexed by (input, coordinate)
pairs subject to
    sum_{j : w_j != x_j} X[(w,j),(x,j)] = 1          for every (w,x) in F0 x F1,
    sum_j X[(s,j),(s,j)] <= xi                        for every input s.
The optimum equals ADV(f), the maximum over adversary matrices Gamma of
||Gamma|| / max_i ||Gamma o D_i||.

The solver is a projection-splitting (ADMM) scheme over the variable
v = (vec(X), slacks u, xi): it alternates a least-squares projection onto
the affine constraint set (with the linear objective folded in) against a
projection onto the cone PSD x R+^S x R, with over-relaxation.  Dual
multipliers for the affine rows come out of the least-squares projection
and assemble into the adversary-matrix certificate via
Gamma[w,x] = alpha_{w,x} / sqrt(beta_w beta_x).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .boolfun import BooleanFunction, difference_matrix
from .errors import (
    ConstantFunctionError,
    DegenerateDualError,
    NoConvergenceError,
    PatternViolationError,
    ZeroMatrixError,
)
from .matkernel import eig_hermitian, hadamard, spectral_norm

DEFAULT_TOL = 1e-7
MAX_ITERATIONS = 50_000
BETA_DROP_TOL = 1e-10
# ADMM penalty and over-relaxation factor
RHO = 1.0
RELAXATION = 1.7


@dataclass(frozen=True)
class WitnessSdp:
    """Standard-form data for the witness-size SDP of one function.

    The flat variable vector is [vec(X) | u | xi] with X of side n * 2^n.
    Equality rows cover the F0 x F1 pair constraints followed by the
    slack-completed row-sum constraints sum_j X[(s,j),(s,j)] + u_s = xi.
    """

    f: BooleanFunction
    pairs: tuple[tuple[int, int], ...]
    constraints: np.ndarray
    rhs: np.ndarray

    @property
    def n(self) -> int:
        return self.f.n

    @property
    def side(self) -> int:
        return self.f.n * 2**self.f.n

    @property
    def num_inputs(self) -> int:
        return 2**self.f.n

    def index(self, s: int, j: int) -> int:
        """Row/column of X for input s and 1-based coordinate j."""
        return s * self.f.n + (j - 1)


def build_witness_sdp(f: BooleanFunction) -> WitnessSdp:
    """Assemble the constraint system; one equality per (w,x), one row bound per s."""
    if f.is_constant:
        raise ConstantFunctionError("ADV is undefined for constant functions (F0 x F1 is empty)")
    n, side = f.n, f.n * 2**f.n
    num_inputs = 2**f.n
    dim = side * side + num_inputs + 1
    pairs = tuple((w, x) for w in f.f0 for x in f.f1)

    rows = np.zeros((len(pairs) + num_inputs, dim))
    rhs = np.zeros(len(pairs) + num_inputs)
    for p, (w, x) in enumerate(pairs):
        for j in range(1, n + 1):
            if f.bit(w, j) != f.bit(x, j):
                a = w * n + (j - 1)
                b = x * n + (j - 1)
                rows[p, a * side + b] += 0.5
                rows[p, b * side + a] += 0.5
        rhs[p] = 1.0
    for s in range(num_inputs):
        r = len(pairs) + s
        for j in range(n):
            k = s * n + j
            rows[r, k * side + k] = 1.0
        rows[r, side * side + s] = 1.0
        rows[r, side * side + num_inputs] = -1.0
    return WitnessSdp(f=f, pairs=pairs, constraints=rows, rhs=rhs)


@dataclass(frozen=True)
class SdpSolution:
    """Primal-dual output of solve_sdp.

    alpha holds one multiplier per equality constraint (keyed like
    WitnessSdp.pairs) and beta one nonnegative multiplier per input; at the
    optimum sum(beta) = 1 and sum(alpha) equals xi.
    """

    sdp: WitnessSdp
    x: np.ndarray
    xi: float
    alpha: np.ndarray
    beta: np.ndarray
    residuals: dict

    @property
    def dual_objective(self) -> float:
        return float(self.alpha.sum())

    def row_sum(self, s: int) -> float:
        n = self.sdp.n
        return float(sum(self.x[s * n + j, s * n + j] for j in range(n)))


def solve_sdp(
    sdp: WitnessSdp,
    tol: float = DEFAULT_TOL,
    max_iterations: int = MAX_ITERATIONS,
) -> SdpSolution:
    """Run the projection splitting until the duality gap closes.

    Stops when the consensus residuals and the primal-dual gap all fall
    below tol * max(1, xi); raises NoConvergenceError (with residuals
    attached) at the iteration cap.  Deterministic: fixed zero start,
    fixed penalty and relaxation.
    """
    if tol < 1e-9:
        raise ValueError("tol below 1e-9 is not supported")
    a_mat, b_vec = sdp.constraints, sdp.rhs
    side, num_inputs = sdp.side, sdp.num_inputs
    dim = a_mat.shape[1]
    cost = np.zeros(dim)
    cost[-1] = 1.0

    gram = scipy.linalg.cho_factor(a_mat @ a_mat.T)
    z = np.zeros(dim)
    lam = np.zeros(dim)
    mu = np.zeros(len(b_vec))

    def project_affine(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        m = scipy.linalg.cho_solve(gram, a_mat @ y - b_vec)
        return y - a_mat.T @ m, m

    def project_cone(y: np.ndarray) -> np.ndarray:
        xm = y[: side * side].reshape(side, side)
        xm = (xm + xm.T) / 2
        w, v = np.linalg.eigh(xm)
        xp = (v * np.maximum(w, 0.0)) @ v.T
        return np.concatenate(
            [xp.reshape(-1), np.maximum(y[side * side : side * side + num_inputs], 0.0), y[-1:]]
        )

    iterations = max_iterations
    primal_res = dual_res = gap = np.inf
    for k in range(max_iterations):
        v, mu = project_affine(z - lam - cost / RHO)
        v_relaxed = RELAXATION * v + (1 - RELAXATION) * z
        z_new = project_cone(v_relaxed + lam)
        lam = lam + v_relaxed - z_new
        primal_res = float(np.linalg.norm(v - z_new))
        dual_res = RHO * float(np.linalg.norm(z_new - z))
        z = z_new
        xi = float(z[-1])
        gap = abs(xi - float(-RHO * mu[: len(sdp.pairs)].sum()))
        scale = tol * max(1.0, abs(xi))
        if primal_res <= scale and dual_res <= scale and gap <= scale:
            iterations = k + 1
            break

    nu = -RHO * mu
    alpha = nu[: len(sdp.pairs)]
    beta = -nu[len(sdp.pairs) :]
    x = z[: side * side].reshape(side, side)
    x = (x + x.T) / 2
    xi = float(z[-1])

    eq = a_mat[: len(sdp.pairs)] @ z - b_vec[: len(sdp.pairs)]
    row_sums = np.array([sum(x[s * sdp.n + j, s * sdp.n + j] for j in range(sdp.n)) for s in range(num_inputs)])
    residuals = {
        "primal_equality": float(np.abs(eq).max()) if len(eq) else 0.0,
        "row_sum_violation": float(max(0.0, (row_sums - xi).max())),
        "min_eigenvalue": float(eig_hermitian(x).eigenvalues.min()),
        "duality_gap": float(abs(xi - alpha.sum())),
        "beta_sum": float(beta.sum()),
        "consensus_primal": primal_res,
        "consensus_dual": dual_res,
        "iterations": iterations,
        "tolerance": tol,
    }
    solution = SdpSolution(sdp=sdp, x=x, xi=xi, alpha=alpha, beta=beta, residuals=residuals)
    if iterations >= max_iterations and (primal_res > tol * max(1.0, xi) or gap > tol * max(1.0, xi)):
        raise NoConvergenceError(
            f"no convergence after {max_iterations} iterations "
            f"(consensus {primal_res:.2e}, gap {gap:.2e})",
            residuals,
        )
    return solution


@dataclass(frozen=True)
class AdversaryCertificate:
    """Dual adversary matrix and its ratio ||Gamma|| / max_i ||Gamma o D_i||.

    beta_alignment records <beta|Gamma|beta> / ||Gamma|| for the unit
    vector with entries sqrt(beta_s): the duality chain treats it as a top
    eigenvector, which is reported here rather than asserted.
    """

    f: BooleanFunction
    gamma: np.ndarray
    value: float
    beta_alignment: float


def extract_certificate(sol: SdpSolution, f: BooleanFunction) -> AdversaryCertificate:
    """Build Gamma[w,x] = alpha_{w,x} / sqrt(beta_w beta_x) from the dual.

    Inputs with beta_s below 1e-10 carry no weight in the dual optimum and
    are dropped (their Gamma rows/columns stay zero); that is only legal
    when the matching alpha multipliers vanish too, otherwise the dual is
    reported as degenerate.
    """
    num_inputs = 2**f.n
    gamma = np.zeros((num_inputs, num_inputs))
    alpha_scale = max(1.0, float(np.abs(sol.alpha).max()) if len(sol.alpha) else 0.0)
    dropped = [s for s in range(num_inputs) if sol.beta[s] < BETA_DROP_TOL]
    for p, (w, x) in enumerate(sol.sdp.pairs):
        if w in dropped or x in dropped:
            if abs(sol.alpha[p]) > 1e-6 * alpha_scale:
                raise DegenerateDualError(
                    f"beta vanished on inputs {sorted(set(dropped) & {w, x})} "
                    f"but alpha[{w},{x}] = {sol.alpha[p]:.3e} is nonzero"
                )
            continue
        val = sol.alpha[p] / np.sqrt(sol.beta[w] * sol.beta[x])
        gamma[w, x] = val
        gamma[x, w] = val
    value = adversary_ratio(gamma, f)
    beta_hat = np.sqrt(np.maximum(sol.beta, 0.0))
    beta_hat /= np.linalg.norm(beta_hat)
    alignment = float(beta_hat @ gamma @ beta_hat) / spectral_norm(gamma)
    return AdversaryCertificate(f=f, gamma=gamma, value=value, beta_alignment=alignment)


def adversary_ratio(gamma, f: BooleanFunction) -> float:
    """||Gamma|| / max_i ||Gamma o D_i|| for an adversary matrix of f."""
    g = np.asarray(gamma)
    scale = float(np.abs(g).max()) if g.size else 0.0
    if scale == 0.0:
        raise ZeroMatrixError("adversary ratio is undefined for the zero matrix")
    for x in f.inputs:
        for y in f.inputs:
            if f.value(x) == f.value(y) and abs(g[x, y]) > 1e-12 * scale:
                raise PatternViolationError(
                    f"Gamma[{x},{y}] = {g[x, y]:.3e} but f({x}) = f({y})"
                )
    denom = max(spectral_norm(hadamard(g, difference_matrix(f, i))) for i in range(1, f.n + 1))
    return spectral_norm(g) / denom
