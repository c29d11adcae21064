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

The constraints are index arrays, and the affine projection is exact in closed
form: A A^T = diag(|D(w,x)|/2) + ((n+1) I + 1 1^T), since each X[a,b] lies in
one pair row (a an F0 row, b an F1 row) and the row-sum rows meet only in xi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    Pair row p sums (X[a,b] + X[b,a]) / 2 over the entries e with entry_pair[e] = p,
    one per 0-based j with w_j != x_j: a = entry_row[e] = w*n + j, b = entry_col[e] = x*n + j.
    """

    f: BooleanFunction
    pairs: tuple[tuple[int, int], ...]
    entry_pair: np.ndarray
    entry_row: np.ndarray
    entry_col: np.ndarray

    @property
    def n(self) -> int:
        return self.f.n

    @property
    def side(self) -> int:
        return self.f.n * 2**self.f.n

    @property
    def num_inputs(self) -> int:
        return 2**self.f.n

    @property
    def constraints(self) -> np.ndarray:
        """Dense equality rows A, the tests' reference; the solver never builds it."""
        side, p, s = self.side, len(self.pairs), self.num_inputs
        rows = np.zeros((p + s, side * side + s + 1))
        rows[self.entry_pair, self.entry_row * side + self.entry_col] = 0.5
        rows[self.entry_pair, self.entry_col * side + self.entry_row] = 0.5
        rows[p + np.arange(side) // self.n, np.arange(side) * (side + 1)] = 1.0
        rows[p:, side * side :] = np.hstack([np.eye(s), -np.ones((s, 1))])
        return rows


def build_witness_sdp(f: BooleanFunction) -> WitnessSdp:
    """Index the constraint system; one equality per (w,x), one row bound per s."""
    if f.is_constant:
        raise ConstantFunctionError("ADV is undefined for constant functions (F0 x F1 is empty)")
    n = f.n
    pairs = tuple((w, x) for w in f.f0 for x in f.f1)
    bits = (np.arange(2**n)[:, None] >> (n - 1 - np.arange(n))) & 1
    f0, f1 = np.array(f.f0), np.array(f.f1)
    pair, j = np.nonzero((bits[f0][:, None, :] != bits[f1][None, :, :]).reshape(len(pairs), n))
    return WitnessSdp(f=f, pairs=pairs, entry_pair=pair, entry_row=f0[pair // len(f1)] * n + j,
                      entry_col=f1[pair % len(f1)] * n + j)


def _pair_values(sdp: WitnessSdp, v: np.ndarray) -> np.ndarray:
    """The pair rows of A applied to the flat variable v."""
    both = v[sdp.entry_row * sdp.side + sdp.entry_col] + v[sdp.entry_col * sdp.side + sdp.entry_row]
    return 0.5 * np.bincount(sdp.entry_pair, weights=both, minlength=len(sdp.pairs))


def affine_projection(sdp: WitnessSdp, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Projection v = y - A^T m of y onto {A v = b}, m = (A A^T)^-1 (A y - b).

    No (a,b) repeats or is also a (b,a), so scattering A^T m needs no np.add.at.
    """
    side, num_inputs, n = sdp.side, sdp.num_inputs, sdp.n
    m_pair = (_pair_values(sdp, y) - 1.0) / (0.5 * np.bincount(sdp.entry_pair, minlength=len(sdp.pairs)))
    r = y[: side * side : side + 1].reshape(num_inputs, n).sum(axis=1) + y[side * side : -1] - y[-1]
    m_row = (r - r.sum() / (n + 1 + num_inputs)) / (n + 1)
    v = y.copy()
    step = 0.5 * m_pair[sdp.entry_pair]
    v[sdp.entry_row * side + sdp.entry_col] -= step
    v[sdp.entry_col * side + sdp.entry_row] -= step
    v[: side * side : side + 1] -= np.repeat(m_row, n)
    v[side * side : -1] -= m_row
    v[-1] += m_row.sum()
    return v, np.concatenate([m_pair, m_row])


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
        return float(np.diagonal(self.x).reshape(-1, self.sdp.n)[s].sum())


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
    side, num_inputs, num_pairs = sdp.side, sdp.num_inputs, len(sdp.pairs)
    dim = side * side + num_inputs + 1
    cost = np.zeros(dim)
    cost[-1] = 1.0

    z = np.zeros(dim)
    lam = np.zeros(dim)
    mu = np.zeros(num_pairs + num_inputs)

    def project_cone(y: np.ndarray) -> np.ndarray:
        xm = y[: side * side].reshape(side, side)
        xm = (xm + xm.T) / 2
        w, v = np.linalg.eigh(xm)
        xp = (v * np.maximum(w, 0.0)) @ v.T
        return np.concatenate(
            [xp.reshape(-1), np.maximum(y[side * side : side * side + num_inputs], 0.0), y[-1:]]
        )

    iterations, converged = 0, False
    primal_res = dual_res = gap = np.inf
    while not converged and iterations < max_iterations:
        v, mu = affine_projection(sdp, z - lam - cost / RHO)
        v_relaxed = RELAXATION * v + (1 - RELAXATION) * z
        z_new = project_cone(v_relaxed + lam)
        lam = lam + v_relaxed - z_new
        primal_res = float(np.linalg.norm(v - z_new))
        dual_res = RHO * float(np.linalg.norm(z_new - z))
        z = z_new
        xi = float(z[-1])
        gap = abs(xi - float(-RHO * mu[:num_pairs].sum()))
        scale = tol * max(1.0, abs(xi))
        iterations += 1
        converged = primal_res <= scale and dual_res <= scale and gap <= scale

    nu = -RHO * mu
    alpha = nu[:num_pairs]
    beta = -nu[num_pairs:]
    eq = _pair_values(sdp, z) - 1.0
    x = z[: side * side].reshape(side, side)
    x = (x + x.T) / 2
    xi = float(z[-1])

    residuals = {
        "primal_equality": float(np.abs(eq).max()),
        "row_sum_violation": float(max(0.0, (np.diagonal(x).reshape(num_inputs, sdp.n).sum(axis=1) - xi).max())),
        "min_eigenvalue": float(eig_hermitian(x).eigenvalues.min()),
        "duality_gap": float(abs(xi - alpha.sum())),
        "beta_sum": float(beta.sum()),
        "consensus_primal": primal_res,
        "consensus_dual": dual_res,
        "iterations": iterations,
        "tolerance": tol,
    }
    if not converged:
        raise NoConvergenceError(
            f"no convergence after {max_iterations} iterations "
            f"(consensus {primal_res:.2e}/{dual_res:.2e}, gap {gap:.2e})",
            residuals,
        )
    return SdpSolution(sdp=sdp, x=x, xi=xi, alpha=alpha, beta=beta, residuals=residuals)


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
