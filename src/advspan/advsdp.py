"""Witness-size SDP for the general adversary bound, and its dual certificate.

The primal minimizes xi over PSD matrices X indexed by (input, coordinate)
pairs subject to
    sum_{j : w_j != x_j} X[(w,j),(x,j)] = 1          for every (w,x) in F0 x F1,
    sum_j X[(s,j),(s,j)] <= xi                        for every input s.
The optimum equals ADV(f), the maximum over adversary matrices Gamma of
||Gamma|| / max_i ||Gamma o D_i||.  No constraint reads an entry that joins
two coordinates, so the cone is exactly the product of n PSD cones of side 2^n,
the blocks X_j[w,x] = X[(w,j),(x,j)]: zeroing the joining entries keeps a PSD
X PSD (its blocks are principal submatrices), feasible and as good.

The solver is a projection-splitting (ADMM) scheme over the variable
v = (vec(X_0) ... vec(X_{n-1}), slacks u, xi): it alternates a least-squares
projection onto the affine constraint set (with the linear objective folded
in) against a projection onto the cone PSD^n x R+^S x R (one batched eigh),
with over-relaxation.  Dual multipliers for the affine rows come out of the
least-squares projection and assemble into the adversary-matrix certificate
via Gamma[w,x] = alpha_{w,x} / sqrt(beta_w beta_x).

The constraints are index arrays, and the affine projection is exact in closed
form: A A^T = diag(|D(w,x)|/2) + ((n+1) I + 1 1^T), since each X_j[w,x] lies
in one pair row (w an F0 row, x an F1 row) and the row-sum rows meet only in xi.
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
from .matkernel import hadamard, spectral_norm

DEFAULT_TOL = 1e-7
MAX_ITERATIONS = 50_000
BETA_DROP_TOL = 1e-10
# ADMM penalty and over-relaxation factor
RHO = 1.0
RELAXATION = 1.7


@dataclass(frozen=True)
class WitnessSdp:
    """Standard-form data for the witness-size SDP of one function.

    The flat variable vector is [vec(X_0) ... vec(X_{n-1}) | u | xi] with
    X_j[w,x] at j * 4^n + w * 2^n + x.  Equality rows cover the F0 x F1 pair
    constraints followed by the slack-completed row-sum constraints
    sum_j X_j[s,s] + u_s = xi, with X_j[s,s] at diagonal[j, s].  Pair row p sums
    (X_j[w,x] + X_j[x,w]) / 2 over the entries e with entry_pair[e] = p, one per
    0-based j with w_j != x_j, at entry_index[e] and entry_mirror[e].
    """

    f: BooleanFunction
    pairs: tuple[tuple[int, int], ...]
    entry_pair: np.ndarray
    entry_index: np.ndarray
    entry_mirror: np.ndarray
    diagonal: np.ndarray

    @property
    def n(self) -> int:
        return self.f.n

    @property
    def num_inputs(self) -> int:
        return 2**self.f.n

    @property
    def constraints(self) -> np.ndarray:
        """Dense equality rows A, the tests' reference; the solver never builds it."""
        n, p, s = self.n, len(self.pairs), self.num_inputs
        rows = np.zeros((p + s, n * s * s + s + 1))
        rows[self.entry_pair, self.entry_index] = 0.5
        rows[self.entry_pair, self.entry_mirror] = 0.5
        rows[p + np.arange(s), self.diagonal] = 1.0
        rows[p:, n * s * s :] = np.hstack([np.eye(s), -np.ones((s, 1))])
        return rows


def build_witness_sdp(f: BooleanFunction) -> WitnessSdp:
    """Index the constraint system; one equality per (w,x), one row bound per s."""
    if f.is_constant:
        raise ConstantFunctionError("ADV is undefined for constant functions (F0 x F1 is empty)")
    n, s = f.n, 2**f.n
    pairs = tuple((w, x) for w in f.f0 for x in f.f1)
    bits, f0, f1 = f.bits, np.array(f.f0), np.array(f.f1)
    pair, j = np.nonzero((bits[f0][:, None, :] != bits[f1][None, :, :]).reshape(len(pairs), n))
    w, x = f0[pair // len(f1)], f1[pair % len(f1)]
    return WitnessSdp(f=f, pairs=pairs, entry_pair=pair, entry_index=(j * s + w) * s + x,
                      entry_mirror=(j * s + x) * s + w,
                      diagonal=np.arange(n)[:, None] * s * s + np.arange(s) * (s + 1))


def _pair_values(sdp: WitnessSdp, v: np.ndarray) -> np.ndarray:
    """The pair rows of A applied to the flat variable v."""
    both = v[sdp.entry_index] + v[sdp.entry_mirror]
    return 0.5 * np.bincount(sdp.entry_pair, weights=both, minlength=len(sdp.pairs))


def affine_projection(sdp: WitnessSdp, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Projection v = y - A^T m of y onto {A v = b}, m = (A A^T)^-1 (A y - b).

    No (j,w,x) repeats or is also a (j,x,w), so scattering A^T m needs no np.add.at.
    """
    num_inputs, n = sdp.num_inputs, sdp.n
    m_pair = (_pair_values(sdp, y) - 1.0) / (0.5 * np.bincount(sdp.entry_pair, minlength=len(sdp.pairs)))
    r = y[sdp.diagonal].sum(axis=0) + y[-1 - num_inputs : -1] - y[-1]
    m_row = (r - r.sum() / (n + 1 + num_inputs)) / (n + 1)
    v = y.copy()
    step = 0.5 * m_pair[sdp.entry_pair]
    v[sdp.entry_index] -= step
    v[sdp.entry_mirror] -= step
    v[sdp.diagonal] -= m_row
    v[-1 - num_inputs : -1] -= m_row
    v[-1] += m_row.sum()
    return v, np.concatenate([m_pair, m_row])


@dataclass(frozen=True)
class SdpSolution:
    """Primal-dual output of solve_sdp.

    blocks, of shape (n, 2^n, 2^n), holds the Gram blocks
    X_j[w,x] = <v_{w,j}|v_{x,j}>; they are the whole primal, since no
    constraint reads an entry between two coordinates.  alpha holds one
    multiplier per equality constraint (keyed like WitnessSdp.pairs) and
    beta one nonnegative multiplier per input; at the optimum sum(beta) = 1
    and sum(alpha) equals xi.
    """

    sdp: WitnessSdp
    blocks: np.ndarray
    xi: float
    alpha: np.ndarray
    beta: np.ndarray
    residuals: dict

    @property
    def dual_objective(self) -> float:
        return float(self.alpha.sum())

    def row_sum(self, s: int) -> float:
        return float(self.blocks[:, s, s].sum())


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
    n, num_inputs, num_pairs = sdp.n, sdp.num_inputs, len(sdp.pairs)
    cost = np.zeros(n * num_inputs**2 + num_inputs + 1)
    cost[-1] = 1.0

    z, lam, mu = np.zeros_like(cost), np.zeros_like(cost), np.zeros(num_pairs + num_inputs)

    def project_cone(y: np.ndarray) -> np.ndarray:
        xb = y[: -1 - num_inputs].reshape(n, num_inputs, num_inputs)
        w, v = np.linalg.eigh((xb + xb.transpose(0, 2, 1)) / 2)
        xp = (v * np.maximum(w, 0.0)[:, None, :]) @ v.transpose(0, 2, 1)
        return np.concatenate([xp.reshape(-1), np.maximum(y[-1 - num_inputs : -1], 0.0), y[-1:]])

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

    alpha, beta = -RHO * mu[:num_pairs], RHO * mu[num_pairs:]
    xb = z[: -1 - num_inputs].reshape(n, num_inputs, num_inputs)
    blocks = (xb + xb.transpose(0, 2, 1)) / 2
    xi = float(z[-1])

    residuals = {
        "primal_equality": float(np.abs(_pair_values(sdp, z) - 1.0).max()),
        "row_sum_violation": float(max(0.0, (z[sdp.diagonal].sum(axis=0) - xi).max())),
        "min_eigenvalue": float(np.linalg.eigvalsh(blocks).min()),
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
    return SdpSolution(sdp=sdp, blocks=blocks, xi=xi, alpha=alpha, beta=beta, residuals=residuals)


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
