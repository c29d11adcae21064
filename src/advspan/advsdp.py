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

The solver is a primal-dual interior-point method: the HKM search direction
(Helmberg, Rendl, Vanderbei and Wolkowicz, SIAM J. Optim. 1996) with
Mehrotra's predictor-corrector, as in SDPT3.  The variable is
v = (vec(X_0) ... vec(X_{n-1}), slacks u, xi) in the cone PSD^n x R+^(S+1)
(xi >= max row sum >= 0), and the equalities are the pair rows and the S rows
sum_j X_j[s,s] + u_s - xi = 0.  Their multipliers y give the dual directly:
alpha = y_pair and beta = -y_row, which assemble into the adversary-matrix
certificate via Gamma[w,x] = alpha_{w,x} / sqrt(beta_w beta_x).

Each iteration solves one Schur complement system, M_ik = tr(A_i X A_k Z^-1)
plus the (u, xi) part.  Every constraint puts entries (E_ab + E_ba) / 2 into
single Gram blocks: a pair row one per coordinate where w and x differ, a row
sum one at (s,s) of each block.  The mask d_j(w,x) = [w_j != x_j] splits as
sum_c [w_j = c][x_j = 1 - c], so over the pair grid F0 x F1 every pair-pair
term of M is a sum of products of one F0-side and one F1-side matrix, masked
entries of X_j and Z_j^-1, and M is built from GEMMs (schur_complement).  M
has side |F0||F1| + 2^n (at most 288 at n = 5), and neither the dense
constraint matrix nor a matrix of side n 4^n is ever formed.  Each iterate's
blocks are factored once, X_j = L L^T and Z_j = L L^T: Z^-1 is
L_Z^-T L_Z^-1, the largest step keeping V + a dV PSD is read off
lambda_min(L^-1 dV L^-T), and a failed factorization means roundoff has left
the cone's interior.  No eigendecomposition runs inside the loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
from .matkernel import hadamard, spectral_norm

DEFAULT_TOL = 1e-7
MAX_ITERATIONS = 100
BETA_DROP_TOL = 1e-10


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

    @cached_property
    def grid(self) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray], dict]:
        """(sides, h, hh) for the Schur complement, with sides = (F0, F1) and
        h = (h0, h1).  Each pair row's coefficient in block j, d_j(w,x) / 2
        with d_j(w,x) = [w_j != x_j], splits as sum_c h0[j,c,w] h1[j,c,x],
        where h0[j,c,w] = [w_j = c] / 2 over F0 and h1[j,c,x] = [x_j = 1 - c]
        over F1; hh[r, s][j,c,c',u,v] = h[r][j,c,u] h[s][j,c',v]."""
        bits, sides = self.f.bits.T, (np.array(self.f.f0), np.array(self.f.f1))
        c = np.arange(2)[None, :, None]
        h = (0.5 * (bits[:, None, sides[0]] == c), (bits[:, None, sides[1]] == 1 - c).astype(float))
        hh = {(r, s): np.ascontiguousarray(h[r][:, :, None, :, None] * h[s][:, None, :, None, :])
              for r in range(2) for s in range(2)}
        return sides, h, hh

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


def _apply(sdp: WitnessSdp, v: np.ndarray) -> np.ndarray:
    """A v: the pair rows, then the row-sum rows sum_j X_j[s,s] + u_s - xi."""
    num_inputs = sdp.num_inputs
    rows = v[sdp.diagonal].sum(axis=0) + v[-1 - num_inputs : -1] - v[-1]
    return np.concatenate([_pair_values(sdp, v), rows])


def _apply_adjoint(sdp: WitnessSdp, y: np.ndarray) -> np.ndarray:
    """A^T y on the flat variable; no (j,w,x) repeats or is also a (j,x,w)."""
    num_pairs, num_inputs = len(sdp.pairs), sdp.num_inputs
    v = np.zeros(sdp.n * num_inputs**2 + num_inputs + 1)
    half = 0.5 * y[:num_pairs][sdp.entry_pair]
    v[sdp.entry_index] = half
    v[sdp.entry_mirror] = half
    v[sdp.diagonal] = y[num_pairs:]
    v[-1 - num_inputs : -1] = y[num_pairs:]
    v[-1] = -y[num_pairs:].sum()
    return v


def schur_complement(sdp: WitnessSdp, x: np.ndarray, z_inv: np.ndarray, lp_ratio: np.ndarray) -> np.ndarray:
    """The HKM Schur complement M[i,k] = tr(A_i X A_k Z^-1) + sum_l a_il a_kl x_l / z_l.

    x and z_inv are stacks of the n Gram blocks and lp_ratio is x / z on
    (u, xi).  Block j of pair row (w,x) is d_j(w,x) (E_wx + E_xw) / 2, so the
    pair-pair entry is the sum over j of d_j(w,x) d_j(w',x') / 4 times
    X[w,w'] Z^-1[x,x'] + Z^-1[w,w'] X[x,x'] + Z^-1[w,x'] X[x,w'] + X[w,x'] Z^-1[x,w'].
    With d_j / 2 = sum_c h0[j,c,w] h1[j,c,x] (WitnessSdp.grid), each term is
    a sum over k = (j, c, c') of an F0-side matrix times an F1-side one, so
    the first two are one GEMM over 8n products and the last two another.
    Both run one slice of the smaller side at a time, each slice landing in
    M's pair block, so no temporary of M's size is made.  A pair-row entry
    is sum_j d_j(w,x) (Z^-1[w,s] X[x,s] + X[w,s] Z^-1[x,s]) / 2, a matmul over
    4n products per s, and the row-row block is sum_j X_j o Z_j^-1 plus the
    (u, xi) part.  All of the symmetric M is filled.
    """
    sides, (h0, h1), hh = sdp.grid
    n, num_inputs, a, b = sdp.n, sdp.num_inputs, len(sides[0]), len(sides[1])
    p, k = a * b, 8 * n
    xz = np.stack([x, z_inv])
    zx = xz[::-1]

    def split(y: np.ndarray, r: int, s: int) -> np.ndarray:
        """h[r][j,c,u] y[t,j,u,v] h[s][j,c',v] for u in side r and v in side s,
        stacked over k = (t, j, c, c')."""
        # np.take keeps the block C-ordered, so the masked product is one contiguous pass
        block = np.take(np.take(y, sides[r], axis=2), sides[s], axis=3)
        return (block[:, :, None, None] * hh[r, s]).reshape(k, len(sides[r]), len(sides[s]))

    m = np.empty((p + num_inputs, p + num_inputs))
    # slice u of the smaller side r holds (v, u', v') over the other side o
    r, o = (0, 1) if a <= b else (1, 0)
    pair_block = m[:p, :p].reshape(a, b, a, b)
    pair_block = pair_block if r == 0 else pair_block.transpose(1, 0, 3, 2)
    nr, no = len(sides[r]), len(sides[o])
    same_r, same_o = split(xz, r, r), split(zx, o, o).reshape(k, no * no)
    across, back = split(zx, r, o), split(xz, o, r).reshape(k, no * nr).T
    for u in range(nr):
        np.add((same_r[:, u].T @ same_o).reshape(nr, no, no).transpose(1, 0, 2),
               (back @ across[:, u]).reshape(no, nr, no), out=pair_block[u])
    ws = (xz[:, :, :, sides[0]][:, :, None] * h0[:, :, None, :]).reshape(4 * n, num_inputs, a)
    xs = (zx[:, :, :, sides[1]][:, :, None] * h1[:, :, None, :]).reshape(4 * n, num_inputs, b)
    pair_row = np.matmul(ws.transpose(1, 2, 0), xs.transpose(1, 0, 2)).reshape(num_inputs, p)
    m[p:, :p] = pair_row
    m[:p, p:] = pair_row.T
    row_block = m[p:, p:]
    np.einsum("jst,jst->st", x, z_inv, out=row_block)
    row_block += lp_ratio[-1]
    row_block[np.diag_indices(num_inputs)] += lp_ratio[:-1]
    return m


def _solver(m: np.ndarray):
    """Solve with M: Cholesky in place, or LU where M is numerically singular
    (as it gets near the optimum when f ignores a variable).  The Cholesky of
    the Fortran-ordered M^T writes only M's lower triangle, so after a failed
    one the upper triangle and the saved diagonal restore M for the LU."""
    diagonal = m.diagonal().copy()
    try:
        factor = scipy.linalg.cho_factor(m.T, overwrite_a=True, check_finite=False)
        return lambda r: scipy.linalg.cho_solve(factor, r, check_finite=False)
    except np.linalg.LinAlgError:
        lower = np.tril_indices(len(m), -1)
        m[lower] = m.T[lower]
        m[np.diag_indices(len(m))] = diagonal
        factor = scipy.linalg.lu_factor(m, overwrite_a=True, check_finite=False)
        return lambda r: scipy.linalg.lu_solve(factor, r, check_finite=False)


def _inverse_factors(blocks: np.ndarray) -> np.ndarray:
    """L^-1 for the Cholesky factor L = chol(V) of each block V of the stack;
    LinAlgError where a block is not positive definite."""
    factors = np.linalg.cholesky(blocks)
    for factor in factors:
        factor[...] = scipy.linalg.lapack.dtrtri(factor, lower=1)[0]
    return factors


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
    """Follow the central path until the duality gap closes.

    Stops when the largest primal and dual infeasibilities, |xi - sum(alpha)|
    and <X, Z> + <(u, xi), (z_u, z_xi)> all fall below tol * max(1, xi); raises
    NoConvergenceError (with residuals attached) at the iteration cap or when
    roundoff leaves an iterate on the cone's boundary.  residuals["history"]
    has one row per iteration: mu, the gap and both infeasibilities at the
    iterate it started from, and the step lengths it took.  Deterministic:
    fixed start X_j = Z_j = I.
    """
    if tol < 1e-9:
        raise ValueError("tol below 1e-9 is not supported")
    n, num_inputs, num_pairs = sdp.n, sdp.num_inputs, len(sdp.pairs)
    nb, shape = n * num_inputs**2, (n, num_inputs, num_inputs)
    order = n * num_inputs + num_inputs + 1
    b = np.concatenate([np.ones(num_pairs), np.zeros(num_inputs)])
    cost = np.zeros(nb + num_inputs + 1)
    cost[-1] = 1.0

    # X_j = I and u = 1 satisfy the row sums with xi = n + 1
    x, z, y = np.zeros_like(cost), np.zeros_like(cost), np.zeros(num_pairs + num_inputs)
    x[sdp.diagonal], x[nb:], x[-1] = 1.0, 1.0, n + 1.0
    z[sdp.diagonal], z[nb:] = 1.0, 1.0

    def max_step(l_inv: np.ndarray, dx: np.ndarray, dz: np.ndarray) -> tuple[float, float]:
        """Largest a_p and a_d with X + a_p dX and Z + a_d dZ PSD and
        (u, xi) + a dv >= 0 on each side.  With V = L L^T and l_inv the stack
        of L^-1 for the blocks of X then Z, V + a dV is PSD while
        a lambda_min(L^-1 dV L^-T) >= -1, so one eigvalsh of the 2n blocks
        L^-1 dV L^-T gives both lengths."""
        dv = np.concatenate([dx[:nb], dz[:nb]]).reshape(2 * n, num_inputs, num_inputs)
        low = np.linalg.eigvalsh(l_inv @ dv @ l_inv.transpose(0, 2, 1)).min(axis=1)
        steps = []
        for lam, v, d in ((float(low[:n].min()), x, dx), (float(low[n:].min()), z, dz)):
            shrink = d[nb:] < 0
            steps.append(min(np.inf if lam >= 0 else -1.0 / lam,
                             float((v[nb:][shrink] / -d[nb:][shrink]).min(initial=np.inf))))
        return steps[0], steps[1]

    history: list[dict] = []
    iterations = 0
    while True:
        rp = b - _apply(sdp, x)
        rd = cost - _apply_adjoint(sdp, y) - z
        xi = float(x[-1])
        complementarity = float(x @ z)
        gap = xi - float(y[:num_pairs].sum())
        primal_inf, dual_inf = float(np.abs(rp).max()), float(np.abs(rd).max())
        scale = tol * max(1.0, abs(xi))
        if max(primal_inf, dual_inf, abs(gap), complementarity) <= scale:
            break
        if iterations == max_iterations:
            break
        xb, zb = x[:nb].reshape(shape), z[:nb].reshape(shape)
        try:
            l_inv = _inverse_factors(np.concatenate([xb, zb]))
        except np.linalg.LinAlgError:
            break  # roundoff has left the cone's interior
        mu = complementarity / order
        z_inv = l_inv[n:].transpose(0, 2, 1) @ l_inv[n:]
        lp_x, lp_z = x[nb:], z[nb:]
        solve = _solver(schur_complement(sdp, xb, z_inv, lp_x / lp_z))
        x_rd_zinv = (xb @ rd[:nb].reshape(shape) @ z_inv).ravel()
        lp_rd = lp_x * rd[nb:] / lp_z

        def direction(rc_zinv: np.ndarray, rc_lp: np.ndarray):
            """(dx, dy, dz) with A dx = rp, A^T dy + dz = rd and the linearized
            HKM centring dX = sym((R_c - X dZ) Z^-1), given R_c Z^-1 and r_c / z."""
            dy = solve(rp + _apply(sdp, np.concatenate([x_rd_zinv - rc_zinv.ravel(), lp_rd - rc_lp])))
            dz = rd - _apply_adjoint(sdp, dy)
            dxb = rc_zinv - xb @ dz[:nb].reshape(shape) @ z_inv
            dxb += dxb.transpose(0, 2, 1)
            dxb *= 0.5
            return np.concatenate([dxb.ravel(), rc_lp - lp_x * dz[nb:] / lp_z]), dy, dz

        # Mehrotra: an affine predictor sets the centring sigma, then one corrector
        dx, dy, dz = direction(-xb, -lp_x)
        step_p, step_d = (min(1.0, step) for step in max_step(l_inv, dx, dz))
        sigma = min(1.0, ((x + step_p * dx) @ (z + step_d * dz) / order / mu) ** 3)
        dxb, dzb = dx[:nb].reshape(shape), dz[:nb].reshape(shape)
        dx, dy, dz = direction(sigma * mu * z_inv - xb - dxb @ dzb @ z_inv,
                               (sigma * mu - dx[nb:] * dz[nb:]) / lp_z - lp_x)
        # the fraction of the way to the boundary, as in SDPT3
        fraction = 0.9 + 0.09 * min(step_p, step_d)
        step_p, step_d = (min(1.0, fraction * step) for step in max_step(l_inv, dx, dz))
        x += step_p * dx
        y += step_d * dy
        z += step_d * dz
        iterations += 1
        history.append({"mu": mu, "gap": gap, "primal_infeasibility": primal_inf,
                        "dual_infeasibility": dual_inf, "step_primal": step_p, "step_dual": step_d})

    alpha, beta = y[:num_pairs], -y[num_pairs:]
    blocks = x[:nb].reshape(shape)
    residuals = {
        "primal_equality": float(np.abs(_pair_values(sdp, x) - 1.0).max()),
        "row_sum_violation": float(max(0.0, (x[sdp.diagonal].sum(axis=0) - xi).max())),
        "min_eigenvalue": float(np.linalg.eigvalsh(blocks).min()),
        "duality_gap": abs(gap),
        "beta_sum": float(beta.sum()),
        "primal_infeasibility": primal_inf,
        "dual_infeasibility": dual_inf,
        "complementarity": complementarity,
        "iterations": iterations,
        "tolerance": tol,
        "history": history,
    }
    if max(primal_inf, dual_inf, abs(gap), complementarity) > scale:
        stop = "the iteration cap" if iterations == max_iterations else "the iterates left the cone's interior"
        raise NoConvergenceError(
            f"no convergence after {iterations} iterations, at {stop} "
            f"(infeasibility {primal_inf:.2e}/{dual_inf:.2e}, "
            f"gap {gap:.2e}, complementarity {complementarity:.2e})",
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
    are dropped (their Gamma rows/columns stay zero).  That is only legal
    when the matching alpha multipliers vanish with beta: the dual slack
    Z_j = diag(beta) - sum_{w_j != x_j} alpha_wx (E_wx + E_xw) / 2 is PSD, so
    |alpha_wx| <= 2 sqrt(beta_w beta_x), and an interior-point dual sits at
    that scale (beta_s ~ mu on a slack input, alpha ~ sqrt(mu)).  An alpha
    beyond that bound, by more than 1e-6 max(1, max|alpha|), reports the
    dual as degenerate.
    """
    num_inputs = 2**f.n
    gamma = np.zeros((num_inputs, num_inputs))
    alpha_scale = max(1.0, float(np.abs(sol.alpha).max()) if len(sol.alpha) else 0.0)
    dropped = sol.beta < BETA_DROP_TOL
    beta_plus = np.maximum(sol.beta, 0.0)
    w, x = np.array(sol.sdp.pairs).reshape(-1, 2).T
    on_dropped = dropped[w] | dropped[x]
    beyond = on_dropped & (np.abs(sol.alpha) > 2.0 * np.sqrt(beta_plus[w] * beta_plus[x]) + 1e-6 * alpha_scale)
    if beyond.any():
        p = int(np.argmax(beyond))
        raise DegenerateDualError(
            f"beta vanished on inputs {sorted(int(s) for s in (w[p], x[p]) if dropped[s])} "
            f"but alpha[{w[p]},{x[p]}] = {sol.alpha[p]:.3e} exceeds what Z >= 0 allows"
        )
    kept = ~on_dropped
    w, x = w[kept], x[kept]
    gamma[w, x] = gamma[x, w] = sol.alpha[kept] / np.sqrt(sol.beta[w] * sol.beta[x])
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
    table = np.array(f.table)
    wrong = (table[:, None] == table[None, :]) & (np.abs(g) > 1e-12 * scale)
    if wrong.any():
        x, y = np.unravel_index(np.argmax(wrong), wrong.shape)
        raise PatternViolationError(f"Gamma[{x},{y}] = {g[x, y]:.3e} but f({x}) = f({y})")
    denom = max(spectral_norm(hadamard(g, difference_matrix(f, i))) for i in range(1, f.n + 1))
    return spectral_norm(g) / denom
