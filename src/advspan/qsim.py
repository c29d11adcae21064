"""Exact simulation of quantum query algorithms and of the three
span-program evaluation algorithms.

Query model: U_T V U_{T-1} V ... U_1 V U_0 on a query register Q tensor a
workspace W, where the phase oracle V maps query basis state j - 1 to
(-1)^{x_j} times itself for coordinates j = 1..n and fixes the rest.
States are tracked per input (rows of the Psi^t matrix), so everything is
desk-scale dense linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .advsdp import AdversaryCertificate, _ratio_norms
from .boolfun import BooleanFunction, input_bits
from .errors import BadSpecError, CheckError
from .matkernel import require_hermitian

FINAL_OVERLAP_CONSTANT = (2.0 / 3.0) * np.sqrt(2.0)


@dataclass(frozen=True)
class QueryAlgorithm:
    """Input-independent unitaries interleaved with phase-oracle calls.

    unitaries holds U_0..U_T on the Q tensor W space (dimension
    query_dim * work_dim); every step U_1..U_T follows one oracle call, so
    the algorithm makes T queries.  A step without a query is the product of
    two adjacent unitaries.  proj1 projects onto the states that answer 1,
    and proj0 = I - proj1 onto those that answer 0.
    """

    n: int
    query_dim: int
    work_dim: int
    unitaries: tuple[np.ndarray, ...]
    proj1: np.ndarray

    def __post_init__(self):
        if self.query_dim < self.n:
            raise CheckError("query register must address all n coordinates")
        d = self.query_dim * self.work_dim
        eye = np.eye(d)
        for u in self.unitaries:
            if u.shape != (d, d):
                raise CheckError(f"unitary shape {u.shape} != ({d}, {d})")
            if np.abs(u.conj().T @ u - eye).max() > 1e-9:
                raise CheckError("step matrix is not unitary within 1e-9")
        p = self.proj1
        if p.shape != (d, d) or np.abs(p - p.conj().T).max() > 1e-9 or np.abs(p @ p - p).max() > 1e-9:
            raise CheckError(f"proj1 must be a Hermitian idempotent ({d}, {d}) matrix")

    @property
    def proj0(self) -> np.ndarray:
        return np.eye(self.dim) - self.proj1

    @property
    def queries(self) -> int:
        return len(self.unitaries) - 1

    @property
    def dim(self) -> int:
        return self.query_dim * self.work_dim


@dataclass(frozen=True)
class AlgorithmRun:
    """Per-input state history: states[t, x] is psi_x^t after U_t."""

    states: np.ndarray
    success: np.ndarray


def run_query_algorithm(a: QueryAlgorithm, f: BooleanFunction) -> AlgorithmRun:
    """Exact state-vector evolution over every input simultaneously: row x of
    each step's states is psi_x^t, and the oracle multiplies it by x's sign
    row, (-1)^{x_j} on query state j - 1 (repeated over the workspace) and 1
    on the rest."""
    if f.n != a.n:
        raise CheckError(f"function arity {f.n} != algorithm arity {a.n}")
    signs = np.ones((2**f.n, a.query_dim))
    signs[:, : a.n] = 1 - 2 * input_bits(a.n)
    signs = np.repeat(signs, a.work_dim, axis=1)
    states = np.empty((len(a.unitaries), 2**f.n, a.dim), dtype=complex)
    states[0] = a.unitaries[0][:, 0]  # U_0 |0> on every input
    for t, u in enumerate(a.unitaries[1:], start=1):
        states[t] = (signs * states[t - 1]) @ u.T
    return AlgorithmRun(states=states, success=np.linalg.norm(_good_part(a, f, states[-1]), axis=1) ** 2)


def _good_part(a: QueryAlgorithm, f: BooleanFunction, final: np.ndarray) -> np.ndarray:
    """Each final state projected on its right answer: proj1 psi_x where
    f(x) = 1, proj0 psi_x elsewhere, stacked over the inputs."""
    return np.where(np.array(f.table)[:, None] == 1, final @ a.proj1.T, final @ a.proj0.T)


@dataclass(frozen=True)
class ProgressTrace:
    """Progress measure M^(t) = <Gamma, W^(t)> along one algorithm run.

    drop_bound is 2 max_i ||Gamma o D_i||; final_bound_overlap is the
    worst-case (2/3) sqrt(2) ||Gamma|| final bound and final_bound_actual
    its sharper 2 ||X0||_F ||X1||_F ||Gamma|| form from the run's true
    error.
    """

    gamma: np.ndarray
    delta: np.ndarray
    values: np.ndarray
    drops: np.ndarray
    drop_bound: float
    gamma_norm: float
    final_bound_overlap: float
    final_bound_actual: float
    success: np.ndarray


def progress_trace(a: QueryAlgorithm, certificate: AdversaryCertificate) -> ProgressTrace:
    """Track the adversary progress measure along one run on certificate.f.

    The trace carries everything needed to check the start value
    M^(0) = ||Gamma||, the per-query drop bound, and the final overlap
    bound.  Requires the algorithm to err below 1/3 on every input; the adversary
    matrix is flipped in sign when needed so its top eigenvalue equals
    ||Gamma||, and the progress vector delta is that top eigenvector, taken
    from the same eigh; it enters only through delta delta^T, so its phase is
    immaterial.  The drop bound's norms come from advsdp's one stacked SVD
    of Gamma and the Gamma o D_i.
    """
    f = certificate.f
    run = run_query_algorithm(a, f)
    if run.success.min() < 2.0 / 3.0 - 1e-9:
        raise CheckError(
            f"error {1 - run.success.min():.4f} exceeds 1/3 on input {int(run.success.argmin())}"
        )
    gamma = np.array(certificate.gamma, dtype=float)
    w, v = np.linalg.eigh(require_hermitian(gamma))
    top = 0 if abs(w[0]) > w[-1] else -1
    if top == 0:
        gamma = -gamma
    gamma_norm = float(abs(w[top]))
    delta = v[:, top]

    steps = run.states.shape[0]
    weight = np.outer(delta, delta.conj())
    values = np.zeros(steps)
    for t in range(steps):
        overlap = run.states[t] @ run.states[t].conj().T  # [x,y] = <psi_y|psi_x>
        m_t = np.sum(gamma.conj() * (weight * overlap))
        if abs(m_t.imag) > 1e-9:
            raise CheckError(f"progress measure picked up imaginary part {m_t.imag:.2e}")
        values[t] = m_t.real
    drops = values[:-1] - values[1:]
    drop_bound = 2.0 * _ratio_norms(gamma, f)[1]

    final = run.states[-1]
    weight = np.abs(delta) ** 2
    x0_sq = float(weight @ run.success)
    x1_sq = float(weight @ np.linalg.norm(final - _good_part(a, f, final), axis=1) ** 2)
    return ProgressTrace(
        gamma=gamma,
        delta=delta,
        values=values,
        drops=drops,
        drop_bound=drop_bound,
        gamma_norm=gamma_norm,
        final_bound_overlap=FINAL_OVERLAP_CONSTANT * gamma_norm,
        final_bound_actual=2.0 * np.sqrt(x0_sq * x1_sq) * gamma_norm,
        success=run.success,
    )


# ---------------------------------------------------------------------------
# Span-program evaluation algorithms
# ---------------------------------------------------------------------------


def qpe_kernel(theta, ancilla_count: int):
    """Probability that ideal phase estimation with 2^a controlled powers
    reads the all-zero register on an eigenphase theta:
    K_a(theta) = |sum_{k<2^a} e^{ik theta}|^2 / 4^a."""
    theta = np.asarray(theta, dtype=float)
    half = 2.0 ** (ancilla_count - 1)
    total = 2.0**ancilla_count
    num = np.sin(half * theta) ** 2
    den = (total * np.sin(theta / 2.0)) ** 2
    small = np.abs(np.sin(theta / 2.0)) < 1e-12
    return np.where(small, 1.0, num / np.where(small, 1.0, den))


def _resolution(phases, overlaps) -> tuple[np.ndarray, np.ndarray]:
    """phases/overlaps as float arrays; each row of overlaps must sum to one."""
    phases = np.asarray(phases, dtype=float)
    overlaps = np.asarray(overlaps, dtype=float)
    totals = overlaps.sum(axis=-1)
    worst = np.abs(totals - 1.0)
    if worst.max(initial=0.0) > 1e-8:
        raise CheckError(f"overlaps sum to {np.ravel(totals)[np.argmax(worst)]:.10f}, expected 1")
    return phases, overlaps


def _dirichlet_sum(phi, tau: int) -> np.ndarray:
    """sum_{T=1}^{tau} cos(T phi) = sin(tau phi / 2) cos((tau + 1) phi / 2) / sin(phi / 2),
    elementwise.  phi is first reduced to [-pi, pi), so that the arguments of
    the sines stay as small as phi's distance to the nearest multiple of
    2 pi; where |sin(phi / 2)| < 1e-12 every term is 1 to roundoff and the
    sum is tau, the guard qpe_kernel uses."""
    if tau < 1:
        raise BadSpecError("tau must be at least 1")
    phi = np.remainder(np.asarray(phi, dtype=float) + np.pi, 2.0 * np.pi) - np.pi
    den = np.sin(phi / 2.0)
    small = np.abs(den) < 1e-12
    num = np.sin(tau * phi / 2.0) * np.cos((tau + 1) * phi / 2.0)
    return np.where(small, float(tau), num / np.where(small, 1.0, den))


def qpe_accept_probability(phases, overlaps, precision: float):
    """Exact ideal-circuit probability of measuring phase zero.

    phases/overlaps describe the spectral resolution of the initial state
    over U_s eigenvectors, along the last axis, so a (..., K) stack gives a
    (...) array of probabilities; each row of overlaps must sum to one.  The
    register holds ceil(log2(1/precision)) + 1 qubits for precision in (0, 1].
    """
    if not (np.isfinite(precision) and 0.0 < precision <= 1.0):
        raise BadSpecError(f"precision must be finite and in (0, 1], got {precision!r}")
    phases, overlaps = _resolution(phases, overlaps)
    ancilla_count = int(np.ceil(np.log2(1.0 / precision))) + 1
    return (overlaps * qpe_kernel(phases, ancilla_count)).sum(axis=-1)


def search_accept_probability(phases, overlaps, tau: int):
    """Average over T in 1..tau of (1/4) ||(I + U^T) anchor||^2.

    phases/overlaps are the spectral resolution of the anchor along the last
    axis, as for qpe_accept_probability.  Each eigenvector beta contributes
    cos^2(theta(beta) T / 2) = (1 + cos(theta(beta) T)) / 2, whose average
    over T is a Dirichlet sum, so neither a matrix power nor a term per T is
    formed.
    """
    phases, overlaps = _resolution(phases, overlaps)
    return (overlaps * (0.5 + _dirichlet_sum(phases, tau) / (2.0 * tau))).sum(axis=-1)


def search_noregister_probability(phases, overlaps, tau: int):
    """Average over T in 1..tau of |<anchor| U^T |anchor>|^2, from the
    anchor's spectral resolution along the last axis:
    sum_{k,l} w_k w_l (1/tau) sum_T cos(T (theta_k - theta_l)), one Dirichlet
    sum per pair of phases."""
    phases, overlaps = _resolution(phases, overlaps)
    kernel = _dirichlet_sum(phases[..., :, None] - phases[..., None, :], tau) / tau
    return np.einsum("...k,...kl,...l->...", overlaps, kernel, overlaps)


# ---------------------------------------------------------------------------
# Corpus anchor: an exact two-query parity algorithm
# ---------------------------------------------------------------------------


def _mix(query_dim: int, i: int, j: int) -> np.ndarray:
    """Two-level mixer on query states i, j: e_i -> (e_i + e_j)/sqrt(2),
    e_j -> (e_i - e_j)/sqrt(2)."""
    m = np.eye(query_dim)
    r = 1.0 / np.sqrt(2.0)
    m[i, i], m[i, j] = r, r
    m[j, i], m[j, j] = r, -r
    return m


def parity_two_query_algorithm() -> QueryAlgorithm:
    """Exact PARITY:2 algorithm from two single-coordinate phase-kickback stages.

    Query register: states 0/1 are coordinates x_1/x_2, state 2 is inert;
    workspace: one parity bit.  Stage one interferes the inert state
    against coordinate 1 and folds the outcome into the workspace bit,
    stage two repeats for coordinate 2; measuring the workspace yields
    x_1 xor x_2 with certainty.
    """
    qd, wd = 3, 2
    eye_w = np.eye(wd)

    def on_query(mat: np.ndarray) -> np.ndarray:
        return np.kron(mat, eye_w)

    def flip_w_on(q: int) -> np.ndarray:
        m = np.eye(qd * wd)
        a, b = q * wd, q * wd + 1
        m[[a, b]] = m[[b, a]]
        return m

    def swap_q_on_w1(qa: int, qb: int) -> np.ndarray:
        m = np.eye(qd * wd)
        a, b = qa * wd + 1, qb * wd + 1
        m[[a, b]] = m[[b, a]]
        return m

    u0 = on_query(_mix(qd, 0, 2))
    u1 = on_query(_mix(qd, 2, 1)) @ swap_q_on_w1(0, 2) @ flip_w_on(0) @ on_query(_mix(qd, 2, 0))
    u2 = flip_w_on(1) @ on_query(_mix(qd, 2, 1))
    proj1 = np.kron(np.eye(qd), np.diag([0.0, 1.0]))
    return QueryAlgorithm(n=2, query_dim=qd, work_dim=wd, unitaries=(u0, u1, u2), proj1=proj1)

