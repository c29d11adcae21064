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

from .advsdp import AdversaryCertificate
from .boolfun import BooleanFunction, difference_matrix
from .errors import (
    AlgorithmTooWeakError,
    DimensionMismatchError,
    NotNormalizedError,
)
from .matkernel import eig_hermitian, hadamard, spectral_norm

FINAL_OVERLAP_CONSTANT = (2.0 / 3.0) * np.sqrt(2.0)


@dataclass(frozen=True)
class QueryAlgorithm:
    """Input-independent unitaries interleaved with phase-oracle calls.

    unitaries holds U_0..U_T on the Q tensor W space (dimension
    query_dim * work_dim); oracle_flags[t] tells whether step t+1 is
    preceded by an oracle call (all True for a plain T-query algorithm;
    False inserts a unitary-only step, which the progress measure must
    ignore).
    """

    n: int
    query_dim: int
    work_dim: int
    unitaries: tuple[np.ndarray, ...]
    proj0: np.ndarray
    proj1: np.ndarray
    oracle_flags: tuple[bool, ...] = ()

    def __post_init__(self):
        if self.query_dim < self.n:
            raise DimensionMismatchError("query register must address all n coordinates")
        d = self.query_dim * self.work_dim
        flags = tuple(self.oracle_flags) if self.oracle_flags else tuple(
            True for _ in range(len(self.unitaries) - 1)
        )
        object.__setattr__(self, "oracle_flags", flags)
        if len(flags) != len(self.unitaries) - 1:
            raise DimensionMismatchError("need one oracle flag per step U_1..U_T")
        eye = np.eye(d)
        for u in self.unitaries:
            if u.shape != (d, d):
                raise DimensionMismatchError(f"unitary shape {u.shape} != ({d}, {d})")
            if np.abs(u.conj().T @ u - eye).max() > 1e-9:
                raise DimensionMismatchError("step matrix is not unitary within 1e-9")
        for p in (self.proj0, self.proj1):
            if np.abs(p - p.conj().T).max() > 1e-9 or np.abs(p @ p - p).max() > 1e-9:
                raise DimensionMismatchError("output projectors must be Hermitian idempotent")
        if np.abs(self.proj0 + self.proj1 - eye).max() > 1e-9:
            raise DimensionMismatchError("output projectors must resolve the identity")
        if np.abs(self.proj0 @ self.proj1).max() > 1e-9:
            raise DimensionMismatchError("output projectors must be orthogonal")

    @property
    def queries(self) -> int:
        return int(sum(self.oracle_flags))

    @property
    def dim(self) -> int:
        return self.query_dim * self.work_dim

    def oracle_diagonal(self, x: int) -> np.ndarray:
        """Diagonal of V_ind for input string x (MSB of x is coordinate 1)."""
        phases = np.ones(self.query_dim)
        for j in range(1, self.n + 1):
            if (x >> (self.n - j)) & 1:
                phases[j - 1] = -1.0
        return np.repeat(phases, self.work_dim)


@dataclass(frozen=True)
class AlgorithmRun:
    """Per-input state history: states[t, x] is psi_x^t after U_t."""

    states: np.ndarray
    success: np.ndarray


def run_query_algorithm(a: QueryAlgorithm, f: BooleanFunction) -> AlgorithmRun:
    """Exact state-vector evolution over every input simultaneously."""
    if f.n != a.n:
        raise DimensionMismatchError(f"function arity {f.n} != algorithm arity {a.n}")
    num_inputs = 2**f.n
    steps = len(a.unitaries)
    states = np.zeros((steps, num_inputs, a.dim), dtype=complex)
    start = np.zeros(a.dim, dtype=complex)
    start[0] = 1.0
    for x in f.inputs:
        psi = a.unitaries[0] @ start
        states[0, x] = psi
        for t in range(1, steps):
            if a.oracle_flags[t - 1]:
                psi = a.oracle_diagonal(x) * psi
            psi = a.unitaries[t] @ psi
            states[t, x] = psi
    success = np.zeros(num_inputs)
    for x in f.inputs:
        proj = a.proj1 if f.value(x) else a.proj0
        success[x] = float(np.linalg.norm(proj @ states[-1, x]) ** 2)
    return AlgorithmRun(states=states, success=success)


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
    oracle_flags: tuple[bool, ...]


def progress_trace(
    a: QueryAlgorithm, f: BooleanFunction, certificate: AdversaryCertificate
) -> ProgressTrace:
    """Track the adversary progress measure along one run.

    The trace carries everything needed to check the start value
    M^(0) = ||Gamma||, the per-query drop bound, and the final overlap
    bound.  Requires the algorithm to err below 1/3 on every input; the adversary
    matrix is flipped in sign when needed so its top eigenvalue equals
    ||Gamma||, and the progress vector delta is that top eigenvector.
    """
    run = run_query_algorithm(a, f)
    if run.success.min() < 2.0 / 3.0 - 1e-9:
        raise AlgorithmTooWeakError(
            f"error {1 - run.success.min():.4f} exceeds 1/3 on input {int(run.success.argmin())}"
        )
    gamma = np.array(certificate.gamma, dtype=float)
    es = eig_hermitian(gamma)
    if abs(es.eigenvalues[0]) > es.eigenvalues[-1]:
        gamma = -gamma
        es = eig_hermitian(gamma)
    gamma_norm = float(es.eigenvalues[-1])
    delta = es.eigenvectors[:, -1]
    if np.abs(delta.imag).max(initial=0.0) < 1e-14:
        delta = delta.real

    steps = run.states.shape[0]
    weight = np.outer(delta, delta.conj())
    values = np.zeros(steps)
    for t in range(steps):
        overlap = run.states[t] @ run.states[t].conj().T  # [x,y] = <psi_y|psi_x>
        m_t = np.sum(gamma.conj() * (weight * overlap))
        if abs(m_t.imag) > 1e-9:
            raise NotNormalizedError(f"progress measure picked up imaginary part {m_t.imag:.2e}")
        values[t] = m_t.real
    drops = values[:-1] - values[1:]
    drop_bound = 2.0 * max(
        spectral_norm(hadamard(gamma, difference_matrix(f, i))) for i in range(1, f.n + 1)
    )

    final = run.states[-1]
    x0_sq = x1_sq = 0.0
    for x in f.inputs:
        good = a.proj1 if f.value(x) else a.proj0
        x0_sq += abs(delta[x]) ** 2 * float(np.linalg.norm(good @ final[x]) ** 2)
        x1_sq += abs(delta[x]) ** 2 * float(np.linalg.norm((np.eye(a.dim) - good) @ final[x]) ** 2)
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
        oracle_flags=a.oracle_flags,
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
    """phases/overlaps as float arrays; overlaps must sum to one."""
    phases = np.asarray(phases, dtype=float)
    overlaps = np.asarray(overlaps, dtype=float)
    if abs(overlaps.sum() - 1.0) > 1e-8:
        raise NotNormalizedError(f"overlaps sum to {overlaps.sum():.10f}, expected 1")
    return phases, overlaps


def qpe_accept_probability(
    phases, overlaps, precision: float, ancilla_count: int
) -> float:
    """Exact ideal-circuit probability of measuring phase zero.

    phases/overlaps describe the spectral resolution of the initial state
    over U_s eigenvectors; overlaps must sum to one.  Requires
    2^-ancilla_count <= precision.
    """
    phases, overlaps = _resolution(phases, overlaps)
    if 2.0**-ancilla_count > precision:
        raise ValueError("ancilla register too small for the requested precision")
    return float((overlaps * qpe_kernel(phases, ancilla_count)).sum())


def default_ancilla_count(precision: float) -> int:
    return int(np.ceil(np.log2(1.0 / precision))) + 1


def search_accept_probability(phases, overlaps, tau: int) -> float:
    """Average over T in 1..tau of (1/4) ||(I + U^T) anchor||^2.

    phases/overlaps are the spectral resolution of the anchor, as for
    qpe_accept_probability; each eigenvector beta contributes
    cos^2(theta(beta) T / 2), so no matrix power is formed.
    """
    if tau < 1:
        raise ValueError("tau must be at least 1")
    phases, overlaps = _resolution(phases, overlaps)
    t_range = np.arange(1, tau + 1)
    kernel = np.cos(np.outer(phases, t_range) / 2.0) ** 2
    return float(overlaps @ kernel.mean(axis=1))


def search_noregister_probability(phases, overlaps, tau: int) -> float:
    """Average over T in 1..tau of |<anchor| U^T |anchor>|^2, from the
    anchor's spectral resolution."""
    if tau < 1:
        raise ValueError("tau must be at least 1")
    phases, overlaps = _resolution(phases, overlaps)
    t_range = np.arange(1, tau + 1)
    amplitudes = (np.exp(1j * np.outer(t_range, phases)) * overlaps).sum(axis=1)
    return float((np.abs(amplitudes) ** 2).mean())


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
    proj0 = np.eye(qd * wd) - proj1
    return QueryAlgorithm(
        n=2, query_dim=qd, work_dim=wd, unitaries=(u0, u1, u2), proj0=proj0, proj1=proj1
    )


def constant_output_algorithm(n: int, output: int) -> QueryAlgorithm:
    """Zero-query algorithm that always answers `output`."""
    d = n  # minimal query register, single workspace state
    eye = np.eye(d)
    proj_out = np.eye(d)
    proj_other = np.zeros((d, d))
    proj0, proj1 = (proj_other, proj_out) if output else (proj_out, proj_other)
    return QueryAlgorithm(
        n=n, query_dim=d, work_dim=1, unitaries=(eye,), proj0=proj0, proj1=proj1
    )
