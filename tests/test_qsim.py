import numpy as np
import pytest

from advspan.boolfun import BooleanFunction, load_function
from advspan.errors import (
    AlgorithmTooWeakError,
    DimensionMismatchError,
    NotNormalizedError,
)
from advspan.matkernel import unitary_eigensystem
from advspan.qsim import (
    QueryAlgorithm,
    constant_output_algorithm,
    default_ancilla_count,
    parity_two_query_algorithm,
    progress_trace,
    qpe_accept_probability,
    run_query_algorithm,
    search_accept_probability,
    search_noregister_probability,
)
from advspan.spectral import reflection_unitary

FINAL_CONSTANT = (2.0 / 3.0) * np.sqrt(2.0)


def resolution(u, anchor=None):
    """(phases, overlaps) of the anchor (default e_0) over the Schur eigenvectors of u."""
    phases, vectors = unitary_eigensystem(u)
    if anchor is None:
        anchor = np.zeros(u.shape[0])
        anchor[0] = 1.0
    return phases, np.abs(vectors.conj().T @ anchor) ** 2


def test_constant_algorithm_on_constant_function():
    f = BooleanFunction(2, (0, 0, 0, 0))
    run = run_query_algorithm(constant_output_algorithm(2, 0), f)
    assert np.allclose(run.success, 1.0)


def test_zero_queries_cannot_separate_inputs():
    f = load_function("PARITY:2")
    run = run_query_algorithm(constant_output_algorithm(2, 0), f)
    assert run.success.min() <= 0.5 + 1e-12


def test_parity_algorithm_is_exact():
    alg = parity_two_query_algorithm()
    assert alg.queries == 2
    run = run_query_algorithm(alg, load_function("PARITY:2"))
    assert np.allclose(run.success, 1.0, atol=1e-12)


def test_run_rejects_wrong_arity():
    with pytest.raises(DimensionMismatchError):
        run_query_algorithm(parity_two_query_algorithm(), load_function("OR:3"))


def test_progress_trace_parity(solved):
    bundle = solved("PARITY:2")
    trace = progress_trace(parity_two_query_algorithm(), bundle.f, bundle.certificate)
    # Claim 1: M^(0) = ||Gamma||
    assert trace.values[0] == pytest.approx(trace.gamma_norm, abs=1e-8)
    # Claim 3 at every step
    assert trace.drops.max() <= trace.drop_bound + 1e-8
    # Claim 2: final overlap bound, a fortiori for an exact algorithm
    assert trace.values[-1] <= FINAL_CONSTANT * trace.gamma_norm + 1e-8
    assert trace.values[-1] <= trace.final_bound_actual + 1e-8
    assert abs(trace.values[-1]) <= 1e-8  # exact algorithms fully decouple the branches
    # drops add up and the drop accounting is consistent with T
    assert trace.drops.sum() == pytest.approx(trace.values[0] - trace.values[-1], abs=1e-8)
    assert (trace.values[0] - trace.values[-1]) / trace.drop_bound <= len(trace.drops) + 1e-9


def test_progress_trace_ignores_oracle_free_steps(solved):
    bundle = solved("PARITY:2")
    base = parity_two_query_algorithm()
    padded = QueryAlgorithm(
        n=2,
        query_dim=base.query_dim,
        work_dim=base.work_dim,
        unitaries=(base.unitaries[0], np.eye(base.dim), base.unitaries[1], base.unitaries[2]),
        proj0=base.proj0,
        proj1=base.proj1,
        oracle_flags=(False, True, True),
    )
    run = run_query_algorithm(padded, bundle.f)
    assert np.allclose(run.success, 1.0, atol=1e-12)
    trace = progress_trace(padded, bundle.f, bundle.certificate)
    assert abs(trace.drops[0]) <= 1e-12  # a unitary without an oracle moves nothing
    assert trace.drops.max() <= trace.drop_bound + 1e-8


def test_progress_trace_rejects_weak_algorithms(solved):
    bundle = solved("PARITY:2")
    with pytest.raises(AlgorithmTooWeakError):
        progress_trace(constant_output_algorithm(2, 0), bundle.f, bundle.certificate)


def test_qpe_kernel_examples():
    assert qpe_accept_probability([0.0], [1.0], 0.25, 3) == pytest.approx(1.0)
    assert qpe_accept_probability([np.pi], [1.0], 0.5, 2) == pytest.approx(0.0, abs=1e-12)
    a = 4
    assert qpe_accept_probability([2.0 * np.pi / 2**a], [1.0], 0.25, a) == pytest.approx(
        0.0, abs=1e-12
    )


def test_qpe_validates_inputs():
    with pytest.raises(NotNormalizedError):
        qpe_accept_probability([0.0, 1.0], [0.7, 0.7], 0.25, 3)
    with pytest.raises(ValueError):
        qpe_accept_probability([0.0], [1.0], 0.01, 2)  # 2^-2 > 0.01
    assert default_ancilla_count(0.01) == 8


def test_search_probability_trivial_unitaries():
    assert search_accept_probability(*resolution(np.eye(4)), 7) == pytest.approx(1.0)
    assert search_accept_probability(*resolution(-np.eye(4)), 2) == pytest.approx(0.5)  # odd T: 0, even T: 1
    assert search_noregister_probability(*resolution(np.eye(3)), 5) == pytest.approx(1.0)
    assert search_noregister_probability(*resolution(-np.eye(3)), 5) == pytest.approx(1.0)  # global phase


def naive_search_probability(u, tau, anchor):
    total = 0.0
    power = np.eye(u.shape[0], dtype=complex)
    for _ in range(tau):
        power = power @ u
        total += 0.25 * np.linalg.norm(anchor + power @ anchor) ** 2
    return total / tau


def test_search_probability_matches_matrix_powers():
    rng = np.random.default_rng(43)
    for dim in (2, 5, 16):
        q = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]
        anchor = np.zeros(dim)
        anchor[0] = 1.0
        fast = search_accept_probability(*resolution(q), 9)
        assert fast == pytest.approx(naive_search_probability(q, 9, anchor), abs=1e-8)


def test_search_on_parity_true_input(solved):
    bundle = solved("PARITY:2")
    g = bundle.graph
    w = bundle.program.witness_size
    tau = int(np.ceil(100.0 * w))
    anchor = g.mu0_vector()
    for s in bundle.f.f1:
        u = reflection_unitary(g, s)
        assert search_accept_probability(*resolution(u, anchor), tau) >= 0.9 - 1e-9
    # the register-free variant is reported, not thresholded
    for s in bundle.f.inputs:
        p = search_noregister_probability(*resolution(reflection_unitary(g, s), anchor), tau)
        assert 0.0 <= p <= 1.0 + 1e-12


def test_noregister_values_at_large_tau(solved):
    """Register-free search probabilities at tau = ceil(1e5 W), logged for
    comparison against the 64% / 61% figures quoted without proof; no
    threshold is asserted."""
    bundle = solved("PARITY:2")
    g = bundle.graph
    tau = int(np.ceil(1e5 * bundle.program.witness_size))
    values = {}
    for s in bundle.f.inputs:
        u = reflection_unitary(g, s)
        values[f"{s:02b}"] = round(search_noregister_probability(*resolution(u, g.mu0_vector()), tau), 4)
    assert all(0.0 <= v <= 1.0 for v in values.values())
    print("register-free acceptance at tau=1e5*W:", values)
