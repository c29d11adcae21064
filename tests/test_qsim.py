import re

import numpy as np
import pytest

from advspan.boolfun import BooleanFunction, load_function
from advspan.errors import BadSpecError, CheckError
from advspan.qsim import (
    QueryAlgorithm,
    parity_two_query_algorithm,
    progress_trace,
    qpe_accept_probability,
    qpe_kernel,
    run_query_algorithm,
    search_accept_probability,
    search_noregister_probability,
)

from conftest import anchor_vector, constant_output_algorithm, dense_unitary, reference_run, unitary_eigensystem

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


def test_stacked_run_matches_the_per_input_run():
    """Every input evolved at once, with one sign row per input, gives the
    per-input run's states and success probabilities to roundoff, on random
    unitaries with inert query states."""
    rng = np.random.default_rng(11)
    qd, wd = 5, 2
    unitaries = tuple(np.linalg.qr(rng.standard_normal((qd * wd, qd * wd))
                                   + 1j * rng.standard_normal((qd * wd, qd * wd)))[0] for _ in range(4))
    proj1 = np.kron(np.eye(qd), np.diag([0.0, 1.0]))
    alg = QueryAlgorithm(n=3, query_dim=qd, work_dim=wd, unitaries=unitaries, proj1=proj1)
    f = load_function("MAJ:3")
    run = run_query_algorithm(alg, f)
    states, success = reference_run(alg, f)
    assert np.abs(run.states - states).max() <= 1e-13
    assert np.abs(run.success - success).max() <= 1e-13


@pytest.mark.parametrize("fields, message", [
    ({"n": 3}, "query register must address all n coordinates"),
    ({"unitaries": (np.eye(3),)}, "unitary shape (3, 3) != (2, 2)"),
    ({"unitaries": (2.0 * np.eye(2),)}, "step matrix is not unitary within 1e-9"),
    ({"proj1": 0.5 * np.eye(2)}, "proj1 must be a Hermitian idempotent (2, 2) matrix"),
    ({"proj1": np.array([[1.0, 1.0], [0.0, 0.0]])}, "proj1 must be a Hermitian idempotent (2, 2) matrix"),
    ({"proj1": np.eye(3)}, "proj1 must be a Hermitian idempotent (2, 2) matrix"),
])
def test_query_algorithm_rejects_bad_fields(fields, message):
    """Each field of a two-coordinate, zero-query algorithm replaced by a bad
    value: a query register too small for n, a step of the wrong shape or not
    unitary, and a proj1 that is not idempotent, not Hermitian or of the
    wrong shape."""
    good = {"n": 2, "query_dim": 2, "work_dim": 1, "unitaries": (np.eye(2),), "proj1": np.diag([0.0, 1.0])}
    with pytest.raises(CheckError, match=re.escape(message)):
        QueryAlgorithm(**{**good, **fields})


@pytest.mark.parametrize("probability", [search_accept_probability, search_noregister_probability])
def test_search_probabilities_reject_tau_zero(probability):
    with pytest.raises(BadSpecError, match="tau must be at least 1"):
        probability(np.zeros(1), np.ones(1), 0)


@pytest.mark.parametrize("precision", [0.0, -0.1, np.nan, np.inf, 4.0])
def test_qpe_rejects_a_precision_outside_0_1(precision):
    """The register holds ceil(log2(1/precision)) + 1 qubits: at 4.0 that is
    -1 qubits, and at 0, -0.1 or NaN no count at all."""
    with pytest.raises(BadSpecError, match="precision must be finite and in"):
        qpe_accept_probability(np.zeros(1), np.ones(1), precision)


def test_run_rejects_wrong_arity():
    with pytest.raises(CheckError, match="function arity 3 != algorithm arity 2"):
        run_query_algorithm(parity_two_query_algorithm(), load_function("OR:3"))


def test_progress_trace_parity(solved):
    bundle = solved("PARITY:2")
    trace = progress_trace(parity_two_query_algorithm(), bundle.certificate)
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


def test_progress_trace_rejects_weak_algorithms(solved):
    bundle = solved("PARITY:2")
    with pytest.raises(CheckError, match="exceeds 1/3 on input"):
        progress_trace(constant_output_algorithm(2, 0), bundle.certificate)


def test_qpe_kernel_examples():
    """precision 2^-k gives a register of k + 1 qubits: 3, 2 and 4 here."""
    assert qpe_accept_probability([0.0], [1.0], 0.25) == pytest.approx(1.0)
    assert qpe_accept_probability([np.pi], [1.0], 0.5) == pytest.approx(0.0, abs=1e-12)
    a = 4
    assert qpe_accept_probability([2.0 * np.pi / 2**a], [1.0], 2.0 ** (1 - a)) == pytest.approx(
        0.0, abs=1e-12
    )


def test_qpe_validates_inputs():
    with pytest.raises(CheckError, match="overlaps sum to 1.4000000000, expected 1"):
        qpe_accept_probability([0.0, 1.0], [0.7, 0.7], 0.25)
    # precision 0.01 rounds up to a register of ceil(log2(100)) + 1 = 8 qubits
    phases, overlaps = seeded_measures()
    assert np.array_equal(qpe_accept_probability(phases, overlaps, 0.01),
                          (overlaps * qpe_kernel(phases, 8)).sum(axis=-1))


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
    anchor = anchor_vector(g)
    for s in bundle.f.f1:
        u = dense_unitary(g, s)
        assert search_accept_probability(*resolution(u, anchor), tau) >= 0.9 - 1e-9
    # the register-free variant is reported, not thresholded
    for s in bundle.f.inputs:
        p = search_noregister_probability(*resolution(dense_unitary(g, s), anchor), tau)
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
        u = dense_unitary(g, s)
        values[f"{s:02b}"] = round(search_noregister_probability(*resolution(u, anchor_vector(g)), tau), 4)
    assert all(0.0 <= v <= 1.0 for v in values.values())
    print("register-free acceptance at tau=1e5*W:", values)


def explicit_probabilities(phases, overlaps, tau, ancilla_count):
    """(qpe, search, register-free search) of one measure by the explicit sums
    over the 2^a powers and over T = 1..tau: the oracle of the closed forms."""
    powers = np.arange(2**ancilla_count)
    qpe = float(overlaps @ (np.abs(np.exp(1j * np.outer(phases, powers)).sum(axis=1)) ** 2 / 4.0**ancilla_count))
    search = noregister = 0.0
    for t in range(1, tau + 1):
        search += float(overlaps @ np.cos(t * phases / 2.0) ** 2)
        noregister += abs(complex(overlaps @ np.exp(1j * t * phases))) ** 2
    return qpe, search / tau, noregister / tau


def seeded_measures(count=6, size=9):
    """Seeded random measures that also put weight on phases 0 and +-pi and on
    a pair whose difference is 2 pi - 1e-13, where the Dirichlet kernel's
    sin(phi / 2) vanishes to roundoff."""
    rng = np.random.default_rng(47)
    fixed = np.array([0.0, np.pi, -np.pi, np.pi - 5e-14, -np.pi + 5e-14])
    phases = np.array([np.concatenate([fixed, rng.uniform(-np.pi, np.pi, size - len(fixed))]) for _ in range(count)])
    overlaps = rng.dirichlet(np.ones(size), count)
    return phases, overlaps


@pytest.mark.parametrize("tau", [1, 2, 7, 250, 1001])
def test_stacked_probabilities_match_explicit_sums(tau):
    phases, overlaps = seeded_measures()
    a = 5
    qpe = qpe_accept_probability(phases, overlaps, 2.0 ** (1 - a))
    search = search_accept_probability(phases, overlaps, tau)
    noregister = search_noregister_probability(phases, overlaps, tau)
    assert qpe.shape == search.shape == noregister.shape == (len(phases),)
    for i in range(len(phases)):
        expected = explicit_probabilities(phases[i], overlaps[i], tau, a)
        assert [qpe[i], search[i], noregister[i]] == pytest.approx(expected, abs=1e-12)
        # a stack gives the values of its rows taken one by one
        assert qpe_accept_probability(phases[i], overlaps[i], 2.0 ** (1 - a)) == pytest.approx(qpe[i], abs=1e-15)
        assert search_accept_probability(phases[i], overlaps[i], tau) == pytest.approx(search[i], abs=1e-15)
        assert search_noregister_probability(phases[i], overlaps[i], tau) == pytest.approx(noregister[i], abs=1e-15)


def test_stacked_probabilities_validate_every_row():
    phases, overlaps = seeded_measures()
    overlaps[3] *= 1.01
    with pytest.raises(CheckError, match="overlaps sum to 1.01"):
        search_accept_probability(phases, overlaps, 5)
