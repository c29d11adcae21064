"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria 2-5, 7 and 8 read the corpus (n <= 3) and 20 seeded random 5-bit
tables (the five_bit_gate fixture), most of them with a trivial Aut(f).

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
"""

import time

import numpy as np

from advspan.advsdp import build_witness_sdp, extract_certificate, solve_sdp
from advspan.boolfun import BooleanFunction, formula_size, kw_partition, load_function, minimal_formula
from advspan.qsim import parity_two_query_algorithm, progress_trace
from advspan.spectral import psd_spectral_bound_check

from conftest import corpus_specs

FINAL_CONSTANT = (2.0 / 3.0) * np.sqrt(2.0)


def report(number: int, passed: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {number}: {detail}"


def labels(bundle, inputs) -> list[str]:
    """Report labels of the inputs; each must get its rows, so a dropped check fails loudly."""
    return [f"{s:0{bundle.f.n}b}" for s in inputs]


def test_criterion_1_parity2_adv():
    start = time.perf_counter()
    sol = solve_sdp(build_witness_sdp(load_function("PARITY:2")))
    elapsed = time.perf_counter() - start
    ok = abs(sol.xi - 2.0) <= 1e-3 and elapsed < 5.0
    report(1, ok, f"ADV(PARITY:2) = {sol.xi:.8f} (|err| = {abs(sol.xi - 2.0):.2e}), {elapsed:.2f}s")


def test_criterion_2_strong_duality_corpus(five_bit_gate):
    start = time.perf_counter()
    worst = 0.0
    for spec in corpus_specs():
        f = load_function(spec)
        sol = solve_sdp(build_witness_sdp(f))
        cert = extract_certificate(sol, f)
        worst = max(worst, abs(sol.xi - cert.value) / sol.xi)
    elapsed = time.perf_counter() - start
    # the random 5-bit tables, from the session's verify runs
    for bundle in five_bit_gate:
        worst = max(worst, abs(bundle.solution.xi - bundle.certificate.value) / bundle.solution.xi)
    ok = worst <= 1e-3 and elapsed < 120.0
    report(2, ok, f"{len(corpus_specs())} + {len(five_bit_gate)} functions, worst relative gap {worst:.2e}, "
                  f"{elapsed:.1f}s")


def test_criterion_3_canonical_round_trip(corpus, five_bit_gate):
    worst = 0.0
    agree = True
    for bundle in corpus + five_bit_gate:
        # the report's rows hold each input's evaluation of the canonical program
        rows = bundle.report["span_program"]["per_input"]
        assert [row["input"] for row in rows] == labels(bundle, bundle.f.inputs), bundle.spec
        wsize = max(row["witness_size"] for row in rows)
        worst = max(worst, abs(wsize - bundle.solution.xi) / bundle.solution.xi)
        agree = agree and [row["evaluates"] for row in rows] == [bundle.f.value(s) for s in bundle.f.inputs]
    ok = worst <= 1e-3 and agree
    report(3, ok, f"worst relative wsize gap {worst:.2e}, evaluation agreement {agree}")


def test_criterion_4_spectra_gap_constants(corpus, five_bit_gate):
    worst_true = worst_false = 0.0
    for bundle in corpus + five_bit_gate:
        w = bundle.program.witness_size
        rows = bundle.report["lemma_checks"]["zero_witness"]
        assert [row["input"] for row in rows] == labels(bundle, bundle.f.inputs), bundle.spec
        for s, row in zip(bundle.f.inputs, rows):
            ratio = row["overlap_ratio"]
            if bundle.f.value(s) == 1:
                worst_true = max(worst_true, abs(ratio - 0.9))
            else:
                worst_false = max(worst_false, abs(ratio - 1.0 / (9.0 * w * (w + 1.0))))
    ok = worst_true <= 1e-9 and worst_false <= 1e-6
    report(4, ok, f"true-input |ratio - 9/10| <= {worst_true:.2e}, "
                  f"false-input |ratio - 1/(9W(W+1))| <= {worst_false:.2e}")


def test_criterion_5_effective_and_phase_gap(corpus, five_bit_gate):
    c_grid = (0.05, 0.1, 0.5, 1.0, 2.0)
    violations = 0
    min_margin = np.inf
    rows = 0
    for bundle in corpus + five_bit_gate:
        w = bundle.program.witness_size
        # the default grid, less an entry that prints like an earlier one (1/(50W) is 0.01 at W = 2)
        theta_grid = []
        for x in (1.0 / (50.0 * w), 0.01, 0.1, 1.0):
            if f"{x:.6g}" not in [f"{y:.6g}" for y in theta_grid]:
                theta_grid.append(x)
        for family, key, grid in (("effective_gap", "c", c_grid), ("phase_gap", "theta", theta_grid)):
            family_rows = bundle.report["lemma_checks"][family]
            expected = [(s, x) for s in labels(bundle, bundle.f.f0) for x in grid]
            assert [(row["input"], row[key]) for row in family_rows] == expected, (bundle.spec, family)
            for row in family_rows:
                rows += 1
                min_margin = min(min_margin, row["rhs"] - row["lhs"])
                violations += row["lhs"] > row["rhs"] + 1e-6
    ok = violations == 0
    report(5, ok, f"{rows} (input, parameter) checks, min margin {min_margin:.6f}, "
                  f"{violations} violations")


def test_criterion_6_psd_bound_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    violations = 0
    for _ in range(200):
        dim = int(rng.integers(2, 13))
        basis = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        kernel_dim = int(rng.integers(1, dim))
        eigvals = np.concatenate(
            [np.zeros(kernel_dim), rng.uniform(0.1, 4.0, dim - kernel_dim)]
        )
        x = (basis * eigvals) @ basis.T
        t = rng.standard_normal(dim)
        if np.linalg.norm(basis[:, :kernel_dim].T @ t) < 1e-2:
            t = t + basis[:, 0]  # plant a kernel component
        for _, lhs, rhs in psd_spectral_bound_check(x, t, [0.05, 0.2, 1.0, 5.0]):
            violations += lhs > rhs + 1e-6
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 30.0
    report(6, ok, f"200 seeded instances, {violations} violations, {elapsed:.1f}s")


def test_criterion_7_phase_estimation_thresholds(corpus, five_bit_gate):
    worst_true, worst_false = 1.0, 0.0
    for bundle in corpus + five_bit_gate:
        rows = bundle.report["algorithms"]
        assert [row["input"] for row in rows] == labels(bundle, bundle.f.inputs), bundle.spec
        for s, row in zip(bundle.f.inputs, rows):
            prob = row["phase_estimation"]
            if bundle.f.value(s) == 1:
                worst_true = min(worst_true, prob - 0.1)
            else:
                worst_false = max(worst_false, prob + 0.1)
    ok = worst_true >= 0.8 - 1e-9 and worst_false <= 0.4 + 1e-9
    report(7, ok, f"true inputs >= {worst_true:.6f} (need 4/5), "
                  f"false inputs <= {worst_false:.6f} (need 2/5)")


def test_criterion_8_search_thresholds(corpus, five_bit_gate):
    worst_true, worst_false = 1.0, 0.0
    noregister = []
    for bundle in corpus + five_bit_gate:
        rows = bundle.report["algorithms"]
        assert [row["input"] for row in rows] == labels(bundle, bundle.f.inputs), bundle.spec
        for s, row in zip(bundle.f.inputs, rows):
            prob = row["search"]
            if bundle.f.value(s) == 1:
                worst_true = min(worst_true, prob)
            else:
                worst_false = max(worst_false, prob)
            noregister.append(row["search_noregister"])
    ok = worst_true >= 0.9 - 1e-9 and worst_false <= 0.88 + 1e-9
    report(8, ok, f"true inputs >= {worst_true:.6f} (need 9/10), "
                  f"false inputs <= {worst_false:.6f} (need 0.88); "
                  f"register-free probabilities observed in [{min(noregister):.3f}, {max(noregister):.3f}] "
                  f"(reported, not asserted)")


def test_criterion_9_progress_measure(solved):
    bundle = solved("PARITY:2")
    trace = progress_trace(parity_two_query_algorithm(), bundle.f, bundle.certificate)
    queries = len(trace.drops)
    start_err = abs(trace.values[0] - trace.gamma_norm)
    step_excess = float((trace.drops - trace.drop_bound).max())
    final_excess = trace.values[-1] - FINAL_CONSTANT * trace.gamma_norm
    total_drop = trace.values[0] - trace.values[-1]
    accounting = abs(trace.drops.sum() - total_drop)
    lower_bound = (1.0 - FINAL_CONSTANT) / 2.0 * trace.gamma_norm / (trace.drop_bound / 2.0)
    ok = (
        start_err <= 1e-8
        and step_excess <= 1e-8
        and final_excess <= 1e-8
        and accounting <= 1e-8
        and total_drop / trace.drop_bound <= queries + 1e-9
        and queries >= lower_bound - 1e-9
    )
    report(9, ok, f"start-value err {start_err:.2e}, worst per-step excess {step_excess:.2e}, "
                  f"final-bound slack {-final_excess:.3f}, drop accounting err {accounting:.2e}, "
                  f"T = {queries} >= {lower_bound:.3f}")


def test_criterion_10_formula_size_bound():
    worst_gap = -np.inf
    checked = 0
    parity_equality = None
    for n in (1, 2, 3):
        for code in range(2 ** (2**n)):
            table = tuple((code >> (2**n - 1 - s)) & 1 for s in range(2**n))
            f = BooleanFunction(n, table)
            if f.is_constant:
                continue
            leaves = formula_size(f, max_leaves=8)
            if leaves is None:
                continue
            xi = solve_sdp(build_witness_sdp(f)).xi
            checked += 1
            worst_gap = max(worst_gap, xi - np.sqrt(leaves))
            if f.table == (0, 1, 1, 0):
                parity_equality = abs(xi - np.sqrt(leaves))
    rng = np.random.default_rng(4096)
    subadd_violations = 0
    for spec in ("PARITY:2", "OR:2", "MAJ:3", "0001", "1001"):
        f = load_function(spec)
        part = kw_partition(minimal_formula(f), f)
        f0, f1 = f.f0, f.f1
        for _ in range(100):
            a = rng.standard_normal((len(f0), len(f1)))
            pieces = 0.0
            for r in part.rectangles:
                masked = np.array(
                    [
                        [a[i, j] if (x in r.xs and y in r.ys) else 0.0 for j, y in enumerate(f1)]
                        for i, x in enumerate(f0)
                    ]
                )
                pieces += np.linalg.norm(masked, 2) ** 2
            subadd_violations += np.linalg.norm(a, 2) ** 2 > pieces + 1e-9
    ok = worst_gap <= 1e-6 and parity_equality <= 1e-3 and subadd_violations == 0
    report(
        10,
        ok,
        f"{checked} functions with L <= 8: max (ADV - sqrt(L)) = {worst_gap:.2e}; "
        f"PARITY:2 equality |2 - sqrt(4)| err {parity_equality:.2e}; "
        f"rectangle subadditivity violations {subadd_violations}/500",
    )
