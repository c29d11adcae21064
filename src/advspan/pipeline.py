"""The verification pipeline: ADV(f), its canonical span program, and every
lemma of the upper bound checked on every input, as one `advspan/1` report.

The report's rows are the per-input records; the command line writes the
report as its JSON, and the acceptance gate reads the same rows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import qsim, spectral
from .advsdp import DEFAULT_TOL, AdversaryCertificate, SdpSolution, build_witness_sdp, extract_certificate, solve_sdp
from .boolfun import formula_size, load_function
from .spanprog import CanonicalSpanProgram, canonical_from_gram, evaluate

DEFAULT_C_GRID = (0.05, 0.1, 0.5, 1.0, 2.0)
PHASE_ERROR_BUDGET = 0.1


@dataclass(frozen=True)
class Verification:
    """The report of one `verify` run and the objects it was computed from."""

    report: dict
    solution: SdpSolution
    certificate: AdversaryCertificate
    program: CanonicalSpanProgram
    graph: spectral.ProgramGraph


def _check(name: str, value: float, bound: float, kind: str) -> dict:
    """One reported check: kind 'le' means value <= bound, 'ge' the reverse."""
    margin = (bound - value) if kind == "le" else (value - bound)
    return {
        "name": name,
        "value": float(value),
        "bound": float(bound),
        "kind": kind,
        "margin": float(margin),
        "pass": bool(margin >= -1e-12),
    }


def matrix_to_json(mat: np.ndarray) -> list:
    """Nested rows of [re, im] pairs."""
    arr = np.asarray(mat, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in arr]


def verify(spec: str, *, tol: float = DEFAULT_TOL, c_grid=DEFAULT_C_GRID, theta_grid=None,
           simulate: bool = True, formula_bound: bool = False, seed: int = 0) -> Verification:
    """Solve the witness SDP of `spec` and check every lemma on every input.

    The keywords are the `advspan verify` flags: tol is the SDP duality-gap
    tolerance, c_grid and theta_grid the effective- and phase-gap parameters
    (theta_grid defaults to 1/(50W), 0.01, 0.1, 1), simulate runs the
    phase-estimation and search algorithms, formula_bound also checks
    ADV <= sqrt(minimal formula size), and seed is only recorded.  A failed
    check sets the report's status to FAIL; bad input and solver failure
    raise the package's errors.
    """
    timings: dict[str, float] = {}
    t_start = time.perf_counter()
    f = load_function(spec)

    report: dict = {
        "schema": "advspan/1",
        "function": {"spec": spec, "n": f.n, "table": f.name()},
        "flags": {
            "tol": tol,
            "seed": seed,
            "skip_sim": not simulate,
            "formula_bound": formula_bound,
            "c_grid": list(c_grid),
            "theta_grid": list(theta_grid) if theta_grid else None,
        },
    }
    checks: list[dict] = []

    t0 = time.perf_counter()
    sol = solve_sdp(build_witness_sdp(f), tol=tol)
    cert = extract_certificate(sol, f)
    timings["sdp"] = time.perf_counter() - t0
    xi = sol.xi
    report["adv"] = {
        "xi": xi,
        "dual_objective": sol.dual_objective,
        "certificate_value": cert.value,
        "beta_alignment": cert.beta_alignment,
        "gamma": matrix_to_json(cert.gamma),
        "residuals": sol.residuals,
    }
    checks.append(_check("strong_duality_gap", abs(xi - cert.value), 1e-3 * xi, "le"))
    checks.append(_check("equality_residual", sol.residuals["primal_equality"], 1e-6, "le"))
    checks.append(_check("psd_residual", -sol.residuals["min_eigenvalue"], 1e-7, "le"))

    t0 = time.perf_counter()
    program = canonical_from_gram(f, sol)
    witness_prog = program.witness_program()
    per_input = []
    for s in f.inputs:
        ev = evaluate(witness_prog, s)
        per_input.append(
            {
                "input": f"{s:0{f.n}b}",
                "f": f.value(s),
                "evaluates": int(ev.value),
                "witness_size": ev.witness_size,
                "stored_witness_size": program.stored_witness_size(s),
            }
        )
    timings["span_program"] = time.perf_counter() - t0
    report["span_program"] = {"m": program.m, "witness_size": program.witness_size, "per_input": per_input}
    wmax = max(row["witness_size"] for row in per_input)
    eval_ok = all(row["evaluates"] == row["f"] for row in per_input)
    checks.append(_check("wsize_matches_adv", abs(wmax - xi), 1e-3 * xi, "le"))
    checks.append(_check("evaluate_agrees_with_f", 0.0 if eval_ok else 1.0, 0.5, "le"))

    t0 = time.perf_counter()
    graph = spectral.build_program_graph(program)
    w_size = program.witness_size
    theta_grid = tuple(theta_grid) if theta_grid else (1.0 / (50.0 * w_size), 0.01, 0.1, 1.0)
    anchor = graph.mu0_vector()
    zero_rows, gap_rows, phase_rows, alg_rows = [], [], [], []
    for s in f.inputs:
        label = f"{s:0{f.n}b}"
        _, overlap, residual = spectral.zero_witness_vectors(program, s)
        target_ratio = 0.9 if f.value(s) else 1.0 / (9.0 * w_size * (w_size + 1.0))
        zero_rows.append({"input": label, "f": f.value(s), "overlap_ratio": overlap,
                          "expected": target_ratio, "kernel_residual": residual})
        checks.append(_check(f"zero_witness_ratio[{label}]", abs(overlap - target_ratio),
                             1e-6 if f.value(s) == 0 else 1e-9, "le"))

        jd = spectral.jordan_decompose(graph.delta, graph.pi_projector(s))
        recon = float(np.abs(jd.reconstruct_unitary() - spectral.reflection_unitary(graph, s)).max())
        checks.append(_check(f"jordan_reconstruction[{label}]", recon, 1e-8, "le"))

        if f.value(s) == 0:
            ig = spectral.build_input_graph(graph, program, s)
            for c, lhs, rhs in spectral.effective_gap_profile(ig, w_size, c_grid):
                gap_rows.append({"input": label, "c": c, "lhs": lhs, "rhs": rhs, "margin": rhs - lhs})
                checks.append(_check(f"effective_gap[{label},c={c:g}]", lhs, rhs + 1e-6, "le"))
            for theta, lhs, rhs in spectral.phase_gap_profile(jd, w_size, theta_grid, anchor, f.value(s)):
                phase_rows.append({"input": label, "theta": theta, "lhs": lhs, "rhs": rhs, "margin": rhs - lhs})
                checks.append(_check(f"phase_gap[{label},theta={theta:.6g}]", lhs, rhs + 1e-6, "le"))

        if simulate:
            phases, vectors = jd.eigen_system()
            overlaps = np.abs(vectors.conj().T @ anchor) ** 2
            precision = 1.0 / (100.0 * w_size)
            p_phase = qsim.qpe_accept_probability(
                phases, overlaps, precision, qsim.default_ancilla_count(precision)
            )
            tau = int(np.ceil(100.0 * w_size))
            p_search = qsim.search_accept_probability(phases, overlaps, tau)
            p_bare = qsim.search_noregister_probability(phases, overlaps, tau)
            if f.value(s):
                checks.append(_check(f"phase_estimation_true[{label}]", p_phase - PHASE_ERROR_BUDGET, 0.8, "ge"))
                checks.append(_check(f"search_true[{label}]", p_search, 0.9, "ge"))
                thresholds = {"phase_estimation": 0.8, "search": 0.9}
            else:
                checks.append(_check(f"phase_estimation_false[{label}]", p_phase + PHASE_ERROR_BUDGET, 0.4, "le"))
                checks.append(_check(f"search_false[{label}]", p_search, 0.88, "le"))
                thresholds = {"phase_estimation": 0.4, "search": 0.88}
            alg_rows.append({"input": label, "f": f.value(s), "phase_estimation": p_phase,
                             "phase_error_budget": PHASE_ERROR_BUDGET, "search": p_search,
                             "search_noregister": p_bare, "tau": tau, "thresholds": thresholds})
    timings["spectral"] = time.perf_counter() - t0
    report["lemma_checks"] = {"zero_witness": zero_rows, "effective_gap": gap_rows, "phase_gap": phase_rows}
    report["algorithms"] = alg_rows if simulate else None

    if formula_bound:
        t0 = time.perf_counter()
        leaves = formula_size(f, max_leaves=12) if f.n <= 4 else None
        timings["formula"] = time.perf_counter() - t0
        if leaves is None:
            report["formula_bound"] = {"leaves": None, "note": "no formula within 12 leaves"}
        else:
            report["formula_bound"] = {"leaves": leaves, "sqrt_leaves": float(np.sqrt(leaves))}
            checks.append(_check("adv_le_sqrt_formula_size", xi, float(np.sqrt(leaves)) + 1e-6, "le"))
    else:
        report["formula_bound"] = None

    report["checks"] = checks
    report["status"] = "PASS" if all(c["pass"] for c in checks) else "FAIL"
    timings["total"] = time.perf_counter() - t_start
    report["timings"] = {k: round(v, 6) for k, v in timings.items()}
    return Verification(report=report, solution=sol, certificate=cert, program=program, graph=graph)
