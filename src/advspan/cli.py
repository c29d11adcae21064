"""Command-line front end: run the full verification pipeline on one function.

    advspan verify --function PARITY:2 [--json report.json] [--csv-dir out/]

Exit codes: 0 all checks pass, 1 some check failed, 2 bad input,
3 solver non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import qsim, spectral
from .advsdp import build_witness_sdp, extract_certificate, solve_sdp
from .boolfun import formula_size, load_function
from .errors import AdvspanError, BadSpecError, ConstantFunctionError, NoConvergenceError
from .spanprog import canonical_from_gram, evaluate

DEFAULT_C_GRID = (0.05, 0.1, 0.5, 1.0, 2.0)
PHASE_ERROR_BUDGET = 0.1


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


def run_pipeline(options: argparse.Namespace) -> tuple[dict, int]:
    timings: dict[str, float] = {}
    t_start = time.perf_counter()
    f = load_function(options.function)

    report: dict = {
        "schema": "advspan/1",
        "function": {"spec": options.function, "n": f.n, "table": f.name()},
        "flags": {
            "tol": options.tol,
            "seed": options.seed,
            "skip_sim": options.skip_sim,
            "formula_bound": options.formula_bound,
            "c_grid": list(options.c_grid),
            "theta_grid": list(options.theta_grid) if options.theta_grid else None,
        },
    }
    checks: list[dict] = []

    t0 = time.perf_counter()
    sdp = build_witness_sdp(f)
    sol = solve_sdp(sdp, tol=options.tol)
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
    eval_ok = True
    wmax = 0.0
    for s in f.inputs:
        ev = evaluate(witness_prog, s)
        eval_ok = eval_ok and (int(ev.value) == f.value(s))
        wmax = max(wmax, ev.witness_size)
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
    checks.append(_check("wsize_matches_adv", abs(wmax - xi), 1e-3 * xi, "le"))
    checks.append(_check("evaluate_agrees_with_f", 0.0 if eval_ok else 1.0, 0.5, "le"))

    t0 = time.perf_counter()
    graph = spectral.build_program_graph(program)
    w_size = program.witness_size
    theta_grid = tuple(options.theta_grid) if options.theta_grid else (1.0 / (50.0 * w_size), 0.01, 0.1, 1.0)
    anchor = graph.mu0_vector()
    zero_rows, gap_rows, phase_rows, alg_rows = [], [], [], []
    for s in f.inputs:
        label = f"{s:0{f.n}b}"
        ig = spectral.build_input_graph(graph, program, s)
        psi = spectral.zero_witness_vectors(program, s)
        if f.value(s):
            overlap = psi[0] ** 2 / float(psi @ psi)
            target_ratio = 0.9
            residual = float(np.linalg.norm(ig.b_true @ psi))
        else:
            t_hat = np.concatenate([program.target, np.zeros(ig.b_false.shape[0] - len(program.target))])
            overlap = float(t_hat @ psi) ** 2 / float(psi @ psi)
            target_ratio = 1.0 / (9.0 * w_size * (w_size + 1.0))
            residual = float(np.linalg.norm(ig.b_false.T @ psi))
        zero_rows.append({"input": label, "f": f.value(s), "overlap_ratio": overlap,
                          "expected": target_ratio, "kernel_residual": residual})
        checks.append(_check(f"zero_witness_ratio[{label}]", abs(overlap - target_ratio),
                             1e-6 if f.value(s) == 0 else 1e-9, "le"))

        jd = spectral.jordan_decompose(graph.delta, graph.pi_projector(s))
        recon = float(np.abs(jd.reconstruct_unitary() - spectral.reflection_unitary(graph, s)).max())
        checks.append(_check(f"jordan_reconstruction[{label}]", recon, 1e-8, "le"))

        if f.value(s) == 0:
            for c, lhs, rhs in spectral.effective_gap_profile(ig, w_size, options.c_grid, enforce=False):
                gap_rows.append({"input": label, "c": c, "lhs": lhs, "rhs": rhs, "margin": rhs - lhs})
                checks.append(_check(f"effective_gap[{label},c={c:g}]", lhs, rhs + 1e-6, "le"))
            for theta, lhs, rhs in spectral.phase_gap_profile(
                jd, w_size, theta_grid, anchor, f.value(s), enforce=False
            ):
                phase_rows.append({"input": label, "theta": theta, "lhs": lhs, "rhs": rhs, "margin": rhs - lhs})
                checks.append(_check(f"phase_gap[{label},theta={theta:.6g}]", lhs, rhs + 1e-6, "le"))

        if not options.skip_sim:
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
    report["algorithms"] = alg_rows if not options.skip_sim else None

    if options.formula_bound:
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

    if options.csv_dir:
        _write_csvs(Path(options.csv_dir), report, graph)
    if options.json:
        Path(options.json).write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return report, (0 if report["status"] == "PASS" else 1)


def _write_csvs(directory: Path, report: dict, graph) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "effective_gap.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["input", "c", "lhs", "rhs", "margin"])
        for row in report["lemma_checks"]["effective_gap"]:
            writer.writerow([row["input"], row["c"], row["lhs"], row["rhs"], row["margin"]])
    with open(directory / "phase_gap.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["input", "theta", "lhs", "rhs", "margin"])
        for row in report["lemma_checks"]["phase_gap"]:
            writer.writerow([row["input"], row["theta"], row["lhs"], row["rhs"], row["margin"]])
    if report["algorithms"] is not None:
        with open(directory / "algorithms.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["input", "algorithm", "parameter", "probability", "threshold", "pass"])
            for row in report["algorithms"]:
                true_case = bool(row["f"])
                for alg, param in (("phase_estimation", row["phase_error_budget"]), ("search", row["tau"])):
                    prob = row[alg]
                    thr = row["thresholds"][alg]
                    ok = prob >= thr if true_case else prob <= thr
                    writer.writerow([row["input"], alg, param, prob, thr, ok])
                writer.writerow([row["input"], "search_noregister", row["tau"], row["search_noregister"], "", ""])
    with open(directory / "program_graph_edges.txt", "w") as fh:
        for r, c, wgt in spectral.edge_list(graph.a_g):
            fh.write(f"{r} {c} {wgt!r}\n")


def _print_report(report: dict, stream) -> None:
    fn = report["function"]
    print(f"function {fn['spec']} (n={fn['n']}, table={fn['table']})", file=stream)
    adv = report["adv"]
    print(f"  ADV = {adv['xi']!r}  certificate = {adv['certificate_value']!r}  "
          f"gap = {abs(adv['xi'] - adv['certificate_value']):.3e}", file=stream)
    sp = report["span_program"]
    print(f"  canonical program: m = {sp['m']}, wsize = {sp['witness_size']!r}", file=stream)
    for chk in report["checks"]:
        flag = "ok " if chk["pass"] else "FAIL"
        print(f"  [{flag}] {chk['name']}: value={chk['value']!r} bound={chk['bound']!r} "
              f"margin={chk['margin']:.3e}", file=stream)
    print(f"status: {report['status']}", file=stream)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="advspan")
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run the full pipeline on one function")
    verify.add_argument("--function", required=True, help='e.g. PARITY:2, OR:3, or a bitstring like "0110"')
    verify.add_argument("--tol", type=float, default=1e-7, help="SDP duality-gap tolerance")
    verify.add_argument("--seed", type=int, default=0,
                        help="recorded in the report; the pipeline itself is deterministic")
    verify.add_argument("--skip-sim", action="store_true", help="skip the algorithm simulations")
    verify.add_argument("--formula-bound", action="store_true",
                        help="check ADV <= sqrt(minimal formula size)")
    verify.add_argument("--json", help="write the JSON report here")
    verify.add_argument("--csv-dir", help="write CSV exports into this directory")
    verify.add_argument("--c-grid", type=lambda s: tuple(float(v) for v in s.split(",")),
                        default=DEFAULT_C_GRID, help="comma list of c values for the effective gap")
    verify.add_argument("--theta-grid", type=lambda s: tuple(float(v) for v in s.split(",")),
                        default=None, help="comma list of Theta values (default 1/(50W),0.01,0.1,1)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report, code = run_pipeline(args)
    except (BadSpecError, ConstantFunctionError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NoConvergenceError as exc:
        print(f"solver did not converge: {exc}; residuals: {exc.residuals}", file=sys.stderr)
        return 3
    except AdvspanError as exc:
        print(f"check failed hard: {exc}", file=sys.stderr)
        return 1
    _print_report(report, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
