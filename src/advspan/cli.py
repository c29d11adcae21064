"""Command-line front end: argument parsing and terminal/JSON/CSV output for
`advspan.pipeline.verify`, which runs every check on one function.

    advspan verify --function PARITY:2 [--json report.json] [--csv-dir out/]

Exit codes: 0 all checks pass, 1 some check failed, 2 bad input (an
export path that cannot be written included), 3 solver non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from .advsdp import DEFAULT_TOL, MIN_TOL
from .errors import AdvspanError, BadSpecError, ConstantFunctionError, NoConvergenceError
from .pipeline import verify


def run_pipeline(options: argparse.Namespace) -> tuple[dict, int]:
    """Run `verify` with the parsed flags, then write the CSV and JSON exports."""
    result = verify(options.function, tol=options.tol, formula_bound=options.formula_bound)
    report = result.report
    try:
        if options.csv_dir:
            _write_csvs(Path(options.csv_dir), report, result.graph)
        if options.json:
            # compact: without an indent json uses its C encoder (read it with python -m json.tool)
            Path(options.json).write_text(json.dumps(report, sort_keys=True) + "\n")
    except OSError as exc:  # a path that cannot be written is bad input, not a failed check
        raise BadSpecError(f"cannot write the exports: {exc}") from exc
    return report, (0 if report["status"] == "PASS" else 1)


def _write_csvs(directory: Path, report: dict, graph) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for family, param in (("effective_gap", "c"), ("phase_gap", "theta")):
        with open(directory / f"{family}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["input", param, "lhs", "rhs", "margin"])
            for row in report["lemma_checks"][family]:
                writer.writerow([row["input"], row[param], row["lhs"], row["rhs"], row["margin"]])
    with open(directory / "algorithms.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["input", "algorithm", "parameter", "probability", "threshold", "pass"])
        for row in report["algorithms"]:
            for alg, param in (("phase_estimation", row["phase_error_budget"]), ("search", row["tau"])):
                writer.writerow([row["input"], alg, param, row[alg], row["thresholds"][alg], row["pass"][alg]])
            writer.writerow([row["input"], "search_noregister", row["tau"], row["search_noregister"], "", ""])
    (directory / "program_graph_edges.txt").write_text("".join(f"{r} {c} {wgt!r}\n" for r, c, wgt in graph.edges()))


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
    for family, least in report["margins"].items():
        print(f"  least margin {family}: {least['margin']:.3e}, {least['relative']:.3e} of its bound "
              f"({least['check']})", file=stream)
    print(f"status: {report['status']}", file=stream)


def _tolerance(text: str) -> float:
    """--tol: a finite number no smaller than the solver's floor MIN_TOL;
    anything else is bad input (exit 2)."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol >= MIN_TOL):
        raise argparse.ArgumentTypeError(f"input error: tol must be a finite number >= {MIN_TOL:g}, got {text!r}")
    return tol


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="advspan")
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run the full pipeline on one function")
    verify.add_argument("--function", required=True, help='e.g. PARITY:2, OR:3, or a bitstring like "0110"')
    verify.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL,
                        help=f"SDP duality-gap tolerance, at least {MIN_TOL:g}")
    verify.add_argument("--formula-bound", action="store_true",
                        help="check ADV <= sqrt(minimal formula size)")
    verify.add_argument("--json", help="write the JSON report here")
    verify.add_argument("--csv-dir", help="write CSV exports into this directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report, code = run_pipeline(args)
    except (BadSpecError, ConstantFunctionError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NoConvergenceError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return 3
    except AdvspanError as exc:
        print(f"check failed hard: {exc}", file=sys.stderr)
        return 1
    _print_report(report, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
