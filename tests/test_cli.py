import csv
import json

import numpy as np
import pytest

from advspan import advsdp, pipeline
from advspan.cli import build_parser, main, run_pipeline
from advspan.pipeline import CHECK_FAMILIES, matrix_to_json, verify

from conftest import NPN3_CANONICAL, corpus_specs


def run_args(tmp_path, *extra):
    json_path = tmp_path / "report.json"
    argv = ["verify", *extra, "--json", str(json_path)]
    code = main(argv)
    report = json.loads(json_path.read_text()) if json_path.exists() else None
    return code, report


def test_parity2_report(tmp_path, capsys):
    code, report = run_args(tmp_path, "--function", "PARITY:2")
    assert code == 0
    assert report["schema"] == "advspan/1"
    assert report["status"] == "PASS"
    assert report["adv"]["xi"] == pytest.approx(2.0, abs=1e-3)
    assert all(chk["pass"] for chk in report["checks"])
    assert all(chk["margin"] >= -1e-12 for chk in report["checks"])
    out = capsys.readouterr().out
    # human output carries the same numbers as the JSON
    assert repr(report["adv"]["xi"]) in out
    assert repr(report["span_program"]["witness_size"]) in out


def test_report_is_deterministic_modulo_timings(tmp_path):
    _, first = run_args(tmp_path, "--function", "OR:2", "--seed", "5")
    _, second = run_args(tmp_path, "--function", "OR:2", "--seed", "5")
    first.pop("timings")
    second.pop("timings")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_formula_bound_flag(tmp_path):
    code, report = run_args(tmp_path, "--function", "OR:2", "--formula-bound", "--skip-sim")
    assert code == 0
    assert report["formula_bound"]["leaves"] == 2
    assert report["algorithms"] is None
    names = [chk["name"] for chk in report["checks"]]
    assert "adv_le_sqrt_formula_size" in names


def test_bitstring_function(tmp_path):
    code, report = run_args(tmp_path, "--function", "0110", "--skip-sim")
    assert code == 0
    assert report["adv"]["xi"] == pytest.approx(2.0, abs=1e-3)


def test_input_errors_exit_2(tmp_path):
    assert main(["verify", "--function", "XOZ:9"]) == 2
    assert main(["verify", "--function", "0000"]) == 2  # constant: ADV undefined


def test_csv_exports(tmp_path):
    csv_dir = tmp_path / "csv"
    code = main(["verify", "--function", "PARITY:2", "--csv-dir", str(csv_dir)])
    assert code == 0
    gap = (csv_dir / "effective_gap.csv").read_text().splitlines()
    assert gap[0] == "input,c,lhs,rhs,margin"
    assert len(gap) > 1
    phase = (csv_dir / "phase_gap.csv").read_text().splitlines()
    assert phase[0] == "input,theta,lhs,rhs,margin"
    algs = (csv_dir / "algorithms.csv").read_text().splitlines()
    assert algs[0] == "input,algorithm,parameter,probability,threshold,pass"
    edges = (csv_dir / "program_graph_edges.txt").read_text().splitlines()
    assert all(len(line.split()) == 3 for line in edges)


def test_custom_grids(tmp_path):
    code, report = run_args(
        tmp_path, "--function", "OR:2", "--c-grid", "0.1,1", "--theta-grid", "0.05,0.5"
    )
    assert code == 0
    cs = sorted({row["c"] for row in report["lemma_checks"]["effective_gap"]})
    assert cs == [0.1, 1.0]
    thetas = sorted({row["theta"] for row in report["lemma_checks"]["phase_gap"]})
    assert thetas == [0.05, 0.5]


def test_matrix_to_json_pairs():
    enc = matrix_to_json(np.array([[1.0, 1j]]))
    assert enc == [[[1.0, 0.0], [0.0, 1.0]]]


def test_parser_defaults():
    args = build_parser().parse_args(["verify", "--function", "PARITY:2"])
    assert args.tol == 1e-7
    assert args.c_grid == (0.05, 0.1, 0.5, 1.0, 2.0)
    assert args.theta_grid is None


def test_tol_default_is_the_solver_default():
    assert build_parser().parse_args(["verify", "--function", "01"]).tol is advsdp.DEFAULT_TOL  # the object, not a copy


def test_formula_bound_note_past_four_bits():
    """formula_size searches n <= 4 only, so at n = 5 the report says so
    instead of claiming no small formula exists (x1 has a 1-leaf one)."""
    report = verify("0" * 16 + "1" * 16, simulate=False, formula_bound=True).report
    assert report["formula_bound"] == {"leaves": None, "note": "the exhaustive formula search covers n <= 4 only"}
    assert "adv_le_sqrt_formula_size" not in [chk["name"] for chk in report["checks"]]


@pytest.mark.xfail(strict=True, reason="NPN class 00011001 fails wsize_matches_adv (the witness of input 010 "
                                       "keeps a 2.6e-9 relative singular value) and phase_estimation_true[010]")
def test_npn_class_00011001_verifies():
    assert verify("00111101").report["status"] == "PASS"


def test_run_pipeline_returns_report_object(tmp_path):
    args = build_parser().parse_args(["verify", "--function", "01", "--skip-sim"])
    report, code = run_pipeline(args)
    assert code == 0
    assert report["function"]["n"] == 1
    assert report["adv"]["xi"] == pytest.approx(1.0, abs=1e-3)


def test_solver_failure_exits_3(monkeypatch):
    from advspan.errors import NoConvergenceError

    def explode(*args, **kwargs):
        raise NoConvergenceError("stalled", {"consensus_primal": 1.0})

    monkeypatch.setattr(pipeline, "solve_sdp", explode)
    assert main(["verify", "--function", "PARITY:2"]) == 3


def test_report_carries_certificate_matrix(tmp_path):
    _, report = run_args(tmp_path, "--function", "0110", "--skip-sim")
    gamma = report["adv"]["gamma"]
    assert len(gamma) == 4 and len(gamma[0]) == 4
    assert all(pair == [0.0, 0.0] for row in (gamma[0], gamma[3]) for pair in (row[0], row[3]))


def test_verify_3bit_table_that_needs_small_jordan_angles(tmp_path):
    code, report = run_args(tmp_path, "--function", "00011000")
    assert code == 0
    assert report["status"] == "PASS"


@pytest.mark.parametrize(
    "flag, options", [("--formula-bound", {"formula_bound": True}), ("--skip-sim", {"simulate": False})]
)
def test_cli_json_is_the_verify_report(tmp_path, flag, options):
    _, written = run_args(tmp_path, "--function", "OR:3", flag)
    report = json.loads(json.dumps(verify("OR:3", **options).report))
    written.pop("timings")
    report.pop("timings")
    assert report == written


def test_algorithms_csv_pass_is_the_report_check(tmp_path):
    """00111101 fails phase_estimation_true[010] only through the phase-error
    budget (0.89998 - 0.1 < 0.8), so a CSV that judged the raw probability
    would mark that row passing."""
    csv_dir = tmp_path / "csv"
    code, report = run_args(tmp_path, "--function", "00111101", "--csv-dir", str(csv_dir))
    assert code == 1
    checks = {chk["name"]: chk["pass"] for chk in report["checks"]}
    assert checks["phase_estimation_true[010]"] is False
    rows = list(csv.DictReader((csv_dir / "algorithms.csv").open()))
    judged = [row for row in rows if row["algorithm"] != "search_noregister"]
    assert len(judged) == 2 * 2**3
    for row in judged:
        branch = "true" if report["algorithms"][int(row["input"], 2)]["f"] else "false"
        assert row["pass"] == str(checks[f"{row['algorithm']}_{branch}[{row['input']}]"])


@pytest.mark.parametrize("spec", [*corpus_specs(), *NPN3_CANONICAL])
def test_check_names_are_unique(solved, spec):
    """At W = 2 the default grid's 1/(50W) prints as the fixed 0.01 entry, so
    one of the two is dropped rather than reported under a shared name."""
    report = solved(spec).report
    names = [chk["name"] for chk in report["checks"]]
    assert len(names) == len(set(names))
    thetas = {row["theta"] for row in report["lemma_checks"]["phase_gap"]}
    assert len({f"{theta:.6g}" for theta in thetas}) == len(thetas)


def test_margins_summarize_each_check_family(solved, capsys):
    report = solved("00111101").report
    families = {}
    for chk in report["checks"]:
        families.setdefault(CHECK_FAMILIES[chk["name"].split("[")[0]], []).append(chk)
    assert list(report["margins"]) == list(families)
    assert {"sdp", "zero_witness", "jordan", "effective_gap", "phase_gap", "phase_estimation",
            "search"} <= set(families)
    for family, chks in families.items():
        least = min(chks, key=lambda chk: chk["margin"])
        assert report["margins"][family] == {"check": least["name"], "margin": least["margin"]}
    # the one failing check of this table is its family's least margin
    assert report["margins"]["phase_estimation"]["check"] == "phase_estimation_true[010]"
    assert report["margins"]["phase_estimation"]["margin"] < 0.0
    assert main(["verify", "--function", "OR:2", "--skip-sim"]) == 0
    out = capsys.readouterr().out
    assert "least margin zero_witness: " in out and "least margin search" not in out


@pytest.mark.parametrize("spec", ["MAJ:5", "AND:5"])
def test_five_bit_verify_passes(spec):
    report = verify(spec).report
    assert report["status"] == "PASS"
    labels = [f"{s:05b}" for s in range(32)]
    for family in ("zero_witness_ratio", "jordan_reconstruction"):
        assert [chk["name"] for chk in report["checks"] if chk["name"].startswith(family + "[")] == [
            f"{family}[{label}]" for label in labels]
