import csv
import json
import sys

import numpy as np
import pytest

from advspan import advsdp, pipeline
from advspan.cli import build_parser, main, run_pipeline
from advspan.pipeline import CHECK_FAMILIES, MARGIN_TOL, _check, _margins, matrix_to_json, verify

from advspan.spectral import edge_list

from conftest import NPN3_CANONICAL, corpus_specs, dense_adjacency


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


def test_edge_file_lists_the_dense_adjacency(tmp_path):
    """program_graph_edges.txt holds the dense adjacency's nonzeros in row-major
    order, one "row col repr(weight)" line each, byte for byte."""
    csv_dir = tmp_path / "csv"
    assert main(["verify", "--function", "MAJ:3", "--skip-sim", "--csv-dir", str(csv_dir)]) == 0
    expected = "".join(f"{r} {c} {w!r}\n" for r, c, w in edge_list(dense_adjacency(verify("MAJ:3").graph)))
    assert (csv_dir / "program_graph_edges.txt").read_text() == expected


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


def test_npn_class_00011001_verifies():
    assert verify("00111101").report["status"] == "PASS"


def test_npn_class_00000011_member_verifies():
    """x1 and x3 with x2 ignored: the interior-point solution keeps weight on the
    ignored coordinate, and phase_estimation_true passes by only 9e-9."""
    assert verify("00000101").report["status"] == "PASS"


def test_run_pipeline_returns_report_object(tmp_path):
    args = build_parser().parse_args(["verify", "--function", "01", "--skip-sim"])
    report, code = run_pipeline(args)
    assert code == 0
    assert report["function"]["n"] == 1
    assert report["adv"]["xi"] == pytest.approx(1.0, abs=1e-3)


def test_solver_failure_exits_3(monkeypatch):
    from advspan.errors import NoConvergenceError

    def explode(*args, **kwargs):
        raise NoConvergenceError("stalled", {"primal_infeasibility": 1.0})

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
    assert (tmp_path / "report.json").read_text().count("\n") == 1  # compact, one line
    report = json.loads(json.dumps(verify("OR:3", **options).report))
    written.pop("timings")
    report.pop("timings")
    assert report == written


def test_algorithms_csv_pass_is_the_report_check(tmp_path, monkeypatch):
    """With a phase-error budget of 0.15, 00111101 fails phase_estimation_true
    only through the budget (its raw probabilities stay above 0.8), so a CSV
    that judged the raw probability would mark those rows passing."""
    monkeypatch.setattr(pipeline, "PHASE_ERROR_BUDGET", 0.15)
    csv_dir = tmp_path / "csv"
    code, report = run_args(tmp_path, "--function", "00111101", "--csv-dir", str(csv_dir))
    assert code == 1
    checks = {chk["name"]: chk["pass"] for chk in report["checks"]}
    failing = [row for row in report["algorithms"] if row["f"] and not checks[f"phase_estimation_true[{row['input']}]"]]
    assert failing
    assert all(row["phase_estimation"] >= row["thresholds"]["phase_estimation"] for row in failing)
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
        least = min(chk["margin"] for chk in chks)
        first = next(chk for chk in chks if chk["margin"] <= least + MARGIN_TOL)
        assert report["margins"][family] == {"check": first["name"], "margin": first["margin"]}
    # phase_estimation_true is tight by construction (the kernel witness has
    # overlap exactly 9/10), so it is its family's least margin, and it holds
    assert report["margins"]["phase_estimation"]["check"].startswith("phase_estimation_true[")
    assert -1e-12 <= report["margins"]["phase_estimation"]["margin"] <= 1e-6
    assert main(["verify", "--function", "OR:2", "--skip-sim"]) == 0
    out = capsys.readouterr().out
    assert "least margin zero_witness: " in out and "least margin search" not in out


def test_margins_name_the_first_of_checks_tied_to_roundoff():
    """Margins equal up to roundoff name the first such check in report
    order, whichever is smallest in the last bits; a clearly smaller margin
    still wins."""
    checks = [_check("zero_witness_ratio[00]", 2e-16, 1e-9, "le"),
              _check("zero_witness_ratio[01]", 3e-16, 1e-9, "le"),
              _check("jordan_reconstruction[00]", 1e-15, 1e-8, "le"),
              _check("jordan_reconstruction[01]", 2e-9, 1e-8, "le")]
    margins = _margins(checks)
    assert margins["zero_witness"] == {"check": "zero_witness_ratio[00]", "margin": checks[0]["margin"]}
    assert margins["jordan"]["check"] == "jordan_reconstruction[01]"


@pytest.mark.parametrize("spec", ["MAJ:5", "AND:5"])
def test_five_bit_verify_passes(spec):
    report = verify(spec).report
    assert report["status"] == "PASS"
    labels = [f"{s:05b}" for s in range(32)]
    for family in ("zero_witness_ratio", "jordan_reconstruction"):
        assert [chk["name"] for chk in report["checks"] if chk["name"].startswith(family + "[")] == [
            f"{family}[{label}]" for label in labels]


@pytest.mark.parametrize("spec", ["01", "MAJ:3", "OR:4"])
def test_report_times_each_input(solved, spec):
    """timings has one total per stage, and timings["spectral_stages"] the
    totals of the stacked sub-stages that resolve every input at once:
    disjoint parts of the spectral total.  The rows still carry each input's
    values."""
    bundle = solved(spec)
    timings = bundle.report["timings"]
    assert list(timings) == ["sdp", "certificate", "canonical", "span_program", "spectral", "total",
                             "spectral_stages"]
    stages = timings["spectral_stages"]
    assert list(stages) == ["resolve", "walk", "gaps", "algorithms"]
    assert min(stages.values()) >= 0.0 and sum(stages.values()) <= timings["spectral"]
    labels = [f"{s:0{bundle.f.n}b}" for s in bundle.f.inputs]
    assert [row["input"] for row in bundle.report["lemma_checks"]["zero_witness"]] == labels


def test_stacked_stages_take_a_fixed_number_of_svds(monkeypatch):
    """Every input is resolved in stacks, so the span-program and spectral
    stages of verify take the same number of SVDs at n = 3 and at n = 5: one
    for the canonical program's evaluation, one for B_G, two for the input
    graphs and one for the effective-gap profiles."""
    svd = np.linalg.svd
    callers = []

    def counting_svd(*args, **kwargs):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    for spec in ("MAJ:3", "MAJ:5"):
        callers.clear()
        verify(spec)
        assert sorted(name for name in callers if name in ("advspan.spanprog", "advspan.spectral")) == [
            "advspan.spanprog", *["advspan.spectral"] * 4], spec
