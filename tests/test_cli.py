import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import advspan
from advspan import advsdp, errors, pipeline
from advspan.cli import build_parser, main, run_pipeline
from advspan.errors import BadSpecError, CheckError, NoConvergenceError
from advspan.pipeline import MARGIN_RTOL, MARGIN_TOL, _check, _margins, matrix_to_json, verify

from advspan.spectral import edge_list

from conftest import NPN3_CANONICAL, corpus_specs, dense_adjacency, tables_up_to_three_bits, trivial_group


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
    _, first = run_args(tmp_path, "--function", "OR:2")
    _, second = run_args(tmp_path, "--function", "OR:2")
    first.pop("timings")
    second.pop("timings")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_formula_bound_flag(tmp_path):
    code, report = run_args(tmp_path, "--function", "OR:2", "--formula-bound")
    assert code == 0
    assert report["formula_bound"]["leaves"] == 2
    names = [chk["name"] for chk in report["checks"]]
    assert "adv_le_sqrt_formula_size" in names


def test_bitstring_function(tmp_path):
    code, report = run_args(tmp_path, "--function", "0110")
    assert code == 0
    assert report["adv"]["xi"] == pytest.approx(2.0, abs=1e-3)


def test_input_errors_exit_2(tmp_path):
    assert main(["verify", "--function", "XOZ:9"]) == 2
    assert main(["verify", "--function", "0000"]) == 2  # constant: ADV undefined


@pytest.mark.parametrize("flag, kind", [("--json", "missing"), ("--json", "directory"), ("--csv-dir", "file")])
def test_unwritable_export_path_exits_2(tmp_path, capsys, flag, kind):
    """A missing parent directory, a directory for --json, or a file for
    --csv-dir: one input-error line naming the path, no traceback."""
    path = {"missing": tmp_path / "absent" / "r.json", "directory": tmp_path, "file": tmp_path / "taken"}[kind]
    if kind == "file":
        path.write_text("")
    assert main(["verify", "--function", "OR:2", flag, str(path)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("input error: ") and str(path) in lines[0]
    assert captured.out == ""


@pytest.mark.parametrize("tol", ["1e-10", "0", "-1", "nan", "inf"])
def test_bad_tol_exits_2(tol, capsys):
    """A tolerance below the solver's floor of 1e-9, or not finite, is bad
    input: solve_sdp rejects it, and main prints its one-line message."""
    assert main(["verify", "--function", "01", f"--tol={tol}"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("input error: tol must be finite and at least 1e-09")
    assert captured.out == ""


def test_non_number_tol_exits_2_while_parsing(capsys):
    """A --tol that is not a number is bad input, rejected while the
    arguments are parsed."""
    with pytest.raises(SystemExit) as err:
        main(["verify", "--function", "01", "--tol=abc"])
    assert err.value.code == 2
    assert "input error" in capsys.readouterr().err


def test_tol_floor_is_accepted():
    assert build_parser().parse_args(["verify", "--function", "01", "--tol", "1e-9"]).tol == advsdp.MIN_TOL


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
    assert main(["verify", "--function", "MAJ:3", "--csv-dir", str(csv_dir)]) == 0
    expected = "".join(f"{r} {c} {w!r}\n" for r, c, w in edge_list(dense_adjacency(verify("MAJ:3").graph)))
    assert (csv_dir / "program_graph_edges.txt").read_text() == expected


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0, 1e-10])
def test_verify_rejects_a_bad_tol(tol):
    """A tol that is not finite or is below the solver's floor MIN_TOL is bad
    input: solve_sdp rejects it with the package's error, and the CLI's --tol
    reaches that same check."""
    with pytest.raises(BadSpecError, match="tol must be finite"):
        verify("OR:2", tol=tol)


def test_margins_name_a_nan_or_infinite_margin():
    """A NaN relative margin (a NaN margin, or an infinite one over an
    infinite bound) is named in its family before any other, and a margin
    of -inf is the least like any other; none raises."""
    finite = _check("effective_gap", "effective_gap[00,c=1]", 0.1, 1.0, "le")
    nan = _check("effective_gap", "effective_gap[01,c=1]", np.nan, 1.0, "le")
    assert _margins([finite, nan])["effective_gap"]["check"] == "effective_gap[01,c=1]"
    assert not nan["pass"]
    low = _check("effective_gap", "effective_gap[11,c=1]", np.inf, 1.0, "le")
    assert _margins([finite, low, dict(low, name="effective_gap[10,c=1]")])["effective_gap"]["check"] == low["name"]
    high = _check("phase_gap", "phase_gap[00,theta=1]", 1.0, np.inf, "le")
    assert _margins([high, dict(high, name="phase_gap[01,theta=1]")])["phase_gap"]["check"] == high["name"]


def test_matrix_to_json_pairs():
    enc = matrix_to_json(np.array([[1.0, 1j]]))
    assert enc == [[[1.0, 0.0], [0.0, 1.0]]]


def reference_matrix_to_json(mat) -> list:
    """matrix_to_json one entry at a time, a Python float per part."""
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(mat, dtype=complex)]


def test_matrix_to_json_is_the_per_entry_loop(solved, five_bit_gate):
    """The stacked encoding writes the same JSON as the per-entry loop, byte
    for byte, on the certificates of MAJ:3, OR:4 and a 5-bit table, and on
    signed zeros and complex entries."""
    mats = [solved("MAJ:3").certificate.gamma, solved("OR:4").certificate.gamma, five_bit_gate[0].certificate.gamma,
            np.array([[-0.0, 1e-300 - 2.5j], [np.pi * 1j, -1.0 + 0.1j]])]
    for mat in mats:
        assert json.dumps(matrix_to_json(mat)) == json.dumps(reference_matrix_to_json(mat))


def test_parser_defaults():
    args = build_parser().parse_args(["verify", "--function", "PARITY:2"])
    assert vars(args) == {"command": "verify", "function": "PARITY:2", "tol": 1e-7, "formula_bound": False,
                          "json": None, "csv_dir": None}


def test_tol_default_is_the_solver_default():
    assert build_parser().parse_args(["verify", "--function", "01"]).tol is advsdp.DEFAULT_TOL  # the object, not a copy


def test_formula_bound_note_past_four_bits():
    """formula_size searches n <= 4 only, so at n = 5 the report says so
    instead of claiming no small formula exists (x1 has a 1-leaf one)."""
    report = verify("0" * 16 + "1" * 16, formula_bound=True).report
    assert report["formula_bound"] == {"leaves": None, "note": "the exhaustive formula search covers n <= 4 only"}
    assert "adv_le_sqrt_formula_size" not in [chk["name"] for chk in report["checks"]]


def test_formula_bound_at_four_bits():
    """L(MAJ_4) = 8 and ADV(MAJ_4) = sqrt(6): the check holds with room.
    L(PARITY_4) = 16 lies past the 12-leaf table, which the note says."""
    report = verify("MAJ:4", formula_bound=True).report
    assert report["status"] == "PASS"
    assert report["formula_bound"] == {"leaves": 8, "sqrt_leaves": np.sqrt(8)}
    [chk] = [c for c in report["checks"] if c["name"] == "adv_le_sqrt_formula_size"]
    assert chk["pass"] and chk["value"] == pytest.approx(np.sqrt(6), abs=1e-6)
    report = verify("PARITY:4", formula_bound=True).report
    assert report["formula_bound"] == {"leaves": None, "note": "no formula within 12 leaves"}


def test_npn_class_00011001_verifies():
    assert verify("00111101").report["status"] == "PASS"


def test_npn_class_00000011_member_verifies():
    """x1 and x3 with x2 ignored: the interior-point solution keeps weight on the
    ignored coordinate, and phase_estimation_true passes by only 9e-9."""
    assert verify("00000101").report["status"] == "PASS"


def test_run_pipeline_returns_report_object(tmp_path):
    args = build_parser().parse_args(["verify", "--function", "01"])
    report, code = run_pipeline(args)
    assert code == 0
    assert report["function"]["n"] == 1
    assert report["adv"]["xi"] == pytest.approx(1.0, abs=1e-3)


def test_solver_failure_exits_3(monkeypatch, capsys):
    """Exit 3 prints the error's one-line summary, not its residuals, which
    library callers read from the exception."""
    def explode(*args, **kwargs):
        raise NoConvergenceError("stalled", {"primal_infeasibility": 1.0})

    monkeypatch.setattr(pipeline, "solve_sdp", explode)
    assert main(["verify", "--function", "PARITY:2"]) == 3
    assert capsys.readouterr().err == "solver did not converge: stalled\n"


def test_hard_check_failure_exits_1(monkeypatch, capsys):
    """A package error that is neither bad input nor non-convergence leaves
    verify and exits 1 with its one-line message."""
    def explode(*args, **kwargs):
        raise CheckError("planted violation")

    monkeypatch.setattr("advspan.spectral.zero_witness_vectors", explode)
    assert main(["verify", "--function", "PARITY:2"]) == 1
    assert capsys.readouterr().err == "check failed hard: planted violation\n"


@pytest.mark.parametrize("error, code, prefix", [
    (BadSpecError("planted"), 2, "input error:"),
    (NoConvergenceError("planted", {}), 3, "solver did not converge:"),
    (CheckError("planted"), 1, "check failed hard:"),
])
def test_each_error_class_exits_with_its_code(monkeypatch, capsys, error, code, prefix):
    def explode(*args, **kwargs):
        raise error

    monkeypatch.setattr("advspan.cli.verify", explode)
    assert main(["verify", "--function", "PARITY:2"]) == code
    assert capsys.readouterr().err == f"{prefix} planted\n"


def test_errors_define_one_class_per_outcome():
    """advspan.errors holds the base class and one class for each of exit codes 1, 2 and 3."""
    classes = {name for name, value in vars(errors).items() if isinstance(value, type)}
    assert classes == {"AdvspanError", "BadSpecError", "NoConvergenceError", "CheckError"}
    assert all(issubclass(getattr(errors, name), errors.AdvspanError) for name in classes)


# tables whose Newton system at tol 1e-9 comes near or onto an exactly
# singular M; which of them stop moves with roundoff (00110100, 01000101 and
# 01001010 depend on every variable)
TIGHT_TOL_TABLES = ["00110100", "01000101", "01001010", "11001100", "11110011", "0000000000001111"]


@pytest.mark.parametrize("table", TIGHT_TOL_TABLES)
def test_tight_tol_passes_or_exits_3(table, capsys):
    """At the floor tol of 1e-9 each table passes or exits 3 with one line
    on stderr: never a LinAlgError traceback, and no LinAlgWarning, which
    this suite's warning filters turn into an error."""
    code = main(["verify", "--function", table, "--tol", "1e-9"])
    err = capsys.readouterr().err
    assert code in (0, 3), err
    if code == 3:
        assert err.startswith("solver did not converge: no convergence after ") and err.count("\n") == 1


def test_report_carries_certificate_matrix(tmp_path):
    _, report = run_args(tmp_path, "--function", "0110")
    gamma = report["adv"]["gamma"]
    assert len(gamma) == 4 and len(gamma[0]) == 4
    assert all(pair == [0.0, 0.0] for row in (gamma[0], gamma[3]) for pair in (row[0], row[3]))


def test_verify_3bit_table_that_needs_small_jordan_angles(tmp_path):
    code, report = run_args(tmp_path, "--function", "00011000")
    assert code == 0
    assert report["status"] == "PASS"


@pytest.mark.parametrize(
    "flag, options", [("--formula-bound", {"formula_bound": True}), ("--tol=1e-8", {"tol": 1e-8})]
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
        families.setdefault(chk["family"], []).append(chk)
    assert list(report["margins"]) == list(families)
    assert {"sdp", "zero_witness", "jordan", "effective_gap", "phase_gap", "phase_estimation",
            "search"} <= set(families)
    for family, chks in families.items():
        assert all(chk["bound"] > 0.0 for chk in chks)
        rank = [min(chk["bound"], chk["margin"] + MARGIN_TOL) / chk["bound"] for chk in chks]
        first = chks[next(k for k, r in enumerate(rank) if r - min(rank) <= MARGIN_RTOL)]
        assert report["margins"][family] == {"check": first["name"], "margin": first["margin"],
                                             "relative": first["margin"] / first["bound"]}
    # phase_estimation_true is tight by construction (the kernel witness has
    # overlap exactly 9/10), so it is its family's least margin, and it holds
    assert report["margins"]["phase_estimation"]["check"].startswith("phase_estimation_true[")
    assert -1e-12 <= report["margins"]["phase_estimation"]["margin"] <= 1e-6
    # relative to its bound the duality gap comes closer than the PSD
    # residual, which the least absolute margin always named
    assert report["margins"]["sdp"]["check"] == "strong_duality_gap"
    assert main(["verify", "--function", "OR:2"]) == 0
    out = capsys.readouterr().out
    assert "least margin zero_witness: " in out and "least margin search: " in out
    assert " of its bound (zero_witness_ratio[" in out


def test_margins_name_the_first_of_checks_tied_to_roundoff():
    """Checks whose margins differ by roundoff name the first of them in
    report order, whichever is smallest in the last bits: a margin within
    MARGIN_TOL of its bound ranks as the whole bound, which on a bound of
    1e-9 or below is far more than MARGIN_RTOL of it, and ranks within
    MARGIN_RTOL tie.  A clearly smaller relative margin still wins, and a
    check of small bound wins on its relative margin over one of large
    bound."""
    checks = [_check("zero_witness", "zero_witness_ratio[00]", 2e-16, 1e-9, "le"),
              _check("zero_witness", "zero_witness_ratio[01]", 3e-16, 1e-9, "le"),
              _check("zero_witness", "zero_witness_ratio[10]", 0.0, 1.9e-11, "le"),
              _check("zero_witness", "zero_witness_ratio[11]", 1e-16, 1.9e-11, "le"),
              _check("jordan", "jordan_reconstruction[00]", 1e-15, 1e-8, "le"),
              _check("jordan", "jordan_reconstruction[01]", 2e-9, 1e-8, "le"),
              _check("span_program", "wsize_matches_adv", 0.0, 1e-5, "le"),
              _check("span_program", "wsize_le_stored", 5e-10, 1e-9, "le")]
    margins = _margins(checks)
    assert margins["zero_witness"] == {"check": "zero_witness_ratio[00]", "margin": checks[0]["margin"],
                                       "relative": checks[0]["margin"] / 1e-9}
    assert _margins(checks[2:4])["zero_witness"]["check"] == "zero_witness_ratio[10]"
    assert margins["jordan"]["check"] == "jordan_reconstruction[01]"
    assert margins["span_program"] == {"check": "wsize_le_stored", "margin": 5e-10, "relative": 0.5}


def test_margins_of_roundoff_identities_name_the_first_input():
    """On 1111110100101100 (a trivial group, so every input is resolved on
    its own and the values differ by roundoff) every zero_witness and jordan
    value is roundoff, below MARGIN_TOL, and each family names its first
    check in report order, whichever of them is least in the last bits."""
    report = verify("1111110100101100").report
    assert report["orbits"]["order"] == 1
    for family, prefix in (("zero_witness", "zero_witness_ratio["), ("jordan", "jordan_reconstruction[")):
        values = [chk["value"] for chk in report["checks"] if chk["name"].startswith(prefix)]
        assert len(values) == 16 and max(values) <= MARGIN_TOL
        assert report["margins"][family]["check"] == prefix + "0000]"


def test_margins_pin_an_orbit_tie_of_a_four_bit_table():
    """On 1011010000100100 (a group of order 2) the inputs 0000 and 0011 share
    an orbit, and their phase_estimation_true margins once came out 8.8e-12
    apart, in either order from run to run.  Their relative margins tie, so
    the first in report order is named whichever is smaller in the last
    bits; the family's least, 0101, is clearly below both."""
    report = verify("1011010000100100").report
    assert report["margins"]["phase_estimation"]["check"] == "phase_estimation_true[0101]"
    pair = [chk for chk in report["checks"] if chk["name"] in ("phase_estimation_true[0000]",
                                                              "phase_estimation_true[0011]")]
    assert [chk["name"] for chk in pair] == ["phase_estimation_true[0000]", "phase_estimation_true[0011]"]
    for shift in (8.8e-12, -8.8e-12):
        shifted = [pair[0], dict(pair[1], margin=pair[0]["margin"] - shift)]
        assert _margins(shifted)["phase_estimation"]["check"] == "phase_estimation_true[0000]"


CHECK_FAMILIES = ("sdp", "span_program", "zero_witness", "jordan", "effective_gap", "phase_gap", "phase_estimation",
                  "search", "formula_bound")


def test_checks_carry_their_family(corpus, five_bit_gate):
    """Every check carries one of the nine families, report["margins"] has
    one entry per family present, in report order, and each algorithm row
    carries the pass flag and the bound of its input's phase_estimation and
    search checks."""
    for bundle in corpus + five_bit_gate:
        report = bundle.report
        families = [chk["family"] for chk in report["checks"]]
        assert set(families) <= set(CHECK_FAMILIES)
        assert list(report["margins"]) == list(dict.fromkeys(families))
        for alg in ("phase_estimation", "search"):
            judged = [chk for chk in report["checks"] if chk["family"] == alg]
            assert len(judged) == len(report["algorithms"]) == 2**bundle.f.n
            for row, chk in zip(report["algorithms"], judged):
                assert chk["name"].endswith(f"[{row['input']}]")
                assert row["pass"][alg] is chk["pass"] and row["thresholds"][alg] == chk["bound"]


# 0100 and 15 of the 268 non-constant 2- and 3-bit tables (01 and 10 have a trivial group)
PATH_SAMPLE = ["0100", *np.random.default_rng(23).choice(tables_up_to_three_bits()[2:], 15, replace=False).tolist()]


@pytest.mark.parametrize("table", PATH_SAMPLE)
def test_both_solver_paths_name_the_same_checks(table, monkeypatch):
    """Solved on the orbits of Aut(f) or on all of M (automorphism_cosets
    patched to report the order-1 group), a function's report names the
    same check in every family.  On 0100 both span_program residuals read exactly 0 on
    all of M and roundoff (4e-16 and 3e-16) on the orbits; each ranks as
    its whole bound, so wsize_matches_adv, the first, is named on both."""
    orbit = verify(table).report
    monkeypatch.setattr(advsdp, "automorphism_cosets", trivial_group)
    whole = verify(table).report
    assert orbit["orbits"]["order"] > 1 and whole["orbits"]["order"] == 1
    assert ({family: least["check"] for family, least in orbit["margins"].items()}
            == {family: least["check"] for family, least in whole["margins"].items()})


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


# Runs in a fresh interpreter: pytest's error::scipy.linalg.LinAlgWarning
# filter has already imported scipy in this one.
RUN_WITHOUT_SCIPY = """
import json, sys
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None  # any scipy import now raises ImportError
from advspan.cli import main
codes = [main(["verify", "--function", "MAJ:4", "--formula-bound"]),
         main(["verify", "--function", "11111110000110010100100010100111"])]
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


@pytest.mark.parametrize("mode", ["loaded", "blocked"])
def test_verify_runs_without_scipy(mode):
    """advspan imports no scipy module on `advspan verify`'s path, here MAJ:4
    with --formula-bound and a 5-bit table with a trivial Aut(f), and both
    pass with scipy blocked."""
    src = str(Path(advspan.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", RUN_WITHOUT_SCIPY, mode], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["codes"] == [0, 0]
    assert lines.count("status: PASS") == 2
    # blocked: only the None entry that blocks it
    assert result["scipy"] == ([] if mode == "loaded" else ["scipy"])
