"""Per-input stages resolved once per orbit of Aut(f).

Where the SDP is solved on the orbits of Aut(f), the canonical program
carries each input's least orbit member (CanonicalSpanProgram.orbit), and
evaluate and verify's spectral stage resolve only those representatives.
The oracle is the same program resolved on every input, orbit=None."""

import dataclasses

import numpy as np
import pytest

import advspan.pipeline
from advspan import verify
from advspan.advsdp import build_witness_sdp
from advspan.boolfun import load_function
from advspan.spanprog import canonical_from_gram, evaluate

from conftest import NPN3_CANONICAL, automorphisms, corpus_specs

LADDER = [f"{name}:{n}" for n in (4, 5) for name in ("OR", "MAJ", "PARITY", "AND")]
# default_rng(7)'s seventh random 5-bit table: its Aut(f) has order 2
ORDER_TWO = "00101010010110010110010110111111"
# the tables below whose SDP is solved on the orbits of Aut(f)
REDUCED = ("MAJ:4", "PARITY:4", "OR:5", "MAJ:5", "PARITY:5", "AND:5", ORDER_TWO)


def exactly(n: int, k: int) -> str:
    """The table of "exactly k of the n inputs are 1"."""
    return "".join("1" if bin(s).count("1") == k else "0" for s in range(2**n))


EXACTLY = [(n, k) for n in range(2, 6) for k in range(n + 1)]


def per_input_values(report: dict) -> dict:
    """Every per-input value of a report, and every check's value and pass
    flag, keyed by where it sits."""
    out = {}
    sections = [("span_program", report["span_program"]["per_input"]), ("algorithms", report["algorithms"] or [])]
    sections += list(report["lemma_checks"].items())
    for section, rows in sections:
        for r in rows:
            key = (section, r["input"], r.get("c"), r.get("theta"))
            out.update({(*key, name): v for name, v in r.items() if name not in ("input", "thresholds")})
    for chk in report["checks"]:
        out[("check", chk["name"], "value")] = chk["value"]
        out[("check", chk["name"], "pass")] = chk["pass"]
    return out


def rows_by_input(report: dict) -> dict:
    """The per-input rows of every section, without their input labels, by input."""
    out: dict[str, list] = {}
    sections = [report["span_program"]["per_input"], report["algorithms"], *report["lemma_checks"].values()]
    for rows in sections:
        for r in rows:
            out.setdefault(r["input"], []).append({k: v for k, v in r.items() if k != "input"})
    return out


@pytest.mark.parametrize("spec", ["MAJ:4", "PARITY:5", "OR:5", ORDER_TWO])
def test_input_orbits_are_the_least_images_under_the_group(spec):
    """Orbits.inputs holds, for every input, the least input a member of
    Aut(f) maps it to."""
    f = load_function(spec)
    images, _ = automorphisms(f)
    assert build_witness_sdp(f).orbits.inputs.tolist() == images.min(axis=0).tolist()


@pytest.mark.parametrize("spec", [*corpus_specs(), *NPN3_CANONICAL, *LADDER, ORDER_TWO])
def test_orbit_path_matches_every_input_resolved(spec, monkeypatch):
    """Resolving one input per orbit and copying its values loses nothing:
    the same program resolved on every input gives each per-input value
    within 1e-10 and every check the same name and the same pass flag."""
    reduced = verify(spec).report
    monkeypatch.setattr(advspan.pipeline, "canonical_from_gram",
                        lambda f, sol: dataclasses.replace(canonical_from_gram(f, sol), orbit=None))
    full = verify(spec).report
    assert full["orbits"] is None
    assert (reduced["orbits"] is not None) == (spec in REDUCED)
    ours, theirs = per_input_values(reduced), per_input_values(full)
    assert ours.keys() == theirs.keys()
    for key, value in theirs.items():
        if key[-1] == "pass":
            assert ours[key] == value, key
        else:
            assert abs(ours[key] - value) <= 1e-10 * max(1.0, abs(value)), key


@pytest.mark.parametrize("n, k", EXACTLY)
def test_exactly_k_closed_form(n, k):
    """Regression pin, an observed fit and not a cited theorem: the "exactly
    k ones" function has xi within 1e-6 relative of
    sqrt(k (n - k + 1) + (k + 1)(n - k)) for 2 <= n <= 5, 0 <= k <= n (worst
    7.3e-8 when pinned).  Where the orbits are resolved, every per-input row
    is its representative's, exactly."""
    report = verify(exactly(n, k)).report
    assert report["status"] == "PASS"
    assert report["adv"]["xi"] == pytest.approx(np.sqrt(k * (n - k + 1) + (k + 1) * (n - k)), rel=1e-6)
    if report["orbits"] is None:
        return
    orbit = build_witness_sdp(load_function(exactly(n, k))).orbits.inputs
    rows = rows_by_input(report)
    assert report["orbits"]["representatives"] == [f"{s:0{n}b}" for s in np.unique(orbit)]
    for s, least in enumerate(orbit.tolist()):
        assert rows[f"{s:0{n}b}"] == rows[f"{least:0{n}b}"]


def test_nine_exactly_k_tables_take_the_orbit_path():
    """The orbit rows of test_exactly_k_closed_form are not vacuous: 9 of its
    18 tables have M of side at least MIN_REDUCED_SIDE (the 4-bit ones with
    1 <= k <= 3 and every 5-bit one)."""
    reduced = [(n, k) for n, k in EXACTLY if build_witness_sdp(load_function(exactly(n, k))).orbits is not None]
    assert reduced == [(4, 1), (4, 2), (4, 3)] + [(5, k) for k in range(6)]


def test_report_names_the_group_and_the_resolved_inputs(solved):
    """report["orbits"] holds Aut(f)'s order and the labels of the inputs
    resolved, one per orbit."""
    assert solved("MAJ:4").report["orbits"] == {"order": 24, "representatives": ["0000", "0001", "0011", "0111", "1111"]}
    assert solved("PARITY:5").report["orbits"] == {"order": 1920, "representatives": ["00000", "00001"]}


def test_trivial_group_resolves_every_input():
    """A 5-bit table (default_rng(7)'s first) whose Aut(f) is trivial takes
    no orbit: report["orbits"] is null and evaluate resolves all 32 inputs."""
    table = "11111110000110010100100010100111"
    assert len(automorphisms(load_function(table))[0]) == 1
    result = verify(table)
    assert result.report["orbits"] is None and result.program.orbit is None
    assert all(w is not None for w in evaluate(result.program.witness_program()).witness)


def test_evaluate_resolves_representatives_only(solved):
    """On MAJ:5's program evaluate builds a witness for its 6 representatives
    only and copies their values to the other 26 inputs."""
    program = solved("MAJ:5").program
    ev = evaluate(program.witness_program())
    reps = np.unique(program.orbit)
    assert [s for s, w in enumerate(ev.witness) if w is not None] == reps.tolist() == [0, 1, 3, 7, 15, 31]
    for field in (ev.value, ev.witness_size, ev.residual):
        assert np.array_equal(field, field[program.orbit])
