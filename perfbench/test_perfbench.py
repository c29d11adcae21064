"""Self-test of the benchmark runner on a tiny input (PARITY:2).

    python3 -m pytest perfbench -q

Checks the output schema against BENCHMARK.json, that the traced run's
per-layer self times and the untraced remainder add up to the traced wall
time, that the tracer survives missing names, and that the runner refuses to
run without the sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_schema(result: dict, expected: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for spec in expected:
        metric = result["metrics"][spec["name"]]
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float))


def test_end_to_end_schema():
    result = last_json(run_bench("--workload", "selftest", "--seed", "3", "--seconds", "1", "--trace", "0"))
    check_schema(result, BENCHMARK["end_to_end"])
    assert result["failed"] == 0
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_accounts_for_wall_time():
    result = last_json(run_bench("--workload", "selftest", "--seed", "3", "--seconds", "1", "--trace", "1"))
    check_schema(result, BENCHMARK["per_layer"])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    # one function of 2 inputs: the CLI rebuilds the program graph once per input
    assert metrics["cli.run_pipeline.calls"] == 1
    assert metrics["spectral.build_program_graph.per_function"] == 1 + 2**2
    assert metrics["advsdp.solve_sdp.iterations"] > 0
    # the ledger function runs after the measurement and is not counted
    assert result["attempted"] == 2 and result["failed"] == 0
    assert metrics["ledger.failed"] in (0, 1)
    detail = json.loads((ROOT / ".perfbench-out" / "result-selftest-seed3-trace1.json").read_text())
    acc = detail["worker"]["trace"]["accounting"]
    total = acc["layer_self_s"] + acc["bookkeeping_s"] + acc["untraced_remainder_s"]
    assert total == pytest.approx(acc["traced_wall_s"], rel=1e-9, abs=1e-9)
    assert acc["min_span_self_s"] >= -1e-9
    assert acc["untraced_remainder_s"] >= 0.0
    layer_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert layer_sum == pytest.approx(acc["layer_self_s"], rel=1e-9)
    assert detail["worker"]["trace"]["absent"] == []


def test_per_layer_names_match_benchmark():
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == run.per_layer_metrics()


def test_tracer_patches_every_namespace_and_reports_absent_names():
    sys.path.insert(0, str(ROOT / "src"))
    import advspan
    import advspan.cli
    from advspan import matkernel, spectral

    original = matkernel.eig_hermitian
    original_build = advspan.advsdp.build_witness_sdp
    targets = tracer.TARGETS + (("matkernel", "no_such_function"), ("spectral", "NoSuchClass.method"))
    tr = tracer.Tracer(targets=targets)
    tr.install()
    try:
        assert tr.absent == ["matkernel.no_such_function", "spectral.NoSuchClass.method"]
        for holder in (matkernel, spectral, advspan.qsim, advspan.advsdp):
            assert holder.eig_hermitian is not original
        # cli and the package copy the name with `from ... import`
        assert advspan.cli.build_witness_sdp is not original_build
        assert advspan.build_witness_sdp is not original_build
        f = advspan.load_function("PARITY:2")
        solution = advspan.solve_sdp(advspan.build_witness_sdp(f))
        spectral.build_program_graph(advspan.canonical_from_gram(f, solution))
    finally:
        tr.uninstall()
    assert matkernel.eig_hermitian is original and spectral.eig_hermitian is original
    records = tr.span_records()
    names = [rec["name"] for rec in records]
    # nullspace_projector runs inside build_program_graph and calls eig_hermitian
    graph = names.index("spectral.build_program_graph")
    projector = names.index("matkernel.nullspace_projector", graph)
    assert records[projector]["parent"] == graph
    assert any(r["name"] == "matkernel.eig_hermitian" and r["parent"] == projector for r in records)


def test_seeded_inputs_repeat_and_stay_in_class():
    def first_passes(seed, count=4):
        stream = workloads.passes(workloads.WORKLOADS["verify-n4"], seed)
        return [[item.table for item in next(stream)] for _ in range(count)]

    assert first_passes(7) == first_passes(7)
    assert first_passes(7) != first_passes(8)
    for batch in first_passes(7):
        or4, maj4 = batch
        assert or4.count("0") == 1  # OR under input negation: one false input
        assert maj4.count("1") == 5  # MAJ:4 has five true inputs in any member


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "selftest", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
