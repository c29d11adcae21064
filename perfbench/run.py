"""advspan benchmark runner.

    python3 perfbench/run.py --workload verify-n4 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout and benchmarks the advspan in its src/.
Each workload runs in a fresh worker process (worker.py) with BLAS pinned to
one thread; one client, one function at a time. With --trace 0 the last
stdout line holds the end-to-end metrics, with --trace 1 the per-layer ones
(see README.md beside this file). Everything before it is a human-readable
summary, including the environment and the failure ledger. Details and spans
go to .perfbench-out/ in the checkout.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
sys.path.insert(0, str(HERE))

from tracer import per_layer_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-up samples taken before the worker runs and again after it, so that
# their median spans the run rather than one moment of the machine's speed.
SETUP_SAMPLES_EACH_SIDE = 4
# Child processes get timeouts that expire this long after a workload starts,
# so a run ends within three minutes.
RUN_BUDGET_S = 170.0
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# failed functions of the workload's ledger (see workloads.Workload.ledger)
LEDGER_METRIC = ("ledger.failed", "count", "lower")


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a --trace 1 run reports."""
    return per_layer_names() + [LEDGER_METRIC]


def worker_command(workload: str, seed: int, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), *extra]


def measure_setup(workload: str, seed: int, env: dict, deadline: float) -> list[float]:
    """Seconds from spawning a fresh interpreter until it has imported advspan
    and generated the workload's inputs; one sample per interpreter. The
    worker prints the wall clock at that moment, so its exit is not counted."""
    samples = []
    for _ in range(SETUP_SAMPLES_EACH_SIDE):
        t0 = time.time()
        proc = subprocess.run(worker_command(workload, seed, "--setup-only"), cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up worker exited with {proc.returncode}")
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return samples


def run_worker(workload: str, seed: int, seconds: int, trace: int, env: dict, deadline: float) -> dict:
    cmd = worker_command(workload, seed, "--seconds", str(seconds), "--trace", str(trace))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.perf_counter()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def ledger(outcomes: list[dict]) -> list[tuple[str, str, int, list[str]]]:
    """Failures grouped by base function and reason: (base, reason, count, members).

    A failing check is named by its family (``jordan_reconstruction``, not
    ``jordan_reconstruction[011]``); the full names stay in the detail file.
    """
    groups: dict[tuple[str, str], list[str]] = collections.defaultdict(list)
    for o in outcomes:
        if not o["verified"]:
            families = sorted({reason.split("[")[0] for reason in o["reasons"]})
            groups[(o["base"], ", ".join(families))].append(o["table"])
    return [(base, reason, len(tables), sorted(set(tables))) for (base, reason), tables in sorted(groups.items())]


def run_one(workload: str, seed: int, seconds: int, trace: int, deadline: float) -> tuple[dict, list[str]]:
    """Runs one workload; returns the result object and the summary lines."""
    env = {**os.environ, **PINNED_ENV}
    setup = measure_setup(workload, seed, env, deadline) if trace == 0 else []
    worker = run_worker(workload, seed, seconds, trace, env, deadline)
    if trace == 0:
        setup += measure_setup(workload, seed, env, deadline)
    outcomes = worker["outcomes"]
    attempted = len(outcomes)
    failed = sum(not o["verified"] for o in outcomes)
    verified = attempted - failed
    lines = [f"perfbench {workload}: seed={seed} seconds={seconds} trace={trace}",
             "environment: " + json.dumps(worker["env"], sort_keys=True)]
    if trace == 0:
        metrics = {
            "setup_s": (statistics.median(setup), "s",
                        f"median of {len(setup)} fresh interpreters, range {min(setup):.4f}..{max(setup):.4f}"),
            "functions_per_s": (verified / worker["wall_s"], "1/s",
                                f"{verified} verified in {worker['wall_s']:.3f} s, {worker['passes']} passes"),
            "peak_rss_mb": (worker["peak_rss_mb"], "MB", "peak resident set of 1 worker process"),
            "verified_frac": (verified / attempted, "ratio", f"{verified} of {attempted} attempted"),
        }
        summary = dict(metrics, fail_frac=(failed / attempted, "ratio", f"{failed} of {attempted} attempted"))
        for name, (value, unit, note) in summary.items():
            lines.append(f"  {name:<16} {value:<14.6g} {unit:<6} {note}")
    else:
        trace_info = worker["trace"]
        metrics = {name: (trace_info["metrics"][name], unit, "") for name, unit, _ in per_layer_names()}
        metrics[LEDGER_METRIC[0]] = (sum(not o["verified"] for o in worker["ledger"]), LEDGER_METRIC[1], "")
        acc = trace_info["accounting"]
        lines.append("  accounting: " + json.dumps(acc, sort_keys=True))
        lines.append(f"  absent targets: {trace_info['absent'] or 'none'}; "
                     f"unobserved counters: {trace_info['unobserved'] or 'none'}; spans: {trace_info['spans_file']}")
        for name, (value, unit, _) in metrics.items():
            lines.append(f"  {name:<58} {value:<14.6g} {unit}")
    rows = ledger(outcomes)
    lines.append(f"  measured-loop failures: {failed} of {attempted} functions failed" + (":" if rows else ""))
    for base, reason, count, tables in rows:
        lines.append(f"    {base} x{count} [{reason}] members {' '.join(tables)}")
    known = worker["ledger"]
    if known:
        lines.append(f"  known-failure ledger (canonical tables, run after the measurement, not counted): "
                     f"{sum(not o['verified'] for o in known)} of {len(known)} failed:")
        for o in known:
            reasons = ", ".join(sorted({reason.split("[")[0] for reason in o["reasons"]})) or "verified"
            lines.append(f"    {o['table']} [{reasons}]")
    incorrect = [o for o in outcomes + known if o["incorrect"]]
    for o in incorrect:
        lines.append(f"  INCORRECT {o['base']} member {o['table']}: adv={o['adv']!r} ({', '.join(o['reasons'])})")
    result = {
        "correct": not incorrect,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    detail = {"args": {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace},
              "setup_samples_s": setup, "result": result, "worker": worker}
    (OUT_DIR / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(detail, indent=1))
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*(w for w in WORKLOADS), "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "advspan" / "__init__.py").is_file():
        print(f"no advspan sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    names = [w for w in WORKLOADS if w != "selftest"] if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        deadline = time.perf_counter() + RUN_BUDGET_S
        result, lines = run_one(name, args.seed, args.seconds, args.trace, deadline)
        print("\n".join(lines), flush=True)
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
