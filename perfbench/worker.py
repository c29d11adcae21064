"""Runs one workload in a fresh interpreter with BLAS pinned to one thread.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

With --setup-only it prints the wall clock (time.time()) once advspan is
imported and the inputs are generated, and exits. Otherwise it prints one JSON line with the
outcome of every function it ran, the workload's failure ledger last (after
the measurement). run.py starts it; it is not meant to be called by hand.
"""

import os

# Must happen before numpy is first imported, in this process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"


def import_advspan():
    """advspan from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import advspan
    import advspan.cli

    if src.resolve() not in Path(advspan.__file__).resolve().parents:
        raise ImportError(f"advspan was imported from {advspan.__file__}, not from {src}")
    return advspan


def blas_libraries() -> list[dict]:
    """Thread count and build string of every OpenBLAS loaded in this process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    except OSError:
        return []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and "threads" not in entry:
                    threads.restype = ctypes.c_int
                    entry["threads"] = threads()
                if config is not None and "config" not in entry:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
        found.append(entry)
    return found


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_libraries(),
        "blas_env": {var: os.environ[var] for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    advspan = import_advspan()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    stream = workloads.passes(workload, args.seed)
    first = next(stream)
    if args.setup_only:
        print(repr(time.time()), flush=True)
        return 0

    clock = time.perf_counter
    scratch = OUT_DIR / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    if workload.kind == "cli":
        ledger = workloads.ExceptionLedger(advspan.cli)

        def run(item):
            return workloads.run_cli(advspan.cli, ledger, workload, item, scratch)
    else:
        def run(item):
            return workloads.run_library(advspan, item)

    result = {"workload": workload.name, "env": environment(args.seed)}
    if args.trace == 0:
        # Closed loop, one client. Whole passes, so every run weighs the base
        # functions equally: at least one, and no more than fit in --seconds
        # at the mean pass time so far.
        outcomes, passes = [], 0
        t0 = clock()
        batch = first
        while True:
            outcomes.extend(run(item) for item in batch)
            passes += 1
            elapsed = clock() - t0
            if elapsed * (passes + 1) / passes > args.seconds:
                break
            batch = next(stream)
        result["wall_s"] = clock() - t0
        result["passes"] = passes
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        from tracer import Tracer

        t0 = clock()
        outcomes = [run(item) for item in first]
        untraced_wall = clock() - t0
        tracer = Tracer()
        tracer.install()
        t0 = clock()
        for request, item in enumerate(first):
            tracer.request = request
            outcomes.append(run(item))
        traced_wall = clock() - t0
        tracer.uninstall()
        result["trace"] = {
            "metrics": tracer.metrics(len(first), traced_wall, untraced_wall),
            "absent": tracer.absent,
            "unobserved": sorted(tracer.unobserved),
            "accounting": tracer.accounting(traced_wall, untraced_wall),
        }
        spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(tracer.span_records()))
        result["trace"]["spans_file"] = str(spans_path.relative_to(ROOT))
    ledger_outcomes = [run(workloads.Item(base, workloads.builtin_table(base))) for base in workload.ledger]
    for key, found in (("outcomes", outcomes), ("ledger", ledger_outcomes)):
        result[key] = [
            {"base": o.base, "table": o.table, "seconds": o.seconds, "adv": o.adv,
             "verified": o.verified, "incorrect": o.incorrect, "reasons": o.reasons}
            for o in found
        ]
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
