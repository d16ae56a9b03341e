"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree that holds ``src/stokesrbf``.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the same workload runs with the
per-module tracer installed and the object holds the per-module metrics.
The lines before it give the environment, the gates and every metric with
its unit.  A full record and the trace spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("reproduce-l4", "solve-l4", "query-model")
SETUP_PROBES = 5


def _env(threads: int) -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)
    return env


def cold_setup(env: dict[str, str]) -> dict[str, float]:
    """Median wall, import and table-build times of fresh interpreters."""
    runs = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py")], env=env,
            capture_output=True, text=True, timeout=120, check=True)
        wall = time.perf_counter() - t0
        runs.append({"wall_s": wall, **json.loads(done.stdout.strip().splitlines()[-1])})
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except OSError:
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas_threads(numpy) -> str:
    """Thread count the loaded OpenBLAS reports, when it can be asked."""
    import ctypes

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(handle, name):
                return str(getattr(handle, name)())
    return "unknown"


def environment(args, threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": threads,
        "blas_threads": _blas_threads(numpy),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
    }


def tail_percentile(samples: int) -> float:
    """99, or the highest percentile that still has ten samples beyond it,
    and at least the median: a run of a few batch jobs reports its median."""
    return min(99.0, max(50.0, 100.0 * (1.0 - 10.0 / samples)))


def end_to_end(outcome, cold: dict, peak_mb: float) -> dict[str, tuple[float, str]]:
    import numpy as np

    lat = np.asarray(outcome.latencies)
    busy = float(lat.sum())
    return {
        "wall_s": (busy / len(lat), "s"),
        "setup_s": (cold["wall_s"] + outcome.setup_s, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "latency_p50_ms": (1e3 * float(np.percentile(lat, 50)), "ms"),
        "latency_p99_ms": (1e3 * float(np.percentile(lat, tail_percentile(len(lat)))), "ms"),
        "points_per_s": (outcome.points / busy, "1/s"),
        "velocity_l2": (outcome.velocity_l2, "norm"),
        "grad_p_l2": (outcome.grad_p_l2, "norm"),
        "probe_linf": (outcome.probe_linf, "norm"),
        "solve_residual_max": (outcome.solve_residual_max, "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "stokesrbf" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC / 'stokesrbf'}", file=sys.stderr)
        return 2

    # BLAS reads its thread count when numpy is first imported
    threads = len(os.sched_getaffinity(0))
    env = _env(threads)
    os.environ.update({k: env[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                            "MKL_NUM_THREADS")})
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    cold = cold_setup(env)

    import layers
    import tracing
    from workloads import WORKLOADS, Outcome, model_accuracy

    info = environment(args, threads)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(run_id=f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        layers.install(tracer)
    try:
        outcome = WORKLOADS[args.workload](args.seed, args.seconds, tracer, OUT)
    except Exception:  # the program failed: report it as a failed operation
        traceback.print_exc()
        outcome = Outcome(attempted=1, failed=1, failures=["workload raised"])
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_mb = tracing.peak_rss_mb()
    if outcome.model is not None and not args.trace:
        model_accuracy(outcome)

    if args.trace:
        metrics = layers.layer_metrics(tracer, cold, queries=len(outcome.latencies)
                                       if args.workload == "query-model" else 0)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        info["trace_file"] = str(trace_path.relative_to(ROOT))
    elif outcome.latencies:
        metrics = end_to_end(outcome, cold, peak_mb)
    else:
        metrics = {}
    error_rate = outcome.failed / outcome.attempted
    correct = outcome.failed == 0 and bool(metrics)

    print("env " + json.dumps(info))
    print(f"operations attempted={outcome.attempted} failed={outcome.failed} "
          f"error_rate={error_rate:g} samples={len(outcome.latencies)}")
    for note, value in outcome.notes.items():
        print(f"{note} {value}")
    for failure in outcome.failures:
        print(f"FAIL {failure}")
    if "latency_p99_ms" in metrics:
        tail = metrics["latency_p99_ms"][0] / 1e3
        print(f"latency_p99_ms is percentile {tail_percentile(len(outcome.latencies)):.2f}; "
              f"samples beyond it: {sum(v > tail for v in outcome.latencies)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:.6g} {unit}")
    record = {
        "env": info, "error_rate": error_rate, "notes": outcome.notes,
        "failures": outcome.failures, "cold_setup": cold,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
