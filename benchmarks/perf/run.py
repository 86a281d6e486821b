"""Campaign benchmark: trials/s, set-up time and memory on four fault-injection workloads.

Run from the root of a checkout (nothing to install or build):

    python3 benchmarks/perf/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--smoke] [--out FILE]

One untimed child process (``workloads.py``) warms the weight store;
then each workload runs in one measuring child, which starts fresh
processes to time set-up between its timed cycles.  Every metric is
printed as ``workload metric value unit``; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  With one workload its metric keys are the names in
``BENCHMARK.json``; with several they are ``<workload>.<metric>``.
``--trace`` reports the per-layer metrics instead of the end-to-end
ones.  ``--out`` also writes the full result (timings, digests, layer
table, host GEMM rate) as JSON, the input format of ``compare.py``.  A
workload takes about ``--seconds``.

The exit status is 0 when every outcome check passed, 1 when one failed,
and 2 when the benchmark could not run at all (for instance outside a
checkout that holds ``src/repro``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

__all__ = ["ChildError", "main", "run_workload"]

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = ROOT / "BENCHMARK.json"

#: Named layers printed per traced workload; ``--out`` keeps them all.
TABLE_ROWS = 8

#: BLAS threads of every process.  The engine's GEMMs are small: a second
#: thread gained 4% on buffer-next for twice the CPU time, and set-up
#: samples run two processes at once.  With jobs=2 on two cores this is
#: ``nproc // jobs``, which keeps the pool from oversubscribing.
BLAS_THREADS = 1

_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ChildError(RuntimeError):
    """A benchmark child process failed or timed out."""


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _child_env(workdir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_CACHE"] = str(ROOT / ".cache" / "repro-weights")
    env["TMPDIR"] = str(workdir)
    # The engine's self-test fault hook must never fire in a measurement.
    env.pop("REPRO_CAMPAIGN_FAULT", None)
    for var in _BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def _group_running(pgid: int) -> bool:
    """Whether a process of group ``pgid`` is still running (not a zombie)."""
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            stat = Path(entry.path, "stat").read_text()
        except OSError:
            continue
        state, _, group = stat.rsplit(")", 1)[1].split()[:3]
        if int(group) == pgid and state != "Z":
            return True
    return False


def _wait_group(pgid: int, timeout: float = 10.0) -> None:
    """Wait until every process of a child's session has ended.

    The shared-memory resource tracker outlives the child that started
    it by a moment; it is killed if it is still running after ``timeout``.
    """
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if not _group_running(pgid):
            return
        time.sleep(0.02)
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pgid, signal.SIGKILL)


def _child(argv: list[str], env: dict, timeout: float) -> dict:
    """Run ``workloads.py argv`` in its own session; parse its JSON line."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), *argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildError(f"workloads.py {argv[0]} timed out after {timeout:.0f} s") from None
    finally:
        _wait_group(proc.pid)
    if proc.returncode != 0:
        raise ChildError(f"workloads.py {' '.join(argv[:2])} exited with {proc.returncode}")
    lines = out.decode().strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def run_workload(name: str, args, seconds: float, workdir: Path) -> dict:
    """One measuring process for one workload; it also times set-up."""
    argv = ["measure", name, str(workdir), "--seed", str(args.seed),
            "--seconds", str(seconds), "--trace", str(args.trace)]
    measured = _child(argv + (["--smoke"] if args.smoke else []), _child_env(workdir),
                      2 * seconds + 100)
    if args.trace:
        metrics = measured.pop("layers")
    else:
        metrics = {
            "trials_per_s": measured["trials_per_s"],
            "setup_s": statistics.median(measured["setup_samples"]),
            "peak_rss_mb": measured["peak_rss_mb"],
        }
    return {
        **measured,
        "metrics": metrics,
        "blas_threads": BLAS_THREADS,
        "failed_frac": measured["failed"] / measured["attempted"],
    }


def _gemm_gflops(n: int = 512, reps: int = 10) -> float:
    """Host reference: float64 n x n GEMM rate (recorded, never applied)."""
    import numpy as np

    a = np.full((n, n), 0.5)
    b = np.full((n, n), 0.25)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    return 2.0 * n**3 / statistics.median(times) / 1e9


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0, help="seed of every campaign's faults")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="report per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="1/20 of the trials, one sub-seed, one cycle, one set-up sample")
    parser.add_argument("--out", type=Path, help="also write the full result as JSON here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"run.py: no engine source at {ROOT / 'src' / 'repro'}\n")
        return 2
    spec = json.loads(SPEC.read_text())
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    names = args.workload or [w["name"] for w in spec["workloads"]]
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    workdir = ROOT / ".bench_build" / f"perf-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    results: dict[str, dict] = {}
    try:
        _child(["warm"], _child_env(workdir), 700)
        for name in names:
            results[name] = run_workload(name, args, seconds, workdir)
    except ChildError as exc:
        sys.stderr.write(f"run.py: {exc}\n")
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = True
    line_metrics = {}
    for name, res in results.items():
        if set(res["metrics"]) != set(expected):
            sys.stderr.write(f"run.py: {name} metrics do not match {SPEC.name}\n")
            return 2
        for failure in res["failures"]:
            sys.stderr.write(f"run.py: {name}: {failure}\n")
        correct = correct and res["failed"] == 0
        for metric, unit in expected.items():
            value = res["metrics"][metric]
            print(f"{name:<15} {metric:<34} {value:<12.6g} {unit}")
            key = metric if len(results) == 1 else f"{name}.{metric}"
            line_metrics[key] = {"value": value, "unit": unit}
        if args.trace:
            wall = res["metrics"]["campaign.wall_s"]
            top = sorted(res["layer_table"].items(), key=lambda kv: -kv[1])[:TABLE_ROWS]
            for label, own in top:
                print(f"{name:<15} layer {label:<28} {own:<12.6g} s  {own / wall:6.1%} of wall")

    if args.out is not None:
        header = {
            "seed": args.seed, "seconds": seconds, "trace": bool(args.trace),
            "smoke": args.smoke, "nproc": _nproc(), "gemm_gflops": _gemm_gflops(),
            "python": platform.python_version(), "machine": platform.machine(),
        }
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"header": header, "correct": correct, "workloads": results}, indent=1, sort_keys=True
        ) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": line_metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
