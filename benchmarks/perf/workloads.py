"""The four campaign workloads and the child processes that run them.

``run.py`` starts every process here with ``PYTHONPATH`` pointing at the
checkout's ``src``, the weight store inside the checkout and one BLAS
thread per process:

    python3 benchmarks/perf/workloads.py warm
    python3 benchmarks/perf/workloads.py setup WORKLOAD WORKDIR
    python3 benchmarks/perf/workloads.py measure WORKLOAD WORKDIR --seed N
        --seconds S --trace 0|1 [--smoke]

``warm`` builds the on-disk weight store if it is missing.  ``setup``
times what a user pays before the first trial of each of the workload's
campaigns: importing the engine, loading networks, golden inference,
SED learning, shared-memory publish and pool spawn; it then times the
reference mix once, to gauge the host's speed.  ``measure`` runs an
untimed warm round, then repeats a cycle of rounds for ``--seconds``:
round ``k`` of a cycle runs the workload's campaigns with campaign seed
``seed * 1000 + k``, and times a fixed reference mix of work before and
after each campaign to gauge the host's speed at that moment.  Between
cycles it starts ``setup`` processes.  It checks every campaign's
outcome and prints one JSON line.

Every module import of ``repro`` happens inside a function, so ``setup``
can time it.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import multiprocessing
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

__all__ = [
    "WORKLOADS", "Round", "Workload", "campaign_digest", "main", "measure", "reference_seconds",
    "run_round", "setup", "warm",
]

#: Networks of the paper's main experiments that calibrate in seconds.
NETWORKS = ("ConvNet", "AlexNet", "NiN")

#: Trials whose serial-path outcome is compared per campaign.
REFERENCE_TRIALS = 16

#: Divisor of every trial count under ``--smoke``.
SMOKE_DIVISOR = 20

#: Campaign seed of sub-seed ``k`` is ``seed * SUBSEED_STRIDE + k``.
SUBSEED_STRIDE = 1000

#: Pairs of set-up processes per untraced run, spread over the gaps between cycles.
SETUP_SAMPLES = 6

#: Seconds :func:`reference_seconds` takes on the nominal host: the
#: 2-vCPU host the baseline was recorded on, in its fast stretches.
#: Campaign timings are scaled to this speed.
REFERENCE_S = 0.025

HERE = Path(__file__).resolve()
DIGESTS = HERE.parent / "digests.json"


@dataclass(frozen=True)
class Workload:
    """One set of campaigns run per round, plus its execution knobs.

    Attributes:
        networks / dtypes: Campaigns are the cross product.
        target: Campaign target (datapath or a buffer scope).
        trials: Trials per campaign per round.
        subseeds: Rounds per cycle, each with its own campaign seed.
        jobs / batch: ``run_campaign`` execution knobs.
        durable: Add SED detection, sampled traces (every 16th trial)
            and a checkpoint, manifest and run log in a temp dir.
    """

    networks: tuple[str, ...]
    dtypes: tuple[str, ...]
    target: str
    trials: int
    subseeds: int
    jobs: int = 1
    batch: int = 16
    durable: bool = False

    def specs(self, seed: int, trials: int):
        from repro.core.campaign import CampaignSpec

        extra = (
            {"with_detection": True, "trace_mode": "sample", "trace_every": 16}
            if self.durable
            else {}
        )
        return [
            CampaignSpec(
                network=net, dtype=dtype, target=self.target, n_trials=trials,
                scale="reduced", seed=seed, **extra,
            )
            for net in self.networks
            for dtype in self.dtypes
        ]

    def knobs(self, tmp: str) -> dict:
        knobs = {"jobs": self.jobs, "batch": self.batch}
        if self.durable:
            # Manifest, run log and trace default to files next to it.
            knobs["checkpoint"] = str(Path(tmp) / "campaign.ckpt.jsonl")
        return knobs


WORKLOADS = {
    "datapath-sweep": Workload(
        NETWORKS, ("FLOAT16", "16b_rb10"), "datapath", trials=1500, subseeds=1
    ),
    "buffer-row": Workload(NETWORKS, ("FLOAT16",), "row_activation", trials=128, subseeds=2),
    "buffer-next": Workload(NETWORKS, ("FLOAT16",), "next_layer", trials=500, subseeds=2),
    "durable-jobs2": Workload(
        ("ConvNet",), ("FLOAT16",), "datapath", trials=8000, subseeds=1, jobs=2, batch=1,
        durable=True,
    ),
}


def campaign_digest(result) -> str:
    """sha256 of the campaign summary without its ``execution`` section."""
    from repro.core.serialize import campaign_summary

    summary = campaign_summary(result)
    summary.pop("execution", None)
    return hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()


def _join_children() -> None:
    """Reap every pool worker, so its rusage and timer file are final."""
    for child in multiprocessing.active_children():
        child.join(timeout=60)


@functools.cache
def _reference_inputs():
    import numpy as np

    rng = np.random.default_rng(0)
    small = rng.standard_normal((8, 16)).astype(np.float32)
    gemm = rng.standard_normal((128, 128)).astype(np.float32)
    return small, gemm, np.zeros(4_000_000, np.float32)


def reference_seconds() -> float:
    """Seconds taken by a fixed mix of work that no engine change can alter.

    The mix has four parts of similar length, one per kind of work a
    campaign does: a Python loop over a dict, a chain of small-array
    numpy calls with float16 round trips, 128 x 128 float32 GEMMs, and
    copies of a 16 MB array.
    """
    import numpy as np

    x, gemm, big = _reference_inputs()
    t0 = perf_counter()
    counts: dict[int, int] = {}
    for i in range(65_000):
        counts[i & 255] = counts.get(i & 255, 0) + i % 7
    for _ in range(2_000):
        x = np.maximum(x, 0.0).astype(np.float16).astype(np.float32) + 0.0
    for _ in range(170):
        gemm @ gemm
    for _ in range(5):
        big.copy()
    return perf_counter() - t0


def _reference_on_cores(jobs: int) -> float:
    """Reference-mix seconds on the cores a campaign with ``jobs`` workers uses.

    A single-worker campaign runs on the core this process is on.  Pool
    workers spread over the cores, and each core has its own slow
    stretches, so for ``jobs > 1`` the mix runs pinned to each of the
    first ``jobs`` cores in turn and the mean counts.
    """
    cpus = os.sched_getaffinity(0)
    if jobs == 1 or len(cpus) == 1:
        return reference_seconds()
    times = []
    try:
        for cpu in sorted(cpus)[:jobs]:
            os.sched_setaffinity(0, {cpu})
            times.append(reference_seconds())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(times)


@dataclass
class Round:
    """What one pass over a workload's campaigns measured and produced."""

    #: Wall time of each ``run_campaign`` call.
    walls: list[float] = field(default_factory=list)
    #: Mean of the reference-mix timings just before and just after each call.
    refs: list[float] = field(default_factory=list)
    classified: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    #: One per campaign; None when the campaign raised.
    digests: list[str | None] = field(default_factory=list)
    #: The first REFERENCE_TRIALS records of each campaign.
    records: list[list] = field(default_factory=list)


def run_round(workload: Workload, specs: list, workdir: Path) -> Round:
    """Run each campaign once, timing each ``run_campaign`` call and the host around it."""
    from repro.core.campaign import run_campaign

    out = Round()
    before = _reference_on_cores(workload.jobs)
    for spec in specs:
        out.attempted += spec.n_trials
        with tempfile.TemporaryDirectory(dir=workdir) as tmp:
            t0 = perf_counter()
            try:
                result = run_campaign(spec, **workload.knobs(tmp))
            except Exception as exc:  # a raising campaign is a counted failure
                result = None
                out.failures.append(f"{spec.network}/{spec.dtype}: raised {exc!r}")
            finally:
                out.walls.append(perf_counter() - t0)
                _join_children()
        after = _reference_on_cores(workload.jobs)
        out.refs.append((before + after) / 2)
        before = after
        if result is None:
            out.digests.append(None)
            out.records.append([])
            continue
        out.classified += len(result.records)
        for error in result.errors:
            out.failures.append(f"{spec.network}/{spec.dtype}: trial {error.index} {error.reason}")
        out.digests.append(campaign_digest(result))
        out.records.append(result.records[:REFERENCE_TRIALS])
    return out


def _reference_failures(workload: Workload, specs: list, first: Round) -> list[str]:
    """Compare the first trials of each campaign with the serial path.

    Trial outcomes are pure functions of the trial index, so the batched,
    parallel and durable executions must give the records that a plain
    ``jobs=1, batch=1`` run of the same spec gives, bit for bit.
    """
    from repro.core.campaign import run_campaign

    failures = []
    for spec, records in zip(specs, first.records):
        if not records:
            continue
        ref = run_campaign(replace(spec, n_trials=len(records)), jobs=1, batch=1)
        if repr(ref.records) != repr(records):
            failures.append(f"{spec.network}/{spec.dtype}: records differ from the serial path")
    return failures


def _committed_digest(name: str, seed: int, smoke: bool) -> str | None:
    if not DIGESTS.exists():
        return None
    table = json.loads(DIGESTS.read_text())
    return table.get("smoke" if smoke else "full", {}).get(name, {}).get(str(seed))


def _setup_sample(name: str, workdir: Path) -> list[tuple[float, float]]:
    """Time ``setup`` in fresh processes, one per core at once.

    Returns each process's set-up seconds and the reference mix's
    seconds measured in it right after, on the same core.
    """
    cmd = [sys.executable, str(HERE), "setup", name, str(workdir)]
    procs = [
        subprocess.Popen(cmd, stdout=subprocess.PIPE)
        for _ in range(min(2, len(os.sched_getaffinity(0))))
    ]
    timings = []
    for proc in procs:
        out, _ = proc.communicate(timeout=120)
        if proc.returncode != 0:
            raise subprocess.CalledProcessError(proc.returncode, cmd)
        timing = json.loads(out)
        timings.append((timing["setup_s"], timing["ref_s"]))
    return timings


def _scaled_walls(rounds: list[Round]) -> list[float]:
    """Per-campaign wall times of one cycle at the nominal host speed.

    Each wall time is multiplied by ``REFERENCE_S`` over the reference
    mix's timing around that campaign.  The shared host's speed drifts
    by up to half for tens of seconds at a time, and a campaign and the
    reference mix slow down together, so the scaled time follows the
    engine's cost and not the host's moment.
    """
    return [w * REFERENCE_S / r for rnd in rounds for w, r in zip(rnd.walls, rnd.refs)]


def _rate(classified: int, timings: list[list[float]]) -> float:
    """Classified trials of a cycle over the median scaled timing of each campaign.

    ``timings`` holds one :func:`_scaled_walls` list per timed cycle.
    Summing over the campaigns and sub-seeds averages out how much work
    each seed's faults happen to cost.
    """
    return classified / sum(statistics.median(t) for t in zip(*timings))


def measure(name: str, workdir: Path, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Warm round, timed cycles, set-up samples, outcome checks."""
    workload = WORKLOADS[name]
    trials = max(workload.jobs, workload.trials // SMOKE_DIVISOR) if smoke else workload.trials
    subseeds = 1 if smoke else workload.subseeds
    cycle = [workload.specs(seed * SUBSEED_STRIDE + k, trials) for k in range(subseeds)]
    warm = [replace(s, n_trials=max(workload.jobs, trials // SMOKE_DIVISOR)) for s in cycle[0]]
    run_round(workload, warm, workdir)

    timer = None
    if trace:
        from layers import LayerTimer

        timer = LayerTimer(workdir)

    def run_cycle() -> list[Round]:
        return [run_round(workload, specs, workdir) for specs in cycle]

    # A cycle runs one round per sub-seed.  Repeating cycles until the
    # time is up times every campaign more than once.  Traced runs
    # alternate untraced and traced cycles, so the tracing overhead is
    # measured in the same process on the same inputs.  Set-up samples
    # run two to a gap between cycles, so they see the host at several
    # moments of the run and never compete with a timed campaign.  They
    # start after the first cycle has reaped its pool workers, whose
    # peak memory is read then.
    min_cycles = 1 if smoke and not trace else 2
    n_setups = 0 if trace else 1 if smoke else SETUP_SAMPLES
    cycles: list[tuple[list[Round], bool]] = []
    setup_timings: list[list[tuple[float, float]]] = []
    start = perf_counter()
    while True:
        traced = trace and len(cycles) % 2 == 1
        t0 = perf_counter()
        if traced:
            timer.install()
        try:
            rounds = run_cycle()
        finally:
            if traced:
                timer.uninstall()
                timer.merge_workers()
        took = perf_counter() - t0
        if not cycles:
            workers_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        cycles.append((rounds, traced))
        for _ in range(min(2, n_setups - len(setup_timings))):
            setup_timings.append(_setup_sample(name, workdir))
        if len(cycles) >= min_cycles and (smoke or perf_counter() - start + took > seconds):
            break
    while len(setup_timings) < n_setups:
        setup_timings.append(_setup_sample(name, workdir))

    first = cycles[0][0]
    failures = [f for rounds, _ in cycles for rnd in rounds for f in rnd.failures]
    for i, (rounds, _) in enumerate(cycles[1:], start=1):
        if [r.digests for r in rounds] != [r.digests for r in first]:
            failures.append(f"cycle {i}: digests differ from cycle 0")
    digests = [d for rnd in first for d in rnd.digests]
    digest = hashlib.sha256("\n".join(map(str, digests)).encode()).hexdigest()
    committed = _committed_digest(name, seed, smoke)
    if committed is not None and committed != digest:
        failures.append(f"digest differs from {DIGESTS.name} for seed {seed}")
    failures += _reference_failures(workload, cycle[0], first[0])

    classified = sum(rnd.classified for rnd in first)
    plain = [_scaled_walls(rounds) for rounds, traced in cycles if not traced]
    refs = [r for rounds, _ in cycles for rnd in rounds for r in rnd.refs]
    result = {
        "rounds": [
            {"cycle": i, "subseed": k, "walls": rnd.walls, "refs": rnd.refs,
             "classified": rnd.classified, "traced": traced}
            for i, (rounds, traced) in enumerate(cycles)
            for k, rnd in enumerate(rounds)
        ],
        "host_speed": REFERENCE_S / statistics.median(refs),
        "trials_per_s": _rate(classified, plain),
        "setup_timings": setup_timings,
        "setup_samples": [s * REFERENCE_S / r for timings in setup_timings for s, r in timings],
        "peak_rss_mb": max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, workers_kb) / 1024,
        "attempted": sum(rnd.attempted for rounds, _ in cycles for rnd in rounds),
        "failed": len(failures),
        "failures": failures,
        "digests": digests,
        "digest": digest,
        "trials_per_campaign": trials,
    }
    if trace:
        from layers import layer_metrics

        traced_cycles = [rounds for rounds, traced in cycles if traced]
        wall = sum(w for rounds in traced_cycles for rnd in rounds for w in rnd.walls)
        metrics = layer_metrics(timer, len(traced_cycles), wall, workload.jobs)
        traced_rate = _rate(classified, [_scaled_walls(rounds) for rounds in traced_cycles])
        metrics["trace_overhead_pct"] = 100.0 * (_rate(classified, plain) / traced_rate - 1.0)
        result["layers"] = metrics
        result["layer_table"] = {
            label: own / len(traced_cycles) for label, own in sorted(timer.table.items())
        }
    return result


def setup(name: str, workdir: Path) -> float:
    """Seconds from a cold import to every campaign's first trials done."""
    t0 = perf_counter()
    from repro.core.campaign import run_campaign

    workload = WORKLOADS[name]
    for spec in workload.specs(seed=0, trials=workload.jobs):
        with tempfile.TemporaryDirectory(dir=workdir) as tmp:
            run_campaign(spec, chunk=1, **workload.knobs(tmp))
    elapsed = perf_counter() - t0
    _join_children()
    return elapsed


def warm() -> None:
    """Build the weight store for every network a workload uses."""
    from repro.zoo.registry import get_network

    for net in sorted({n for w in WORKLOADS.values() for n in w.networks}):
        get_network(net, "reduced")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    modes = parser.add_subparsers(dest="mode", required=True)
    modes.add_parser("warm")
    timed = modes.add_parser("setup"), modes.add_parser("measure")
    for sub in timed:
        sub.add_argument("workload", choices=sorted(WORKLOADS))
        sub.add_argument("workdir", type=Path)
    measuring = timed[1]
    measuring.add_argument("--seed", type=int, required=True)
    measuring.add_argument("--seconds", type=float, required=True)
    measuring.add_argument("--trace", type=int, choices=(0, 1), required=True)
    measuring.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "warm":
        warm()
        return 0
    if args.mode == "setup":
        out = {"setup_s": setup(args.workload, args.workdir)}
        reference_seconds()  # the first call warms the mix's caches
        out["ref_s"] = reference_seconds()
    else:
        out = measure(
            args.workload, args.workdir, args.seed, args.seconds, bool(args.trace), args.smoke
        )
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
