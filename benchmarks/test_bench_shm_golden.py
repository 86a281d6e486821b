"""Bench: shared-memory golden state vs per-worker golden inference.

Without shared golden state every pool worker that receives a chunk
rebuilds the campaign task: golden inference over every evaluation
input plus SED detector learning, duplicated per worker — pure
overhead, since trial outcomes depend on the golden *bits*, not on who
computed them.  With ``shared_golden=True`` the parent computes the
golden state once, publishes it into a ``multiprocessing.shared_memory``
segment and workers attach read-only views (docs/architecture.md,
"Shared golden state").  Results are bit-identical by contract; this
bench measures what the sharing buys and enforces the >= 1.5x floor at
jobs >= 2.

Protocol: the init-dominated regime the sharing exists for — full-scale
NiN (all-conv, so forwards are expensive while the weight payload stays
small) with the SED detector, 8 evaluation inputs, and a chunk size
that puts work on both workers so each one pays the duplicated init.
One timed run per mode after a warm-up that fills the on-disk weight
cache and the in-process network memo (inherited by forked workers, so
neither mode pays weight generation).
"""

import json
from time import perf_counter

from repro.core.campaign import CampaignSpec, run_campaign
from repro.core.serialize import campaign_summary

SPEC = CampaignSpec(
    network="NiN",
    dtype="FLOAT16",
    target="datapath",
    n_trials=32,
    scale="full",
    n_inputs=8,
    seed=0,
    with_detection=True,
    detector_kind="sed",
)
JOBS = 2
BATCH = 16
CHUNK = 16  # 32 trials / 16 = one chunk per worker: both must initialise


def _summary(result) -> dict:
    summary = campaign_summary(result)
    summary.pop("execution")  # harness counters, not physics
    return json.loads(json.dumps(summary, sort_keys=True))


def _timed(fn):
    start = perf_counter()
    result = fn()
    return perf_counter() - start, result


def _measure():
    run = lambda shm: run_campaign(
        SPEC, jobs=JOBS, batch=BATCH, chunk=CHUNK, shared_golden=shm
    )
    run(True)  # warm: weight cache on disk, network memo in the parent
    baseline_s, baseline = _timed(lambda: run(False))
    shm_s, shared = _timed(lambda: run(True))
    identical = _summary(baseline) == _summary(shared)
    return baseline_s, shm_s, identical


def test_bench_shm_golden():
    baseline_s, shm_s, identical = _measure()
    speedup = baseline_s / shm_s
    print(f"\nper-worker golden inference  {baseline_s:6.2f}s")
    print(f"shared golden segment        {shm_s:6.2f}s  ({speedup:.2f}x)")
    assert identical, "shared-golden summary diverges from per-worker baseline"
    assert speedup >= 1.5, (
        f"shared golden state below the 1.5x floor at jobs={JOBS}: {speedup:.2f}x"
    )
