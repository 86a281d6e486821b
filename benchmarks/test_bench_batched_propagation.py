"""Bench: batched fault propagation vs the per-trial full-recompute path.

The campaign hot path propagates each prepared corruption through the
network tail.  ``_CampaignTask.run_many`` sorts a chunk's unmasked
trials by resume layer and cuts them into groups, each pushed through
one ``Network.forward_from_batch`` call that admits every trial at its
own layer, recomputes only each trial's own dirty rows and drops trials
the instant their corruption is masked mid-flight (see
docs/architecture.md).  Results are bit-identical to
the per-trial path by contract; this bench measures what the grouping
buys and enforces the >= 2x floor at group size >= 16.

Protocol: one warm ``_CampaignTask``, best-of-5 wall time over the
same 250-trial ConvNet datapath campaign, serial (each trial sampled,
built, propagated by ``finish_injection`` and classified on its own)
vs batched (``run_many`` over 64-trial chunks, the runner's chunk size)
at group sizes 16/32/64.
"""

from time import perf_counter

from repro.core.campaign import CampaignSpec, _CampaignTask
from repro.core.injector import finish_injection

from bench_common import TRIALS

SPEC = CampaignSpec(
    network="ConvNet", dtype="FLOAT16", target="datapath", n_trials=TRIALS, seed=0
)
GROUP_SIZES = (16, 32, 64)
CHUNK = 64  # run_campaign's default inter-process chunk


def _best_of(fn, rounds=5):
    """Best (min) wall time over ``rounds`` runs — the least-contended
    sample is the honest one on a noisy shared-CPU host."""
    best = None
    for _ in range(rounds):
        start = perf_counter()
        result = fn()
        elapsed = perf_counter() - start
        if best is None or elapsed < best[0]:
            best = (elapsed, result)
    return best


def _measure():
    task = _CampaignTask(SPEC)
    idx = list(range(TRIALS))

    def serial():
        records = []
        for i in idx:
            fault, meta = task.sample_trial(i)
            prep = task.build_trial(fault, meta)
            injection = finish_injection(
                task.network, task.dtype, prep, meta["golden"],
                record=meta["record"], storage_dtype=task.storage_dtype,
            )
            records.append(task.complete_trial(meta, injection))
        return records

    def batched(group):
        task.group_size = group
        out = []
        for s in range(0, TRIALS, CHUNK):
            out.extend(task.run_many(idx[s : s + CHUNK]))
        return out

    reference = serial()  # warm caches (weights, goldens, index grids)
    batched(GROUP_SIZES[0])
    serial_s, _ = _best_of(serial)
    rows = []
    for group in GROUP_SIZES:
        batch_s, records = _best_of(lambda: batched(group))
        matches = all(
            a.outcome == b.outcome
            and (
                a.value_after == b.value_after
                or (a.value_after != a.value_after and b.value_after != b.value_after)
            )
            for a, b in zip(reference, records)
        )
        rows.append((group, TRIALS / batch_s, serial_s / batch_s, matches))
    return TRIALS / serial_s, rows


def test_bench_batched_propagation():
    serial_tps, rows = _measure()
    print(f"\nserial   {serial_tps:8.1f} trials/s")
    for group, tps, speedup, matches in rows:
        print(f"group={group:<3d} {tps:8.1f} trials/s  ({speedup:.2f}x)")
        assert matches, f"group={group}: batched records diverge from serial"
    floor = {group: speedup for group, _, speedup, _ in rows}
    assert max(floor.values()) >= 2.0, (
        f"no group size >= 16 reaches the 2x floor: {floor}"
    )
