"""Bench: observability overhead of the span instrumentation.

Spans are compiled into the hot path (per-layer forward, per-trial
injection) but default to a shared no-op context manager.  Acceptance:
the no-op path costs under 3% of a trial's runtime, so leaving the
instrumentation in place is free for ordinary campaigns.

Measured directly: per-call cost of a disabled ``span()`` times the
number of span entries an instrumented trial actually makes (counted
from a spans-on run), over the measured per-trial runtime of a
spans-off campaign.
"""

from time import perf_counter

from repro.core.campaign import CampaignSpec, run_campaign
from repro.obs.spans import disable_spans, span, timing_snapshot

SPEC = CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=60, n_inputs=2, seed=3)


def _noop_span_cost(reps: int = 200_000) -> float:
    disable_spans()
    start = perf_counter()
    for _ in range(reps):
        with span("noop"):
            pass
    return (perf_counter() - start) / reps


def test_bench_obs_span_noop_overhead():
    # Count how many span entries one trial makes (spans on, small run).
    counting_spec = CampaignSpec(
        network=SPEC.network, dtype=SPEC.dtype, n_trials=8, n_inputs=SPEC.n_inputs, seed=SPEC.seed
    )
    counted = run_campaign(counting_spec, jobs=1, spans=True)
    spans_per_trial = sum(v["count"] for v in counted.metrics["timing"].values()) / counting_spec.n_trials
    disable_spans()
    timing_snapshot(reset=True)

    # Time the default (spans off) campaign and the no-op span itself.
    start = perf_counter()
    result = run_campaign(SPEC, jobs=1)
    campaign_s = perf_counter() - start
    assert len(result.records) == SPEC.n_trials
    per_trial_s = campaign_s / SPEC.n_trials
    per_call_s = _noop_span_cost()

    overhead = per_call_s * spans_per_trial / per_trial_s
    print(
        f"\nno-op span: {per_call_s * 1e9:.0f} ns/call x {spans_per_trial:.1f} spans/trial"
        f" over {per_trial_s * 1e3:.2f} ms/trial -> {overhead * 100:.3f}% overhead"
    )
    assert overhead < 0.03, f"no-op span overhead {overhead:.2%} exceeds 3%"
