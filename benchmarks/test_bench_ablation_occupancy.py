"""Ablation: static size-weighted vs schedule-aware fault sampling.

The paper samples buffer faults over the data at rest; our occupancy
extension draws the victim layer from the row-stationary schedule's
bit-cycle exposures instead (a strike uniform in space *and* time).
This bench compares the resulting SDC probabilities and shows the
mapping-aware layer mix.
"""

from repro.core.campaign import CampaignSpec, run_campaign

from bench_common import TRIALS


def test_bench_ablation_occupancy():
    base = dict(network="AlexNet", dtype="16b_rb10", target="layer_weight",
                n_trials=TRIALS, seed=95)
    static = run_campaign(CampaignSpec(**base))
    weighted = run_campaign(CampaignSpec(**base, occupancy_weighted=True))
    print()
    print(f"static sampling:    SDC-1 {static.sdc_rate()}")
    print(f"occupancy sampling: SDC-1 {weighted.sdc_rate()}")
    print("victim-layer mix (static):  ",
          {b: f"{r.n}" for b, r in static.rate_by_block().items()})
    print("victim-layer mix (weighted):",
          {b: f"{r.n}" for b, r in weighted.rate_by_block().items()})
    # Both are valid strike models; the block mixes must differ, which is
    # the point of the ablation.
    static_mix = [r.n for r in static.rate_by_block().values()]
    weighted_mix = [r.n for r in weighted.rate_by_block().values()]
    assert static_mix != weighted_mix
