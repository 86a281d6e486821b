"""Ablation: multi-cell upsets vs the paper's single-event-upset model.

The paper injects single bit flips (section 4.3); modern dense latches
also see multi-cell upsets.  This bench sweeps the burst width on the
most SDC-prone configuration: wider bursts cover more integer bits per
strike, so the SDC probability grows with burst width — quantifying how
conservative the single-bit model is.
"""

from repro.core.campaign import CampaignSpec, run_campaign

from bench_common import TRIALS


def test_bench_ablation_multibit():
    rates = {
        b: run_campaign(
            CampaignSpec(network="AlexNet", dtype="32b_rb10",
                         n_trials=TRIALS, seed=92, burst=b)
        ).sdc_rate()
        for b in (1, 2, 4)
    }
    print()
    for b, r in rates.items():
        print(f"burst {b}: SDC-1 {r}")
    assert rates[4].p >= rates[1].p - 0.02  # wider strikes no less severe
