"""Ablation: SED range-cushion sweep (the paper fixes 10%).

Sweeps the detector cushion and reports precision/recall: zero cushion
risks false alarms on unseen-but-clean inputs; large cushions trade
recall for precision.
"""

from repro.core.campaign import CampaignSpec, run_campaign

from bench_common import TRIALS


def test_bench_ablation_sed_cushion():
    cushions = (0.0, 0.05, 0.10, 0.25)
    results = {}
    for cushion in cushions:
        spec = CampaignSpec(
            network="AlexNet", dtype="32b_rb10", n_trials=TRIALS, seed=91,
            with_detection=True, sed_cushion=cushion,
        )
        results[cushion] = run_campaign(spec).detection_quality("sdc1")
    print()
    for cushion, q in results.items():
        print(f"cushion {cushion:4.0%}: precision {q.precision:.2%}  "
              f"recall {q.recall:.2%}  (SDCs: {q.total_sdc})")
    # Widening the cushion can only reduce detections: recall is
    # non-increasing in the cushion.
    recalls = [results[c].recall for c in cushions]
    assert all(a >= b - 1e-9 for a, b in zip(recalls, recalls[1:]))
