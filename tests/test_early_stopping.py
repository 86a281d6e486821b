"""Wilson-CI early stopping at fixed trial-index boundaries.

Skip decisions, like trial outcomes, are a pure function of ``(spec,
trial index)``: these tests pin the stop boundary, the per-stratum skip
counters, and byte-identical summaries across worker pools, batched
propagation and kill/resume.
"""

from __future__ import annotations

import json

import pytest

from repro.core.campaign import CampaignSpec, run_campaign
from repro.core.serialize import campaign_summary

STOP_SPEC = CampaignSpec(
    network="ConvNet", dtype="FLOAT16", n_trials=200, seed=3,
    target_halfwidth=0.18, stop_stratify="site", stop_check_every=16,
)


def _summary(result) -> dict:
    summary = campaign_summary(result)
    summary.pop("execution")  # harness counters, not physics
    return json.loads(json.dumps(summary, sort_keys=True))


class TestEarlyStopping:
    def test_overall_stop_at_fixed_boundary(self):
        spec = CampaignSpec(
            network="ConvNet", dtype="FLOAT16", n_trials=120, seed=3,
            target_halfwidth=0.2, stop_check_every=16,
        )
        result = run_campaign(spec)
        assert result.stopped_at is not None
        assert result.stopped_at % spec.stop_check_every == 0
        assert len(result.records) == result.stopped_at
        summary = campaign_summary(result)
        assert summary["early_stop"]["stopped_at"] == result.stopped_at
        assert summary["early_stop"]["sampled"] == len(result.records)

    def test_stratified_skips_and_counters(self):
        result = run_campaign(STOP_SPEC)
        assert result.skips, "site stratification should close strata at different times"
        counters = result.metrics["counters"]
        assert counters["early_stop/skipped"] == len(result.skips)
        by_site = {}
        for skip in result.skips:
            by_site[skip.site] = by_site.get(skip.site, 0) + 1
        for site, n in by_site.items():
            assert counters[f"early_stop/skipped/{site}"] == n

    def test_parity_across_jobs_and_batch(self):
        baseline = _summary(run_campaign(STOP_SPEC, batch=1))
        assert _summary(run_campaign(STOP_SPEC, jobs=2, batch=8)) == baseline

    def test_halfwidth_validation(self):
        with pytest.raises(ValueError):
            CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=8,
                         target_halfwidth=0.7)
        with pytest.raises(ValueError):
            CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=8,
                         target_halfwidth=0.1, stop_stratify="latch")

    def test_resume_replays_stop_decisions(self, tmp_path):
        """Kill at ~50% (truncated checkpoint), resume under jobs=2:
        skip decisions and the stop boundary replay bit-identically."""
        ref_ck = tmp_path / "ref.jsonl"
        reference = run_campaign(STOP_SPEC, checkpoint=ref_ck)
        lines = ref_ck.read_text().splitlines()
        header, entries = lines[0], lines[1:]
        half_ck = tmp_path / "half.jsonl"
        half_ck.write_text("\n".join([header] + entries[: len(entries) // 2]) + "\n")

        resumed = run_campaign(STOP_SPEC, checkpoint=half_ck, resume=True, jobs=2)
        assert _summary(resumed) == _summary(reference)
        assert resumed.stopped_at == reference.stopped_at
        assert [(s.index, s.site) for s in resumed.skips] == \
            [(s.index, s.site) for s in reference.skips]
        assert resumed.stats.resumed > 0

    def test_fully_resumed_campaign_replays_early_stop(self, tmp_path):
        """Resuming a *complete* checkpoint must still replay the stop
        metrics instead of re-sampling or crashing."""
        ck = tmp_path / "full.jsonl"
        reference = run_campaign(STOP_SPEC, checkpoint=ck)
        resumed = run_campaign(STOP_SPEC, checkpoint=ck, resume=True)
        assert _summary(resumed) == _summary(reference)
        assert resumed.stats.resumed == len(reference.records) + len(reference.skips)
