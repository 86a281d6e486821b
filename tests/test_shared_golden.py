"""Shared-memory golden state + Wilson-CI early stopping.

Two campaign-identity extensions ride the same contract: trial outcomes
(and skip decisions) are a pure function of ``(spec, trial index)``.
These tests pin the byte-identity of campaign summaries across the
shared-golden execution paths (worker pools attaching read-only views,
inline attach, batched propagation, kill/resume), the immutability of
the published golden buffers, the segment lifecycle (creators never
attach, releases are idempotent, nothing leaks into ``/dev/shm``), and
the determinism of the early-stopping rule at fixed trial-index
boundaries.
"""

from __future__ import annotations

import glob
import json

import numpy as np
import pytest

from repro.core.campaign import CampaignSpec, _CampaignTask, run_campaign
from repro.core.serialize import campaign_summary
from repro.core.sharedgolden import (
    _create_segment,
    attach_golden_state,
    publish_golden_state,
    release_segment,
)
from repro.zoo.registry import get_network

SPEC = CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=24, seed=9)
DETECT_SPEC = CampaignSpec(
    network="ConvNet", dtype="FLOAT16", n_trials=24, seed=9,
    with_detection=True, detector_kind="sed",
)
STOP_SPEC = CampaignSpec(
    network="ConvNet", dtype="FLOAT16", n_trials=200, seed=3,
    target_halfwidth=0.18, stop_stratify="site", stop_check_every=16,
)


def _summary(result) -> dict:
    summary = campaign_summary(result)
    summary.pop("execution")  # harness counters, not physics
    return json.loads(json.dumps(summary, sort_keys=True))


def _segments() -> set[str]:
    return set(glob.glob("/dev/shm/repro-golden-*"))


class TestSharedGoldenParity:
    def test_byte_identity_across_execution_modes(self):
        before = _segments()
        baseline = _summary(run_campaign(SPEC, batch=1))
        assert _summary(run_campaign(SPEC, jobs=2)) == baseline  # shm auto-on
        assert _summary(run_campaign(SPEC, jobs=1, shared_golden=True)) == baseline
        assert _summary(run_campaign(SPEC, jobs=2, batch=16, shared_golden=True)) == baseline
        assert _segments() == before, "campaign leaked a shared segment"

    def test_detector_travels_in_descriptor(self):
        baseline = _summary(run_campaign(DETECT_SPEC))
        shared = _summary(run_campaign(DETECT_SPEC, jobs=2, shared_golden=True))
        assert shared == baseline
        assert "detection" in baseline

    def test_manifest_records_shared_golden_mode(self, tmp_path):
        manifest = tmp_path / "run.manifest.json"
        run_campaign(SPEC, jobs=2, shared_golden=True, manifest=manifest)
        assert json.loads(manifest.read_text())["run"]["shared_golden"] is True
        run_campaign(SPEC, manifest=manifest)
        assert json.loads(manifest.read_text())["run"]["shared_golden"] is False


class TestGoldenImmutability:
    def test_attached_views_are_read_only(self):
        proto = _CampaignTask(SPEC)
        descriptor, shm = publish_golden_state(proto)
        try:
            view = attach_golden_state(descriptor)
            golden = view.goldens[0]
            with pytest.raises(ValueError):
                golden.scores[0] = 0.0
            with pytest.raises(ValueError):
                golden.activations[0][...] = 0.0
            for _li, _dtype, wspec, _bspec in descriptor.weights[:1]:
                from repro.core.sharedgolden import _view

                with pytest.raises(ValueError):
                    _view(view.shm, wspec, writeable=False)[...] = 0.0
            view.close()
        finally:
            release_segment(shm)

    def test_private_goldens_are_read_only(self):
        """A ``jobs=1`` task's own golden arrays refuse writes as the
        attached views do: trials read patches over them, so a stray
        write would corrupt every later trial on that input."""
        task = _CampaignTask(SPEC)
        for golden in task.goldens:
            with pytest.raises(ValueError):
                golden.scores[0] = 0.0
            for act in golden.activations:
                with pytest.raises(ValueError):
                    act[...] = 0.0

    def test_golden_bits_survive_a_shared_campaign(self):
        proto = _CampaignTask(SPEC)
        golden_bits = [g.scores.copy() for g in proto.goldens]
        run_campaign(SPEC, jobs=2, shared_golden=True)
        after = _CampaignTask(SPEC)
        for before, golden in zip(golden_bits, after.goldens):
            np.testing.assert_array_equal(before, golden.scores)

    def test_install_weights_keeps_warm_private_cache(self):
        """Forked workers inherit warm quantized weights; segment views
        must not shadow them — purging views at close would otherwise
        throw away quantization work the process already paid for."""
        proto = _CampaignTask(SPEC)  # warms the memoized network's cache
        network = get_network(SPEC.network, SPEC.scale)
        li = network.mac_layer_indices()[0]
        warm = network.layers[li].cached_quantized_weights()
        assert warm, "expected a warmed weight cache"
        descriptor, shm = publish_golden_state(proto)
        try:
            view = attach_golden_state(descriptor)
            view.install_weights(network)
            assert view.installed == []  # every format was already cached
            view.close()
            still = network.layers[li].cached_quantized_weights()
            for dtype_name, (w, _b) in warm.items():
                assert still[dtype_name][0] is w
        finally:
            release_segment(shm)


class TestSegmentLifecycle:
    def test_creator_retries_instead_of_attaching(self):
        """A name collision must never adopt a stale segment's bytes."""
        stale = _create_segment(64)
        try:
            stale.buf[:4] = b"\xde\xad\xbe\xef"
            fresh = _create_segment(64)
            try:
                assert fresh.name != stale.name
                assert bytes(fresh.buf[:4]) == b"\x00\x00\x00\x00"
                assert bytes(stale.buf[:4]) == b"\xde\xad\xbe\xef"
            finally:
                release_segment(fresh)
        finally:
            release_segment(stale)

    def test_release_segment_is_idempotent(self):
        shm = _create_segment(64)
        release_segment(shm)
        release_segment(shm)  # double release: absorbed
        release_segment(None)  # no segment at all: absorbed

    def test_aborted_campaign_unlinks_its_segment(self, monkeypatch):
        from repro.core.campaign import CampaignAbortedError

        before = _segments()
        monkeypatch.setenv("REPRO_CAMPAIGN_FAULT", "raise:*:1.0")
        with pytest.raises(CampaignAbortedError):
            run_campaign(SPEC, jobs=2, shared_golden=True, max_error_frac=0.0)
        assert _segments() == before


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

    def test_parity_across_jobs_shm_and_batch(self):
        baseline = _summary(run_campaign(STOP_SPEC, batch=1))
        shared = run_campaign(STOP_SPEC, jobs=2, batch=8, shared_golden=True)
        assert _summary(shared) == baseline

    def test_halfwidth_validation(self):
        with pytest.raises(ValueError):
            CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=8,
                         target_halfwidth=0.7)
        with pytest.raises(ValueError):
            CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=8,
                         target_halfwidth=0.1, stop_stratify="latch")

    def test_resume_replays_stop_decisions(self, tmp_path):
        """Kill at ~50% (truncated checkpoint), resume under jobs+shm:
        skip decisions and the stop boundary replay bit-identically."""
        ref_ck = tmp_path / "ref.jsonl"
        reference = run_campaign(STOP_SPEC, checkpoint=ref_ck)
        lines = ref_ck.read_text().splitlines()
        header, entries = lines[0], lines[1:]
        half_ck = tmp_path / "half.jsonl"
        half_ck.write_text("\n".join([header] + entries[: len(entries) // 2]) + "\n")

        resumed = run_campaign(
            STOP_SPEC, checkpoint=half_ck, resume=True, jobs=2, shared_golden=True
        )
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
