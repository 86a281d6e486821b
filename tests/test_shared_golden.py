"""Golden state that pool workers inherit from the campaign parent.

A multi-worker campaign builds its task (network, golden activations,
detector) once in the parent, and forked pool workers inherit it; a
worker that is not forked builds its own.  These tests pin that
campaign summaries are byte-identical however the workers got their
task, that the inherited golden arrays refuse writes inside a worker,
and that a campaign withdraws its published task on the way out.
"""

from __future__ import annotations

import json
import multiprocessing

import numpy as np
import pytest

from repro.core.campaign import CampaignSpec, _CampaignTask, run_campaign
from repro.core.serialize import campaign_summary
from repro.core.sharedgolden import attach_golden_state, publish_golden_state
from repro.obs.spans import disable_spans, timing_snapshot
from repro.utils import parallel
from repro.utils.parallel import map_trials

SPEC = CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=24, seed=9)
DETECT_SPEC = CampaignSpec(
    network="ConvNet", dtype="FLOAT16", n_trials=24, seed=9,
    with_detection=True, detector_kind="sed",
)


def _summary(result) -> dict:
    summary = campaign_summary(result)
    summary.pop("execution")  # harness counters, not physics
    return json.loads(json.dumps(summary, sort_keys=True))


def _published():
    """The task a worker forked now would inherit (None when none is published)."""
    return attach_golden_state(lambda: None)


class _WriteProbe:
    """Pool task that tries to write the inherited goldens, once per trial."""

    def __init__(self):
        self.task = attach_golden_state(lambda: None)

    def run_many(self, indices):
        if self.task is None:
            return ["not inherited"] * len(indices)
        out = []
        for _ in indices:
            try:
                self.task.goldens[0].activations[1][...] = 0.0
                out.append("wrote")
            except ValueError:
                out.append("raised")
        return out


class TestSharedGoldenParity:
    def test_byte_identity_across_execution_modes(self):
        baseline = _summary(run_campaign(SPEC, batch=1))
        assert _summary(run_campaign(SPEC, jobs=2)) == baseline
        assert _summary(run_campaign(SPEC, jobs=2, batch=16)) == baseline
        assert _published() is None, "campaign left its task published"

    def test_detector_is_inherited(self):
        baseline = _summary(run_campaign(DETECT_SPEC))
        assert _summary(run_campaign(DETECT_SPEC, jobs=2)) == baseline
        assert "detection" in baseline

    def test_spawned_workers_build_their_own_task(self, monkeypatch):
        """Where workers cannot fork, each builds its own task: the same
        bits for CPU time, as its own golden inference spans show."""
        baseline = _summary(run_campaign(DETECT_SPEC))
        monkeypatch.setattr(parallel, "_MP_CONTEXT", multiprocessing.get_context("spawn"))
        timing_snapshot(reset=True)
        try:
            spawned = run_campaign(DETECT_SPEC, jobs=2, chunk=4, spans=True)
        finally:
            disable_spans()
            timing_snapshot(reset=True)
        assert _summary(spawned) == baseline
        # The parent's golden run, and that of each worker that shipped
        # a chunk: a forked pool reports the parent's alone.
        assert spawned.metrics["timing"]["golden_infer"]["count"] > 1


class TestGoldenImmutability:
    def test_inherited_goldens_are_read_only(self):
        """A stray write to the inherited goldens inside a worker raises
        instead of corrupting the golden reference of later trials."""
        with publish_golden_state(_CampaignTask(SPEC)):
            values = map_trials(_WriteProbe, jobs=2, chunk=1, indices=[0, 1, 2, 3])
        assert values == ["raised"] * 4

    def test_private_goldens_are_read_only(self):
        """A ``jobs=1`` task's own golden arrays refuse writes as the
        inherited ones do: trials read patches over them, so a stray
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
        run_campaign(SPEC, jobs=2)
        after = _CampaignTask(SPEC)
        for before, golden in zip(golden_bits, after.goldens):
            np.testing.assert_array_equal(before, golden.scores)


class TestPublication:
    def test_attach_builds_its_own_task_when_nothing_is_published(self):
        assert attach_golden_state(lambda: "built") == "built"
        task = object()
        with publish_golden_state(task):
            assert attach_golden_state(lambda: "built") is task
        assert attach_golden_state(lambda: "built") == "built"

    def test_aborted_campaign_withdraws_its_task(self, monkeypatch):
        from repro.core.campaign import CampaignAbortedError

        monkeypatch.setenv("REPRO_CAMPAIGN_FAULT", "raise:*:1.0")
        with pytest.raises(CampaignAbortedError):
            run_campaign(SPEC, jobs=2, max_error_frac=0.0)
        assert _published() is None
