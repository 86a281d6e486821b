"""Campaign runner: determinism, parallel equivalence, aggregations."""

import math

import pytest

from repro.core import campaign as campaign_module
from repro.core.campaign import CampaignResult, CampaignSpec, RunOptions, TrialRecord, run_campaign
from repro.core.outcome import Outcome


def outcome(sdc1=False, masked=False, sdc5=False, sdc10=False, sdc20=False):
    return Outcome(masked=masked, sdc1=sdc1, sdc5=sdc5, sdc10=sdc10, sdc20=sdc20)


def record(sdc1=False, masked=False, bit=0, site="psum", block=1, detected=None, reached=None):
    return TrialRecord(
        outcome=outcome(sdc1=sdc1, masked=masked),
        bit=bit,
        site=site,
        block=block,
        value_before=0.0,
        value_after=1.0,
        detected=detected,
        reached_output=reached,
    )


class TestSpecValidation:
    def test_bad_target(self):
        with pytest.raises(ValueError):
            CampaignSpec(network="ConvNet", dtype="FLOAT16", target="bogus")

    def test_bad_latch(self):
        with pytest.raises(ValueError):
            CampaignSpec(network="ConvNet", dtype="FLOAT16", latch="bogus")

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=-1)

    @pytest.mark.parametrize("kwargs, message", [
        # A bit outside the faulted word: the dtype for a datapath fault...
        (dict(dtype="FLOAT16", bit=16), r"bit must be in \[0, 16\) for FLOAT16"),
        (dict(dtype="FLOAT16", bit=-1), r"bit must be in \[0, 16\)"),
        # ...and the storage word for a buffer fault under Proteus storage.
        (dict(dtype="FLOAT", target="next_layer", storage_dtype="16b_rb10", bit=20),
         r"bit must be in \[0, 16\) for 16b_rb10"),
        # Buffer targets draw their own victim layer.
        (dict(dtype="FLOAT16", target="next_layer", layer_index=0), "datapath fault"),
        # Layer 1 of ConvNet is its first ReLU: no datapath fault site.
        (dict(dtype="FLOAT16", layer_index=1), "must be a MAC layer of ConvNet"),
    ])
    def test_unusable_fault_coordinate(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            CampaignSpec(network="ConvNet", **kwargs)

    def test_usable_fault_coordinates(self):
        # The datapath computes in ``dtype`` even under Proteus storage.
        CampaignSpec(network="ConvNet", dtype="FLOAT", storage_dtype="16b_rb10", bit=20)
        CampaignSpec(network="ConvNet", dtype="FLOAT16", bit=15, layer_index=0)


class TestRunOptions:
    @pytest.mark.parametrize("kwargs, message", [
        (dict(jobs=-1), "jobs must be >= 0"),
        (dict(batch=0), "batch must be >= 1"),
        (dict(chunk=0), "chunk must be >= 1"),
        (dict(checkpoint_every=0), "checkpoint_every must be >= 1"),
        (dict(trial_timeout=0), "trial_timeout must be > 0"),
        (dict(trial_timeout=-1), "trial_timeout must be > 0"),
        (dict(max_retries=-1), "max_retries must be >= 0"),
        (dict(max_error_frac=-0.1), r"max_error_frac must be in \[0, 1\]"),
        (dict(max_error_frac=1.5), r"max_error_frac must be in \[0, 1\]"),
        (dict(progress_every=-1), "progress_every must be >= 0"),
    ])
    def test_invalid_value_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            RunOptions(**kwargs)

    @pytest.mark.parametrize("name", [
        "jobs", "batch", "chunk", "checkpoint_every", "trial_timeout", "max_retries",
        "max_error_frac", "progress_every",
    ])
    def test_nan_rejected(self, name):
        with pytest.raises(ValueError):
            RunOptions(**{name: math.nan})

    def test_boundary_values_accepted(self):
        RunOptions(jobs=0, batch=1, chunk=1, checkpoint_every=1, trial_timeout=0.01,
                   max_retries=0, max_error_frac=1.0, progress_every=0)


class TestAggregations:
    def test_sdc_rate_over_all_trials(self):
        res = CampaignResult(
            spec=None,
            records=[record(sdc1=True), record(), record(masked=True), record()],
        )
        r = res.sdc_rate("sdc1")
        assert r.n == 4 and r.successes == 1  # masked counts in denominator

    def test_masked_fraction(self):
        res = CampaignResult(spec=None, records=[record(masked=True), record()])
        assert res.masked_fraction == 0.5

    def test_rate_by_bit(self):
        res = CampaignResult(
            spec=None,
            records=[record(sdc1=True, bit=14), record(bit=14), record(bit=0)],
        )
        by_bit = res.rate_by_bit()
        assert by_bit[14].p == 0.5 and by_bit[0].p == 0.0

    def test_rate_by_block_and_site(self):
        res = CampaignResult(
            spec=None,
            records=[record(sdc1=True, block=2, site="psum"), record(block=1, site="product")],
        )
        assert res.rate_by_block()[2].p == 1.0
        assert res.rate_by_site()["product"].p == 0.0

    def test_unknown_class(self):
        res = CampaignResult(spec=None, records=[record()])
        with pytest.raises(KeyError):
            res.sdc_rate("sdc42")

    def test_propagation(self):
        res = CampaignResult(
            spec=None,
            records=[record(reached=True), record(reached=False), record(reached=None)],
        )
        assert res.propagation_rate().n == 2
        assert res.propagation_rate().p == 0.5

    def test_detection_quality(self):
        res = CampaignResult(
            spec=None,
            records=[
                record(sdc1=True, detected=True),
                record(sdc1=True, detected=False),
                record(detected=True),  # false positive
                record(detected=False),
                record(detected=None),  # unscored
            ],
        )
        q = res.detection_quality()
        assert q.true_positives == 1
        assert q.false_positives == 1
        assert q.total_sdc == 2
        assert q.total_injected == 4

    def test_merge(self):
        a = CampaignResult(spec=None, records=[record()])
        b = CampaignResult(spec=None, records=[record(sdc1=True)])
        assert a.merge(b).n_trials == 2


class TestRunCampaign:
    SPEC = CampaignSpec(
        network="ConvNet",
        dtype="FLOAT16",
        n_trials=40,
        seed=77,
        with_detection=True,
        record_propagation=True,
    )

    def test_deterministic_across_runs(self):
        a = run_campaign(self.SPEC)
        b = run_campaign(self.SPEC)
        assert [r.value_after for r in a.records] == [r.value_after for r in b.records]
        assert a.sdc_rate().p == b.sdc_rate().p

    def test_parallel_matches_serial(self):
        serial = run_campaign(self.SPEC, jobs=1)
        parallel = run_campaign(self.SPEC, jobs=2)
        assert [r.value_after for r in serial.records] == [
            r.value_after for r in parallel.records
        ]
        assert [r.outcome for r in serial.records] == [r.outcome for r in parallel.records]

    def test_seed_changes_results(self):
        other = CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=40, seed=78)
        a = run_campaign(self.SPEC)
        b = run_campaign(other)
        assert [r.bit for r in a.records] != [r.bit for r in b.records]

    def test_buffer_campaign(self):
        spec = CampaignSpec(
            network="ConvNet", dtype="16b_rb10", target="layer_weight", n_trials=25, seed=3
        )
        res = run_campaign(spec)
        assert res.n_trials == 25
        assert all(r.site == "layer_weight" for r in res.records)

    def test_masked_trials_not_flagged(self):
        res = run_campaign(self.SPEC)
        for r in res.records:
            if r.outcome.masked:
                # An output-masked fault may still have perturbed internal
                # state, but it must never reach the final fmap, and the
                # detector must not fire on it (golden-equivalent values
                # stay within learned bounds).
                assert r.reached_output is False
                assert r.detected is False

    def test_pinned_bit_and_latch(self):
        spec = CampaignSpec(
            network="ConvNet", dtype="FLOAT16", n_trials=15, seed=5, bit=14, latch="psum"
        )
        res = run_campaign(spec)
        assert all(r.bit == 14 and r.site == "psum" for r in res.records)

    def test_zero_trials(self):
        spec = CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=0)
        res = run_campaign(spec)
        assert res.n_trials == 0

    def test_invalid_option_raises_before_any_pool_starts(self, monkeypatch):
        calls = []
        monkeypatch.setattr(campaign_module, "map_trials", lambda *a, **k: calls.append(k))
        with pytest.raises(ValueError, match="trial_timeout must be > 0"):
            run_campaign(self.SPEC, jobs=2, trial_timeout=-1)
        assert calls == []

    def test_unknown_option_is_a_type_error(self):
        with pytest.raises(TypeError, match="metrics"):
            run_campaign(self.SPEC, metrics=None)
        with pytest.raises(TypeError, match="backoff_base"):
            run_campaign(self.SPEC, backoff_base=0.5)
