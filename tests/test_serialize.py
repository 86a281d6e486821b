"""Serialization: JSON sanitization, campaign summaries, artifacts."""

import dataclasses
import json

import numpy as np
import pytest
from repro.core.campaign import CampaignSpec, TrialError, TrialRecord, TrialSkip, run_campaign
from repro.core.checkpoint import CheckpointWriter, campaign_fingerprint
from repro.core.outcome import Outcome
from repro.core.serialize import campaign_summary, from_jsonable, load_json, save_json, to_jsonable
from repro.experiments.common import ExperimentConfig
from repro.experiments.runner import run_experiment


class TestToJsonable:
    def test_numpy_scalars(self):
        assert to_jsonable(np.int64(3)) == 3
        assert to_jsonable(np.float32(0.5)) == 0.5

    def test_nonfinite_floats(self):
        assert to_jsonable(float("nan")) == "nan"
        assert to_jsonable(float("inf")) == "inf"
        assert to_jsonable(float("-inf")) == "-inf"

    def test_arrays_and_tuples(self):
        out = to_jsonable({"a": np.arange(3), "b": (1, 2)})
        assert out == {"a": [0, 1, 2], "b": [1, 2]}

    def test_tuple_keys_flattened(self):
        out = to_jsonable({("AlexNet", "FLOAT16"): 1.0})
        assert out == {"AlexNet|FLOAT16": 1.0}

    def test_dataclasses(self):
        cfg = ExperimentConfig(trials=10)
        out = to_jsonable(cfg)
        assert out["trials"] == 10

    def test_roundtrips_through_json(self):
        obj = {"x": np.float64(1.5), "y": [np.int32(2), float("nan")]}
        json.dumps(to_jsonable(obj))  # must not raise


#: Fingerprints pinned from the ``dataclasses.asdict`` encoding.
FINGERPRINTS = [
    (CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=12, seed=3), "c43042ea85cd1f54"),
    (
        CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=8000, seed=0,
                     with_detection=True, trace_mode="sample", trace_every=16),
        "e78163798514b913",
    ),
    (
        CampaignSpec(network="AlexNet", dtype="FLOAT", target="row_activation", n_trials=64,
                     seed=3, storage_dtype="FLOAT16", target_halfwidth=0.18,
                     stop_stratify="site", sed_cushion=0.25, bit=14),
        "fbe410a2ae703a73",
    ),
]


def _asdict_encoding(obj) -> object:
    """The oracle: a deep copy through ``dataclasses.asdict``, then converted."""
    return to_jsonable(dataclasses.asdict(obj))


class TestDataclassEncoding:
    """Walking a dataclass's fields encodes the same bytes as ``asdict``."""

    RECORDS = [
        TrialRecord(Outcome(False, True, True, None, None), bit=np.int64(30), site="psum",
                    block=np.int32(2), value_before=-0.0, value_after=float("inf")),
        TrialRecord(Outcome(True, False, False, False, False), bit=3, site="weight", block=1,
                    value_before=np.float32(0.5), value_after=float("nan"), detected=True,
                    reached_output=False),
        TrialRecord(Outcome(False, True, False, True, None), bit=np.int8(14), site="input",
                    block=0, value_before=np.float64(-1.25), value_after=-float("inf"),
                    detected=None, reached_output=None),
    ]
    ERRORS = [
        TrialError(index=3, reason="crash", attempts=np.int64(2)),
        TrialError(index=4, reason="exception", exc_type="ValueError", message="nan", site="psum"),
    ]
    SKIPS = [TrialSkip(index=5, site="input", block=np.int64(1), bit=7)]

    def test_checkpoint_lines_match_asdict(self, tmp_path):
        writer = CheckpointWriter(tmp_path / "ck.jsonl", FINGERPRINTS[0][0])
        expected = []
        for i, record in enumerate(self.RECORDS):
            writer.add_record(i, record)
            expected.append({"index": i, "record": _asdict_encoding(record)})
        for error in self.ERRORS:
            writer.add_error(error.index, error)
            expected.append({"index": error.index, "error": _asdict_encoding(error)})
        for skip in self.SKIPS:
            writer.add_skip(skip.index, skip)
            expected.append({"index": skip.index, "skip": _asdict_encoding(skip)})
        lines = writer.close().read_text().splitlines()[1:]
        assert lines == [json.dumps(entry, sort_keys=True) for entry in expected]
        assert '"value_before": -0.0' in lines[0] and '"value_after": "inf"' in lines[0]

    @pytest.mark.parametrize("spec, fingerprint", FINGERPRINTS)
    def test_fingerprint_unchanged(self, spec, fingerprint):
        oracle = json.dumps(_asdict_encoding(spec), sort_keys=True)
        assert json.dumps(to_jsonable(spec), sort_keys=True) == oracle
        assert campaign_fingerprint(spec) == fingerprint


class TestFromJsonable:
    def test_restores_nonfinite_strings(self):
        assert np.isnan(from_jsonable("nan"))
        assert from_jsonable("inf") == float("inf")
        assert from_jsonable("-inf") == float("-inf")

    def test_recurses_containers(self):
        out = from_jsonable({"a": ["inf", 1.5], "b": {"c": "-inf"}})
        assert out["a"] == [float("inf"), 1.5]
        assert out["b"]["c"] == float("-inf")

    def test_ordinary_values_untouched(self):
        obj = {"s": "nano", "n": 3, "f": 0.25, "none": None, "b": True}
        assert from_jsonable(obj) == obj

    def test_inverts_to_jsonable_floats(self):
        original = {"x": float("nan"), "y": [float("inf"), 2.0]}
        restored = from_jsonable(json.loads(json.dumps(to_jsonable(original))))
        assert np.isnan(restored["x"])
        assert restored["y"] == [float("inf"), 2.0]


class TestCampaignSummary:
    def test_summary_fields(self):
        res = run_campaign(
            CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=30, seed=3,
                         with_detection=True)
        )
        summary = campaign_summary(res)
        assert summary["n_trials"] == 30
        assert set(summary["sdc"]) == {"sdc1", "sdc5", "sdc10", "sdc20"}
        assert "detection" in summary
        json.dumps(summary)  # JSON-safe

    def test_no_detection_omitted(self):
        res = run_campaign(CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=10, seed=3))
        assert "detection" not in campaign_summary(res)


class TestArtifacts:
    def test_save_and_load(self, tmp_path):
        path = save_json({"k": np.float64(2.0)}, tmp_path / "sub" / "x.json")
        assert load_json(path) == {"k": 2.0}

    def test_runner_writes_artifacts(self, tmp_path):
        cfg = ExperimentConfig(trials=10)
        run_experiment("table2", cfg, out_dir=str(tmp_path))
        data = load_json(tmp_path / "table2.json")
        assert data["networks"][0]["network"] == "ConvNet"
        assert (tmp_path / "table2.txt").read_text().startswith("Table 2")
