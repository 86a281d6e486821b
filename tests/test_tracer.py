"""Propagation flight recorder: per-layer traces, byte parity, CLI.

The tracer's load-bearing promise is the repo's usual one, extended to a
new artifact: a trace row is a pure function of (spec, trial index), so
the trace JSONL is byte-identical across serial / ``--jobs N`` /
``--batch N`` / kill-resume executions — including the
batched engine's dead-trial collapse, which must report the same
masking layer as the serial path.  Everything here either asserts that
directly or exercises the machinery around it (sampling-as-identity,
resume retrace, the ``repro-obs trace`` renderings).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import campaign
from repro.core.campaign import CampaignSpec, _CampaignTask, run_campaign
from repro.core.checkpoint import campaign_fingerprint
from repro.core.fault import DatapathFault
from repro.core.injector import InjectionResult, inject_datapath
from repro.core.serialize import campaign_summary
from repro.dtypes import FLOAT16
from repro.experiments import fig7_euclidean
from repro.experiments.common import PAPER_NETWORKS, ExperimentConfig
from repro.obs import cli as obs_cli
from repro.obs.manifest import default_run_log_path, load_run
from repro.obs.tracer import (
    TraceWriter,
    build_trace,
    default_trace_path,
    load_trace,
    trace_depth_histogram,
    trace_deviation_by_depth,
    trace_layer_matrix,
)
from repro.zoo import get_network
from tests.conftest import reference_campaign

REPO_ROOT = Path(__file__).resolve().parents[1]

SPEC = CampaignSpec(
    network="ConvNet", dtype="FLOAT16", n_trials=24, n_inputs=2, seed=3,
    trace_mode="all",
)

#: Every key a trace row must carry (docs/observability.md schema).
ROW_KEYS = {
    "index", "site", "block", "bit", "resume_layer", "value_before",
    "value_after", "masked_at_injection", "injected", "layers", "depth",
    "masking", "detector_layer", "outcome", "detected", "reached_output",
}
#: Every key of an ``injected`` or ``layers`` entry's corruption stats.
STAT_KEYS = {
    "corrupted", "dirty_rows", "max_abs_dev", "mean_abs_dev", "max_rel_dev", "l2_dev",
}


class TestTraceIdentity:
    def test_spec_validates_trace_fields(self):
        with pytest.raises(ValueError):
            CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=4,
                         trace_mode="everything")
        with pytest.raises(ValueError):
            CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=4,
                         trace_mode="sample", trace_every=0)

    def test_trace_mode_is_campaign_identity(self):
        base = CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=24, seed=3)
        traced = CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=24, seed=3,
                              trace_mode="all")
        strided = CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=24, seed=3,
                               trace_mode="sample", trace_every=8)
        prints = {campaign_fingerprint(s) for s in (base, traced, strided)}
        assert len(prints) == 3

    def test_sample_stride_selects_by_index(self):
        spec = CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=24,
                            n_inputs=2, seed=3, trace_mode="sample", trace_every=8)
        result = run_campaign(spec)
        assert sorted(result.traces) == [0, 8, 16]
        assert all(row["index"] == i for i, row in result.traces.items())

    def test_off_mode_traces_nothing(self):
        spec = CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=8,
                            n_inputs=2, seed=3)
        result = run_campaign(spec)
        assert result.traces == {}

    def test_serial_jobs_batch_byte_identical(self, tmp_path):
        files = {}
        for label, kwargs in {
            "serial": {"batch": 1},
            "jobs2": {"jobs": 2},
            "batch16": {"batch": 16},
        }.items():
            path = tmp_path / f"{label}.trace.jsonl"
            run_campaign(SPEC, trace_path=path, **kwargs)
            files[label] = path.read_bytes()
        assert files["serial"] == files["jobs2"] == files["batch16"]

    def test_batched_dead_trial_collapse_masking_layer_matches_serial(self):
        # The delta engine retires dead trials by patching golden rows
        # back in; the first all-clean layer it reports must be the same
        # one a per-trial full recompute sees, trial by trial, at every
        # group size.
        serial = reference_campaign(SPEC)
        for batch in (1, 16):
            batched = run_campaign(SPEC, batch=batch)
            assert sorted(serial.traces) == sorted(batched.traces)
            for index, row in serial.traces.items():
                assert batched.traces[index]["masking"] == row["masking"], (batch, index)
            assert serial.traces == batched.traces

    def test_row_schema_and_masked_at_injection(self):
        result = run_campaign(SPEC)
        assert len(result.traces) == SPEC.n_trials
        saw_masked = saw_live = False
        for row in result.traces.values():
            assert set(row) == ROW_KEYS
            if row["masked_at_injection"]:
                saw_masked = True
                # The flip quantized back onto the golden word: nothing
                # ever propagated, so there is no layer story to tell.
                assert row["depth"] == 0
                assert row["layers"] == [] and row["injected"] is None
                assert row["masking"] is None
            elif row["layers"]:
                saw_live = True
                assert row["injected"]["corrupted"] >= 0
                assert set(row["injected"]) == STAT_KEYS
                assert all(set(e) == STAT_KEYS | {"layer", "name", "kind"}
                           for e in row["layers"])
                killed = [e for e in row["layers"] if e["corrupted"] == 0]
                if killed:
                    assert row["masking"]["layer"] == killed[0]["layer"]
                    assert row["masking"]["kind"] in (
                        "relu_zero_kill", "pool_absorb", "quantization_clip")
                else:
                    assert row["masking"] is None
        assert saw_masked and saw_live

    def test_detector_layer_recorded_with_sed(self):
        spec = CampaignSpec(
            network="ConvNet", dtype="FLOAT16", n_trials=24, n_inputs=2, seed=3,
            bit=14, with_detection=True, detector_kind="sed", trace_mode="all",
        )
        result = run_campaign(spec)
        fired = [r for r in result.traces.values() if r["detector_layer"] is not None]
        assert fired, "no traced trial recorded a detector-firing layer at bit 14"
        for row in fired:
            assert row["detected"] is True
            assert any(e["layer"] == row["detector_layer"] for e in row["layers"])


class TestTraceQuarantine:
    @pytest.mark.parametrize("jobs,batch", [(1, 1), (1, 8), (2, 1), (2, 8)])
    def test_trace_build_failure_quarantines_the_trial_once(self, monkeypatch, jobs, batch):
        # A trial whose trace row cannot be built is an error, not a
        # classified trial: it folds no metrics and stages no row, and
        # retries cannot count it twice.  Forked pool workers inherit the
        # patch.
        real = campaign.build_trace

        def flaky(**kwargs):
            if kwargs["trial"] == 5:
                raise RuntimeError("trace build failed")
            return real(**kwargs)

        monkeypatch.setattr(campaign, "build_trace", flaky)
        spec = CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=32, seed=3,
                            trace_mode="all")
        result = run_campaign(spec, jobs=jobs, batch=batch, chunk=8, max_error_frac=0.1)
        assert [(e.index, e.exc_type) for e in result.errors] == [(5, "RuntimeError")]
        assert result.metrics["counters"]["trials"] == len(result.records) == 31
        assert sorted(result.traces) == [i for i in range(32) if i != 5]


class TestTraceResume:
    def _truncate_rows(self, path: Path, keep: int) -> None:
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join([lines[0]] + lines[1: 1 + keep]) + "\n",
                        encoding="utf-8")

    def test_resume_retrace_rebuilds_truncated_trace(self, tmp_path):
        ref_ck = tmp_path / "ref.jsonl"
        run_campaign(SPEC, checkpoint=ref_ck)
        ref_trace = default_trace_path(ref_ck)
        want = ref_trace.read_bytes()

        self._truncate_rows(ref_trace, keep=SPEC.n_trials // 3)
        resumed = run_campaign(SPEC, checkpoint=ref_ck, resume=True)
        assert ref_trace.read_bytes() == want
        assert resumed.traces == run_campaign(SPEC).traces
        # Checkpointed-but-untraced trials were re-run, not replayed.
        assert resumed.stats.resumed == SPEC.n_trials // 3

    def test_fingerprint_mismatch_trace_is_rebuilt(self, tmp_path):
        # A prior trace of another campaign lends no rows to a resume.
        self._check_header_mismatch_rebuilds(tmp_path, "fingerprint")

    def test_version_mismatch_trace_is_rebuilt(self, tmp_path):
        # Nor does one of another row schema (a version 1 row has no l2_dev).
        self._check_header_mismatch_rebuilds(tmp_path, "version")

    @staticmethod
    def _check_header_mismatch_rebuilds(tmp_path, key):
        ck = tmp_path / "ck.jsonl"
        run_campaign(SPEC, checkpoint=ck)
        trace = default_trace_path(ck)
        want = trace.read_bytes()

        lines = trace.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        header[key] = {"fingerprint": "0" * len(header["fingerprint"]), "version": 1}[key]
        trace.write_text("\n".join([json.dumps(header, sort_keys=True)] + lines[1:]) + "\n",
                         encoding="utf-8")
        resumed = run_campaign(SPEC, checkpoint=ck, resume=True)
        assert trace.read_bytes() == want
        # Every trial was retraced from scratch; none could be trusted.
        assert resumed.stats.resumed == 0

    def test_kill_midflight_then_resume_trace_byte_identical(self, tmp_path):
        spec = CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=30, seed=5,
                            trace_mode="all")
        path = tmp_path / "killed.jsonl"
        env = dict(os.environ)
        env["REPRO_CAMPAIGN_FAULT"] = "slow:*:0.05"
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.core.cli",
             "--network", "ConvNet", "--trials", "30", "--seed", "5",
             "--trace", "all",
             "--checkpoint", str(path), "--checkpoint-every", "4"],
            env=env, cwd=REPO_ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        trace = default_trace_path(path)
        try:
            deadline = time.perf_counter() + 60.0
            while time.perf_counter() < deadline and not trace.exists():
                time.sleep(0.05)
                if proc.poll() is not None:
                    pytest.fail("campaign finished before it could be killed")
            assert trace.exists(), "no trace snapshot appeared before the deadline"
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)

        header, partial = load_trace(trace)
        assert header is not None and len(partial) < spec.n_trials

        resumed = run_campaign(spec, checkpoint=path, resume=True)
        reference_trace = tmp_path / "reference.trace.jsonl"
        reference = run_campaign(spec, trace_path=reference_trace)
        assert trace.read_bytes() == reference_trace.read_bytes()
        assert resumed.traces == reference.traces


class TestTraceWriterAndLoad:
    def test_snapshot_roundtrip_and_stable_header(self, tmp_path):
        path = tmp_path / "t.trace.jsonl"
        writer = TraceWriter(path, fingerprint="abc123", mode="all", every=16)
        writer.add_row({"index": 1, "depth": 0})
        writer.add_row({"index": 0, "depth": 2})
        writer.flush()
        header, rows = load_trace(path)
        # No path or wall-clock in the header: byte-identity across runs.
        assert set(header) == {"format", "version", "fingerprint", "trace"}
        assert header["fingerprint"] == "abc123"
        assert sorted(rows) == [0, 1]
        # Rows are republished in index order regardless of arrival.
        lines = path.read_text(encoding="utf-8").splitlines()
        assert json.loads(lines[1])["index"] == 0

    def test_load_trace_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "t.trace.jsonl"
        writer = TraceWriter(path, fingerprint="abc", mode="all", every=16)
        writer.add_row({"index": 0, "depth": 1})
        writer.flush()
        with open(path, "a") as fh:  # simulating the tear
            fh.write('{"index": 1, "dep')
        header, rows = load_trace(path)
        assert header is not None and sorted(rows) == [0]

    def test_load_trace_rejects_non_trace_file(self, tmp_path):
        path = tmp_path / "notatrace.jsonl"
        path.write_text('{"format": "something-else"}\n')
        header, rows = load_trace(path)
        assert header is None and rows == {}


class TestTraceSummaryAndManifest:
    def test_campaign_summary_trace_section(self):
        result = run_campaign(SPEC)
        summary = campaign_summary(result)
        assert summary["trace"] == {"mode": "all", "every": 16,
                                    "rows": SPEC.n_trials}
        untraced = run_campaign(
            CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=8,
                         n_inputs=2, seed=3))
        assert "trace" not in campaign_summary(untraced)

    def test_manifest_records_batch_and_trace_config(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        run_campaign(SPEC, checkpoint=ck, batch=4)
        meta = load_run(default_run_log_path(ck))["manifest"]["run"]
        assert meta["batch"] == 4
        assert meta["trace"]["mode"] == "all"
        assert meta["trace"]["every"] == SPEC.trace_every
        assert meta["trace"]["path"] == str(default_trace_path(ck))

    def test_diff_flags_trace_and_batch_as_execution_not_divergence(self, tmp_path, capsys):
        ck_a, ck_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_campaign(SPEC, checkpoint=ck_a)
        run_campaign(SPEC, checkpoint=ck_b, batch=4, jobs=2)
        log_a, log_b = str(default_run_log_path(ck_a)), str(default_run_log_path(ck_b))
        # Different batch/jobs/trace-path: still exit 0 (no fact diverges),
        # but the knob table calls the difference out.
        assert obs_cli.main(["diff", log_a, log_b]) == 0
        out = capsys.readouterr().out
        assert "execution knobs differ" in out
        assert "batch" in out


class TestTraceCli:
    @pytest.fixture()
    def traced_run(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        run_campaign(SPEC, checkpoint=ck)
        return ck

    def test_render_aggregate_from_trace_file(self, traced_run, capsys):
        assert obs_cli.main(["trace", str(default_trace_path(traced_run))]) == 0
        out = capsys.readouterr().out
        assert "propagation trace" in out
        assert "depth" in out and "killed" in out

    def test_render_resolves_from_manifest_and_checkpoint(self, traced_run, capsys):
        # The run log's manifest records the trace path.
        for source in (default_run_log_path(traced_run), traced_run):
            assert obs_cli.main(["trace", str(source)]) == 0
            assert "propagation trace" in capsys.readouterr().out

    def test_render_single_trial_narrative(self, traced_run, capsys):
        assert obs_cli.main(
            ["trace", str(default_trace_path(traced_run)), "--trial", "0"]) == 0
        out = capsys.readouterr().out
        assert "traced trial" in out and "outcome" in out
        header = next(line for line in out.splitlines() if line.startswith("layer "))
        assert header.split("|")[-1].strip() == "l2"
        row = load_trace(default_trace_path(traced_run))[1][0]
        assert row["layers"], "trial 0 propagated no layer"
        first = row["layers"][0]

        def l2_cell(text: str) -> str:
            line = next(ln for ln in text.splitlines() if ln.startswith(f"{first['layer']} "))
            return line.split("|")[-1].strip()

        assert l2_cell(out) == f"{first['l2_dev']:.4g}"
        del first["l2_dev"]  # as in a version 1 row
        assert l2_cell(obs_cli.render_trace_trial({"version": 1}, row)) == "-"

    def test_untraced_trial_exits_one(self, tmp_path, capsys):
        spec = CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=16,
                            n_inputs=2, seed=3, trace_mode="sample", trace_every=8)
        ck = tmp_path / "ck.jsonl"
        run_campaign(spec, checkpoint=ck)
        assert obs_cli.main(
            ["trace", str(default_trace_path(ck)), "--trial", "3"]) == 1
        assert "not in the traced subset" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert obs_cli.main(["trace", str(tmp_path / "nope.trace.jsonl")]) == 2
        assert "repro-obs" in capsys.readouterr().err

    def test_untraced_campaign_exits_two(self, tmp_path, capsys):
        spec = CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=8,
                            n_inputs=2, seed=3)
        ck = tmp_path / "ck.jsonl"
        run_campaign(spec, checkpoint=ck)
        assert obs_cli.main(["trace", str(default_run_log_path(ck))]) == 2
        assert "trace" in capsys.readouterr().err


class TestTraceAggregations:
    ROWS = {
        0: {"depth": 0, "masked_at_injection": True, "layers": []},
        1: {"depth": 2, "layers": [
            {"layer": 1, "name": "relu1", "kind": "relu", "corrupted": 4,
             "max_abs_dev": 2.0},
            {"layer": 2, "name": "pool1", "kind": "pool", "corrupted": 1,
             "max_abs_dev": 1.0},
            {"layer": 3, "name": "relu2", "kind": "relu", "corrupted": 0,
             "max_abs_dev": 0.0},
        ]},
        2: {"depth": 1, "layers": [
            {"layer": 1, "name": "relu1", "kind": "relu", "corrupted": 2,
             "max_abs_dev": "inf"},
            {"layer": 2, "name": "pool1", "kind": "pool", "corrupted": 0,
             "max_abs_dev": 0.0},
        ]},
    }

    def test_depth_histogram(self):
        assert trace_depth_histogram(self.ROWS) == {0: 1, 1: 1, 2: 1}

    def test_layer_matrix(self):
        matrix = trace_layer_matrix(self.ROWS)
        assert matrix[1] == {"name": "relu1", "kind": "relu",
                             "entered": 2, "killed": 0, "survived": 2}
        assert matrix[2]["entered"] == 2 and matrix[2]["killed"] == 1
        assert matrix[3]["killed"] == 1

    def test_deviation_by_depth_skips_nonfinite(self):
        table = trace_deviation_by_depth(self.ROWS)
        # Step 1: two live traces, but the "inf" deviation is excluded
        # from the finite aggregates.
        assert table[1]["live"] == 2
        assert table[1]["max_abs_dev"] == 2.0
        assert table[2] == {"live": 1, "max_abs_dev": 1.0, "mean_abs_dev": 1.0}


class TestPropagationExperiment:
    def test_registered_and_runs(self):
        from repro.experiments import ext_propagation
        from repro.experiments.common import ExperimentConfig
        from repro.experiments.runner import EXPERIMENTS

        assert EXPERIMENTS["propagation"] is ext_propagation
        cfg = ExperimentConfig(trials=8, seed=123)
        result = ext_propagation.run(cfg)
        assert set(result["networks"]) == set(ext_propagation.PROP_NETWORKS)
        for data in result["networks"].values():
            assert data["traced"] == cfg.trials
            locus_total = (data["masked_at_injection"]
                           + sum(data["masking_locus"].values())
                           + data["reached_output"])
            assert locus_total == cfg.trials
        rendering = ext_propagation.render(result)
        assert "masking locus" in rendering and "ConvNet" in rendering


def _reached_from_row(row: dict, final_act: int) -> bool:
    """``reached_output`` read from a trace row alone.

    False when the flip was masked at injection.  Otherwise the final
    ACT fmap, the output of layer ``final_act`` (the last layer before
    softmax, or the last layer of a network without one), must differ
    from golden: its entry is ``injected`` when the trial resumes right
    after that layer, and the ``layers`` entry for it otherwise (absent
    when an earlier layer masked the fault).
    """
    if row["masked_at_injection"]:
        return False
    if row["resume_layer"] == final_act + 1:
        entry = row["injected"]
    else:
        entry = next((e for e in row["layers"] if e["layer"] == final_act), None)
    return entry is not None and entry["corrupted"] > 0


class TestReachedOutputFromTrace:
    # Each case names the seed-3 trials that refute a simpler reading.
    # In the ConvNet cases softmax's rounding masks a fault that changed
    # the final ACT fmap, so ``reached_output`` is not ``masking is None``.
    # In the AlexNet case a last-FC weight flip leaves that layer's output
    # bit-equal to golden, and that fault too reads as masked at softmax,
    # so it is not "no masking before softmax" either.
    @pytest.mark.parametrize("network, dtype, target, reached, unreached", [
        ("ConvNet", "DOUBLE", "row_activation", [32], []),
        ("ConvNet", "DOUBLE", "next_layer", [20], []),
        ("AlexNet", "FLOAT16", "layer_weight", [], [14, 16, 17]),
    ], ids=["ConvNet-DOUBLE-row_activation", "ConvNet-DOUBLE-next_layer",
            "AlexNet-FLOAT16-layer_weight"])
    def test_reached_output_is_the_final_act_entry(self, network, dtype, target,
                                                   reached, unreached):
        spec = CampaignSpec(network=network, dtype=dtype, target=target, n_trials=40,
                            seed=3, record_propagation=True, trace_mode="all")
        rows = run_campaign(spec).traces
        layers = get_network(network).layers
        assert layers[-1].kind == "softmax"
        final_act = len(layers) - 2
        assert sorted(rows) == list(range(40))
        for index, row in rows.items():
            assert row["reached_output"] is _reached_from_row(row, final_act), index
        for index in reached + unreached:
            assert rows[index]["masking"]["layer"] == final_act + 1, index
            assert rows[index]["reached_output"] is (index in reached), index
        for index in unreached:
            assert rows[index]["resume_layer"] == final_act + 1
            assert not rows[index]["masked_at_injection"]


def _faulty_activation(injection: InjectionResult, layer_index: int) -> np.ndarray | None:
    """Output of ``layer_index`` in the faulty run, if re-executed."""
    j = layer_index - injection.resume_index + 1
    if j < 0 or j >= len(injection.faulty_activations):
        return None
    return injection.faulty_activations[j]


def _euclidean_by_block(golden, injection: InjectionResult, points: dict[int, int]) -> dict:
    """Euclidean distance between faulty and golden ACTs per block.

    The per-block distance Figure 7 measured before it read trace rows,
    kept here as the oracle for :func:`fig7_euclidean.block_distances`.
    Blocks upstream of the fault have distance 0.  A non-finite
    difference counts as 10x the largest finite one (at least 10), and
    every difference is clipped to +-1e150 before squaring.
    """
    distances: dict[int, float] = {}
    for block, li in points.items():
        faulty = _faulty_activation(injection, li)
        if faulty is None:
            distances[block] = 0.0
            continue
        ref = golden.activations[li + 1]
        with np.errstate(invalid="ignore", over="ignore"):
            diff = faulty - ref
        bad = ~np.isfinite(diff)
        if bad.any():
            finite_mag = min(float(np.abs(diff[~bad]).max(initial=0.0)), 1e149)
            diff = np.where(bad, max(finite_mag, 1.0) * 10.0, diff)
        # Clip before squaring: a ~1e300 deviation would overflow the sum.
        diff = np.clip(diff, -1e150, 1e150)
        distances[block] = float(np.sqrt((diff * diff).sum()))
    return distances


def _tiny_cases(network, x) -> dict[str, tuple]:
    """FLOAT16 ``(golden, injection)`` pairs on the tiny network."""
    golden = network.forward(x, dtype=FLOAT16, record=True)
    cases = {}
    conv_out = golden.activations[1]
    victim = tuple(int(v) for v in np.argwhere((conv_out > 0.25) & (conv_out < 2.0))[0])
    last = network.layers[0].chain_length((3, 8, 8)) - 1
    fault = DatapathFault(0, victim, last, "accumulator", 14)  # -> huge value
    cases["huge-accumulator"] = inject_datapath(network, FLOAT16, fault, golden, record=True)
    act = conv_out.copy()
    act[0, 0, 0] = np.inf
    res = network.forward_from(1, act, dtype=FLOAT16, record=True)
    cases["injected-inf"] = InjectionResult(
        scores=res.scores, masked=False, value_before=0.0, value_after=np.inf,
        resume_index=1, faulty_activations=[act] + res.activations[1:],
    )
    fc = network.mac_layer_indices()[-1]
    fault = DatapathFault(fc, (1,), 2, "accumulator", 14)
    cases["last-mac"] = inject_datapath(network, FLOAT16, fault, golden, record=True)
    cases["masked"] = InjectionResult(
        scores=golden.scores, masked=True, value_before=0.0, value_after=0.0, resume_index=1,
    )
    return {name: (golden, injection) for name, injection in cases.items()}


def _trace_row(network, golden, injection) -> dict:
    meta = {"golden": golden, "site": "accumulator", "block": 1, "bit": 14}
    record = SimpleNamespace(outcome=None, detected=None, reached_output=None)
    return build_trace(trial=0, meta=meta, injection=injection, record=record, network=network)


class TestFig7Parity:
    """Figure 7's per-block distances, reduced from trace rows' ``l2_dev``,
    equal the per-block ``_euclidean_by_block`` oracle bit for bit.

    The two rules could differ only where a golden activation is itself
    non-finite (NaN - NaN is non-finite to the oracle, while bit-equal
    elements add 0 to ``l2_dev``); no case here has one, so the list of
    differences is empty.
    """

    @staticmethod
    def _differences(label, got: dict, want: dict) -> list:
        assert set(got) == set(want), label
        return [(label, block, got[block], want[block])
                for block in want if got[block].hex() != want[block].hex()]

    @pytest.mark.parametrize("name", PAPER_NETWORKS)
    def test_pinned_double_faults(self, name):
        cfg = ExperimentConfig(trials=60, seed=1)
        spec = fig7_euclidean.campaign_spec(name, cfg)
        rows = run_campaign(spec).traces
        task = _CampaignTask(spec)
        points = fig7_euclidean.relu_trace_layers(task.network)
        differences, live = [], 0
        for trial, row in rows.items():
            fault, meta = task.sample_trial(trial)
            injection = inject_datapath(task.network, task.dtype, fault, meta["golden"],
                                        record=True)
            assert row["masked_at_injection"] == injection.masked, trial
            live += not injection.masked
            want = _euclidean_by_block(meta["golden"], injection, points)
            differences += self._differences(trial, fig7_euclidean.block_distances(row, points),
                                             want)
        assert live, "every pinned fault was masked"
        assert differences == []

    def test_float16_tiny_faults(self, tiny_network, tiny_input):
        points = fig7_euclidean.relu_trace_layers(tiny_network)
        differences, got = [], {}
        for label, (golden, injection) in _tiny_cases(tiny_network, tiny_input).items():
            row = _trace_row(tiny_network, golden, injection)
            got[label] = fig7_euclidean.block_distances(row, points)
            differences += self._differences(
                label, got[label], _euclidean_by_block(golden, injection, points))
        assert differences == []
        assert all(np.isfinite(d) and d >= 0 for ds in got.values() for d in ds.values())
        assert got["huge-accumulator"][1] > 0
        # One inf gives a large but finite distance.
        assert 10.0 <= got["injected-inf"][1] <= 1e150
        # A fault in the last MAC layer leaves every earlier block golden.
        assert got["last-mac"][1] == got["last-mac"][2] == 0.0 < got["last-mac"][3]
        assert set(got["masked"].values()) == {0.0}
