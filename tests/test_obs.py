"""Observability: deterministic metrics, spans, manifests, repro-obs CLI.

The load-bearing property mirrors the campaign runner's own: the
deterministic sections of a metrics snapshot (counters, gauges,
histograms) must be byte-identical across serial, parallel and
kill/resume executions of the same spec — only the ``timing`` section
may differ.  Everything here either asserts that property directly or
exercises the machinery (ring-buffered events, run manifests, JSONL run
logs, the CLI) that reports it.
"""

from __future__ import annotations

import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.campaign import (
    CampaignAbortedError,
    CampaignResult,
    CampaignSpec,
    record_trial_metrics,
    run_campaign,
)
from repro.core.checkpoint import load_checkpoint
from repro.core.serialize import campaign_summary
from repro.obs import cli as obs_cli
from repro.obs.events import CampaignEvent, EventRecorder
from repro.obs.manifest import RunObserver, default_obs_paths, load_run
from repro.obs.metrics import (
    DEFAULT_MAGNITUDE_BUCKETS,
    MetricsRegistry,
    empty_snapshot,
    merge_snapshots,
)
from repro.obs.progress import ProgressReporter, rss_mb
from repro.obs.spans import (
    disable_spans,
    enable_spans,
    span,
    spans_enabled,
    timing_snapshot,
)

REPO_ROOT = Path(__file__).resolve().parents[1]

SPEC = CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=16, n_inputs=2, seed=11)


@pytest.fixture(autouse=True)
def _reset_span_state():
    """Spans are process-global; leave every test with a clean slate."""
    disable_spans()
    timing_snapshot(reset=True)
    yield
    disable_spans()
    timing_snapshot(reset=True)


def _deterministic(snapshot: dict) -> str:
    """Canonical JSON of a snapshot's deterministic sections."""
    data = {k: v for k, v in snapshot.items() if k != "timing"}
    return json.dumps(data, sort_keys=True)


class TestMetricsRegistry:
    def test_counters_and_snapshot(self):
        reg = MetricsRegistry()
        reg.inc("trials")
        reg.inc("trials", 2)
        reg.inc("outcome/masked")
        snap = reg.snapshot()
        assert snap["counters"] == {"outcome/masked": 1, "trials": 3}
        assert list(snap) == ["counters", "gauges", "histograms", "timing"]

    def test_histogram_overflow_bucket(self):
        reg = MetricsRegistry()
        reg.observe("mag", 0.5, buckets=(1.0, 10.0))
        reg.observe("mag", 5.0, buckets=(1.0, 10.0))
        reg.observe("mag", 1e9, buckets=(1.0, 10.0))
        hist = reg.snapshot()["histograms"]["mag"]
        assert hist["edges"] == [1.0, 10.0]
        assert hist["counts"] == [1, 1, 1]

    def test_histogram_rebucketing_raises(self):
        reg = MetricsRegistry()
        reg.observe("mag", 1.0, buckets=(1.0, 10.0))
        with pytest.raises(ValueError, match="re-bucket"):
            reg.observe("mag", 1.0, buckets=(2.0, 20.0))

    def test_histogram_unsorted_edges_raise(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="sorted"):
            reg.observe("mag", 1.0, buckets=(10.0, 1.0))

    def test_snapshot_reset_produces_deltas(self):
        reg = MetricsRegistry()
        reg.inc("trials", 5)
        first = reg.snapshot(reset=True)
        reg.inc("trials", 7)
        second = reg.snapshot(reset=True)
        assert first["counters"]["trials"] == 5
        assert second["counters"]["trials"] == 7
        merged = merge_snapshots(first, second)
        assert merged["counters"]["trials"] == 12

    def test_merge_is_commutative(self):
        parts = []
        for base in (1, 2, 3):
            reg = MetricsRegistry()
            reg.inc("trials", base)
            reg.inc(f"site/s{base}")
            reg.set_gauge("peak", float(base))
            reg.observe("mag", float(base))
            reg.time_span("trial", 0.1 * base)
            parts.append(reg.snapshot())
        forward = MetricsRegistry()
        backward = MetricsRegistry()
        for snap in parts:
            forward.merge_snapshot(snap)
        for snap in reversed(parts):
            backward.merge_snapshot(snap)
        f, b = forward.snapshot(), backward.snapshot()
        # Integer sections are byte-identical regardless of merge order;
        # timing sums floats, so order only changes the last ulp.
        assert _deterministic(f) == _deterministic(b)
        assert f["gauges"]["peak"] == 3.0
        assert f["timing"]["trial"]["count"] == b["timing"]["trial"]["count"]
        assert f["timing"]["trial"]["total_s"] == pytest.approx(b["timing"]["trial"]["total_s"])

    def test_merge_edge_mismatch_raises(self):
        a = MetricsRegistry()
        a.observe("mag", 1.0, buckets=(1.0,))
        b = MetricsRegistry()
        b.observe("mag", 1.0, buckets=(2.0,))
        with pytest.raises(ValueError, match="edges differ"):
            a.merge_snapshot(b.snapshot())

    def test_merge_snapshots_pure(self):
        a, b = empty_snapshot(), empty_snapshot()
        a["counters"]["x"] = 1
        b["counters"]["x"] = 2
        merged = merge_snapshots(a, b)
        assert merged["counters"]["x"] == 3
        assert a["counters"]["x"] == 1 and b["counters"]["x"] == 2

    def test_default_buckets_cover_magnitudes(self):
        assert DEFAULT_MAGNITUDE_BUCKETS[0] < 1e-7
        assert DEFAULT_MAGNITUDE_BUCKETS[-1] > 1e35


class TestSpans:
    def test_disabled_spans_record_nothing(self):
        assert not spans_enabled()
        with span("outer"):
            with span("inner"):
                pass
        assert timing_snapshot() == {}

    def test_enabled_spans_build_nested_paths(self):
        enable_spans()
        with span("trial"):
            with span("golden_infer"):
                pass
            with span("golden_infer"):
                pass
        snap = timing_snapshot(reset=True)
        assert set(snap) == {"trial", "trial/golden_infer"}
        assert snap["trial"]["count"] == 1
        assert snap["trial/golden_infer"]["count"] == 2
        assert snap["trial/golden_infer"]["total_s"] >= snap["trial/golden_infer"]["max_s"]

    def test_disable_keeps_collected_timings(self):
        enable_spans()
        with span("a"):
            pass
        disable_spans()
        with span("a"):
            pass
        snap = timing_snapshot()
        assert snap["a"]["count"] == 1


class TestEventRecorderRetention:
    def test_ring_buffer_keeps_most_recent(self):
        recorder = EventRecorder(max_events=10)
        for i in range(25):
            recorder.emit("tick", index=i)
        assert len(recorder.events) == 10
        kept = [e.detail["index"] for e in recorder.events]
        assert kept == list(range(15, 25))
        # Counts are exact regardless of retention.
        assert recorder.count("tick") == 25

    def test_tail_returns_oldest_first(self):
        recorder = EventRecorder(max_events=5)
        for i in range(8):
            recorder.emit("tick", index=i)
        tail = recorder.tail(3)
        assert [e.detail["index"] for e in tail] == [5, 6, 7]
        assert recorder.tail(0) == []

    def test_all_sinks_see_all_events(self):
        seen_a, seen_b = [], []
        recorder = EventRecorder(sink=seen_a.append)
        recorder.add_sink(seen_b.append)
        recorder.emit("retry", chunk=1)
        assert len(seen_a) == 1 and len(seen_b) == 1
        assert seen_a[0] is seen_b[0]


class TestCampaignMetrics:
    def test_serial_and_parallel_snapshots_byte_identical(self):
        serial = run_campaign(SPEC, jobs=1)
        parallel = run_campaign(SPEC, jobs=2, chunk=3)
        assert _deterministic(serial.metrics) == _deterministic(parallel.metrics)
        assert serial.metrics["counters"]["trials"] == SPEC.n_trials

    def test_metrics_match_records(self):
        result = run_campaign(SPEC, jobs=1)
        counters = result.metrics["counters"]
        assert counters["trials"] == len(result.records)
        masked = sum(1 for r in result.records if r.outcome.masked)
        assert counters.get("outcome/masked", 0) == masked
        hist = result.metrics["histograms"]["abs_value_after"]
        nonfinite = counters.get("value_after/nonfinite", 0)
        assert sum(hist["counts"]) + nonfinite == len(result.records)

    def test_resume_replay_reaches_identical_totals(self, tmp_path):
        path = tmp_path / "half.jsonl"
        reference = run_campaign(SPEC, jobs=1, checkpoint=path)
        # Rewrite the checkpoint keeping only the first half: a simulated
        # mid-flight kill.
        lines = path.read_text().splitlines()
        keep = 1 + SPEC.n_trials // 2  # header + half the records
        path.write_text("\n".join(lines[:keep]) + "\n")
        state = load_checkpoint(path, spec=SPEC)
        assert state is not None and 0 < state.n_completed < SPEC.n_trials
        resumed = run_campaign(SPEC, jobs=1, checkpoint=path, resume=True)
        assert resumed.stats.resumed == state.n_completed
        assert _deterministic(resumed.metrics) == _deterministic(reference.metrics)

    def test_result_merge_merges_metrics(self):
        a = run_campaign(SPEC, jobs=1)
        merged = a.merge(a)
        assert merged.metrics["counters"]["trials"] == 2 * SPEC.n_trials

    def test_campaign_summary_has_metrics_without_timing(self):
        result = run_campaign(SPEC, jobs=1, spans=True)
        summary = campaign_summary(result)
        assert summary["metrics"]["counters"]["trials"] == SPEC.n_trials
        assert "timing" not in summary["metrics"]

    def test_spans_off_by_default_and_collected_when_on(self):
        plain = run_campaign(SPEC, jobs=1)
        assert plain.metrics["timing"] == {}
        disable_spans()
        timed = run_campaign(SPEC, jobs=1, spans=True)
        paths = set(timed.metrics["timing"])
        assert any(p.endswith("trial") for p in paths)
        assert any("golden_infer" in p for p in paths)
        assert any("layer:" in p for p in paths)

    def test_record_trial_metrics_is_deterministic_per_record(self):
        result = run_campaign(SPEC, jobs=1)
        replay = MetricsRegistry()
        for record in result.records:
            record_trial_metrics(replay, record)
        assert _deterministic(replay.snapshot()) == _deterministic(result.metrics)


class TestRunManifest:
    def test_default_obs_paths(self):
        manifest, log = default_obs_paths("/tmp/run/ck.jsonl")
        assert manifest.name == "ck.jsonl.manifest.json"
        assert log.name == "ck.jsonl.runlog.jsonl"

    def test_campaign_writes_manifest_and_runlog(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        result = run_campaign(SPEC, jobs=1, checkpoint=path)
        manifest_path, log_path = default_obs_paths(path)
        manifest = json.loads(manifest_path.read_text())
        assert manifest["status"] == "completed"
        assert manifest["run"]["network"] == SPEC.network
        assert manifest["run"]["resumed"] is False
        assert manifest["metrics"]["counters"]["trials"] == SPEC.n_trials
        assert manifest["summary"]["n_records"] == len(result.records)
        assert manifest["execution"]["quarantined"] == 0
        lines = [json.loads(line) for line in log_path.read_text().splitlines()]
        assert lines[0]["kind"] == "begin"
        assert lines[-1]["kind"] == "manifest"
        assert lines[-1]["manifest"]["status"] == "completed"

    def test_explicit_paths_override_defaults(self, tmp_path):
        manifest_path = tmp_path / "custom.json"
        run_campaign(SPEC, jobs=1, manifest=manifest_path)
        assert json.loads(manifest_path.read_text())["status"] == "completed"

    def test_aborted_campaign_manifest(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CAMPAIGN_FAULT", "raise:5")
        path = tmp_path / "ck.jsonl"
        with pytest.raises(CampaignAbortedError):
            run_campaign(SPEC, jobs=1, checkpoint=path, max_error_frac=0.0)
        manifest = json.loads(default_obs_paths(path)[0].read_text())
        assert manifest["status"] == "aborted"
        assert manifest["execution"]["quarantined"] == 1

    def test_load_run_accepts_manifest_and_runlog(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        run_campaign(SPEC, jobs=1, checkpoint=path)
        manifest_path, log_path = default_obs_paths(path)
        from_manifest = load_run(manifest_path)
        from_log = load_run(log_path)
        assert from_manifest["manifest"]["status"] == "completed"
        assert from_log["manifest"]["status"] == "completed"
        assert from_log["begin"]["fingerprint"] == from_log["manifest"]["run"]["fingerprint"]

    def test_load_run_skips_torn_tail(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        run_campaign(SPEC, jobs=1, checkpoint=path)
        log_path = default_obs_paths(path)[1]
        with open(log_path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "event", "seq": 99, "trunc')
        run = load_run(log_path)
        assert run["manifest"]["status"] == "completed"

    def test_observer_inert_without_paths(self):
        observer = RunObserver()
        assert not observer.active
        observer.begin()
        observer.event_sink(CampaignEvent(seq=0, kind="retry"))
        manifest = observer.finish()
        assert manifest["status"] == "completed"

    def test_kill_midflight_then_resume_marks_manifest(self, tmp_path):
        """SIGKILL a live campaign; the resumed run's manifest says so."""
        spec = CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=30, seed=5)
        path = tmp_path / "killed.jsonl"
        env = dict(os.environ)
        env["REPRO_CAMPAIGN_FAULT"] = "slow:*:0.05"
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.core.cli",
             "--network", "ConvNet", "--trials", "30", "--seed", "5",
             "--checkpoint", str(path), "--checkpoint-every", "4"],
            env=env, cwd=REPO_ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.perf_counter() + 60.0
            while time.perf_counter() < deadline and not path.exists():
                time.sleep(0.05)
                if proc.poll() is not None:
                    pytest.fail("campaign finished before it could be killed")
            assert path.exists(), "no checkpoint appeared before the deadline"
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)

        manifest_path = default_obs_paths(path)[0]
        # The killed run left a manifest that says it never finished.
        killed = json.loads(manifest_path.read_text())
        assert killed["status"] == "running"

        state = load_checkpoint(path, spec=spec)
        assert state is not None and 0 < state.n_completed < spec.n_trials
        resumed = run_campaign(spec, jobs=1, checkpoint=path, resume=True)
        reference = run_campaign(spec, jobs=1)
        manifest = json.loads(manifest_path.read_text())
        assert manifest["status"] == "completed"
        assert manifest["run"]["resumed"] is True
        assert manifest["run"]["resumed_trials"] == state.n_completed
        assert manifest["metrics"]["counters"]["trials"] == spec.n_trials
        assert _deterministic(resumed.metrics) == _deterministic(reference.metrics)


class TestProgressReporter:
    def _event(self, kind, seq=0, **detail):
        return CampaignEvent(seq=seq, kind=kind, detail=detail)

    def test_renders_progress_line(self):
        out = io.StringIO()
        reporter = ProgressReporter(stream=out, min_interval=0.0)
        reporter(self._event("progress", completed=10, total=40,
                             completed_here=10, final=True))
        text = out.getvalue()
        assert "10/40" in text and "trials/s" in text

    def test_noteworthy_events_echo_immediately(self):
        out = io.StringIO()
        reporter = ProgressReporter(stream=out, min_interval=3600.0)
        reporter(self._event("quarantine", index=3, reason="error"))
        assert "quarantine" in out.getvalue()

    def test_coalesces_fast_progress_events(self):
        out = io.StringIO()
        reporter = ProgressReporter(stream=out, min_interval=3600.0)
        reporter(self._event("progress", completed=1, total=10))
        reporter(self._event("progress", completed=2, total=10))
        # min_interval of an hour: only the reporter's very first render
        # could have fired; fast followers coalesce away.
        assert out.getvalue().count("[progress]") <= 1

    def test_campaign_emits_progress_events(self):
        recorder = EventRecorder()
        run_campaign(SPEC, jobs=1, events=recorder, progress_every=0.0001)
        assert recorder.count("progress") >= 1
        final = [e for e in recorder.events
                 if e.kind == "progress" and e.detail.get("final")]
        assert final and final[-1].detail["completed"] == SPEC.n_trials

    def test_rss_is_positive_on_posix(self):
        rss = rss_mb()
        if rss is not None:
            assert rss > 0

    def test_skipped_column_rendered(self):
        out = io.StringIO()
        reporter = ProgressReporter(stream=out, min_interval=0.0)
        reporter(self._event("progress", completed=20, total=40,
                             completed_here=20, skipped=4, skipped_here=4,
                             final=True))
        text = out.getvalue()
        assert "skipped 4" in text
        assert "eta" in text

    def test_skips_count_toward_eta_not_throughput(self):
        # 20 indices resolved in 10s, 4 of them early-stop skips: the
        # ETA must use the completion rate (2/s over all resolved
        # indices -> 10s left), while trials/s reports only the 16 that
        # actually propagated.
        out = io.StringIO()
        reporter = ProgressReporter(stream=out, min_interval=0.0)
        reporter._t0 -= 10.0  # pretend 10s elapsed
        reporter(self._event("progress", completed=20, total=40,
                             completed_here=20, skipped=4, skipped_here=4,
                             final=True))
        text = out.getvalue()
        assert "1.6 trials/s" in text
        assert "eta 10s" in text

    def test_campaign_emits_skip_counts(self):
        spec = CampaignSpec(
            network="ConvNet", dtype="FLOAT16", n_trials=200, seed=3,
            target_halfwidth=0.18, stop_stratify="site", stop_check_every=16,
        )
        recorder = EventRecorder()
        result = run_campaign(spec, events=recorder, progress_every=0.0001)
        assert result.skips, "stopping spec produced no skips; weaken the target"
        final = [e for e in recorder.events
                 if e.kind == "progress" and e.detail.get("final")][-1]
        assert final.detail["skipped"] == len(result.skips)
        # The run stops at the decision boundary: completion covers every
        # resolved index (propagated or skipped), not the nominal budget.
        assert final.detail["completed"] == len(result.records) + len(result.skips)


class TestObsCli:
    @pytest.fixture()
    def run_paths(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        run_campaign(SPEC, jobs=1, checkpoint=path, spans=True,
                     progress_every=0.0001)
        return default_obs_paths(path)

    def test_summarize_manifest(self, run_paths, capsys):
        manifest_path, _ = run_paths
        assert obs_cli.main(["summarize", str(manifest_path)]) == 0
        out = capsys.readouterr().out
        assert "network" in out and "ConvNet" in out
        assert "trials" in out and str(SPEC.n_trials) in out
        assert "time split" in out  # spans were enabled

    def test_summarize_runlog(self, run_paths, capsys):
        _, log_path = run_paths
        assert obs_cli.main(["summarize", str(log_path)]) == 0
        assert "ConvNet" in capsys.readouterr().out

    def test_tail(self, run_paths, capsys):
        _, log_path = run_paths
        assert obs_cli.main(["tail", str(log_path), "-n", "5"]) == 0
        out = capsys.readouterr().out
        assert "event" in out

    def test_tail_filters_kind(self, run_paths, capsys):
        _, log_path = run_paths
        assert obs_cli.main(["tail", str(log_path), "--kind", "progress"]) == 0
        out = capsys.readouterr().out
        assert "progress" in out

    def test_diff(self, run_paths, tmp_path, capsys):
        manifest_path, _ = run_paths
        other_ck = tmp_path / "other.jsonl"
        run_campaign(SPEC, jobs=1, checkpoint=other_ck)
        other_manifest = default_obs_paths(other_ck)[0]
        assert obs_cli.main(["diff", str(manifest_path), str(other_manifest)]) == 0
        out = capsys.readouterr().out
        assert "run diff" in out and "trials" in out

    def test_diff_exit_nonzero_on_divergence(self, run_paths, tmp_path, capsys):
        # A different seed produces genuinely different deterministic
        # facts; `repro-obs diff` is the verdict, so it must exit 1.
        manifest_path, _ = run_paths
        other_ck = tmp_path / "diverged.jsonl"
        run_campaign(
            CampaignSpec(network=SPEC.network, dtype=SPEC.dtype,
                         n_trials=SPEC.n_trials, n_inputs=SPEC.n_inputs, seed=99),
            jobs=1, checkpoint=other_ck,
        )
        other_manifest = default_obs_paths(other_ck)[0]
        assert obs_cli.main(["diff", str(manifest_path), str(other_manifest)]) == 1
        out = capsys.readouterr().out
        assert "DIVERGED" in out

    def test_compare_runs_ignores_timing_but_not_counters(self, run_paths, tmp_path):
        manifest_path, _ = run_paths
        run = load_run(manifest_path)
        # Same run compared to itself: no divergence, by construction.
        assert obs_cli.compare_runs(run, run) == []
        tampered = json.loads(json.dumps(run))
        tampered["manifest"]["metrics"]["counters"]["trials"] += 1
        diverged = obs_cli.compare_runs(run, tampered)
        assert any("counters.trials" in line for line in diverged)
        # Timing is wall-clock noise and must never count as divergence.
        slow = json.loads(json.dumps(run))
        slow["manifest"]["timing"] = {"duration_s": 1e9}
        slow["manifest"]["metrics"]["timing"] = {"made_up": {"total_s": 1e9}}
        assert obs_cli.compare_runs(run, slow) == []

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert obs_cli.main(["summarize", str(tmp_path / "nope.json")]) == 2
        assert "repro-obs" in capsys.readouterr().err

    def test_summarize_inflight_runlog(self, tmp_path, capsys):
        log = tmp_path / "live.runlog.jsonl"
        observer = RunObserver(run_log_path=log, meta={"network": "ConvNet"})
        observer.begin()
        observer.event_sink(CampaignEvent(seq=0, kind="checkpoint", detail={"completed": 4}))
        assert obs_cli.main(["summarize", str(log)]) == 0
        out = capsys.readouterr().out
        assert "no manifest" in out


class TestEarlyStoppedRunObservability:
    """Early-stop skip counters are deterministic facts, not wall-clock.

    ``early_stop/skipped`` and its per-stratum children are pure
    functions of (spec, trial prefix), so `repro-obs summarize/diff`
    must treat them exactly like outcome counters: identical between
    serial and parallel runs of the same spec, and a genuine divergence
    when they differ.
    """

    STOP_SPEC = CampaignSpec(
        network="ConvNet", dtype="FLOAT16", n_trials=200, seed=3,
        target_halfwidth=0.18, stop_stratify="site", stop_check_every=16,
    )

    @pytest.fixture()
    def stopped_manifests(self, tmp_path):
        ck_a, ck_b = tmp_path / "serial.jsonl", tmp_path / "jobs2.jsonl"
        serial = run_campaign(self.STOP_SPEC, checkpoint=ck_a)
        assert serial.skips, "stopping spec produced no skips; weaken the target"
        run_campaign(self.STOP_SPEC, jobs=2, checkpoint=ck_b)
        return (default_obs_paths(ck_a)[0], default_obs_paths(ck_b)[0])

    def test_skip_counters_identical_serial_vs_jobs2(self, stopped_manifests):
        run_a, run_b = (load_run(p) for p in stopped_manifests)
        counters = run_a["manifest"]["metrics"]["counters"]
        assert counters["early_stop/skipped"] > 0
        assert any(key.startswith("early_stop/skipped/") for key in counters)
        assert obs_cli.compare_runs(run_a, run_b) == []

    def test_diff_exit_zero_and_summarize_render(self, stopped_manifests, capsys):
        manifest_a, manifest_b = stopped_manifests
        assert obs_cli.main(["diff", str(manifest_a), str(manifest_b)]) == 0
        capsys.readouterr()
        assert obs_cli.main(["summarize", str(manifest_a)]) == 0
        out = capsys.readouterr().out
        assert "early_stop" in out or "skipped" in out

    def test_tampered_skip_counter_is_fact_divergence(self, stopped_manifests):
        run_a, _ = (load_run(p) for p in stopped_manifests)
        tampered = json.loads(json.dumps(run_a))
        tampered["manifest"]["metrics"]["counters"]["early_stop/skipped"] += 1
        diverged = obs_cli.compare_runs(run_a, tampered)
        assert any("early_stop/skipped" in line for line in diverged)
