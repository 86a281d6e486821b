"""Observability: deterministic metrics, spans, run logs, repro-obs CLI.

The load-bearing property mirrors the campaign runner's own: the
deterministic sections of a metrics snapshot (counters, gauges,
histograms) must be byte-identical across serial, parallel and
kill/resume executions of the same spec — only the ``timing`` section
may differ.  Everything here either asserts that property directly or
exercises the machinery (event sinks, JSONL run logs, the CLI) that
reports it.
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
from repro.obs.manifest import RunObserver, default_run_log_path, load_run
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
            seconds = 0.1 * base
            reg.merge_snapshot(
                {"timing": {"trial": {"count": 1, "total_s": seconds, "max_s": seconds}}})
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

    def test_parent_spans_count_once_across_a_pool(self):
        """Forked workers drop the span timings they inherit, so the
        parent's golden run and detector learning are reported once."""
        spec = CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=16, n_inputs=2,
                            seed=11, with_detection=True, detector_kind="sed")
        timing = run_campaign(spec, jobs=2, chunk=4, spans=True).metrics["timing"]
        assert timing["golden_infer"]["count"] == 1
        assert timing["golden_infer/layer:conv1"]["count"] == spec.n_inputs
        assert timing["learn_detector"]["count"] == 1
        assert timing["learn_detector/layer:conv1"]["count"] == spec.sed_learn_inputs
        # The workers' own spans still arrive.
        assert timing["chunk/trial"]["count"] == spec.n_trials

    def test_record_trial_metrics_is_deterministic_per_record(self):
        result = run_campaign(SPEC, jobs=1)
        replay = MetricsRegistry()
        for record in result.records:
            record_trial_metrics(replay, record)
        assert _deterministic(replay.snapshot()) == _deterministic(result.metrics)


def _log_lines(path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


class TestRunLog:
    def test_default_run_log_path(self):
        assert default_run_log_path("/tmp/run/ck.jsonl").name == "ck.jsonl.runlog.jsonl"

    def test_campaign_writes_checkpoint_and_one_runlog(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        result = run_campaign(SPEC, jobs=1, checkpoint=path)
        log_path = default_run_log_path(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name, log_path.name]
        lines = _log_lines(log_path)
        assert lines[0]["kind"] == "begin"
        assert lines[-1]["kind"] == "manifest"
        manifest = lines[-1]["manifest"]
        assert manifest["status"] == "completed"
        assert manifest["run"]["network"] == SPEC.network
        assert manifest["run"]["resumed"] is False
        assert manifest["metrics"]["counters"]["trials"] == SPEC.n_trials
        assert manifest["summary"]["n_records"] == len(result.records)
        assert manifest["execution"]["quarantined"] == 0
        assert manifest["env"]["python"] and "git_rev" in manifest["env"]
        assert manifest["env"] == lines[0]["env"]
        assert manifest["run"]["fingerprint"] == lines[0]["fingerprint"]

    def test_explicit_run_log_overrides_default(self, tmp_path):
        path, custom = tmp_path / "ck.jsonl", tmp_path / "custom.jsonl"
        run_campaign(SPEC, jobs=1, checkpoint=path, run_log=custom)
        assert load_run(custom)["manifest"]["status"] == "completed"
        assert not default_run_log_path(path).exists()

    def test_aborted_campaign_manifest(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CAMPAIGN_FAULT", "raise:5")
        path = tmp_path / "ck.jsonl"
        with pytest.raises(CampaignAbortedError):
            run_campaign(SPEC, jobs=1, checkpoint=path, max_error_frac=0.0)
        manifest = load_run(default_run_log_path(path))["manifest"]
        assert manifest["status"] == "aborted"
        assert manifest["execution"]["quarantined"] == 1

    def test_load_run_skips_torn_tail(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        run_campaign(SPEC, jobs=1, checkpoint=path)
        log_path = default_run_log_path(path)
        with open(log_path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "event", "seq": 99, "trunc')
        run = load_run(log_path)
        assert run["manifest"]["status"] == "completed"

    def test_kill_midflight_then_resume_marks_manifest(self, tmp_path, capsys):
        """SIGKILL a live campaign; its log stops short, the resumed run's says so."""
        spec = CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=30, seed=5)
        path = tmp_path / "killed.jsonl"
        log_path = default_run_log_path(path)
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
            # Kill once the log holds a checkpoint event (it follows the flush).
            deadline = time.perf_counter() + 60.0
            while time.perf_counter() < deadline and not (
                log_path.exists() and '"event": "checkpoint"' in log_path.read_text()
            ):
                time.sleep(0.05)
                if proc.poll() is not None:
                    pytest.fail("campaign finished before it could be killed")
            assert path.exists(), "no checkpoint appeared before the deadline"
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)

        # The killed run's log records what ran and stops without a manifest.
        killed = load_run(log_path)
        assert killed["manifest"] is None
        assert killed["begin"]["env"]["python"] and "git_rev" in killed["begin"]["env"]
        assert any(e["event"] == "checkpoint" for e in killed["events"])
        assert obs_cli.main(["summarize", str(log_path)]) == 0
        assert "no manifest" in capsys.readouterr().out

        state = load_checkpoint(path, spec=spec)
        assert state is not None and 0 < state.n_completed < spec.n_trials
        resumed = run_campaign(spec, jobs=1, checkpoint=path, resume=True)
        reference = run_campaign(spec, jobs=1)
        lines = _log_lines(log_path)
        assert lines[-1]["kind"] == "manifest"
        manifest = lines[-1]["manifest"]
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
        seen = []
        recorder = EventRecorder(sink=seen.append)
        run_campaign(SPEC, jobs=1, events=recorder, progress_every=0.0001)
        assert recorder.count("progress") >= 1
        final = [e for e in seen
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
        seen = []
        result = run_campaign(spec, events=EventRecorder(sink=seen.append),
                              progress_every=0.0001)
        assert result.skips, "stopping spec produced no skips; weaken the target"
        final = [e for e in seen
                 if e.kind == "progress" and e.detail.get("final")][-1]
        assert final.detail["skipped"] == len(result.skips)
        # The run stops at the decision boundary: completion covers every
        # resolved index (propagated or skipped), not the nominal budget.
        assert final.detail["completed"] == len(result.records) + len(result.skips)


class TestObsCli:
    @pytest.fixture()
    def run_log(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        run_campaign(SPEC, jobs=1, checkpoint=path, spans=True,
                     progress_every=0.0001)
        return default_run_log_path(path)

    def test_summarize_manifest(self, run_log, capsys):
        # The run log's closing manifest line carries the totals and the
        # span timings; summarize renders them.
        assert _log_lines(run_log)[-1]["kind"] == "manifest"
        assert obs_cli.main(["summarize", str(run_log)]) == 0
        out = capsys.readouterr().out
        assert "network" in out and "ConvNet" in out
        assert "trials" in out and str(SPEC.n_trials) in out
        assert "time split" in out  # spans were enabled

    def test_summarize_runlog(self, run_log, capsys):
        assert obs_cli.main(["summarize", str(run_log)]) == 0
        assert "ConvNet" in capsys.readouterr().out

    def test_tail(self, run_log, capsys):
        assert obs_cli.main(["tail", str(run_log), "-n", "5"]) == 0
        out = capsys.readouterr().out
        assert "event" in out

    def test_tail_filters_kind(self, run_log, capsys):
        assert obs_cli.main(["tail", str(run_log), "--kind", "progress"]) == 0
        out = capsys.readouterr().out
        assert "progress" in out

    def test_diff(self, run_log, tmp_path, capsys):
        other_ck = tmp_path / "other.jsonl"
        run_campaign(SPEC, jobs=1, checkpoint=other_ck)
        other_log = default_run_log_path(other_ck)
        assert obs_cli.main(["diff", str(run_log), str(other_log)]) == 0
        out = capsys.readouterr().out
        assert "run diff" in out and "trials" in out

    def test_diff_exit_nonzero_on_divergence(self, run_log, tmp_path, capsys):
        # A different seed produces genuinely different deterministic
        # facts; `repro-obs diff` is the verdict, so it must exit 1.
        other_ck = tmp_path / "diverged.jsonl"
        run_campaign(
            CampaignSpec(network=SPEC.network, dtype=SPEC.dtype,
                         n_trials=SPEC.n_trials, n_inputs=SPEC.n_inputs, seed=99),
            jobs=1, checkpoint=other_ck,
        )
        other_log = default_run_log_path(other_ck)
        assert obs_cli.main(["diff", str(run_log), str(other_log)]) == 1
        out = capsys.readouterr().out
        assert "DIVERGED" in out

    def test_diff_compares_identity_keys_only(self, run_log, tmp_path, capsys):
        """A ``run`` key outside the identity keys is a knob, not a fact.

        A record written by another version can carry a knob this one no
        longer writes (``shared_golden`` before golden state moved to
        fork inheritance): the runs still agree, and the knob table
        names the key.  A different seed still diverges.
        """
        def rewritten(name: str, **run_keys) -> Path:
            lines = _log_lines(run_log)
            lines[-1]["manifest"]["run"].update(run_keys)
            path = tmp_path / name
            path.write_text("".join(json.dumps(line) + "\n" for line in lines))
            return path

        older = rewritten("older.runlog.jsonl", shared_golden=True)
        assert obs_cli.compare_runs(load_run(run_log), load_run(older)) == []
        assert obs_cli.main(["diff", str(run_log), str(older)]) == 0
        knobs = capsys.readouterr().out.split("execution knobs differ")[1]
        assert "shared_golden" in knobs
        reseeded = rewritten("reseeded.runlog.jsonl", seed=SPEC.seed + 1)
        assert obs_cli.compare_runs(load_run(run_log), load_run(reseeded)) == [
            f"run.seed: {SPEC.seed!r} != {SPEC.seed + 1!r}"]
        assert obs_cli.main(["diff", str(run_log), str(reseeded)]) == 1

    def test_compare_runs_ignores_timing_but_not_counters(self, run_log, tmp_path):
        run = load_run(run_log)
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

    def test_manifest_document_is_not_a_run_log(self, tmp_path, capsys):
        # The whole-document manifest that runs used to write beside the
        # log: no begin line, so every subcommand refuses it.
        old = tmp_path / "ck.jsonl.manifest.json"
        old.write_text(json.dumps({"format": "repro-run-manifest", "status": "completed",
                                   "run": {"seed": 1}}, indent=2))
        for argv in (["summarize", str(old)], ["tail", str(old)], ["diff", str(old), str(old)]):
            assert obs_cli.main(argv) == 2
            assert "not a run log" in capsys.readouterr().err

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
    def stopped_logs(self, tmp_path):
        ck_a, ck_b = tmp_path / "serial.jsonl", tmp_path / "jobs2.jsonl"
        serial = run_campaign(self.STOP_SPEC, checkpoint=ck_a)
        assert serial.skips, "stopping spec produced no skips; weaken the target"
        run_campaign(self.STOP_SPEC, jobs=2, checkpoint=ck_b)
        return (default_run_log_path(ck_a), default_run_log_path(ck_b))

    def test_skip_counters_identical_serial_vs_jobs2(self, stopped_logs):
        run_a, run_b = (load_run(p) for p in stopped_logs)
        counters = run_a["manifest"]["metrics"]["counters"]
        assert counters["early_stop/skipped"] > 0
        assert any(key.startswith("early_stop/skipped/") for key in counters)
        assert obs_cli.compare_runs(run_a, run_b) == []

    def test_diff_exit_zero_and_summarize_render(self, stopped_logs, capsys):
        log_a, log_b = stopped_logs
        assert obs_cli.main(["diff", str(log_a), str(log_b)]) == 0
        capsys.readouterr()
        assert obs_cli.main(["summarize", str(log_a)]) == 0
        out = capsys.readouterr().out
        assert "early_stop" in out or "skipped" in out

    def test_tampered_skip_counter_is_fact_divergence(self, stopped_logs):
        run_a, _ = (load_run(p) for p in stopped_logs)
        tampered = json.loads(json.dumps(run_a))
        tampered["manifest"]["metrics"]["counters"]["early_stop/skipped"] += 1
        diverged = obs_cli.compare_runs(run_a, tampered)
        assert any("early_stop/skipped" in line for line in diverged)
