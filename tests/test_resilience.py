"""Resilient execution: supervised pool, quarantine, checkpoint/resume.

The supervised-pool tests drive :func:`repro.utils.parallel.map_trials`
with deliberately hostile ``run_many`` tasks (worker ``os._exit``,
wedged sleeps); the campaign tests drive :func:`run_campaign` through
the ``REPRO_CAMPAIGN_FAULT`` meta-injection hook and assert the paper's
core reproducibility property survives every failure: trial ``i`` is a
pure function of ``(spec, i)``, so quarantine and resume never perturb
the surviving trials.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import pytest

from repro.core.campaign import (
    CampaignAbortedError,
    CampaignSpec,
    TrialError,
    run_campaign,
)
from repro.core.checkpoint import (
    CheckpointMismatchError,
    CheckpointWriter,
    campaign_fingerprint,
    load_checkpoint,
)
from repro.core.serialize import campaign_summary, to_jsonable
from repro.obs.cli import compare_runs
from repro.obs.events import EventRecorder
from repro.obs.manifest import default_run_log_path, load_run
from repro.obs.tracer import default_trace_path
from repro.utils import parallel
from repro.utils.parallel import TrialFailure, map_trials

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Captured at import in the parent; forked workers inherit it, so tasks
#: can distinguish "running in a pool worker" from "running inline".
MAIN_PID = os.getpid()

#: Fast supervision knobs shared by the pool tests (real backoff would
#: dominate test wall-time).
FAST = dict(backoff_base=0.01, backoff_cap=0.02)

#: ``map_trials`` with a short rebuild backoff and startup grace, patched
#: into ``repro.core.campaign`` by the campaign-level pool tests (the
#: supervisor runs in the parent, so nothing extra is pickled).
FAST_CAMPAIGN_POOL = partial(map_trials, backoff_base=0.02, backoff_cap=0.05,
                             timeout_grace=3.0)


class _Squares:
    """Toy slice task (the class is its own factory): trial ``i`` is ``i * i``."""

    def trial(self, i: int):
        return i * i

    def run_many(self, indices: list[int]) -> list:
        return [self.trial(i) for i in indices]


class _Crash7(_Squares):
    def trial(self, i: int):
        if i == 7 and os.getpid() != MAIN_PID:
            os._exit(41)
        return i * i


class _WorkerCrash(_Squares):
    def trial(self, i: int):
        if os.getpid() != MAIN_PID:
            os._exit(13)
        return i + 100


class _Hang5(_Squares):
    def trial(self, i: int):
        if i == 5:
            time.sleep(600.0)
        return i


class _Slow(_Squares):
    """Every trial sleeps: a chunk of ``k`` trials runs for ``k * SLOW_S``."""

    SLOW_S = 0.15

    def trial(self, i: int):
        time.sleep(self.SLOW_S)
        return i * i


class _CrashOnceAt0(_Squares):
    """Trial 0 kills its worker once (claimed through a marker file); the
    rest sleep, so chunks submitted behind the running ones stay queued."""

    def __init__(self, marker: str):
        self.marker = marker

    def trial(self, i: int):
        if i == 0:
            try:
                os.close(os.open(self.marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                return 0
            os._exit(17)
        time.sleep(0.3)
        return i * i


class _PidThenHang(_Squares):
    """Each trial names its worker's pid by a file in ``directory``, then wedges."""

    def __init__(self, directory: str):
        self.directory = directory

    def trial(self, i: int):
        Path(self.directory, str(os.getpid())).touch()
        time.sleep(600.0)
        return i


#: A parent whose two pool workers wedge: run with the pid directory as
#: its argument, then SIGKILLed by the test.
_WEDGED_POOL = (
    "import sys\n"
    "from functools import partial\n"
    "from repro.utils.parallel import map_trials\n"
    "from tests.test_resilience import _PidThenHang\n"
    "map_trials(partial(_PidThenHang, sys.argv[1]), indices=range(2), jobs=2, chunk=1)\n"
)


def _gone(pid: int) -> bool:
    """Has ``pid`` exited?  No such process, or a zombie awaiting its reaper."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


class TestSupervisedPool:
    def test_crashing_worker_quarantines_exactly_the_poison_trial(self):
        kinds = []
        results = map_trials(
            _Crash7, indices=range(12), jobs=2, chunk=4, max_retries=1,
            on_event=lambda kind, detail: kinds.append(kind), **FAST,
        )
        failure = results[7]
        assert isinstance(failure, TrialFailure)
        assert failure.index == 7 and failure.reason == "crash"
        # Every innocent chunk-mate of trial 7 still completed.
        assert [r for i, r in enumerate(results) if i != 7] == [
            i * i for i in range(12) if i != 7
        ]
        assert "bisect" in kinds and "quarantine" in kinds and "rebuild" in kinds

    def test_hanging_trial_hits_deadline_and_is_quarantined(self):
        kinds = []
        results = map_trials(
            _Hang5, indices=range(8), jobs=2, chunk=4, max_retries=0,
            timeout=0.2, timeout_grace=1.0,
            on_event=lambda kind, detail: kinds.append(kind), **FAST,
        )
        failure = results[5]
        assert isinstance(failure, TrialFailure)
        assert failure.index == 5 and failure.reason == "timeout"
        assert [r for i, r in enumerate(results) if i != 5] == [
            i for i in range(8) if i != 5
        ]
        assert "timeout" in kinds

    def test_degrades_to_inline_when_pool_never_completes_a_chunk(self):
        kinds = []
        results = map_trials(
            _WorkerCrash, indices=range(6), jobs=2, chunk=2, max_retries=0, max_rebuilds=1,
            on_event=lambda kind, detail: kinds.append(kind), **FAST,
        )
        # Inline fallback runs in the parent, where the task succeeds.
        assert results == [i + 100 for i in range(6)]
        assert "degrade" in kinds

    def test_deadline_starts_when_the_chunk_starts(self):
        # Four chunks on two workers: the last two wait one chunk's run
        # time (0.6 s) in the queue.  The 0.95 s budget covers a chunk's
        # run but not its queueing plus its run.
        kinds = []
        results = map_trials(
            _Slow, indices=range(16), jobs=2, chunk=4, max_retries=0,
            timeout=0.2, timeout_grace=0.15,
            on_event=lambda kind, detail: kinds.append(kind), **FAST,
        )
        assert results == [i * i for i in range(16)]
        assert "timeout" not in kinds

    def test_crash_charges_only_started_chunks(self, tmp_path):
        # Chunks (0, 1) and (2, 3) run; (4, 5) and (6, 7) are queued
        # behind them when trial 0 kills its worker.
        events = []
        results = map_trials(
            partial(_CrashOnceAt0, str(tmp_path / "crashed")), indices=range(8), jobs=2,
            chunk=2, max_retries=1, on_event=lambda kind, detail: events.append((kind, detail)),
            **FAST,
        )
        assert results == [i * i for i in range(8)]
        charged = {d["span"] for kind, d in events if kind in ("retry", "bisect")}
        assert (0, 1) in charged
        assert not charged & {(4, 5), (6, 7)}

    def test_two_chunks_per_worker_in_flight_and_solo_runs_alone(self, monkeypatch):
        seen = []
        drain = parallel._Supervisor._drain

        def spy(supervisor):
            seen.append([c.solo for c in supervisor.in_flight.values()])
            return drain(supervisor)

        monkeypatch.setattr(parallel._Supervisor, "_drain", spy)
        results = map_trials(_Crash7, indices=range(24), jobs=2, chunk=2, max_retries=1, **FAST)
        assert isinstance(results[7], TrialFailure)
        assert max(len(flight) for flight in seen) == 4
        solo = [flight for flight in seen if any(flight)]
        assert solo and all(flight == [True] for flight in solo)

    def test_explicit_indices_run_the_gap_set(self):
        assert map_trials(_Squares, jobs=1, indices=[3, 9, 4]) == [9, 81, 16]

    def test_on_result_streams_inline_results(self):
        seen = []
        map_trials(_Squares, indices=range(4), jobs=1,
                   on_result=lambda i, v: seen.append((i, v)))
        assert seen == [(0, 0), (1, 1), (2, 4), (3, 9)]

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
    def test_workers_exit_when_their_parent_is_killed(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), str(REPO_ROOT), env.get("PYTHONPATH", "")])
        proc = subprocess.Popen(
            [sys.executable, "-c", _WEDGED_POOL, str(tmp_path)], env=env, cwd=REPO_ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        pids: list[int] = []
        try:
            deadline = time.monotonic() + 60.0
            while len(pids) < 2 and proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.05)
                pids = [int(f.name) for f in tmp_path.iterdir()]
            assert len(pids) == 2, "the pool's two workers never started their chunks"
            proc.kill()
            proc.wait(timeout=30)
            deadline = time.monotonic() + 10.0
            while not all(map(_gone, pids)) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert all(map(_gone, pids)), "pool workers outlived their SIGKILLed parent"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
            for pid in pids:
                if not _gone(pid):
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass


SPEC = CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=12, seed=3)
TRACED = CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=24, seed=3,
                      trace_mode="all")


def _records_key(result):
    """Bit-identity key over trial records (nan-safe via to_jsonable)."""
    return json.dumps(to_jsonable(result.records), sort_keys=True)


class TestCampaignResilience:
    def test_parallel_campaign_survives_worker_crash(self, monkeypatch):
        monkeypatch.setenv("REPRO_CAMPAIGN_FAULT", "crash:7")
        monkeypatch.setattr("repro.core.campaign.map_trials", FAST_CAMPAIGN_POOL)
        result = run_campaign(SPEC, jobs=2, chunk=4, max_retries=1, max_error_frac=0.2)
        assert len(result.records) == 11
        assert [(e.index, e.reason) for e in result.errors] == [(7, "crash")]
        assert result.stats.quarantined == 1
        assert result.stats.rebuilds >= 1

    def test_parallel_campaign_survives_hang(self, monkeypatch):
        monkeypatch.setenv("REPRO_CAMPAIGN_FAULT", "hang:3:600")
        monkeypatch.setattr("repro.core.campaign.map_trials", FAST_CAMPAIGN_POOL)
        result = run_campaign(
            SPEC, jobs=2, chunk=4, max_retries=0, max_error_frac=0.2, trial_timeout=0.5,
        )
        assert len(result.records) == 11
        assert [(e.index, e.reason) for e in result.errors] == [(3, "timeout")]
        assert result.stats.timeouts >= 1

    def test_surviving_trials_match_clean_run(self, monkeypatch):
        clean = run_campaign(SPEC)
        monkeypatch.setenv("REPRO_CAMPAIGN_FAULT", "raise:5")
        faulty = run_campaign(SPEC, max_error_frac=0.2, max_retries=1)
        assert [(e.index, e.reason, e.exc_type) for e in faulty.errors] == [
            (5, "error", "RuntimeError")
        ]
        # Clean records are in trial order, so dropping trial 5 must leave
        # exactly the faulty run's surviving records.
        surviving = [r for i, r in enumerate(clean.records) if i != 5]
        assert json.dumps(to_jsonable(faulty.records), sort_keys=True) == json.dumps(
            to_jsonable(surviving), sort_keys=True
        )

    def test_error_budget_aborts(self, monkeypatch):
        monkeypatch.setenv("REPRO_CAMPAIGN_FAULT", "raise:5")
        with pytest.raises(CampaignAbortedError):
            run_campaign(SPEC, max_error_frac=0.0)

    # The budget comparison is strictly `n_errors > max_error_frac *
    # n_trials`; 16 trials keep the budget exactly representable
    # (0.0625 * 16 == 1.0, 0.9375 * 16 == 15.0), so these pin the
    # boundary itself, not a float-fuzzed neighbourhood.
    def test_error_budget_exactly_at_budget_completes(self, monkeypatch):
        spec = CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=16, seed=3)
        monkeypatch.setenv("REPRO_CAMPAIGN_FAULT", "raise:5")
        result = run_campaign(spec, max_error_frac=0.0625)  # budget = 1.0
        assert len(result.records) == 15
        assert [(e.index, e.reason) for e in result.errors] == [(5, "error")]
        assert result.stats.quarantined == 1

    def test_error_budget_one_past_budget_aborts(self, monkeypatch):
        spec = CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=16, seed=3)
        monkeypatch.setenv("REPRO_CAMPAIGN_FAULT", "raise:*")
        # budget = 15.0; the 16th quarantine is the first past it.
        with pytest.raises(CampaignAbortedError):
            run_campaign(spec, max_error_frac=0.9375)

    def test_error_budget_every_trial_quarantined_at_budget(self, monkeypatch):
        spec = CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=16, seed=3)
        monkeypatch.setenv("REPRO_CAMPAIGN_FAULT", "raise:*")
        result = run_campaign(spec, max_error_frac=1.0)  # budget = 16.0
        assert result.records == []
        assert result.stats.quarantined == 16

    def test_events_recorded(self, monkeypatch):
        monkeypatch.setenv("REPRO_CAMPAIGN_FAULT", "raise:5")
        seen = []
        recorder = EventRecorder(sink=seen.append)
        run_campaign(SPEC, max_error_frac=0.2, events=recorder)
        assert recorder.count("quarantine") == 1
        assert any(event.kind == "quarantine" for event in seen)


class TestCheckpointResume:
    def test_resume_is_bit_identical_to_uninterrupted_run(self, tmp_path):
        reference = run_campaign(SPEC)
        # Simulate a kill at ~50%: checkpoint holding only the first half.
        path = tmp_path / "half.jsonl"
        writer = CheckpointWriter(path, SPEC)
        for trial, record in enumerate(reference.records[:6]):
            writer.add_record(trial, record)
        writer.flush()

        resumed = run_campaign(SPEC, checkpoint=path, resume=True)
        assert resumed.stats.resumed == 6
        assert _records_key(resumed) == _records_key(reference)
        ref_summary = campaign_summary(reference)
        res_summary = campaign_summary(resumed)
        ref_summary.pop("execution"), res_summary.pop("execution")
        assert res_summary == ref_summary

    def test_checkpoint_round_trips_records(self, tmp_path):
        reference = run_campaign(SPEC)
        path = tmp_path / "full.jsonl"
        writer = CheckpointWriter(path, SPEC)
        for trial, record in enumerate(reference.records):
            writer.add_record(trial, record)
        writer.flush()
        state = load_checkpoint(path, spec=SPEC)
        assert state is not None and state.n_completed == SPEC.n_trials
        reloaded = [state.records[i] for i in sorted(state.records)]
        assert json.dumps(to_jsonable(reloaded), sort_keys=True) == _records_key(reference)

    def test_mismatched_spec_is_refused(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        CheckpointWriter(path, SPEC).flush()
        other = CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=12, seed=4)
        assert campaign_fingerprint(other) != campaign_fingerprint(SPEC)
        with pytest.raises(CheckpointMismatchError):
            run_campaign(other, checkpoint=path, resume=True)

    def test_missing_checkpoint_resumes_from_scratch(self, tmp_path):
        result = run_campaign(SPEC, checkpoint=tmp_path / "fresh.jsonl", resume=True)
        assert result.stats.resumed == 0
        assert len(result.records) == SPEC.n_trials

    def test_kill_midflight_then_resume_bit_identical(self, tmp_path):
        """End-to-end: SIGKILL a live checkpointing campaign, then resume."""
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
            # Kill as soon as a flush proves the campaign is mid-flight.
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

        state = load_checkpoint(path, spec=spec)
        assert state is not None and 0 < state.n_completed < spec.n_trials

        resumed = run_campaign(spec, checkpoint=path, resume=True)
        reference = run_campaign(spec)
        assert resumed.stats.resumed == state.n_completed
        assert _records_key(resumed) == _records_key(reference)
        uninterrupted = tmp_path / "uninterrupted.jsonl"
        run_campaign(spec, checkpoint=uninterrupted)
        assert path.read_bytes() == uninterrupted.read_bytes()
        # The two run logs agree on every deterministic fact: the check
        # `repro-obs diff` makes.
        want, got = default_run_log_path(uninterrupted), default_run_log_path(path)
        assert compare_runs(load_run(want), load_run(got)) == []

    def test_last_line_for_an_index_wins(self, tmp_path):
        # A re-run trial's new line is appended after its old one; the
        # loader must count the index once, as its last line says.
        reference = run_campaign(SPEC)
        path = tmp_path / "ck.jsonl"
        writer = CheckpointWriter(path, SPEC)
        for trial, record in enumerate(reference.records[:4]):
            writer.add_record(trial, record)
        writer.flush()
        writer.add_error(2, TrialError(index=2, reason="error", exc_type="RuntimeError",
                                       message="re-run raised", attempts=3))
        writer.flush()
        assert len(path.read_text(encoding="utf-8").splitlines()) == 6
        state = load_checkpoint(path, spec=SPEC)
        assert list(state.records) == [0, 1, 3]
        assert list(state.errors) == [2]
        assert state.n_completed == 4

        resumed = run_campaign(SPEC, checkpoint=path, resume=True, max_error_frac=0.1)
        assert resumed.stats.resumed == 4
        assert [e.index for e in resumed.errors] == [2]
        assert len(resumed.records) == SPEC.n_trials - 1

    @staticmethod
    def _reference_files(tmp_path):
        ck = tmp_path / "reference.jsonl"
        run_campaign(TRACED, checkpoint=ck)
        return ck.read_bytes(), default_trace_path(ck).read_bytes()

    @staticmethod
    def _write_log(path, lines: list[str], torn: str = "") -> None:
        # No trailing newline after a torn line: the kill cut it short.
        path.write_text("\n".join(lines) + "\n" + torn, encoding="utf-8")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_resume_from_a_killed_append_log(self, tmp_path, jobs):
        want_ck, want_trace = self._reference_files(tmp_path)
        ck_lines = want_ck.decode().splitlines()
        trace_lines = want_trace.decode().splitlines()
        entries, rows = ck_lines[1:], trace_lines[1:]
        half, third = len(entries) // 2, len(rows) // 3
        # What a killed run leaves: entries in completion (here reversed)
        # order, and a last line torn mid-write.
        ck = tmp_path / "killed.jsonl"
        self._write_log(ck, [ck_lines[0], *entries[:half][::-1]], torn=entries[half][:40])
        trace = default_trace_path(ck)
        self._write_log(trace, [trace_lines[0], *rows[:third]], torn=rows[third][:40])

        resumed = run_campaign(TRACED, jobs=jobs, checkpoint=ck, resume=True,
                               checkpoint_every=4)
        # Checkpointed trials without a trace row re-ran for their row.
        assert resumed.stats.resumed == third
        assert ck.read_bytes() == want_ck
        assert trace.read_bytes() == want_trace

    def test_resume_of_a_complete_unsorted_log_runs_nothing(self, tmp_path):
        want_ck, want_trace = self._reference_files(tmp_path)
        ck = tmp_path / "unsorted.jsonl"
        trace = default_trace_path(ck)
        for path, data in ((ck, want_ck), (trace, want_trace)):
            lines = data.decode().splitlines()
            self._write_log(path, [lines[0], *lines[1:][::-1]])

        resumed = run_campaign(TRACED, checkpoint=ck, resume=True)
        assert resumed.stats.resumed == TRACED.n_trials
        assert resumed.metrics["counters"]["trials"] == TRACED.n_trials
        assert ck.read_bytes() == want_ck
        assert trace.read_bytes() == want_trace

    def test_fresh_run_replaces_another_specs_files(self, tmp_path):
        want_ck, want_trace = self._reference_files(tmp_path)
        ck = tmp_path / "shared.jsonl"
        files = (ck, default_trace_path(ck))
        other = CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=20, seed=4,
                             trace_mode="all")
        run_campaign(other, checkpoint=ck)
        stale = {line for f in files for line in f.read_text(encoding="utf-8").splitlines()}

        # Read both files after every cadence flush, not just at the end:
        # no flush may append to the other spec's lines.
        seen: list[set[str]] = []

        def after_flush(event):
            if event.kind == "checkpoint":
                seen.append({line for f in files
                             for line in f.read_text(encoding="utf-8").splitlines()})

        run_campaign(TRACED, checkpoint=ck, checkpoint_every=4,
                     events=EventRecorder(sink=after_flush))
        assert len(seen) == TRACED.n_trials // 4
        assert not any(stale & lines for lines in seen)
        assert ck.read_bytes() == want_ck
        assert default_trace_path(ck).read_bytes() == want_trace
