"""Run manifests and structured JSONL run logs for campaign runs.

Every observed run produces two artifacts, written next to its
checkpoint / output artifact:

- ``<stem>.manifest.json`` — one atomic JSON document answering "what
  ran, on what code, with what result": spec fingerprint, git revision,
  seed/dtype/network, start/end timestamps, execution stats, the merged
  metric snapshot, and the tail of the supervision event stream.  It is
  written once with ``status: "running"`` when the run starts and
  rewritten (atomically, pid-unique temp + ``os.replace``) with the
  final status when it ends — a SIGKILLed run leaves a manifest that
  says so.
- ``<stem>.runlog.jsonl`` — an append-only structured log: a ``begin``
  line, one line per supervision event (relative-time stamped), and a
  final ``manifest`` line embedding the finished manifest, so the run
  log alone is enough for ``repro-obs summarize``.

Wall-clock reads are deliberately confined to this module: campaign code
(``repro/core``) calls in here for timestamps instead of touching
``time.time`` itself, keeping trial behaviour a function of seeds only.
"""

from __future__ import annotations

import datetime as _dt
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from repro.obs.jsonlog import atomic_write_text

__all__ = [
    "MANIFEST_FORMAT",
    "MANIFEST_VERSION",
    "RUNLOG_FORMAT",
    "RunObserver",
    "default_obs_paths",
    "environment_info",
    "git_revision",
    "load_run",
]

MANIFEST_FORMAT = "repro-run-manifest"
RUNLOG_FORMAT = "repro-run-log"
MANIFEST_VERSION = 1

#: Supervision events kept verbatim in the manifest's ``events.tail``.
_EVENT_TAIL = 50


def git_revision() -> str | None:
    """The working tree's HEAD commit, or None outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5.0,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = proc.stdout.strip()
    return rev if proc.returncode == 0 and rev else None


def environment_info() -> dict:
    """Provenance block: interpreter, libraries, host, git revision."""
    import numpy

    from repro import __version__

    return {
        "repro": __version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "hostname": platform.node(),
        "pid": os.getpid(),
        "argv": list(sys.argv),
        "git_rev": git_revision(),
    }


def default_obs_paths(artifact: str | Path) -> tuple[Path, Path]:
    """Manifest and run-log paths derived from a checkpoint/artifact path."""
    artifact = Path(artifact)
    return (
        artifact.with_name(artifact.name + ".manifest.json"),
        artifact.with_name(artifact.name + ".runlog.jsonl"),
    )


def _utc_now_iso() -> str:
    return _dt.datetime.now(_dt.timezone.utc).strftime("%Y-%m-%dT%H:%M:%S.%fZ")


def _atomic_write_json(path: Path, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


class RunObserver:
    """Owns the manifest + run-log lifecycle for one observed run.

    Args:
        manifest_path: Where the manifest JSON is (re)written; None
            disables the manifest.
        run_log_path: Where run-log lines are appended; None disables
            the log.  An existing file is truncated at :meth:`begin` —
            a resumed campaign is a new run with its own log.
        kind: ``"campaign"`` or ``"experiment"``.
        meta: Identity of the run (fingerprint, spec, network, dtype,
            seed, n_trials, jobs, resumed...), JSON-safe.

    The observer is inert until :meth:`begin`; every method is safe to
    call when both paths are None, so callers need no conditionals.
    """

    def __init__(
        self,
        manifest_path: str | Path | None = None,
        run_log_path: str | Path | None = None,
        kind: str = "campaign",
        meta: dict | None = None,
    ):
        self.manifest_path = Path(manifest_path) if manifest_path is not None else None
        self.run_log_path = Path(run_log_path) if run_log_path is not None else None
        self.kind = kind
        self.meta = dict(meta or {})
        self.manifest: dict | None = None
        self._log_fh = None
        self._t0 = time.perf_counter()
        self._started_at = _utc_now_iso()

    @property
    def active(self) -> bool:
        """Whether this observer writes anything at all."""
        return self.manifest_path is not None or self.run_log_path is not None

    # -- lifecycle --------------------------------------------------------- #
    def begin(self) -> None:
        """Open the run: truncate the log, publish a ``running`` manifest."""
        self._t0 = time.perf_counter()
        self._started_at = _utc_now_iso()
        if self.run_log_path is not None:
            self.run_log_path.parent.mkdir(parents=True, exist_ok=True)
            self._log_fh = open(self.run_log_path, "w", encoding="utf-8")
            self._append({
                "kind": "begin",
                "format": RUNLOG_FORMAT,
                "version": MANIFEST_VERSION,
                "run_kind": self.kind,
                "started_at": self._started_at,
                **self.meta,
            })
        if self.manifest_path is not None:
            self._write_manifest(self._build(status="running"))

    def event_sink(self, event) -> None:
        """``EventRecorder`` sink: append one supervision event line."""
        if self._log_fh is None:
            return
        self._append({
            "kind": "event",
            "seq": event.seq,
            "event": event.kind,
            "t": round(time.perf_counter() - self._t0, 6),
            "detail": event.detail,
        })

    def finish(
        self,
        status: str = "completed",
        stats: dict | None = None,
        metrics: dict | None = None,
        events: dict | None = None,
        event_tail: list | None = None,
        summary: dict | None = None,
    ) -> dict:
        """Seal the run: final manifest, atomically + as the log's last line.

        Args:
            status: ``"completed"`` / ``"aborted"`` / ``"failed"``.
            stats: JSON-safe ``ExecutionStats`` dict.
            metrics: Merged metric snapshot; its ``timing`` section is
                lifted into the manifest's ``timing.spans``.
            events: Event-kind -> emission-count totals.
            event_tail: Most recent events, JSON-safe.
            summary: Optional outcome digest (SDC rates, masked frac).

        Returns the manifest dict (also kept as ``self.manifest``).
        """
        manifest = self._build(
            status=status, stats=stats, metrics=metrics,
            events=events, event_tail=event_tail, summary=summary,
        )
        if self.manifest_path is not None:
            self._write_manifest(manifest)
        if self._log_fh is not None:
            self._append({"kind": "manifest", "manifest": manifest})
            self._log_fh.close()
            self._log_fh = None
        self.manifest = manifest
        return manifest

    # -- internals --------------------------------------------------------- #
    def _append(self, line: dict) -> None:
        assert self._log_fh is not None
        self._log_fh.write(json.dumps(line, sort_keys=True) + "\n")
        self._log_fh.flush()

    def _build(
        self,
        status: str,
        stats: dict | None = None,
        metrics: dict | None = None,
        events: dict | None = None,
        event_tail: list | None = None,
        summary: dict | None = None,
    ) -> dict:
        metrics = dict(metrics or {})
        spans = metrics.pop("timing", {})
        running = status == "running"
        duration = None if running else round(time.perf_counter() - self._t0, 6)
        return {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "kind": self.kind,
            "status": status,
            "run": dict(self.meta),
            "env": environment_info(),
            "timing": {
                "started_at": self._started_at,
                "finished_at": None if running else _utc_now_iso(),
                "duration_s": duration,
                "spans": spans,
            },
            "execution": dict(stats or {}),
            "metrics": metrics,
            "events": {"counts": dict(events or {}), "tail": list(event_tail or [])},
            "summary": dict(summary or {}),
        }

    def _write_manifest(self, manifest: dict) -> None:
        assert self.manifest_path is not None
        _atomic_write_json(self.manifest_path, manifest)


def load_run(path: str | Path) -> dict:
    """Load a run from a manifest JSON *or* a run-log JSONL file.

    Returns ``{"manifest": dict | None, "begin": dict | None,
    "events": list[dict], "path": str}``.  For a manifest file the event
    list is the manifest's stored tail; for a run log it is every event
    line in the file.  Torn trailing lines (a SIGKILLed writer) are
    skipped, never fatal.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    try:
        whole = json.loads(text)
    except json.JSONDecodeError:
        whole = None
    if isinstance(whole, dict) and whole.get("format") == MANIFEST_FORMAT:
        return {
            "manifest": whole,
            "begin": None,
            "events": list(whole.get("events", {}).get("tail", [])),
            "path": str(path),
        }
    begin: dict | None = None
    manifest: dict | None = None
    events: list[dict] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn tail from a killed writer
        if not isinstance(data, dict):
            continue
        kind = data.get("kind")
        if kind == "begin":
            begin = data
        elif kind == "event":
            events.append(data)
        elif kind == "manifest" and isinstance(data.get("manifest"), dict):
            manifest = data["manifest"]
    return {"manifest": manifest, "begin": begin, "events": events, "path": str(path)}
