"""Structured JSONL run logs for campaign and experiment runs.

Every observed run writes one append-only file, ``<stem>.runlog.jsonl``,
next to its checkpoint or output artifact:

- a ``begin`` line: the run's identity and its ``env`` (interpreter,
  libraries, host, git revision), so a SIGKILLed run still records
  what ran, on what code;
- one line per supervision event, stamped with seconds since the start;
- a final ``manifest`` line answering "how did it end": status, timing,
  execution stats, the merged metric snapshot, event counts and the
  outcome summary, with the ``begin`` line's ``env``.  A killed run's
  log has no ``manifest`` line.

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

__all__ = [
    "MANIFEST_FORMAT",
    "MANIFEST_VERSION",
    "RUNLOG_FORMAT",
    "RunObserver",
    "default_run_log_path",
    "environment_info",
    "git_revision",
    "load_run",
]

MANIFEST_FORMAT = "repro-run-manifest"
RUNLOG_FORMAT = "repro-run-log"
MANIFEST_VERSION = 1


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


def default_run_log_path(artifact: str | Path) -> Path:
    """The run-log path derived from a checkpoint/artifact path."""
    artifact = Path(artifact)
    return artifact.with_name(artifact.name + ".runlog.jsonl")


def _utc_now_iso() -> str:
    return _dt.datetime.now(_dt.timezone.utc).strftime("%Y-%m-%dT%H:%M:%S.%fZ")


class RunObserver:
    """Owns the run log of one observed run.

    Args:
        run_log_path: Where run-log lines are appended.  An existing
            file is truncated at :meth:`begin` — a resumed campaign is
            a new run with its own log.
        kind: ``"campaign"`` or ``"experiment"``.
        meta: Identity of the run (fingerprint, spec, network, dtype,
            seed, n_trials, jobs, resumed...), JSON-safe.

    Call :meth:`begin` once, then :meth:`finish` once.
    """

    def __init__(self, run_log_path: str | Path, kind: str = "campaign",
                 meta: dict | None = None):
        self.run_log_path = Path(run_log_path)
        self.kind = kind
        self.meta = dict(meta or {})
        self.env: dict = {}
        self._log_fh = None
        self._t0 = time.perf_counter()
        self._started_at = _utc_now_iso()

    # -- lifecycle --------------------------------------------------------- #
    def begin(self) -> None:
        """Open the run: truncate the log and write its ``begin`` line."""
        self._t0 = time.perf_counter()
        self._started_at = _utc_now_iso()
        self.env = environment_info()
        self.run_log_path.parent.mkdir(parents=True, exist_ok=True)
        self._log_fh = open(self.run_log_path, "w", encoding="utf-8")
        self._append({
            "kind": "begin",
            "format": RUNLOG_FORMAT,
            "version": MANIFEST_VERSION,
            "run_kind": self.kind,
            "started_at": self._started_at,
            "env": self.env,
            **self.meta,
        })

    def event_sink(self, event) -> None:
        """``EventRecorder`` sink: append one supervision event line."""
        if self._log_fh is None:
            return  # a recorder that outlives this run
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
        summary: dict | None = None,
    ) -> dict:
        """Seal the run: append the ``manifest`` line and close the log.

        Args:
            status: ``"completed"`` / ``"aborted"`` / ``"failed"``.
            stats: JSON-safe ``ExecutionStats`` dict.
            metrics: Merged metric snapshot; its ``timing`` section is
                lifted into the manifest's ``timing.spans``.
            events: Event-kind -> emission-count totals.
            summary: Optional outcome digest (SDC rates, masked frac).

        Returns the manifest dict.
        """
        metrics = dict(metrics or {})
        manifest = {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "kind": self.kind,
            "status": status,
            "run": dict(self.meta),
            "env": self.env,
            "timing": {
                "started_at": self._started_at,
                "finished_at": _utc_now_iso(),
                "duration_s": round(time.perf_counter() - self._t0, 6),
                "spans": metrics.pop("timing", {}),
            },
            "execution": dict(stats or {}),
            "metrics": metrics,
            "events": {"counts": dict(events or {})},
            "summary": dict(summary or {}),
        }
        self._append({"kind": "manifest", "manifest": manifest})
        self._log_fh.close()
        self._log_fh = None
        return manifest

    # -- internals --------------------------------------------------------- #
    def _append(self, line: dict) -> None:
        self._log_fh.write(json.dumps(line, sort_keys=True) + "\n")
        self._log_fh.flush()


def load_run(path: str | Path) -> dict:
    """Load a run log.

    Returns ``{"manifest": dict | None, "begin": dict | None,
    "events": list[dict], "path": str}``: the final ``manifest`` line
    (None while the run is in flight, or after it was killed), the
    ``begin`` line and every event line.  Torn trailing lines (a
    SIGKILLed writer) are skipped, never fatal.  Raises ``ValueError``
    for a file with no ``begin`` line: it is not a run log.
    """
    begin: dict | None = None
    manifest: dict | None = None
    events: list[dict] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        try:
            data = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn tail from a killed writer, or a blank line
        if not isinstance(data, dict):
            continue
        kind = data.get("kind")
        if kind == "begin":
            begin = data
        elif kind == "event":
            events.append(data)
        elif kind == "manifest" and isinstance(data.get("manifest"), dict):
            manifest = data["manifest"]
    if begin is None:
        raise ValueError(f"{path} is not a run log (no begin line)")
    return {"manifest": manifest, "begin": begin, "events": events, "path": str(path)}
