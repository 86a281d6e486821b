"""Append-only JSONL logs keyed by trial index, and the atomic text writer.

The campaign checkpoint and the propagation trace are both a header line
plus one JSON line per trial index, flushed every ``checkpoint_every``
trials.  :class:`JsonlLog` stores both so that a flush costs O(new
trials); rewriting the whole file per flush makes I/O quadratic.

- A session's first :meth:`~JsonlLog.flush` publishes header + staged
  lines as one atomic snapshot, replacing whatever was at the path (a
  killed run's torn log, another spec's file) instead of appending to it.
- Each later flush appends only the lines added since, sorted by index
  within the batch; workers finish out of order, so the log is unsorted.
- :meth:`~JsonlLog.close` publishes the canonical file (header, then one
  line per index in index order) as one more snapshot, so finished files
  do not depend on completion order.

A SIGKILL mid-append can tear the last line, and a re-run index with new
content has two lines until ``close``; the loaders skip undecodable
lines and let the last line for an index win.  Nothing is fsynced: the
guarantee is "survives SIGKILL", not "survives power loss".  This module
imports nothing from ``repro``, so the checkpoint and tracer modules can
both use it without an import cycle.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

__all__ = ["JsonlLog", "atomic_write_text"]


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Publish ``text`` at ``path`` via pid-unique temp + ``os.replace``.

    The RP3xx atomic-write discipline in one place: a concurrent writer
    or a SIGKILL mid-write can never leave a torn file behind.  Used by
    the checkpoint and trace log snapshots.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def _append_text(path: Path, text: str) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(text)


class JsonlLog:
    """A header line plus one JSON line per index, written incrementally.

    Each entry is serialized once, when added.  Re-adding an index with
    the same bytes is a no-op; with other bytes the new line supersedes
    the old one.
    """

    def __init__(self, path: str | Path, header: dict):
        self.path = Path(path)
        self._header = json.dumps(header, sort_keys=True)
        #: index -> serialized line, every entry of the log.
        self._lines: dict[int, str] = {}
        #: Indices added since the last flush.
        self._new: set[int] = set()
        #: Size of the file as this session last left it; None until
        #: this session has published a snapshot.  json.dumps output is
        #: ASCII, so characters are bytes.
        self._size: int | None = None

    def __len__(self) -> int:
        return len(self._lines)

    def add(self, index: int, entry: dict) -> None:
        """Stage ``entry`` as the line for ``index``."""
        line = json.dumps(entry, sort_keys=True)
        if self._lines.get(index) != line:
            self._lines[index] = line
            self._new.add(index)

    def flush(self) -> Path:
        """Write every staged line to the file: snapshot first, then append."""
        if self._size is None or not self._still_ours():
            self._publish()
        elif self._new:
            text = "".join(self._lines[i] + "\n" for i in sorted(self._new))
            _append_text(self.path, text)
            self._size += len(text)
            self._new.clear()
        return self.path

    def close(self) -> Path:
        """Publish the canonical snapshot: header, then lines in index order."""
        self._publish()
        return self.path

    def _still_ours(self) -> bool:
        # Append only to the file this session last wrote: if it was
        # deleted, replaced or grown behind our back, snapshot again.
        try:
            return os.stat(self.path).st_size == self._size
        except FileNotFoundError:
            return False

    def _publish(self) -> None:
        text = "\n".join([self._header, *(self._lines[i] for i in sorted(self._lines))]) + "\n"
        atomic_write_text(self.path, text)
        self._size = len(text)
        self._new.clear()
