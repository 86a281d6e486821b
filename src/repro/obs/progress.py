"""Live progress reporting for long campaigns.

The campaign runner emits a periodic ``progress`` event through its
:class:`~repro.obs.events.EventRecorder`; attaching a
:class:`ProgressReporter` as a recorder sink turns that stream into
single-line status updates on stderr::

    [progress] 1280/3000 (42.7%) | 96.4 trials/s | eta 18s | retries 2 quarantined 0 | rss 412 MB

Throughput and ETA are computed from a monotonic clock; memory is the
process's peak RSS (``getrusage``), which is what an operator sizing a
pool actually needs.  The reporter is display-only: it never feeds
anything back into trial execution, so attaching it cannot perturb a
seeded campaign.
"""

from __future__ import annotations

import sys
import time
from typing import TextIO

__all__ = ["ProgressReporter", "rss_mb"]

#: Event kinds worth echoing immediately even between progress ticks.
_NOTEWORTHY = frozenset({"quarantine", "degrade", "abort", "resume"})


def rss_mb() -> float | None:
    """Peak resident set size of this process in MiB (None if unknown)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS reports bytes.
    if sys.platform == "darwin":  # pragma: no cover - platform-specific
        return usage / (1024.0 * 1024.0)
    return usage / 1024.0


class ProgressReporter:
    """EventRecorder sink rendering live campaign status lines.

    Args:
        stream: Output stream (default stderr).
        min_interval: Minimum seconds between rendered progress lines;
            ``progress`` events arriving faster are coalesced.

    Use as ``recorder.add_sink(ProgressReporter())``; the campaign's
    periodic ``progress`` events carry ``completed`` / ``total`` /
    ``quarantined`` counts, and supervision events (retry, rebuild,
    timeout, quarantine...) are tallied as they stream past.
    """

    def __init__(self, stream: TextIO | None = None, min_interval: float = 0.5):
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self._t0 = time.perf_counter()
        self._last_render = 0.0
        self._counts: dict[str, int] = {}

    def __call__(self, event) -> None:
        """Consume one :class:`~repro.obs.events.CampaignEvent`."""
        self._counts[event.kind] = self._counts.get(event.kind, 0) + 1
        if event.kind == "progress":
            now = time.perf_counter()
            final = event.detail.get("final", False)
            if final or now - self._last_render >= self.min_interval:
                self._last_render = now
                self._render(event.detail, now - self._t0)
        elif event.kind in _NOTEWORTHY:
            print(f"[campaign:{event.kind}] "
                  + " ".join(f"{k}={v}" for k, v in sorted(event.detail.items())),
                  file=self.stream)

    def _render(self, detail: dict, elapsed: float) -> None:
        completed = int(detail.get("completed", 0))
        total = int(detail.get("total", 0)) or None
        done_here = int(detail.get("completed_here", completed))
        skipped = int(detail.get("skipped", 0))
        skipped_here = int(detail.get("skipped_here", skipped))
        # Early-stopped skips are resolved indices: they count toward
        # completion (and hence the ETA's notion of remaining work) but
        # not toward trials/s, which reports trials that actually
        # propagated — otherwise a run skipping whole closed strata
        # would claim an inflated injection throughput.
        executed_rate = max(0, done_here - skipped_here) / elapsed if elapsed > 0 else 0.0
        completion_rate = done_here / elapsed if elapsed > 0 else 0.0
        parts = []
        if total:
            parts.append(f"{completed}/{total} ({100.0 * completed / total:.1f}%)")
        else:
            parts.append(str(completed))
        parts.append(f"{executed_rate:.1f} trials/s")
        if total and completion_rate > 0:
            parts.append(f"eta {max(0.0, (total - completed) / completion_rate):.0f}s")
        retries = self._counts.get("retry", 0)
        quarantined = self._counts.get("quarantine", 0)
        if skipped:
            parts.append(f"skipped {skipped}")
        parts.append(f"retries {retries} quarantined {quarantined}")
        rss = rss_mb()
        if rss is not None:
            parts.append(f"rss {rss:.0f} MB")
        print("[progress] " + " | ".join(parts), file=self.stream)
