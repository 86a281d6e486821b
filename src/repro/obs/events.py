"""Campaign supervision events.

The supervised pool (:mod:`repro.utils.parallel`) and the campaign runner
emit ``retry`` / ``rebuild`` / ``timeout`` / ``bisect`` / ``quarantine``
/ ``degrade`` / ``resume`` / ``checkpoint`` events, which an
:class:`EventRecorder` counts (and optionally forwards to a sink such as
``print``) so a multi-hour run reports what its harness survived.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["CampaignEvent", "EventRecorder"]


@dataclass(frozen=True)
class CampaignEvent:
    """One supervision event emitted while executing a campaign.

    Attributes:
        seq: Monotonic sequence number within the recorder.
        kind: Event kind (``retry``, ``rebuild``, ``timeout``,
            ``bisect``, ``quarantine``, ``degrade``, ``resume``,
            ``checkpoint``, ``abort``).
        detail: Kind-specific payload (chunk span, attempt count, ...).
    """

    seq: int
    kind: str
    detail: dict = field(default_factory=dict)

    def __str__(self) -> str:
        parts = " ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
        return f"[campaign:{self.kind}] {parts}".rstrip()


class EventRecorder:
    """Collects campaign supervision events; the pool's ``on_event`` hook.

    Counts every emission by kind and hands each event to its sinks; it
    keeps no events itself (the run log is the record of a run's events).

    Args:
        sink: Optional callable invoked with every :class:`CampaignEvent`
            as it is emitted (e.g. ``lambda e: print(e, file=sys.stderr)``
            for live progress on a long run).  Further sinks — a
            :class:`~repro.obs.progress.ProgressReporter`, a run-log
            writer — attach via :meth:`add_sink`.
    """

    def __init__(self, sink: Callable[[CampaignEvent], None] | None = None):
        self._counts: Counter[str] = Counter()
        self._sinks: list[Callable[[CampaignEvent], None]] = [] if sink is None else [sink]
        self._seq = 0

    def add_sink(self, sink: Callable[[CampaignEvent], None]) -> None:
        """Attach one more per-event observer (all sinks see all events)."""
        self._sinks.append(sink)

    def emit(self, kind: str, detail: dict | None = None, **extra) -> CampaignEvent:
        """Record one event; signature matches the pool's ``on_event``."""
        payload = dict(detail or {})
        payload.update(extra)
        event = CampaignEvent(seq=self._seq, kind=kind, detail=payload)
        self._seq += 1
        self._counts[kind] += 1
        for sink in self._sinks:
            sink(event)
        return event

    def count(self, kind: str) -> int:
        """Total emissions of ``kind``."""
        return self._counts[kind]

    @property
    def counts(self) -> dict[str, int]:
        """Emission totals by kind."""
        return dict(self._counts)
