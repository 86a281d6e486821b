"""Observability for fault-injection campaigns: metrics, spans, run logs.

A multi-million-trial campaign (the paper runs ~3,000 injections per
configuration across dozens of configurations) cannot be tuned or
trusted without measurement.  This package provides the measurement
layer:

- :mod:`repro.obs.metrics` — a deterministic metrics registry (counters,
  gauges, fixed-bucket histograms) whose snapshots are plain-dict
  serializable and mergeable across worker processes;
- :mod:`repro.obs.spans` — hierarchical timing spans with a low-overhead
  no-op path, safe to leave compiled into hot loops;
- :mod:`repro.obs.manifest` — the structured JSONL run log written next
  to each campaign artifact, ending in the run's manifest line;
- :mod:`repro.obs.jsonlog` — ``atomic_write_text`` and the append-only
  JSONL log behind checkpoint and trace files;
- :mod:`repro.obs.events` — the campaign supervision event stream
  (``retry`` / ``rebuild`` / ``quarantine`` ...) and its recorder;
- :mod:`repro.obs.progress` — a live progress reporter (trials/s, ETA,
  quarantine/retry counts, memory RSS) driven off campaign events;
- :mod:`repro.obs.cli` — the ``repro-obs`` command (``summarize`` /
  ``tail`` / ``diff`` / ``trace``).

Import discipline: this ``__init__`` pulls in only :mod:`metrics` and
:mod:`spans`, which import nothing from the rest of ``repro`` — so the
hot paths (``repro.utils.parallel``, ``repro.nn.network``,
``repro.core.campaign``) can import them without cycles.  ``manifest``,
``jsonlog``, ``events``, ``progress`` and ``cli`` are imported
explicitly by their users.
"""

from repro.obs.metrics import (
    DEFAULT_MAGNITUDE_BUCKETS,
    MetricsRegistry,
    empty_snapshot,
    merge_snapshots,
)
from repro.obs.spans import span, spans_enabled, enable_spans, disable_spans

__all__ = [
    "DEFAULT_MAGNITUDE_BUCKETS",
    "MetricsRegistry",
    "empty_snapshot",
    "merge_snapshots",
    "span",
    "spans_enabled",
    "enable_spans",
    "disable_spans",
]
