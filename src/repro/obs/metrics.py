"""Deterministic metrics: counters, gauges, fixed-bucket histograms.

The registry is the campaign's ledger.  Every instrument is designed so
that a campaign sharded over a process pool reports *exactly* the same
totals as the same campaign run serially:

- counters and histogram bucket counts are integers, so merging is
  associative and commutative regardless of chunk completion order;
- histograms have **fixed** bucket edges declared at first observation
  (no adaptive resizing, which would make the shape depend on arrival
  order) and store no float sum (float addition is not associative, and
  worker chunks complete in nondeterministic order);
- anything wall-clock-derived lives under the separate ``timing`` key of
  a snapshot, so deterministic and timing data never mix.

Workers each hold their own registry, take delta snapshots per chunk
(:meth:`MetricsRegistry.snapshot` with ``reset=True``), ship them back
with the chunk's trial results, and the parent merges them — see
``repro.utils.parallel`` / ``repro.core.campaign`` for the wiring.

Snapshots are plain dicts of JSON-safe types::

    {
        "counters":   {"trials": 300, "outcome/masked": 251, ...},
        "gauges":     {"n_inputs": 3.0, ...},
        "histograms": {"abs_value_after": {"edges": [...], "counts": [...]}},
        "timing":     {"trial": {"count": 300, "total_s": 8.1, "max_s": 0.3}},
    }

``histograms[name]["counts"]`` has ``len(edges) + 1`` entries: one per
``value <= edge`` bucket plus a final overflow bucket.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence

__all__ = [
    "DEFAULT_MAGNITUDE_BUCKETS",
    "MetricsRegistry",
    "empty_snapshot",
    "merge_snapshots",
    "merge_timing",
]

#: Logarithmic magnitude edges covering subnormal-to-overflow floats —
#: the natural scale for corrupted-value magnitudes (Figure 5 spans
#: ~1e-6 .. 1e38 depending on the datatype).
DEFAULT_MAGNITUDE_BUCKETS: tuple[float, ...] = tuple(
    10.0**e for e in range(-8, 40, 4)
)


def empty_snapshot() -> dict:
    """A snapshot with every section present and empty."""
    return {"counters": {}, "gauges": {}, "histograms": {}, "timing": {}}


class MetricsRegistry:
    """Process-local metric store with mergeable plain-dict snapshots.

    Not thread-safe by design: one registry per worker process (the
    campaign runner's concurrency unit is the process, not the thread).
    """

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        #: name -> (edges tuple, counts list of len(edges)+1)
        self._histograms: dict[str, tuple[tuple[float, ...], list[int]]] = {}
        #: span path -> [count, total_s, max_s]
        self._timing: dict[str, list] = {}

    # -- instruments ------------------------------------------------------ #
    def inc(self, name: str, by: int = 1) -> None:
        """Increment counter ``name`` (integers only, see module docs)."""
        self._counters[name] = self._counters.get(name, 0) + int(by)

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to the latest sample."""
        self._gauges[name] = float(value)

    def observe(
        self,
        name: str,
        value: float,
        buckets: Sequence[float] = DEFAULT_MAGNITUDE_BUCKETS,
    ) -> None:
        """Count ``value`` into histogram ``name``.

        The bucket edges are fixed by the first observation; passing
        different ``buckets`` for the same name afterwards raises (a
        shape that depended on call order would not merge).
        """
        hist = self._histograms.get(name)
        if hist is None:
            edges = tuple(float(b) for b in buckets)
            if list(edges) != sorted(edges):
                raise ValueError(f"histogram {name!r} edges must be sorted, got {edges}")
            hist = self._histograms[name] = (edges, [0] * (len(edges) + 1))
        edges, counts = hist
        if tuple(float(b) for b in buckets) != edges:
            raise ValueError(
                f"histogram {name!r} was declared with edges {edges}; "
                "fixed-bucket histograms cannot be re-bucketed"
            )
        counts[bisect_left(edges, float(value))] += 1

    # -- snapshots --------------------------------------------------------- #
    def snapshot(self, reset: bool = False) -> dict:
        """Plain-dict copy of every section (sorted keys, JSON-safe).

        Args:
            reset: Also clear the registry — used by workers to produce
                per-chunk *delta* snapshots, so the parent's merge of all
                deltas equals the serial run's totals.
        """
        snap = {
            "counters": {k: self._counters[k] for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k] for k in sorted(self._gauges)},
            "histograms": {
                k: {"edges": list(edges), "counts": list(counts)}
                for k, (edges, counts) in sorted(self._histograms.items())
            },
            "timing": {
                k: {"count": c, "total_s": t, "max_s": m}
                for k, (c, t, m) in sorted(self._timing.items())
            },
        }
        if reset:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._timing.clear()
        return snap

    def merge_snapshot(self, snap: dict) -> None:
        """Fold a snapshot produced elsewhere into this registry."""
        for name, value in snap.get("counters", {}).items():
            self.inc(name, value)
        for name, value in snap.get("gauges", {}).items():
            # Gauges carry "latest sample" semantics; across unordered
            # worker chunks the only commutative choice is the max.
            self._gauges[name] = max(self._gauges.get(name, float("-inf")), float(value))
        for name, hist in snap.get("histograms", {}).items():
            edges = tuple(float(e) for e in hist["edges"])
            mine = self._histograms.get(name)
            if mine is None:
                self._histograms[name] = (edges, list(hist["counts"]))
                continue
            if mine[0] != edges:
                raise ValueError(f"histogram {name!r} bucket edges differ; cannot merge")
            for i, c in enumerate(hist["counts"]):
                mine[1][i] += c
        for path, t in snap.get("timing", {}).items():
            slot = self._timing.get(path)
            if slot is None:
                self._timing[path] = [t["count"], t["total_s"], t["max_s"]]
            else:
                slot[0] += t["count"]
                slot[1] += t["total_s"]
                slot[2] = max(slot[2], t["max_s"])


def merge_timing(a: dict, b: dict) -> dict:
    """Merge two ``timing`` sections (count-sum, total-sum, max-max)."""
    out = {k: dict(v) for k, v in a.items()}
    for path, t in b.items():
        slot = out.get(path)
        if slot is None:
            out[path] = dict(t)
        else:
            slot["count"] += t["count"]
            slot["total_s"] += t["total_s"]
            slot["max_s"] = max(slot["max_s"], t["max_s"])
    return {k: out[k] for k in sorted(out)}


def merge_snapshots(a: dict, b: dict) -> dict:
    """Pure-function merge of two snapshots (neither is mutated)."""
    registry = MetricsRegistry()
    registry.merge_snapshot(a)
    registry.merge_snapshot(b)
    return registry.snapshot()
