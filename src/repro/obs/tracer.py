"""Propagation flight recorder: deterministic per-layer fault traces.

The paper's central argument (sections 5.1.4 and 6) is a *propagation
narrative*: a flipped bit either dies in a ReLU zero-kill or a pool
absorb, is clipped away by quantization, or survives — growing or
shrinking in magnitude — all the way to the final fmap.  Campaigns so
far recorded only the endpoints of that story (outcome class, detector
verdict, reached-output flag).  This module records the story itself:
for a deterministically sampled subset of trials, a structured
per-layer trace of how far the corruption travelled, how many elements
it touched, and which mechanism finally erased it.

Determinism contract (the same one checkpoints obey): a trace row is a
pure function of the trial index.  Trial selection is by index
(``CampaignSpec.trace_mode`` / ``trace_every`` — part of the campaign
identity, so two runs that trace different subsets have different
fingerprints), the faulty activations a row is derived from are
bit-identical across serial / ``--jobs N`` / ``--batch N`` / ``--shm``
executions (the engine's bit-exactness contract), and the derived
statistics use bitwise comparison (NaN- and ``-0.0``-safe, mirroring
``repro.nn.network._bits_equal``).  The trace file is therefore
byte-identical across every execution shape, including kill/resume —
the delta engine's dead-trial collapse retires a trial by patching
golden rows back in exactly when its activation bits equal golden, so
it reports the same masking layer as a per-trial full recompute.

The on-disk form is JSONL next to the checkpoint
(``<checkpoint>.trace.jsonl``): a header line followed by one row per
traced trial, in index order, republished atomically on every flush
(full-rewrite snapshot via ``atomic_write_text``, like the checkpoint
writer — an ``open(..., "a")`` append stream could tear on SIGKILL and
is what lint rule RP108 exists to catch).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

__all__ = [
    "TRACE_MODES",
    "TraceWriter",
    "build_trace",
    "default_trace_path",
    "load_trace",
    "trace_depth_histogram",
    "trace_layer_matrix",
    "trace_deviation_by_depth",
]

#: Trial-selection policies: ``off`` (no traces), ``sample`` (trial
#: indices divisible by ``trace_every``), ``all`` (every trial).
TRACE_MODES = ("off", "sample", "all")

TRACE_VERSION = 1
_FORMAT = "repro-campaign-trace"

#: Relative-deviation guard against golden values that are exactly zero.
_REL_EPS = 1e-12


def default_trace_path(checkpoint: str | Path) -> Path:
    """Trace path derived from a checkpoint path (next to it)."""
    checkpoint = Path(checkpoint)
    return checkpoint.with_name(checkpoint.name + ".trace.jsonl")


def _bit_diff_mask(faulty: np.ndarray, golden: np.ndarray) -> np.ndarray:
    """Elementwise "bits differ" mask (NaN- and ``-0.0``-exact).

    Same comparison the delta engine's ``_bits_equal`` uses: value
    equality would call NaN != NaN corrupted forever and -0.0 == 0.0
    clean, neither of which matches what the hardware latched.
    """
    a = np.ascontiguousarray(faulty, dtype=np.float64)
    b = np.ascontiguousarray(golden, dtype=np.float64)
    return a.view(np.uint64) != b.view(np.uint64)


def _delta_stats(faulty: np.ndarray, golden: np.ndarray) -> dict:
    """Corruption statistics of one activation vs its golden twin.

    ``dirty_rows`` is the half-open row span ``[lo, hi)`` along the
    feature-map row axis (axis ``-2``) touched by the corruption — the
    same geometry the delta engine's row spans use — and None for
    activations without a row axis (FC/softmax vectors).  Deviations are
    computed over corrupted elements only; non-finite faulty values
    propagate into the stats as ``nan``/``inf`` (serialized to strings
    by ``to_jsonable``), which is itself a deterministic fact.
    """
    mask = _bit_diff_mask(faulty, golden)
    corrupted = int(np.count_nonzero(mask))
    stats: dict = {
        "corrupted": corrupted,
        "dirty_rows": None,
        "max_abs_dev": 0.0,
        "mean_abs_dev": 0.0,
        "max_rel_dev": 0.0,
    }
    if not corrupted:
        return stats
    f = np.asarray(faulty, dtype=np.float64)[mask]
    g = np.asarray(golden, dtype=np.float64)[mask]
    dev = np.abs(f - g)
    stats["max_abs_dev"] = float(np.max(dev))
    stats["mean_abs_dev"] = float(np.mean(dev))
    stats["max_rel_dev"] = float(np.max(dev / (np.abs(g) + _REL_EPS)))
    if mask.ndim >= 2:
        row_axis = mask.ndim - 2
        other = tuple(ax for ax in range(mask.ndim) if ax != row_axis)
        rows = np.nonzero(np.any(mask, axis=other) if other else mask)[0]
        stats["dirty_rows"] = [int(rows[0]), int(rows[-1]) + 1]
    return stats


def _masking_kind(layer_kind: str) -> str:
    """Paper-level masking mechanism for the layer that erased a fault."""
    if layer_kind == "relu":
        return "relu_zero_kill"
    if layer_kind == "pool":
        return "pool_absorb"
    # Conv/FC/LRN arithmetic plus the (storage-)dtype round-trip: the
    # corruption fell below quantization resolution or saturated back
    # onto the golden value.
    return "quantization_clip"


def build_trace(
    *,
    trial: int,
    meta: dict,
    injection,
    record,
    network,
    detector=None,
    detector_checkpoints: dict[int, int] | None = None,
) -> dict:
    """Derive one trial's propagation-trace row (JSON-safe dict).

    Pure function of the trial's injection artifacts: ``meta`` is
    ``_CampaignTask.sample_trial``'s dict (golden / site / block / bit),
    ``injection`` the propagated :class:`~repro.core.injector.InjectionResult`
    with recorded activations, ``record`` the classified
    :class:`~repro.core.campaign.TrialRecord`.  Layer rows compare
    ``faulty_activations[j]`` (output of layer ``resume_index + j - 1``)
    against ``golden.activations[resume_index + j]`` and stop at the
    first all-clean layer — forward propagation is deterministic, so a
    corruption that reaches golden bits once stays golden forever.
    """
    # Lazy import: serialize imports campaign at module level; importing
    # it eagerly here would close a cycle through campaign -> tracer.
    from repro.core.serialize import to_jsonable

    golden = meta["golden"]
    resume = int(injection.resume_index)
    faulty = injection.faulty_activations
    layers: list[dict] = []
    injected: dict | None = None
    masking: dict | None = None
    detector_layer: int | None = None
    if not injection.masked and faulty:
        injected = _delta_stats(faulty[0], golden.activations[resume])
        for j in range(1, len(faulty)):
            li = resume + j - 1
            layer = network.layers[li]
            stats = _delta_stats(faulty[j], golden.activations[resume + j])
            layers.append({"layer": li, "name": layer.name, "kind": layer.kind, **stats})
            if stats["corrupted"] == 0:
                masking = {"layer": li, "name": layer.name, "kind": _masking_kind(layer.kind)}
                break
            if (
                detector is not None
                and detector_checkpoints
                and detector_layer is None
            ):
                block = detector_checkpoints.get(li)
                if block is not None and detector.check(block, faulty[j]):
                    detector_layer = li
    row = {
        "index": int(trial),
        "site": meta["site"],
        "block": meta["block"],
        "bit": meta["bit"],
        "resume_layer": resume,
        "value_before": injection.value_before,
        "value_after": injection.value_after,
        "masked_at_injection": bool(injection.masked),
        "injected": injected,
        "layers": layers,
        "depth": sum(1 for entry in layers if entry["corrupted"]),
        "masking": masking,
        "detector_layer": detector_layer,
        "outcome": record.outcome,
        "detected": record.detected,
        "reached_output": record.reached_output,
    }
    return to_jsonable(row)


class TraceWriter:
    """Accumulates trace rows and snapshots them atomically.

    Mirrors :class:`~repro.core.checkpoint.CheckpointWriter`: rows are
    keyed by trial index (re-runs after a resume overwrite themselves
    with identical bytes), each flush rewrites header + rows in index
    order to a pid-unique temp file and publishes it with
    ``os.replace``.  The header carries no path or wall-clock, so two
    runs of the same spec produce byte-identical files — the
    ``OBL-TRACE-PARITY`` gate compares them with ``read_bytes``.
    """

    def __init__(self, path: str | Path, fingerprint: str, mode: str, every: int):
        self.path = Path(path)
        self.fingerprint = fingerprint
        self._header = {
            "format": _FORMAT,
            "version": TRACE_VERSION,
            "fingerprint": fingerprint,
            "trace": {"mode": mode, "every": int(every)},
        }
        self._rows: dict[int, dict] = {}
        self._dirty = False

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> dict[int, dict]:
        return dict(self._rows)

    def add_row(self, row: dict) -> None:
        self._rows[int(row["index"])] = row
        self._dirty = True

    def preload(self, rows: dict[int, dict]) -> None:
        """Carry a resumed run's prior trace rows into later snapshots."""
        for index, row in rows.items():
            self._rows[int(index)] = row
        self._dirty = self._dirty or bool(rows)

    def flush(self) -> Path:
        """Publish an atomic snapshot of every row added so far."""
        if not self._dirty and self.path.exists():
            return self.path
        # Lazy import (cycle: checkpoint imports campaign).
        from repro.core.checkpoint import atomic_write_text

        lines = [json.dumps(self._header, sort_keys=True)]
        lines.extend(
            json.dumps(self._rows[index], sort_keys=True) for index in sorted(self._rows)
        )
        atomic_write_text(self.path, "\n".join(lines) + "\n")
        self._dirty = False
        return self.path


def load_trace(path: str | Path) -> tuple[dict | None, dict[int, dict]]:
    """Load ``(header, rows_by_index)`` from a trace file.

    Tolerant the same way checkpoint loading is: a torn tail line (the
    writer is atomic, but users copy files around) is skipped rather
    than fatal, and a missing file loads as an empty trace.  Returns a
    None header when the file does not start with a recognizable trace
    header — callers treat that as "not a trace file".
    """
    path = Path(path)
    if not path.exists():
        return None, {}
    header: dict | None = None
    rows: dict[int, dict] = {}
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                continue
            if lineno == 0:
                if (
                    not isinstance(payload, dict)
                    or payload.get("format") != _FORMAT
                ):
                    return None, {}
                header = payload
                continue
            if isinstance(payload, dict) and "index" in payload:
                rows[int(payload["index"])] = payload
    return header, rows


# -- cross-trial aggregation (repro-obs trace, ext_propagation) ---------- #

def trace_depth_histogram(rows: dict[int, dict]) -> dict[int, int]:
    """Propagation-depth histogram: depth -> number of traced trials.

    Depth 0 covers faults masked at the injection site itself (the
    corrupted word quantized back onto the golden value before any
    propagation) and faults erased by the first layer they met.
    """
    hist: dict[int, int] = {}
    for row in rows.values():
        depth = int(row.get("depth", 0))
        hist[depth] = hist.get(depth, 0) + 1
    return dict(sorted(hist.items()))


def trace_layer_matrix(rows: dict[int, dict]) -> dict[int, dict]:
    """Per-layer kill/survival matrix.

    For each layer index: how many traced corruptions *entered* it still
    live, how many it killed (masking row), and how many survived
    through it — the instrumented form of the paper's Table 5 masking
    argument.  Keys are layer indices; each value carries the layer's
    name/kind plus ``entered`` / ``killed`` / ``survived`` counts.
    """
    matrix: dict[int, dict] = {}
    for row in rows.values():
        for entry in row.get("layers") or []:
            li = int(entry["layer"])
            cell = matrix.setdefault(
                li,
                {"name": entry["name"], "kind": entry["kind"],
                 "entered": 0, "killed": 0, "survived": 0},
            )
            cell["entered"] += 1
            if entry["corrupted"]:
                cell["survived"] += 1
            else:
                cell["killed"] += 1
    return dict(sorted(matrix.items()))


def trace_deviation_by_depth(rows: dict[int, dict]) -> dict[int, dict]:
    """Deviation-vs-depth table: propagation step -> deviation stats.

    Step ``d`` aggregates the ``d``-th still-corrupted layer row of
    every trace (finite deviations only): how many traces were still
    live at that step, and the max / mean of their max-abs-deviation —
    the "does the corruption blow up or decay as it travels" view the
    paper uses to argue for value-range symptom detection.
    """
    table: dict[int, dict] = {}
    for row in rows.values():
        step = 0
        for entry in row.get("layers") or []:
            if not entry["corrupted"]:
                break
            step += 1
            dev = entry["max_abs_dev"]
            cell = table.setdefault(step, {"live": 0, "max_abs_dev": 0.0, "_sum": 0.0, "_n": 0})
            cell["live"] += 1
            if isinstance(dev, (int, float)) and np.isfinite(dev):
                cell["max_abs_dev"] = max(cell["max_abs_dev"], float(dev))
                cell["_sum"] += float(dev)
                cell["_n"] += 1
    out: dict[int, dict] = {}
    for step in sorted(table):
        cell = table[step]
        out[step] = {
            "live": cell["live"],
            "max_abs_dev": cell["max_abs_dev"],
            "mean_abs_dev": cell["_sum"] / cell["_n"] if cell["_n"] else 0.0,
        }
    return out
