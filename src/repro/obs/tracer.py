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
bit-identical across serial / ``--jobs N`` / ``--batch N`` executions
(the engine's bit-exactness contract), and the derived
statistics use bitwise comparison (NaN- and ``-0.0``-safe, mirroring
``repro.nn.network._bits_equal``).  The trace file is therefore
byte-identical across every execution shape, including kill/resume —
the delta engine's dead-trial collapse retires a trial by patching
golden rows back in exactly when its activation bits equal golden, so
it reports the same masking layer as a per-trial full recompute.

The on-disk form is JSONL next to the checkpoint
(``<checkpoint>.trace.jsonl``): a header line followed by one row per
traced trial, kept like the checkpoint as an append-only
:class:`repro.obs.jsonlog.JsonlLog` that ends in index order.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.obs.jsonlog import JsonlLog

__all__ = [
    "TRACE_MODES",
    "TraceWriter",
    "build_trace",
    "default_trace_path",
    "l2_distance",
    "load_trace",
    "trace_depth_histogram",
    "trace_layer_matrix",
    "trace_deviation_by_depth",
]

#: Trial-selection policies: ``off`` (no traces), ``sample`` (trial
#: indices divisible by ``trace_every``), ``all`` (every trial).
TRACE_MODES = ("off", "sample", "all")

TRACE_VERSION = 2
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


def _l2(mask: np.ndarray, diff: np.ndarray) -> float:
    """Euclidean norm of the differences ``diff`` at ``mask``'s elements.

    The sum runs over the whole array, clean elements adding exactly 0,
    so its rounding is that of the whole-array difference.  A non-finite
    difference counts as 10x the largest finite one, and at least 10;
    every difference is clipped to +-1e150 before squaring, so one inf
    or NaN gives a large but finite distance.
    """
    bad = ~np.isfinite(diff)
    if bad.any():
        finite_mag = min(float(np.abs(diff[~bad]).max(initial=0.0)), 1e149)
        diff = np.where(bad, max(finite_mag, 1.0) * 10.0, diff)
    full = np.zeros(mask.shape)
    full[mask] = np.clip(diff, -1e150, 1e150)
    return float(np.sqrt(np.square(full, out=full).sum()))


def l2_distance(faulty: np.ndarray, golden: np.ndarray) -> float:
    """Euclidean distance between an activation and its golden twin.

    Elements whose bits agree add 0; the non-finite rule is
    :func:`_l2`'s.  Trace rows record it per layer as ``l2_dev``.
    """
    return _delta_stats(faulty, golden)["l2_dev"]


def _delta_stats(faulty: np.ndarray, golden: np.ndarray) -> dict:
    """Corruption statistics of one activation vs its golden twin.

    ``dirty_rows`` is the half-open row span ``[lo, hi)`` along the
    feature-map row axis (axis ``-2``) touched by the corruption — the
    same geometry the delta engine's row spans use — and None for
    activations without a row axis (FC/softmax vectors).  Deviations are
    computed over corrupted elements only; non-finite faulty values
    propagate into them as ``nan``/``inf`` (serialized to strings by
    ``to_jsonable``), which is itself a deterministic fact; ``l2_dev``
    follows :func:`_l2`'s non-finite rule instead.
    """
    mask = _bit_diff_mask(faulty, golden)
    corrupted = int(np.count_nonzero(mask))
    stats: dict = {
        "corrupted": corrupted,
        "dirty_rows": None,
        "max_abs_dev": 0.0,
        "mean_abs_dev": 0.0,
        "max_rel_dev": 0.0,
        "l2_dev": 0.0,
    }
    if not corrupted:
        return stats
    f = np.asarray(faulty, dtype=np.float64)[mask]
    g = np.asarray(golden, dtype=np.float64)[mask]
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan are recorded facts
        diff = f - g
        stats["l2_dev"] = _l2(mask, diff)
        dev = np.abs(diff)
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
    """Logs trace rows to the trace file as they arrive.

    The checkpoint writer's twin, on the same
    :class:`~repro.obs.jsonlog.JsonlLog`: rows are keyed by trial index
    (a re-run after a resume re-adds identical bytes, a no-op), the first
    :meth:`flush` publishes a snapshot, later flushes append the new rows,
    and :meth:`close` publishes the rows in index order.  The header
    carries no path or wall-clock, so two runs of the same spec produce
    byte-identical files — the ``OBL-TRACE-PARITY`` gate compares them
    with ``read_bytes``.
    """

    def __init__(self, path: str | Path, fingerprint: str, mode: str, every: int):
        self.fingerprint = fingerprint
        self._log = JsonlLog(path, {
            "format": _FORMAT,
            "version": TRACE_VERSION,
            "fingerprint": fingerprint,
            "trace": {"mode": mode, "every": int(every)},
        })
        self.path = self._log.path

    def __len__(self) -> int:
        return len(self._log)

    def add_row(self, row: dict) -> None:
        self._log.add(int(row["index"]), row)

    def preload(self, rows: dict[int, dict]) -> None:
        """Carry a resumed run's prior trace rows into later snapshots."""
        for row in rows.values():
            self.add_row(row)

    def flush(self) -> Path:
        """Write every added row to the file (snapshot once, then append)."""
        return self._log.flush()

    def close(self) -> Path:
        """Publish the canonical index-sorted trace file."""
        return self._log.close()


def load_trace(path: str | Path) -> tuple[dict | None, dict[int, dict]]:
    """Load ``(header, rows_by_index)`` from a trace file.

    Tolerant the same way checkpoint loading is: a torn tail line (a
    kill mid-append, or a file copied mid-write) is skipped rather than
    fatal, the last row for an index wins, and a missing file loads as
    an empty trace.  Rows come back in index order.  Returns a None
    header when the file does not start with a recognizable trace
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
    return header, dict(sorted(rows.items()))


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
