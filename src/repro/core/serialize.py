"""Result serialization: campaigns and experiment outputs to JSON.

Fault-injection campaigns are expensive; persisting their summaries lets
downstream analysis (plotting, regression tracking, cross-machine
comparison) run without re-injecting.  ``to_jsonable`` sanitizes the
numpy/dataclass-laden experiment result dictionaries that
``repro.experiments.*.run`` produce.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from repro.core.campaign import CampaignResult
from repro.core.outcome import SDC_CLASSES

__all__ = ["to_jsonable", "from_jsonable", "campaign_summary", "save_json", "load_json"]

#: String spellings ``to_jsonable`` uses for the floats JSON cannot hold.
_NONFINITE = {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf")}


def to_jsonable(obj: object) -> object:
    """Recursively convert an experiment result into JSON-safe types.

    Handles numpy scalars/arrays, dataclasses, tuples (including
    tuple-keyed dicts, which become ``"a|b"`` string keys), and the
    non-finite floats JSON cannot express (mapped to strings).
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if np.isnan(obj):
            return "nan"
        if np.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return to_jsonable(float(obj))
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        # One walk over the fields: the same output as converting
        # ``dataclasses.asdict(obj)``, without its deep copy.
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            if isinstance(k, tuple):
                k = "|".join(str(p) for p in k)
            out[str(k)] = to_jsonable(v)
        return out
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [to_jsonable(v) for v in obj]
    return str(obj)


def from_jsonable(obj: object) -> object:
    """Undo ``to_jsonable``'s lossy float encoding after a JSON round-trip.

    ``to_jsonable`` spells the non-finite floats as the strings ``"nan"``
    / ``"inf"`` / ``"-inf"`` (JSON has no literal for them); this inverse
    restores them recursively through dicts and lists.  Checkpoint/resume
    loading depends on it: a trial whose corrupted value overflowed to
    ``inf`` must reload as ``inf``, not as the string.  By the same token
    a *legitimate* string ``"nan"`` cannot survive the round-trip — do
    not use those spellings as data in serialized records.
    """
    if isinstance(obj, str):
        return _NONFINITE.get(obj, obj)
    if isinstance(obj, list):
        return [from_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {k: from_jsonable(v) for k, v in obj.items()}
    return obj


def campaign_summary(result: CampaignResult) -> dict:
    """Compact JSON-ready summary of a campaign (no per-trial records)."""
    summary = {
        "spec": to_jsonable(result.spec),
        "n_trials": result.n_trials,
        "masked_fraction": result.masked_fraction,
        "sdc": {},
        "by_bit": {},
        "by_block": {},
        "by_site": {},
    }
    for cls in SDC_CLASSES:
        rate = result.sdc_rate(cls)
        summary["sdc"][cls] = {
            "p": rate.p,
            "ci95": rate.ci95_halfwidth,
            "successes": rate.successes,
            "n": rate.n,
        }
    summary["by_bit"] = {str(b): r.p for b, r in result.rate_by_bit().items()}
    summary["by_block"] = {str(b): r.p for b, r in result.rate_by_block().items()}
    summary["by_site"] = {s: r.p for s, r in result.rate_by_site().items()}
    by_reason: dict[str, int] = {}
    for err in result.errors:
        by_reason[err.reason] = by_reason.get(err.reason, 0) + 1
    summary["errors"] = {"n": len(result.errors), "by_reason": by_reason}
    if result.spec.trace_mode != "off":
        # Deterministic: the traced subset is a pure function of the
        # spec and trial indices, so it participates in parity diffs.
        summary["trace"] = {
            "mode": result.spec.trace_mode,
            "every": result.spec.trace_every,
            "rows": len(result.traces),
        }
    if result.spec.target_halfwidth is not None:
        # Deterministic (skip decisions are a pure function of the spec
        # and the trial prefix), so it participates in parity diffs.
        summary["early_stop"] = {
            "n_skips": len(result.skips),
            "stopped_at": result.stopped_at,
            "sampled": result.n_trials,
        }
    summary["execution"] = to_jsonable(result.stats)
    # Deterministic metric sections only: the summary must compare equal
    # across serial / parallel / resumed runs (the CI smoke test diffs
    # summaries after popping "execution"), so the wall-clock "timing"
    # section stays out — it lives in the run log's manifest line instead.
    metrics = {k: v for k, v in (result.metrics or {}).items() if k != "timing"}
    if any(metrics.values()):
        summary["metrics"] = to_jsonable(metrics)
    quality = result.detection_quality()
    if quality.total_injected:
        summary["detection"] = {
            "precision": quality.precision,
            "recall": quality.recall,
            "total_sdc": quality.total_sdc,
        }
    return summary


def save_json(obj: object, path: str | Path) -> Path:
    """Serialize ``obj`` (sanitized) to ``path`` and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(to_jsonable(obj), indent=2, sort_keys=True))
    return path


def load_json(path: str | Path) -> object:
    """Load a previously saved JSON artifact."""
    return json.loads(Path(path).read_text())
