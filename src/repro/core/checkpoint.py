"""Campaign checkpoint/resume: an append-only JSONL log of completed trials.

At the paper's scale (~3M injections, Section 4) a campaign can run for
hours; losing every completed trial to one machine fault is not
acceptable.  :func:`repro.core.campaign.run_campaign` periodically hands
its completed :class:`~repro.core.campaign.TrialRecord` /
:class:`~repro.core.campaign.TrialError` batches to a
:class:`CheckpointWriter`, and on restart resumes from exactly the trial
indices that are missing.  Resume is *bit-identical* to an uninterrupted
run regardless of parallelism because every trial draws from its own
``child_rng(seed, trial_index)`` stream — a trial's outcome depends only
on its index, never on which worker ran it or when.

File format (version 1) — JSON Lines:

- line 1: header ``{"format": "repro-campaign-checkpoint", "version": 1,
  "fingerprint": ..., "spec": {...}}``
- one line per completed trial: ``{"index": i, "record": {...}}`` for a
  classified trial, ``{"index": i, "error": {...}}`` for a quarantined
  one, or ``{"index": i, "skip": {...}}`` for a trial whose propagation
  statistical early stopping elided (the skip carries the sampled fault
  coordinates, so a resumed run replays the same decisions
  bit-identically instead of re-deriving — or worse, re-running — them).

The file is an append-only :class:`repro.obs.jsonlog.JsonlLog`: one
atomic snapshot, then appends of the trials completed since (O(new
trials) per flush), then the canonical index-sorted snapshot on
:meth:`CheckpointWriter.close` — so a completed checkpoint is
byte-identical for every ``jobs`` value.  After a SIGKILL,
:func:`load_checkpoint` skips a torn last line and lets the last line
for an index win; the lost trials simply re-run.  The ``fingerprint``
keys the checkpoint to its :class:`~repro.core.campaign.CampaignSpec`:
resuming under a spec with any differing field is refused rather than
silently mixing trials from two different fault models.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

from repro.core.campaign import CampaignSpec, TrialError, TrialRecord, TrialSkip
from repro.core.outcome import Outcome
from repro.core.serialize import from_jsonable, to_jsonable
from repro.obs.jsonlog import JsonlLog, atomic_write_text

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointMismatchError",
    "CheckpointState",
    "CheckpointWriter",
    "atomic_write_text",
    "campaign_fingerprint",
    "decode_record",
    "encode_record",
    "load_checkpoint",
]


CHECKPOINT_VERSION = 1
_FORMAT = "repro-campaign-checkpoint"


class CheckpointMismatchError(RuntimeError):
    """The checkpoint on disk belongs to a different campaign spec."""


def campaign_fingerprint(spec: CampaignSpec) -> str:
    """Stable hash of every spec field that shapes trial outcomes.

    Any change to the spec — network, dtype, seed, trial count, fault
    model knobs — changes the fingerprint, so a checkpoint can never be
    resumed into a campaign it does not describe.
    """
    payload = json.dumps(to_jsonable(spec), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def encode_record(record: TrialRecord) -> dict:
    """Serialize one trial record to JSON-safe types."""
    return to_jsonable(dataclasses.asdict(record))


def decode_record(data: dict) -> TrialRecord:
    """Rebuild a :class:`TrialRecord` from its :func:`encode_record` form.

    Uses :func:`repro.core.serialize.from_jsonable` so non-finite
    corrupted values (``inf``/``nan`` after an exponent-bit flip) reload
    as floats, not strings.
    """
    plain = from_jsonable(data)
    assert isinstance(plain, dict)
    outcome = Outcome(**{
        f.name: plain["outcome"][f.name] for f in dataclasses.fields(Outcome)
    })
    kwargs = {
        f.name: plain[f.name]
        for f in dataclasses.fields(TrialRecord)
        if f.name != "outcome" and f.name in plain
    }
    return TrialRecord(outcome=outcome, **kwargs)


def _decode_error(data: dict) -> TrialError:
    plain = from_jsonable(data)
    assert isinstance(plain, dict)
    return TrialError(**{
        f.name: plain[f.name] for f in dataclasses.fields(TrialError) if f.name in plain
    })


def _decode_skip(data: dict) -> TrialSkip:
    plain = from_jsonable(data)
    assert isinstance(plain, dict)
    return TrialSkip(**{
        f.name: plain[f.name] for f in dataclasses.fields(TrialSkip) if f.name in plain
    })


@dataclasses.dataclass(frozen=True)
class CheckpointState:
    """Completed work recovered from a checkpoint file."""

    fingerprint: str | None
    records: dict[int, TrialRecord]
    errors: dict[int, TrialError]
    skips: dict[int, TrialSkip] = dataclasses.field(default_factory=dict)

    @property
    def n_completed(self) -> int:
        return len(self.records) + len(self.errors) + len(self.skips)


def load_checkpoint(path: str | Path, spec: CampaignSpec | None = None) -> CheckpointState | None:
    """Read a checkpoint; None when ``path`` does not exist.

    Args:
        path: Checkpoint JSONL file.
        spec: When given, the file's fingerprint must match the spec's
            (raises :class:`CheckpointMismatchError` otherwise).

    Undecodable lines are skipped rather than fatal — a checkpoint can
    only lose trials to corruption, never abort the campaign (skipped
    trials simply re-run).  When an index has several lines (an
    append-only log holds a re-run trial's old and new line until the
    writer closes), the last one wins, whatever its kind.  The returned
    dicts are in index order.
    """
    path = Path(path)
    if not path.exists():
        return None
    fingerprint: str | None = None
    latest: dict[int, TrialRecord | TrialError | TrialSkip] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
            if not isinstance(data, dict):
                continue
            if data.get("format") == _FORMAT:
                fingerprint = data.get("fingerprint")
                continue
            index = int(data["index"])
            if "record" in data:
                latest[index] = decode_record(data["record"])
            elif "error" in data:
                latest[index] = _decode_error(data["error"])
            elif "skip" in data:
                latest[index] = _decode_skip(data["skip"])
        except (KeyError, TypeError, ValueError):
            continue
    if spec is not None:
        expected = campaign_fingerprint(spec)
        if fingerprint != expected:
            raise CheckpointMismatchError(
                f"checkpoint {path} was written for fingerprint {fingerprint!r}, "
                f"but the requested campaign has {expected!r}; delete the file or "
                "point --checkpoint elsewhere to start fresh"
            )
    ordered = sorted(latest.items())
    return CheckpointState(
        fingerprint=fingerprint,
        records={i: v for i, v in ordered if isinstance(v, TrialRecord)},
        errors={i: v for i, v in ordered if isinstance(v, TrialError)},
        skips={i: v for i, v in ordered if isinstance(v, TrialSkip)},
    )


class CheckpointWriter:
    """Logs completed trials to the checkpoint as they complete.

    The first :meth:`flush` publishes an atomic snapshot that replaces
    whatever file was at the path; later flushes append only the trials
    added since; :meth:`close` publishes the canonical index-sorted
    file.  See :mod:`repro.obs.jsonlog`.
    """

    def __init__(self, path: str | Path, spec: CampaignSpec):
        self.fingerprint = campaign_fingerprint(spec)
        self._log = JsonlLog(path, {
            "format": _FORMAT,
            "version": CHECKPOINT_VERSION,
            "fingerprint": self.fingerprint,
            "spec": to_jsonable(spec),
        })
        self.path = self._log.path

    def __len__(self) -> int:
        return len(self._log)

    def preload(self, state: CheckpointState) -> None:
        """Carry a resumed run's prior trials into subsequent snapshots."""
        for index, record in state.records.items():
            self.add_record(index, record)
        for index, error in state.errors.items():
            self.add_error(index, error)
        for index, skip in state.skips.items():
            self.add_skip(index, skip)

    def add_record(self, index: int, record: TrialRecord) -> None:
        self._log.add(index, {"index": index, "record": encode_record(record)})

    def add_error(self, index: int, error: TrialError) -> None:
        self._log.add(index, {"index": index, "error": to_jsonable(dataclasses.asdict(error))})

    def add_skip(self, index: int, skip: TrialSkip) -> None:
        self._log.add(index, {"index": index, "skip": to_jsonable(dataclasses.asdict(skip))})

    def flush(self) -> Path:
        """Write every added trial to the file (snapshot once, then append)."""
        return self._log.flush()

    def close(self) -> Path:
        """Publish the canonical index-sorted checkpoint."""
        return self._log.close()
