"""Fault-injection campaign runner.

A campaign is N independent trials of: sample a fault site, inject it
into one inference, classify the outcome (section 4.6), optionally
evaluate the symptom detector on the faulty run.  Trials are seeded
individually (reproducible regardless of parallelism) and can fan out
over a process pool.

The aggregation API mirrors the paper's figures: SDC probability overall
(Figure 3), by bit position (Figure 4), by layer position (Figure 6), by
latch class or buffer component, with 95% confidence intervals
throughout.  SDC probabilities are over all injections: every sampled
fault corrupts a live value, so every trial is "activated" in the
paper's sense, and masked trials count as non-SDC outcomes.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from repro.core import sharedgolden
from repro.core.detectors import SymptomDetector, learn_detector
from repro.core.fault import (
    DATAPATH_LATCHES,
    DatapathFault,
    sample_buffer_fault,
    sample_datapath_fault,
)
from repro.core.injector import (
    InjectionResult,
    finish_injection,
    prepare_buffer,
    prepare_datapath,
    replay_datapath,
)
from repro.core.outcome import SDC_CLASSES, Outcome, classify_outcome
from repro.core.stats import RateEstimate, wilson_halfwidth
from repro.dtypes.registry import get_dtype
from repro.obs.events import EventRecorder
from repro.obs.metrics import (
    MetricsRegistry,
    empty_snapshot,
    merge_snapshots,
    merge_timing,
)
from repro.obs.spans import enable_spans, span, timing_snapshot
from repro.obs.tracer import (
    TRACE_MODES,
    TRACE_VERSION,
    TraceWriter,
    build_trace,
    default_trace_path,
    load_trace,
)
from repro.utils.parallel import TrialFailure, blas_threads, effective_jobs, exc_summary, map_trials
from repro.utils.rng import child_rng
from repro.zoo.registry import eval_inputs, get_network

__all__ = [
    "CampaignSpec",
    "TrialRecord",
    "TrialError",
    "TrialSkip",
    "ExecutionStats",
    "CampaignAbortedError",
    "CampaignResult",
    "RunOptions",
    "record_trial_metrics",
    "record_skip_metrics",
    "stratum_key",
    "propagation_order",
    "run_campaign",
]

#: Campaign targets: the datapath, or one buffer reuse scope.
TARGETS = ("datapath", "layer_weight", "row_activation", "next_layer", "single_read")

#: Early-stopping stratum keys (see ``CampaignSpec.stop_stratify``).
STOP_STRATIFIERS = ("overall", "site", "block", "bit")


@dataclass(frozen=True)
class CampaignSpec:
    """Configuration of one fault-injection campaign.

    Attributes:
        network: Zoo network name.
        dtype: Data-type name (Table 3).
        target: ``"datapath"`` or a buffer scope (Table 8 components map
            to scopes via :mod:`repro.accel.buffers`).
        n_trials: Number of injections.
        scale: Network scale profile (``"reduced"`` / ``"full"``).
        n_inputs: Distinct golden inputs rotated across trials.
        seed: Root seed; every trial derives its own stream.
        latch: Pin the datapath latch class (None = uniform).
        bit: Pin the flipped bit position (None = uniform); it must lie
            in the faulted word (``storage_dtype`` for a buffer target).
        burst: Adjacent bits flipped per fault (1 = the paper's
            single-event-upset model; >1 models multi-cell upsets).
        layer_index: Pin the victim MAC layer (None = MAC-weighted);
            datapath targets only.
        with_detection: Evaluate the symptom detector on each trial.
        sed_cushion: Detector range cushion (paper: 0.10).
        sed_learn_inputs: Fault-free inputs used by the SED learning
            phase; enough to cover the eval distribution (golden runs
            must not trip the detector).
        detector_kind: ``"sed"`` (symptom-based, the paper's proposal) or
            ``"dmr"`` (bit-wise duplicate-and-compare baseline, which
            flags *every* activated fault — the paper's section-5.1.4
            argument for why DMR over-detects).
        record_propagation: Track whether the corruption survives to the
            network's final ACT fmap (Table 5's bit-wise SDC).
        storage_dtype: Optional reduced-precision buffer storage format
            (the Proteus protocol of section 6.1): fmaps/weights at rest
            hold the narrow representation, the datapath computes in
            ``dtype``, and buffer flips land in the narrow word.
        occupancy_weighted: Draw buffer-fault victim layers from the
            row-stationary schedule's bit-cycle exposures (strike uniform
            in space and time) instead of static data sizes.
        target_halfwidth: When set, stop sampling a stratum once the
            Wilson 95% half-width of its ``stop_sdc_class`` rate drops to
            this value (statistical early stopping; None = run every
            trial).  Part of the campaign identity: the set of executed
            trials depends on it.
        stop_stratify: Stratum key for early stopping: ``"overall"``
            (one global estimate), ``"site"`` (per latch class / buffer
            scope), ``"block"`` (per paper-level layer position) or
            ``"bit"`` (per flipped bit position).
        stop_check_every: Trial-index boundary between stop-decision
            evaluations.  Decisions look only at trials *before* the
            boundary — all resolved by then — so they are a pure function
            of the spec, never of ``jobs``/``batch``/``chunk``, arrival
            order or wall-clock.  In the spec (unlike ``chunk``) exactly
            because it shapes which trials run.
        stop_sdc_class: SDC class whose confidence interval early
            stopping drives (default ``"sdc1"``, the paper's headline
            rate).
        trace_mode: Propagation-trace selection policy: ``"off"`` (no
            traces), ``"sample"`` (trials whose index is divisible by
            ``trace_every``) or ``"all"``.  Selection is by trial index
            — a pure function of the spec — so the traced subset is
            part of the campaign identity (it changes the fingerprint),
            never of ``jobs``/``batch``/arrival order.
        trace_every: Sampling stride for ``trace_mode="sample"``.
    """

    network: str
    dtype: str
    target: str = "datapath"
    n_trials: int = 300
    scale: str = "reduced"
    n_inputs: int = 3
    seed: int = 0
    latch: str | None = None
    bit: int | None = None
    burst: int = 1
    layer_index: int | None = None
    with_detection: bool = False
    sed_cushion: float = 0.10
    sed_learn_inputs: int = 16
    detector_kind: str = "sed"
    record_propagation: bool = False
    storage_dtype: str | None = None
    occupancy_weighted: bool = False
    target_halfwidth: float | None = None
    stop_stratify: str = "overall"
    stop_check_every: int = 64
    stop_sdc_class: str = "sdc1"
    trace_mode: str = "off"
    trace_every: int = 16

    def trace_selected(self, index: int) -> bool:
        """Whether trial ``index`` is in the traced subset.

        Pure function of the spec and the index (the same discipline as
        ``child_rng`` seeding), so serial, parallel, batched and
        resumed executions trace exactly the same trials.
        """
        if self.trace_mode == "all":
            return True
        if self.trace_mode == "sample":
            return index % self.trace_every == 0
        return False

    def __post_init__(self) -> None:
        if self.target not in TARGETS:
            raise ValueError(f"target must be one of {TARGETS}, got {self.target!r}")
        if self.n_trials < 0 or self.n_inputs < 1:
            raise ValueError("n_trials must be >= 0 and n_inputs >= 1")
        if self.latch is not None and self.latch not in DATAPATH_LATCHES:
            raise ValueError(f"unknown latch {self.latch!r}")
        if self.detector_kind not in ("sed", "dmr"):
            raise ValueError(f"unknown detector kind {self.detector_kind!r}")
        if self.burst < 1:
            raise ValueError("burst must be >= 1")
        if self.target_halfwidth is not None and not 0.0 < self.target_halfwidth < 0.5:
            raise ValueError(
                f"target_halfwidth must be in (0, 0.5), got {self.target_halfwidth}"
            )
        if self.stop_stratify not in STOP_STRATIFIERS:
            raise ValueError(
                f"stop_stratify must be one of {STOP_STRATIFIERS}, got {self.stop_stratify!r}"
            )
        if self.stop_check_every < 1:
            raise ValueError("stop_check_every must be >= 1")
        if self.stop_sdc_class not in SDC_CLASSES:
            raise ValueError(f"unknown SDC class {self.stop_sdc_class!r}")
        if self.trace_mode not in TRACE_MODES:
            raise ValueError(
                f"trace_mode must be one of {TRACE_MODES}, got {self.trace_mode!r}"
            )
        if self.trace_every < 1:
            raise ValueError("trace_every must be >= 1")
        if self.bit is not None:
            # Buffer flips land in the storage word (Proteus-aware).
            word = (self.target != "datapath" and self.storage_dtype) or self.dtype
            width = get_dtype(word).width
            if not 0 <= self.bit < width:
                raise ValueError(f"bit must be in [0, {width}) for {word}, got {self.bit}")
        if self.layer_index is not None:
            if self.target != "datapath":
                raise ValueError(f"layer_index pins a datapath fault, not a {self.target} one")
            mac_layers = get_network(self.network, self.scale).mac_layer_indices()
            if self.layer_index not in mac_layers:
                raise ValueError(
                    f"layer_index must be a MAC layer of {self.network} {mac_layers}, "
                    f"got {self.layer_index}"
                )


@dataclass(frozen=True)
class TrialRecord:
    """One injection trial's fault coordinates and outcome."""

    outcome: Outcome
    bit: int
    site: str  # latch class (datapath) or buffer scope
    block: int  # paper-level layer position of the victim
    value_before: float
    value_after: float
    detected: bool | None = None
    reached_output: bool | None = None


@dataclass(frozen=True)
class TrialError:
    """A quarantined trial: the harness survived, the trial did not.

    Attributes:
        index: Trial index that failed.
        reason: ``"error"`` (the trial raised), ``"crash"`` (its worker
            process died), or ``"timeout"`` (it exceeded the per-chunk
            deadline).
        exc_type: Exception class name, when one was caught.
        message: Exception message / compact traceback tail.
        site: Fault site sampled before the failure, when known.
        attempts: Executions attempted before quarantine.
    """

    index: int
    reason: str
    exc_type: str | None = None
    message: str = ""
    site: str | None = None
    attempts: int = 1


@dataclass(frozen=True)
class TrialSkip:
    """A trial whose propagation early stopping elided.

    The fault *was* sampled (its RNG stream, site, block and bit are the
    same as in a full run — that is what keeps skip decisions a pure
    function of the trial index), but its stratum had already met
    ``CampaignSpec.target_halfwidth``, so the expensive corruption build
    and propagation never ran.  Skips are checkpointed so a resumed run
    replays the same decisions bit-identically, and they are excluded
    from every rate aggregation (they have no outcome).
    """

    index: int
    site: str
    block: int
    bit: int


def stratum_key(stratify: str, site: str, block: int, bit: int) -> str:
    """The early-stopping stratum a fault belongs to.

    A plain string so the closed-strata set pickles compactly into
    worker control messages and checkpoint replay stays text-stable.
    """
    if stratify == "site":
        return str(site)
    if stratify == "block":
        return str(block)
    if stratify == "bit":
        return str(bit)
    return "overall"


def record_skip_metrics(metrics: MetricsRegistry, spec: CampaignSpec, skip: TrialSkip) -> None:
    """Fold one elided trial into the samples-saved counters.

    Same discipline as :func:`record_trial_metrics`: integer counters
    only, incremented identically by workers (live skips) and by the
    parent's checkpoint replay (resumed skips), so totals stay
    byte-identical across serial / parallel / resume.
    """
    metrics.inc("early_stop/skipped")
    metrics.inc(
        "early_stop/skipped/"
        + stratum_key(spec.stop_stratify, skip.site, skip.block, skip.bit)
    )


@dataclass(frozen=True)
class ExecutionStats:
    """Supervision counters for one :func:`run_campaign` invocation."""

    resumed: int = 0
    retries: int = 0
    rebuilds: int = 0
    timeouts: int = 0
    bisections: int = 0
    quarantined: int = 0
    degraded: bool = False

    def merge(self, other: "ExecutionStats") -> "ExecutionStats":
        """Field-wise combination (for pooled multi-campaign results)."""
        return ExecutionStats(
            resumed=self.resumed + other.resumed,
            retries=self.retries + other.retries,
            rebuilds=self.rebuilds + other.rebuilds,
            timeouts=self.timeouts + other.timeouts,
            bisections=self.bisections + other.bisections,
            quarantined=self.quarantined + other.quarantined,
            degraded=self.degraded or other.degraded,
        )


class CampaignAbortedError(RuntimeError):
    """Raised when quarantined trials exceed the error-fraction budget.

    Completed trials are flushed to the checkpoint (when one is
    configured) before raising, so an aborted campaign loses no work.
    """

    def __init__(self, message: str, n_errors: int, n_completed: int,
                 checkpoint: Path | None = None):
        super().__init__(message)
        self.n_errors = n_errors
        self.n_completed = n_completed
        self.checkpoint = checkpoint


@dataclass
class CampaignResult:
    """Trial records plus the paper-style aggregations.

    ``records`` holds successfully classified trials only; trials the
    resilient runner had to quarantine appear in ``errors`` and are
    excluded from every aggregation (their outcomes are unknown, not
    non-SDC).  ``skips`` holds trials early stopping elided (their
    strata had met ``target_halfwidth``); they too are excluded from
    aggregations — an estimate's ``n`` is always the number of trials
    that actually propagated.  ``stopped_at`` is the trial-index
    boundary where sampling stopped globally (None = the campaign ran
    or skipped through all ``spec.n_trials`` indices).  ``stats``
    reports what the harness survived.  ``metrics`` is the merged
    observability snapshot (see :mod:`repro.obs.metrics`): its
    ``counters``/``histograms`` sections are deterministic — the same
    for any ``jobs`` value and across kill/resume — while anything
    wall-clock lives under its ``timing`` key.  ``traces`` maps trial
    index -> propagation-trace row for the traced subset (see
    :mod:`repro.obs.tracer`); trace rows obey the same determinism
    contract as ``records``.
    """

    spec: CampaignSpec
    records: list[TrialRecord] = field(default_factory=list)
    errors: list[TrialError] = field(default_factory=list)
    stats: ExecutionStats = field(default_factory=ExecutionStats)
    metrics: dict = field(default_factory=empty_snapshot)
    skips: list[TrialSkip] = field(default_factory=list)
    stopped_at: int | None = None
    traces: dict[int, dict] = field(default_factory=dict)

    # -- basic counts ----------------------------------------------------- #
    @property
    def n_trials(self) -> int:
        return len(self.records)

    @property
    def masked_fraction(self) -> float:
        """Fraction of injections fully masked before the output
        (the paper observes ~84% masked by POOL/ReLU, Table 5)."""
        if not self.records:
            return 0.0
        return sum(1 for r in self.records if r.outcome.masked) / len(self.records)

    # -- SDC rates ----------------------------------------------------------- #
    def sdc_rate(self, sdc_class: str = "sdc1", records: list[TrialRecord] | None = None) -> RateEstimate:
        """SDC probability over all injections, with 95% CI.

        Every sampled fault corrupts a live value (it is activated by
        construction), so the denominator is the full trial count;
        masked trials are non-SDC outcomes (see repro.core.outcome).
        """
        if sdc_class not in SDC_CLASSES:
            raise KeyError(f"unknown SDC class {sdc_class!r}")
        pool = records if records is not None else self.records
        flags = [r.outcome.flag(sdc_class) for r in pool]
        known = [f for f in flags if f is not None]
        return RateEstimate(successes=sum(known), n=len(known))

    def sdc_rates(self) -> dict[str, RateEstimate]:
        """All four SDC-class rates (Figure 3 bars for one config)."""
        return {c: self.sdc_rate(c) for c in SDC_CLASSES}

    def rate_by_bit(self, sdc_class: str = "sdc1") -> dict[int, RateEstimate]:
        """SDC probability per flipped bit position (Figure 4)."""
        bits = sorted({r.bit for r in self.records})
        return {
            b: self.sdc_rate(sdc_class, [r for r in self.records if r.bit == b])
            for b in bits
        }

    def rate_by_block(self, sdc_class: str = "sdc1") -> dict[int, RateEstimate]:
        """SDC probability per paper-level layer position (Figure 6)."""
        blocks = sorted({r.block for r in self.records})
        return {
            blk: self.sdc_rate(sdc_class, [r for r in self.records if r.block == blk])
            for blk in blocks
        }

    def rate_by_site(self, sdc_class: str = "sdc1") -> dict[str, RateEstimate]:
        """SDC probability per latch class / buffer scope."""
        sites = sorted({r.site for r in self.records})
        return {
            s: self.sdc_rate(sdc_class, [r for r in self.records if r.site == s])
            for s in sites
        }

    def propagation_rate(self, records: list[TrialRecord] | None = None) -> RateEstimate:
        """Fraction of injected faults whose corruption survives to the
        final fmap (Table 5's bit-wise SDC)."""
        pool = records if records is not None else self.records
        flags = [r.reached_output for r in pool if r.reached_output is not None]
        return RateEstimate(successes=sum(flags), n=len(flags))

    def propagation_by_block(self) -> dict[int, RateEstimate]:
        """Per-layer propagation rate (Table 5 columns)."""
        blocks = sorted({r.block for r in self.records})
        return {
            blk: self.propagation_rate([r for r in self.records if r.block == blk])
            for blk in blocks
        }

    # -- detector quality ----------------------------------------------------- #
    def detection_quality(self, sdc_class: str = "sdc1"):
        """Precision/recall of the symptom detector (Figure 8)."""
        from repro.core.detectors import DetectorQuality

        scored = [r for r in self.records if r.detected is not None]
        tp = sum(1 for r in scored if r.detected and r.outcome.flag(sdc_class))
        fp = sum(1 for r in scored if r.detected and not r.outcome.flag(sdc_class))
        total_sdc = sum(1 for r in scored if r.outcome.flag(sdc_class))
        return DetectorQuality(
            true_positives=tp,
            false_positives=fp,
            total_sdc=total_sdc,
            total_injected=len(scored),
        )

    def merge(self, other: "CampaignResult") -> "CampaignResult":
        """Pool trials of two campaigns (for multi-config aggregates)."""
        return CampaignResult(
            spec=self.spec,
            records=self.records + other.records,
            errors=self.errors + other.errors,
            stats=self.stats.merge(other.stats),
            metrics=merge_snapshots(self.metrics, other.metrics),
            skips=self.skips + other.skips,
            stopped_at=self.stopped_at if self.stopped_at is not None else other.stopped_at,
            traces={**self.traces, **other.traces},
        )


def record_trial_metrics(metrics: MetricsRegistry, record: TrialRecord) -> None:
    """Fold one classified trial into the deterministic metric counters.

    Touches integer counters and a fixed-bucket histogram only, so a
    parent merging per-worker delta snapshots in any completion order —
    or replaying checkpointed records after a resume — reaches totals
    byte-identical to a serial run (see ``docs/observability.md``).
    """
    metrics.inc("trials")
    outcome = record.outcome
    if outcome.masked:
        metrics.inc("outcome/masked")
    for cls in SDC_CLASSES:
        if outcome.flag(cls):
            metrics.inc(f"outcome/{cls}")
    metrics.inc(f"site/{record.site}")
    metrics.inc(f"block/{record.block}")
    metrics.inc(f"bit/{record.bit}")
    if record.detected is not None:
        metrics.inc("detected/true" if record.detected else "detected/false")
    if record.reached_output:
        metrics.inc("reached_output")
    value = float(record.value_after)
    if np.isfinite(value):
        metrics.observe("abs_value_after", abs(value))
    else:
        metrics.inc("value_after/nonfinite")


def _maybe_test_fault(trial: int) -> None:
    """Meta fault injection: fail the *harness* on purpose (tests/CI only).

    A fault-injection framework must be able to inject faults into
    itself; the resilience tests and the CI kill/resume smoke drive this
    hook.  ``REPRO_CAMPAIGN_FAULT`` holds ``kind:selector[:arg]``:

    - ``crash:7`` — the worker running trial 7 calls ``os._exit``;
    - ``hang:7[:secs]`` — trial 7 sleeps (default 3600 s);
    - ``raise:7`` — trial 7 raises ``RuntimeError``;
    - ``slow:*[:secs]`` — every trial sleeps (default 0.05 s), stretching
      the campaign so a kill can land mid-flight.

    The selector is a trial index or ``*``.  Unset (the normal case),
    the hook is a no-op.
    """
    directive = os.environ.get("REPRO_CAMPAIGN_FAULT")
    if not directive:
        return
    kind, _, rest = directive.partition(":")
    selector, _, arg = rest.partition(":")
    if selector != "*" and (not selector or int(selector) != trial):
        return
    if kind == "crash":
        os._exit(41)
    elif kind == "hang":
        # Deliberate wedge so the supervisor's deadline machinery fires.
        time.sleep(float(arg) if arg else 3600.0)
    elif kind == "slow":
        time.sleep(float(arg) if arg else 0.05)
    elif kind == "raise":
        raise RuntimeError(f"injected test fault at trial {trial}")


def propagation_order(prep) -> tuple:
    """Sort key that cuts a slice's unmasked trials into propagation groups.

    Trials that resume at one layer share that layer's call, and
    confined trials share the delta layers with each other while
    unconfined ones (FC-stage, whole-layer weight) join the full tail
    together.  Per-trial results are independent of batch composition
    (the bit-exactness contract of ``forward_from_batch``), so the order
    is purely an efficiency choice.
    """
    return (prep.resume_index, prep.box is None, prep.box[:2] if prep.box else (0, 0))


class _CampaignTask:
    """Campaign task: builds the network/goldens once, then runs slices
    of trials through :meth:`run_many`.  A multi-worker campaign builds
    one in the parent, and forked pool workers inherit it (see
    :mod:`repro.core.sharedgolden`); a worker that inherits none builds
    its own, with the same golden bits.

    An exception inside a trial becomes a quarantined
    :class:`TrialError` value instead of poisoning the slice.  The task
    is also the per-worker observability surface: classified trials fold
    into a process-local :class:`MetricsRegistry`, and
    :meth:`collect_obs` takes a *delta* snapshot that travels back in the
    same message as the slice's results (see ``repro.utils.parallel``),
    so a crashed or timed-out chunk loses its metrics and its records
    together — retries can never double-count.  Quarantined trials
    increment nothing: the registry counts classified outcomes only,
    which is what keeps serial, parallel and resumed totals
    byte-identical.
    """

    def __init__(self, spec: CampaignSpec, *, spans: bool = False, batch: int = 1):
        if spans:
            # First, so golden_infer / learn_detector and the per-layer
            # forward spans inside them are captured.
            enable_spans()
        self.spec = spec
        self.last_site: str | None = None
        #: Maximum trials propagated per forward_from_batch call.
        self.group_size = max(1, int(batch))
        self.metrics = MetricsRegistry()
        #: Propagation-trace rows for trials in the traced subset; like
        #: the metric deltas, they ship back with the slice's results in
        #: :meth:`collect_obs`, so a crashed chunk loses its traces and
        #: its records together and retries never duplicate rows.
        self.traces: list[dict] = []
        #: Strata the early-stopping planner has closed.  Updated per
        #: round via :meth:`apply_control`; faults in a closed stratum
        #: skip corruption build + propagation.
        self._closed: frozenset[str] = frozenset()
        self.dtype = get_dtype(spec.dtype)
        self.storage_dtype = get_dtype(spec.storage_dtype) if spec.storage_dtype else None
        self.network = get_network(spec.network, spec.scale)
        self.network.prepare(self.dtype)
        inputs = eval_inputs(spec.network, spec.n_inputs, spec.scale, seed=100)
        with span("golden_infer"):
            self.goldens = [
                self.network.forward(
                    x, dtype=self.dtype, record=True, storage_dtype=self.storage_dtype
                )
                for x in inputs
            ]
        # Trials read patches over these arrays and masked trials return
        # them by reference, so a stray write through any of them would
        # corrupt every later trial on that input: make it raise, in this
        # process and in every worker that inherits the task.
        for golden in self.goldens:
            for arr in (golden.scores, *golden.activations):
                arr.setflags(write=False)
        self.detector: SymptomDetector | None = None
        if spec.with_detection and spec.detector_kind == "sed":
            learn_x = eval_inputs(spec.network, spec.sed_learn_inputs, spec.scale, seed=200)
            with span("learn_detector"):
                self.detector = learn_detector(
                    self.network, learn_x, dtype=self.dtype, cushion=spec.sed_cushion
                )
        #: Layer index -> block for detector checkpoints; the tracer
        #: derives the detector-firing layer from it (empty when no
        #: symptom detector is configured).
        self.detector_checkpoints: dict[int, int] = (
            self.detector.checkpoints(self.network) if self.detector is not None else {}
        )
        self.occupancy = None
        if spec.occupancy_weighted:
            from repro.accel.eyeriss import EYERISS_16NM
            from repro.accel.occupancy import build_occupancy

            self.occupancy = build_occupancy(self.network, EYERISS_16NM)
        self._final_act_layer = len(self.network.layers) - 1
        if self.network.layers[-1].kind == "softmax":
            self._final_act_layer -= 1

    def _reached(self, golden, injection) -> bool | None:
        if not injection.faulty_activations:
            return False if injection.masked else None
        # activations[j] = output of layer (resume_index + j - 1)
        j = self._final_act_layer - injection.resume_index + 1
        if j < 0 or j >= len(injection.faulty_activations):
            return None
        return not np.array_equal(
            injection.faulty_activations[j],
            golden.activations[self._final_act_layer + 1],
        )

    def sample_trial(self, trial: int):
        """Draw trial ``trial``'s fault without building its corruption.

        Consumes exactly the RNG stream a full run would (the fault's
        coordinates are a pure function of the trial index), so early
        stopping can decide from the returned ``meta`` whether the
        expensive :meth:`build_trial` + propagation is needed at all.
        Returns ``(fault, meta)``; ``meta`` carries everything
        :meth:`complete_trial` needs (golden, site, block, bit, record
        flag).
        """
        spec = self.spec
        self.last_site = None
        _maybe_test_fault(trial)
        rng = child_rng(spec.seed, trial)
        golden = self.goldens[trial % len(self.goldens)]
        # Traced trials need the per-layer activations recorded even
        # when detection/propagation tracking is off.  Recording never
        # changes the arithmetic, so forcing it per-trial keeps outcomes
        # bit-identical to an untraced run of the same spec.
        traced = spec.trace_selected(trial)
        record = spec.with_detection or spec.record_propagation or traced
        if spec.target == "datapath":
            fault = sample_datapath_fault(
                self.network,
                self.dtype,
                rng,
                latch=spec.latch,
                bit=spec.bit,
                layer_index=spec.layer_index,
                burst=spec.burst,
            )
            site = self.last_site = fault.latch
        else:
            # Buffer flips land in the storage word (Proteus-aware).
            fault_dtype = self.storage_dtype or self.dtype
            fault = sample_buffer_fault(
                self.network, spec.target, fault_dtype, rng, bit=spec.bit,
                burst=spec.burst, occupancy=self.occupancy,
            )
            site = self.last_site = fault.scope
            if spec.target == "single_read":
                # A PSum REG read is a psum latch read: the datapath
                # build, slice replay included, serves it.
                fault = fault.as_psum()
        meta = {
            "golden": golden,
            "site": site,
            "block": self.network.layers[fault.layer_index].block or 0,
            "bit": fault.bit,
            "record": record,
            "traced": traced,
        }
        return fault, meta

    def build_trial(self, fault, meta: dict, replayed: tuple[float, float] | None = None):
        """Build a sampled fault's corruption (no propagation yet).

        ``replayed`` is a datapath fault's ``(clean, faulty)`` chain pair
        from :meth:`_replay_slice`; without it the chain is replayed here.
        """
        if isinstance(fault, DatapathFault):
            return prepare_datapath(
                self.network, self.dtype, fault, meta["golden"], self.storage_dtype,
                replayed=replayed,
            )
        return prepare_buffer(
            self.network, self.dtype, fault, meta["golden"], self.storage_dtype
        )

    def complete_trial(self, meta: dict, injection: InjectionResult) -> TrialRecord:
        """Classify one propagated injection into a :class:`TrialRecord`."""
        spec = self.spec
        golden = meta["golden"]
        outcome = classify_outcome(
            golden, injection.scores, self.network.has_confidence, masked=injection.masked
        )
        detected: bool | None = None
        if spec.with_detection and spec.detector_kind == "dmr":
            # Bit-wise duplicate-and-compare flags any architecturally
            # visible mismatch, even those later masked by POOL/ReLU.
            detected = not injection.masked
        elif self.detector is not None:
            detected = (
                False
                if injection.masked
                else self.detector.scan(
                    self.network, injection.faulty_activations, injection.resume_index
                )
            )
        reached = self._reached(golden, injection) if spec.record_propagation else None
        return TrialRecord(
            outcome=outcome,
            bit=meta["bit"],
            site=meta["site"],
            block=meta["block"],
            value_before=injection.value_before,
            value_after=injection.value_after,
            detected=detected,
            reached_output=reached,
        )

    def apply_control(self, ctl: object) -> None:
        """Install the planner's per-round control message.

        Called by the parallel layer before a chunk runs (in the worker
        that executes it).  The message replaces — never augments — the
        previous round's state, so a worker that served round ``w`` and
        then round ``w+2`` holds exactly round ``w+2``'s closed set.
        """
        closed = () if not isinstance(ctl, dict) else ctl.get("closed", ())
        self._closed = frozenset(closed)

    def _maybe_skip(self, trial: int, meta: dict) -> TrialSkip | None:
        """Elide the trial when its stratum is closed (early stopping)."""
        if not self._closed:
            return None
        key = stratum_key(
            self.spec.stop_stratify, meta["site"], meta["block"], meta["bit"]
        )
        if key not in self._closed:
            return None
        skip = TrialSkip(
            index=trial, site=meta["site"], block=meta["block"], bit=meta["bit"]
        )
        record_skip_metrics(self.metrics, self.spec, skip)
        return skip

    def _quarantine(self, trial: int, exc: Exception, site: str | None) -> TrialError:
        return TrialError(
            index=trial,
            reason="error",
            exc_type=type(exc).__name__,
            message=exc_summary(exc),
            site=site,
        )

    def _complete(self, trial: int, meta: dict, injection: InjectionResult):
        """Classify and trace one propagated trial, or quarantine it.

        The record and the trace row are both built before either is
        kept: a trial whose classification or trace raises folds no
        metrics and stages no row, so it is counted nowhere but in the
        errors.
        """
        try:
            record = self.complete_trial(meta, injection)
            row = None
            if meta["traced"]:
                row = build_trace(
                    trial=trial,
                    meta=meta,
                    injection=injection,
                    record=record,
                    network=self.network,
                    detector=self.detector,
                    detector_checkpoints=self.detector_checkpoints,
                )
        except Exception as exc:
            return self._quarantine(trial, exc, meta["site"])
        record_trial_metrics(self.metrics, record)
        if row is not None:
            self.traces.append(row)
        return record

    def run_many(self, indices: list[int]) -> list:
        """Run a slice of trials; the only way a campaign trial executes.

        The whole slice is sampled first.  Its datapath chains are then
        replayed together, one :func:`replay_datapath` call per MAC
        layer; building (masking, narrowing, the patch), classification
        and the metric folds stay per-trial.  Masked preparations finish
        without propagation.  The rest are sorted by resume layer and
        cut into groups of at most ``group_size``, whatever their resume
        layers: ``forward_from_batch`` admits each trial at its own
        layer, so every group but the last is full.  Results are
        positionally aligned with ``indices`` and bit-identical for
        every slice and group size.
        """
        results: list = [None] * len(indices)
        sampled = []
        for pos, trial in enumerate(indices):
            try:
                with span("sample"):
                    fault, meta = self.sample_trial(trial)
                    skip = self._maybe_skip(trial, meta)
            except Exception as exc:
                results[pos] = self._quarantine(trial, exc, self.last_site)
                continue
            if skip is not None:
                results[pos] = skip
            else:
                sampled.append((pos, trial, fault, meta))
        replayed = self._replay_slice(sampled, results)
        unmasked = []
        for pos, trial, fault, meta in sampled:
            if results[pos] is not None:
                continue  # its chain replay failed on its own
            try:
                with span("trial"):
                    prep = self.build_trial(fault, meta, replayed.get(pos))
                    if prep.masked:
                        injection = finish_injection(
                            self.network, self.dtype, prep, meta["golden"],
                            record=meta["record"], storage_dtype=self.storage_dtype,
                        )
                        results[pos] = self._complete(trial, meta, injection)
                    else:
                        unmasked.append((pos, trial, prep, meta))
            except Exception as exc:
                results[pos] = self._quarantine(trial, exc, meta["site"])
        unmasked.sort(key=lambda it: propagation_order(it[2]))
        for start in range(0, len(unmasked), self.group_size):
            self._run_group(unmasked[start : start + self.group_size], results)
        return results

    def _replay_slice(self, sampled: list, results: list) -> dict[int, tuple[float, float]]:
        """Replay a slice's datapath chains, one call per MAC layer.

        Returns slice position -> ``(clean, faulty)``.  Datapath and
        PSum REG faults are replayed; other buffer faults build each
        trial on its own and get no entry.
        """
        layers: dict[int, list] = {}
        for item in sampled:
            if isinstance(item[2], DatapathFault):
                layers.setdefault(item[2].layer_index, []).append(item)
        replayed: dict[int, tuple[float, float]] = {}
        for items in layers.values():
            self._replay_layer(items, results, replayed)
        return replayed

    def _replay_layer(self, items: list, results: list, replayed: dict) -> None:
        try:
            with span("replay_datapath"):
                values = replay_datapath(
                    self.network, self.dtype, [fault for _, _, fault, _ in items],
                    [meta["golden"] for _, _, _, meta in items],
                )
        except Exception as exc:
            if len(items) == 1:
                pos, trial, _, meta = items[0]
                results[pos] = self._quarantine(trial, exc, meta["site"])
                return
            # As in _run_group: re-run the layer's trials one at a time,
            # so only a trial whose chain fails on its own is quarantined.
            for item in items:
                self._replay_layer([item], results, replayed)
            return
        replayed.update((pos, value) for (pos, _, _, _), value in zip(items, values))

    def _run_group(self, items: list, results: list) -> None:
        # Record when *any* trial in the group needs activations (trace
        # sampling makes the flag per-trial); recording never changes
        # the arithmetic, so batch-mates are unaffected.
        record = any(meta["record"] for _, _, _, meta in items)
        try:
            with span("propagate_batch"):
                batch = self.network.forward_from_batch(
                    [prep.resume_index for _, _, prep, _ in items],
                    [prep.patch for _, _, prep, _ in items],
                    dtype=self.dtype,
                    record=record,
                    storage_dtype=self.storage_dtype,
                    goldens=[meta["golden"] for _, _, _, meta in items],
                    boxes=[prep.box for _, _, prep, _ in items],
                )
        except Exception as exc:
            if len(items) == 1:
                pos, trial, _, meta = items[0]
                results[pos] = self._quarantine(trial, exc, meta["site"])
                return
            # One pathological trial must not sink its batch-mates: re-run
            # the group as groups of one, so only a trial that fails on
            # its own is quarantined.
            for item in items:
                self._run_group([item], results)
            return
        for b, (pos, trial, prep, meta) in enumerate(items):
            injection = InjectionResult(
                scores=batch.scores[b],
                masked=False,
                value_before=prep.value_before,
                value_after=prep.value_after,
                resume_index=prep.resume_index,
                faulty_activations=batch.activations[b] if meta["record"] else [],
            )
            results[pos] = self._complete(trial, meta, injection)

    def collect_obs(self) -> dict:
        """Delta snapshot of metrics plus span timings since last call.

        Trace rows staged since the previous collection ride along under
        a ``"traces"`` key; the parent pops them into the trace sink
        before merging the rest into its metrics registry.
        """
        snap = self.metrics.snapshot(reset=True)
        snap["timing"] = merge_timing(snap["timing"], timing_snapshot(reset=True))
        if self.traces:
            snap["traces"] = self.traces
            self.traces = []
        return snap


class _EarlyStopPlanner:
    """Wave scheduler for statistical early stopping.

    Trials are planned in fixed waves of ``spec.stop_check_every``
    indices.  Before wave ``w`` is released, every trial of waves
    ``< w`` has resolved (the parallel layer runs rounds to completion),
    so the stop decision for wave ``w`` looks at exactly the records in
    the index prefix ``[0, w * stop_check_every)`` — a pure function of
    the spec and the checkpoint contents, never of ``jobs``, ``batch``,
    ``chunk``, arrival order or wall-clock.  Serial, parallel and
    kill/resume executions therefore make identical skip decisions
    trial-for-trial.

    A stratum *closes* once the Wilson 95% half-width of its
    ``stop_sdc_class`` rate drops to ``target_halfwidth``.  Closed
    strata stop accumulating records (their trials are skipped), so
    their estimates — and the closed set — are monotone: a closed
    stratum never reopens.  The campaign stops globally at the first
    boundary where every *observed* stratum is closed.
    """

    def __init__(self, spec: CampaignSpec, done: dict, recorder: EventRecorder):
        self.spec = spec
        self.done = done
        self.recorder = recorder
        #: First index of the next wave to release.
        self.lo = 0
        #: Next index to fold into ``counts`` (everything below is in).
        self._counted = 0
        #: stratum key -> [successes, n] over resolved records.
        self.counts: dict[str, list[int]] = {}
        #: Boundary where the campaign stopped (None until it does).
        self.stopped_at: int | None = None

    def _fold_prefix(self, hi: int) -> None:
        spec = self.spec
        for i in range(self._counted, hi):
            value = self.done.get(i)
            if not isinstance(value, TrialRecord):
                continue  # errors and skips carry no outcome
            flag = value.outcome.flag(spec.stop_sdc_class)
            if flag is None:
                continue
            key = stratum_key(spec.stop_stratify, value.site, value.block, value.bit)
            cell = self.counts.setdefault(key, [0, 0])
            cell[0] += int(flag)
            cell[1] += 1
        self._counted = hi

    def _closed_strata(self) -> frozenset[str]:
        target = self.spec.target_halfwidth
        return frozenset(
            key
            for key, (successes, n) in self.counts.items()
            if n > 0 and wilson_halfwidth(successes, n) <= target
        )

    def __call__(self):
        """Next round: ``(indices, control)`` — or None when finished.

        Skips waves fully covered by the checkpoint (their records still
        fold into the counts, so a resumed run replays every decision of
        the interrupted one bit-identically).
        """
        spec = self.spec
        step = spec.stop_check_every
        while self.lo < spec.n_trials:
            self._fold_prefix(self.lo)
            closed = self._closed_strata()
            if self.counts and len(closed) == len(self.counts):
                self.stopped_at = self.lo
                self.recorder.emit(
                    "early_stop", boundary=self.lo, strata=sorted(closed)
                )
                return None
            hi = min(self.lo + step, spec.n_trials)
            todo = [i for i in range(self.lo, hi) if i not in self.done]
            self.lo = hi
            if todo:
                return todo, {"closed": tuple(sorted(closed))}
        return None


@dataclass(frozen=True)
class RunOptions:
    """How a campaign executes; an invalid value raises ``ValueError``.

    No field is part of the campaign identity: results, checkpoints and
    metric counters are bit-identical for every value, so none is in the
    checkpoint fingerprint, and a campaign checkpointed under one set of
    options resumes correctly under another.

    Attributes:
        jobs: Worker processes (1 = inline, None/0 = every usable CPU).
        batch: Maximum group size: trials propagated per
            ``forward_from_batch`` call (each trial's arithmetic is
            independent of its batch-mates).  A group fills across
            resume layers, so a slice makes one call per ``batch`` of
            its unmasked trials.  The default, 16, comes from a
            measured curve of batch sizes (docs/architecture.md,
            "Batched propagation").
        chunk: Trials per slice handed to a worker (or run inline) at
            once; with a checkpoint, capped at ``checkpoint_every`` so
            completed trials reach the checkpoint at that cadence.
        checkpoint: JSONL checkpoint path; completed trials are logged
            there (see :mod:`repro.core.checkpoint`).
        resume: Skip trial indices already present in ``checkpoint``.
            A checkpoint written under any other spec is refused
            (:class:`~repro.core.checkpoint.CheckpointMismatchError`).
            Previously quarantined trials are *not* re-run; delete the
            checkpoint to retry them.
        checkpoint_every: Completed trials between checkpoint (and
            trace) flushes.  Each flush after the first appends only the
            trials completed since; on the way out both files are
            republished in index order (see :mod:`repro.obs.jsonlog`).
        trial_timeout: Per-trial seconds before a chunk is declared hung
            (see :func:`repro.utils.parallel.map_trials`); None disables.
        max_retries: Retry budget per crashed or timed-out chunk.  A
            trial that raises is quarantined by the task, not retried.
        max_error_frac: Abort (:class:`CampaignAbortedError`) once more
            than this fraction of ``spec.n_trials`` is quarantined.  The
            default 0.0 tolerates no errors — raising it is an explicit
            statement that partial campaigns are acceptable.
        spans: Enable hierarchical timing spans — in this process and in
            every worker (``trial``, ``golden_infer``, per-layer forward,
            injection phases).  Off by default; the disabled path is a
            single flag check.
        run_log: Structured JSONL run-log path.  When None and
            ``checkpoint`` is set, defaults to ``<checkpoint>.runlog.jsonl``
            next to it (see :func:`repro.obs.manifest.default_run_log_path`).
        progress_every: Seconds between ``progress`` events on the
            recorder (throughput / ETA material for a
            :class:`~repro.obs.progress.ProgressReporter` sink); 0
            disables periodic emission.  A final ``progress`` event is
            emitted either way when any trials ran.
        trace_path: Propagation-trace JSONL path (only meaningful when
            ``spec.trace_mode != "off"``).  When None and ``checkpoint``
            is set, defaults to ``<checkpoint>.trace.jsonl`` next to it;
            with neither, trace rows are collected in memory only
            (``CampaignResult.traces``).  The file is byte-identical
            across serial / parallel / batched / resumed executions:
            rows are pure functions of the trial index, and
            a resumed run re-executes any checkpointed trial whose trace
            row had not reached disk (re-deriving identical bytes)
            instead of leaving a hole.
    """

    jobs: int | None = 1
    batch: int = 16
    chunk: int = 64
    checkpoint: str | Path | None = None
    resume: bool = False
    checkpoint_every: int = 64
    trial_timeout: float | None = None
    max_retries: int = 2
    max_error_frac: float = 0.0
    spans: bool = False
    run_log: str | Path | None = None
    progress_every: float = 0.0
    trace_path: str | Path | None = None

    def __post_init__(self) -> None:
        # Each check is written so that NaN fails it.
        effective_jobs(self.jobs)
        for name in ("batch", "chunk", "checkpoint_every"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.trial_timeout is not None and not self.trial_timeout > 0:
            raise ValueError(
                f"trial_timeout must be > 0 (None disables it), got {self.trial_timeout}"
            )
        if not self.max_retries >= 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if not 0.0 <= self.max_error_frac <= 1.0:
            raise ValueError(f"max_error_frac must be in [0, 1], got {self.max_error_frac}")
        if not self.progress_every >= 0:
            raise ValueError(f"progress_every must be >= 0, got {self.progress_every}")


def run_campaign(spec: CampaignSpec, jobs: int | None = 1, *,
                 events: EventRecorder | None = None, **options) -> CampaignResult:
    """Execute a campaign resiliently, optionally across a process pool.

    Trial ``i`` always uses the RNG stream ``child_rng(spec.seed, i)``,
    so results are identical for any ``jobs`` value — and, because a
    trial's outcome depends only on its index, a checkpointed campaign
    resumes bit-identically after a kill.

    Args:
        spec: Campaign configuration.
        jobs: Worker processes (1 = inline, None/0 = every usable CPU).
        events: :class:`~repro.obs.events.EventRecorder` observing
            retry/rebuild/quarantine/resume events (a fresh one is used
            when None; note ``stats`` counts reflect every emission the
            recorder has seen).
        **options: The other :class:`RunOptions` fields; an unknown name
            raises ``TypeError`` before any work runs.
    """
    return _CampaignRun(spec, RunOptions(jobs=jobs, **options), events).execute()


class _CampaignRun:
    """One execution of a campaign.

    Setup (the constructor): checkpoint and trace sinks, resume, the
    early-stop planner and the run observer.
    :meth:`execute` runs the trial loop, closes the sinks and seals the
    run log once, whatever the outcome.
    """

    def __init__(self, spec: CampaignSpec, options: RunOptions,
                 events: EventRecorder | None):
        self.spec = spec
        self.options = options
        self.recorder = events if events is not None else EventRecorder()
        self.registry = MetricsRegistry()
        if options.spans:
            enable_spans()
        self.done: dict[int, TrialRecord | TrialError | TrialSkip] = {}
        self.trace_rows: dict[int, dict] = {}
        self.resumed = 0
        self.resumed_skips = 0
        self.trace_writer = None
        trace_path = options.trace_path
        if trace_path is None and options.checkpoint is not None:
            trace_path = default_trace_path(options.checkpoint)
        if spec.trace_mode != "off" and trace_path is not None:
            # Imported lazily: checkpoint.py depends on this module's types.
            from repro.core.checkpoint import campaign_fingerprint

            self.trace_writer = TraceWriter(
                trace_path, campaign_fingerprint(spec), spec.trace_mode, spec.trace_every
            )
        self.writer = None
        if options.checkpoint is not None:
            from repro.core.checkpoint import CheckpointWriter

            self.writer = CheckpointWriter(options.checkpoint, spec)
            if options.resume:
                self._resume()
        self.remaining = [i for i in range(spec.n_trials) if i not in self.done]
        self.planner = (
            _EarlyStopPlanner(spec, self.done, self.recorder)
            if spec.target_halfwidth is not None else None
        )
        # After resume: the observer records it.
        self.observer = self._open_observer()
        self.error_budget = options.max_error_frac * spec.n_trials
        # Resumed quarantines count against the budget too.
        self.n_errors = sum(1 for v in self.done.values() if isinstance(v, TrialError))
        self.n_skips = 0
        self.since_flush = 0
        self.start = self.last_progress = time.perf_counter()

    def _resume(self) -> None:
        """Take over the checkpoint's trials and replay their metrics.

        A checkpointed trial whose trace row never reached disk re-runs
        purely for its trace: its outcome is a pure function of its
        index, so the re-run re-derives identical record and trace bytes.
        A prior trace file of another fingerprint or trace version lends
        no rows, so every traced trial re-runs.
        """
        from repro.core.checkpoint import load_checkpoint

        spec = self.spec
        state = load_checkpoint(self.options.checkpoint, spec=spec)
        if state is None:
            return
        retrace: set[int] = set()
        if spec.trace_mode != "off":
            if self.trace_writer is not None:
                prior_header, prior_rows = load_trace(self.trace_writer.path)
                if (
                    prior_header is not None
                    and prior_header.get("fingerprint") == self.trace_writer.fingerprint
                    and prior_header.get("version") == TRACE_VERSION
                ):
                    self.trace_writer.preload(prior_rows)
                    self.trace_rows.update(prior_rows)
            retrace = {
                i for i in state.records if spec.trace_selected(i) and i not in self.trace_rows
            }
        self.done.update({i: r for i, r in state.records.items() if i not in retrace})
        self.done.update(state.errors)
        self.done.update(state.skips)
        self.writer.preload(state)
        self.resumed = state.n_completed - len(retrace)
        self.resumed_skips = len(state.skips)
        # Resumed totals then match an uninterrupted run's exactly
        # (re-traced trials are excluded: their live re-run counts them).
        for index, prior in state.records.items():
            if index not in retrace:
                record_trial_metrics(self.registry, prior)
        for prior_skip in state.skips.values():
            record_skip_metrics(self.registry, spec, prior_skip)
        self.recorder.emit("resume", completed=self.resumed, path=str(self.options.checkpoint))

    def _open_observer(self):
        """Begin the run log, or return None when it has no path."""
        from repro.obs.manifest import RunObserver, default_run_log_path

        spec, options = self.spec, self.options
        run_log = options.run_log
        if run_log is None and options.checkpoint is not None:
            run_log = default_run_log_path(options.checkpoint)
        if run_log is None:
            return None
        from repro.core.checkpoint import campaign_fingerprint
        from repro.core.serialize import to_jsonable

        observer = RunObserver(
            run_log,
            kind="campaign",
            meta={
                "fingerprint": campaign_fingerprint(spec),
                "network": spec.network,
                "dtype": spec.dtype,
                "target": spec.target,
                "seed": spec.seed,
                "n_trials": spec.n_trials,
                "jobs": options.jobs,
                "batch": options.batch,
                "resumed": self.resumed > 0,
                "resumed_trials": self.resumed,
                "blas_threads": blas_threads(options.jobs),
                "trace": {
                    "mode": spec.trace_mode,
                    "every": spec.trace_every,
                    "path": str(self.trace_writer.path) if self.trace_writer is not None else None,
                },
                "spec": to_jsonable(spec),
            },
        )
        observer.begin()
        self.recorder.add_sink(observer.event_sink)
        return observer

    def execute(self) -> CampaignResult:
        """Run the remaining trials, close the sinks, seal the run log."""
        status, result = "failed", None
        try:
            try:
                if self.remaining:
                    self._map()
                elif self.planner is not None:
                    # Fully-resumed early-stopping run: no trials to
                    # execute, but the stop boundary must still be
                    # replayed from the checkpointed prefix so
                    # ``stopped_at`` is reproduced.
                    while self.planner() is not None:
                        pass
            finally:
                # Completed, aborted or failed: publish both files in
                # index order (the last obs payload can arrive after the
                # last cadence flush).  A checkpoint without trials is
                # never written: there would be nothing to resume.
                if self.trace_writer is not None:
                    self.trace_writer.close()
                if self.writer is not None and len(self.writer):
                    with span("checkpoint_flush"):
                        self.writer.close()
            if self.remaining:
                self._emit_progress(final=True)
            result = self._result()
            status = "completed"
        except CampaignAbortedError:
            status = "aborted"
            raise
        finally:
            if self.observer is not None:
                self._finish(status, result)
        return result

    def _map(self) -> None:
        """Run the remaining trials, inline or across the pool."""
        spec, options = self.spec, self.options
        chunk = options.chunk
        if self.writer is not None:
            # A slice's trials return together; capping the slice lets
            # completed trials reach the checkpoint at its cadence.
            chunk = min(chunk, options.checkpoint_every)
        # functools.partial (not a lambda) so the factory pickles into
        # workers that do not fork.
        build = factory = partial(_CampaignTask, spec, spans=options.spans, batch=options.batch)
        published = nullcontext()
        if effective_jobs(options.jobs) > 1 and len(self.remaining) > 1:
            # A pool's workers inherit one task built here, so golden
            # inference and detector learning run once per campaign.
            factory = partial(sharedgolden.attach_golden_state, build)
            published = sharedgolden.publish_golden_state(build())
        with published:
            map_trials(
                factory,
                jobs=options.jobs,
                chunk=chunk,
                indices=self.remaining,
                plan=self.planner,
                timeout=options.trial_timeout,
                max_retries=options.max_retries,
                on_event=self.recorder.emit,
                on_result=self._absorb,
                on_obs=self._absorb_obs,
            )

    def _absorb_obs(self, snapshot: dict) -> None:
        # Trace rows ride in the obs payload (same message as the
        # chunk's results); strip them before the metrics merge.
        for row in snapshot.pop("traces", None) or ():
            self.trace_rows[int(row["index"])] = row
            if self.trace_writer is not None:
                self.trace_writer.add_row(row)
        self.registry.merge_snapshot(snapshot)

    def _absorb(self, index: int, value: object) -> None:
        """Take one resolved trial: checkpoint it, report, enforce the budget."""
        options, recorder, writer = self.options, self.recorder, self.writer
        if isinstance(value, TrialFailure):
            # The supervised pool already emitted the quarantine event.
            value = TrialError(index=index, reason=value.reason, attempts=value.attempts)
        elif isinstance(value, TrialError):
            recorder.emit("quarantine", index=index, reason=value.reason,
                          exc_type=value.exc_type)
        self.done[index] = value
        if isinstance(value, TrialError):
            self.n_errors += 1
        elif isinstance(value, TrialSkip):
            self.n_skips += 1
        if writer is not None:
            if isinstance(value, TrialError):
                writer.add_error(index, value)
            elif isinstance(value, TrialSkip):
                writer.add_skip(index, value)
            else:
                writer.add_record(index, value)
            self.since_flush += 1
            if self.since_flush >= options.checkpoint_every:
                # Trace rows received so far go to disk first; any trial
                # the checkpoint holds without a trace row (a kill can
                # always land between result and obs arrival) is re-run
                # on resume purely for its trace, so no flush ordering
                # can leave a permanent hole.
                if self.trace_writer is not None:
                    self.trace_writer.flush()
                with span("checkpoint_flush"):
                    writer.flush()
                self.since_flush = 0
                recorder.emit("checkpoint", completed=len(self.done))
        if options.progress_every > 0:
            now = time.perf_counter()
            if now - self.last_progress >= options.progress_every:
                self.last_progress = now
                self._emit_progress()
        if self.n_errors > self.error_budget:
            # The writers are closed (completed trials kept) on the way out.
            recorder.emit("abort", errors=self.n_errors, completed=len(self.done))
            raise CampaignAbortedError(
                f"{self.n_errors} quarantined trials exceed max_error_frac="
                f"{options.max_error_frac} of {self.spec.n_trials} trials",
                n_errors=self.n_errors,
                n_completed=len(self.done),
                checkpoint=Path(options.checkpoint) if options.checkpoint is not None else None,
            )

    def _emit_progress(self, final: bool = False) -> None:
        # Early-stopped (skipped) trials count toward completion — they
        # are resolved indices — but are also reported separately so the
        # progress reporter can show a ``skipped`` column and compute
        # trials/s over trials that actually propagated.
        self.recorder.emit(
            "progress",
            completed=len(self.done),
            total=self.spec.n_trials,
            completed_here=len(self.done) - self.resumed,
            skipped=self.resumed_skips + self.n_skips,
            skipped_here=self.n_skips,
            quarantined=self.n_errors,
            elapsed_s=round(time.perf_counter() - self.start, 3),
            final=final,
        )

    def _metrics(self) -> dict:
        # Parent-side span timings (checkpoint flushes, the inline
        # chunk loop) fold into the same registry as worker timings.
        self.registry.merge_snapshot({"timing": timing_snapshot(reset=True)})
        return self.registry.snapshot()

    def _stats(self) -> ExecutionStats:
        recorder = self.recorder
        return ExecutionStats(
            resumed=self.resumed,
            retries=recorder.count("retry"),
            rebuilds=recorder.count("rebuild"),
            timeouts=recorder.count("timeout"),
            bisections=recorder.count("bisect"),
            quarantined=self.n_errors,
            degraded=recorder.count("degrade") > 0,
        )

    def _result(self) -> CampaignResult:
        done = sorted(self.done.items())
        return CampaignResult(
            spec=self.spec,
            records=[v for _, v in done if isinstance(v, TrialRecord)],
            errors=[v for _, v in done if isinstance(v, TrialError)],
            stats=self._stats(),
            metrics=self._metrics(),
            skips=[v for _, v in done if isinstance(v, TrialSkip)],
            stopped_at=self.planner.stopped_at if self.planner is not None else None,
            traces={index: self.trace_rows[index] for index in sorted(self.trace_rows)},
        )

    def _finish(self, status: str, result: CampaignResult | None) -> None:
        """Seal the run log; a completed run (``result``) adds its summary."""
        spec = self.spec
        summary = None
        if result is not None:
            summary = {
                "n_records": len(result.records),
                "n_errors": len(result.errors),
                "masked_fraction": result.masked_fraction,
                "sdc": {cls: result.sdc_rate(cls).p for cls in SDC_CLASSES},
            }
            if self.planner is not None:
                # Deterministic: skip decisions are a pure function of the
                # spec and trial indices, so these agree across serial /
                # parallel / resumed executions.
                summary["early_stop"] = {
                    "n_skips": len(result.skips),
                    "stopped_at": result.stopped_at,
                }
            if spec.trace_mode != "off":
                # Deterministic: the traced subset is selected by trial
                # index, so the row count agrees across execution shapes.
                summary["trace"] = {
                    "mode": spec.trace_mode,
                    "every": spec.trace_every,
                    "rows": len(result.traces),
                }
        self.observer.finish(
            status=status,
            stats=asdict(self._stats()),
            metrics=self._metrics() if result is None else result.metrics,
            events=self.recorder.counts,
            summary=summary,
        )
