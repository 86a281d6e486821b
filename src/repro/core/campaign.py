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
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from repro.core.detectors import SymptomDetector, learn_detector
from repro.core.fault import (
    DATAPATH_LATCHES,
    sample_buffer_fault,
    sample_datapath_fault,
)
from repro.core.injector import (
    InjectionResult,
    finish_injection,
    prepare_buffer,
    prepare_datapath,
)
from repro.core.outcome import SDC_CLASSES, Outcome, classify_outcome
from repro.core.stats import RateEstimate, wilson_halfwidth
from repro.core.tracing import EventRecorder
from repro.dtypes.registry import get_dtype
from repro.obs.metrics import (
    MetricsRegistry,
    empty_snapshot,
    merge_snapshots,
    merge_timing,
)
from repro.obs.spans import enable_spans, span, timing_snapshot
from repro.obs.tracer import (
    TRACE_MODES,
    TraceWriter,
    build_trace,
    default_trace_path,
    load_trace,
)
from repro.utils.parallel import TrialFailure, effective_jobs, exc_summary, map_trials
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
    "record_trial_metrics",
    "record_skip_metrics",
    "stratum_key",
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
        bit: Pin the flipped bit position (None = uniform).
        burst: Adjacent bits flipped per fault (1 = the paper's
            single-event-upset model; >1 models multi-cell upsets).
        layer_index: Pin the victim MAC layer (None = MAC-weighted).
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
    byte-identical across serial / parallel / shared-mem / resume.
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
        time.sleep(float(arg) if arg else 3600.0)  # repro: noqa[RP104]
    elif kind == "slow":
        time.sleep(float(arg) if arg else 0.05)  # repro: noqa[RP104]
    elif kind == "raise":
        raise RuntimeError(f"injected test fault at trial {trial}")


class _CampaignTask:
    """Per-worker campaign task: builds the network/goldens once, then
    runs slices of trials through :meth:`run_many`.  Constructed lazily
    inside each worker process.

    When a :class:`~repro.core.sharedgolden.GoldenDescriptor` is given,
    the golden activations, quantized weights and learned detector are
    *attached* from the parent's shared-memory segment instead of being
    recomputed — the expensive ``golden_infer`` / ``learn_detector``
    phases run exactly once per campaign, in the parent.  Either way the
    golden bits are identical (the parent computed them with this same
    code), so trial outcomes are unaffected by the transport.

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

    def __init__(self, spec: CampaignSpec, *, spans: bool = False, batch: int = 1,
                 golden=None):
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
        self._shm_view = None
        if golden is not None:
            from repro.core.sharedgolden import attach_golden_state

            with span("golden_attach"):
                self._shm_view = attach_golden_state(golden)
            self.goldens = self._shm_view.goldens
            self._shm_view.install_weights(self.network)
            self.detector: SymptomDetector | None = None
            if spec.with_detection and spec.detector_kind == "sed":
                self.detector = golden.detector
        else:
            self.network.prepare(self.dtype)
            inputs = eval_inputs(spec.network, spec.n_inputs, spec.scale, seed=100)
            with span("golden_infer"):
                self.goldens = [
                    self.network.forward(
                        x, dtype=self.dtype, record=True, storage_dtype=self.storage_dtype
                    )
                    for x in inputs
                ]
            self.detector = None
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
        meta = {
            "golden": golden,
            "site": site,
            "block": self.network.layers[fault.layer_index].block or 0,
            "bit": fault.bit,
            "record": record,
            "traced": traced,
        }
        return fault, meta

    def build_trial(self, fault, meta: dict):
        """Build a sampled fault's corruption (no propagation yet)."""
        if self.spec.target == "datapath":
            return prepare_datapath(
                self.network, self.dtype, fault, meta["golden"], self.storage_dtype
            )
        return prepare_buffer(
            self.network, self.dtype, fault, meta["golden"], self.storage_dtype
        )

    def close(self) -> None:
        """Detach the shared golden view, if one is attached.

        Closing unmaps the segment immediately (numpy views do NOT keep
        the mapping alive — they alias freed memory afterwards), so every
        shared view must be purged first.  ``get_network`` memoizes
        network instances per process, so the quantized-weight caches we
        installed views into would otherwise serve dangling pointers to
        the *next* campaign in this process.
        """
        if self._shm_view is None:
            return
        for li, dtype_name in self._shm_view.installed:
            self.network.layers[li].discard_quantized_weights(dtype_name)
        self.goldens = []
        self._shm_view.close()
        self._shm_view = None

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

        Sampling, corruption building, classification and the metric
        folds stay per-trial.  Masked preparations finish without
        propagation; the rest are grouped by resume layer
        (``spec.storage_dtype`` is constant per campaign, so the resume
        index alone determines the tail computation) and delta-propagated
        through ``forward_from_batch`` in groups of at most
        ``group_size``.  Results are positionally aligned with
        ``indices`` and bit-identical for every group size.
        """
        results: list = [None] * len(indices)
        groups: dict[int, list] = {}
        for pos, trial in enumerate(indices):
            try:
                with span("trial"):
                    fault, meta = self.sample_trial(trial)
                    skip = self._maybe_skip(trial, meta)
                    if skip is not None:
                        results[pos] = skip
                        continue
                    prep = self.build_trial(fault, meta)
                    if prep.masked:
                        injection = finish_injection(
                            self.network, self.dtype, prep, meta["golden"],
                            record=meta["record"], storage_dtype=self.storage_dtype,
                        )
                        results[pos] = self._complete(trial, meta, injection)
                    else:
                        groups.setdefault(prep.resume_index, []).append(
                            (pos, trial, prep, meta)
                        )
            except Exception as exc:
                results[pos] = self._quarantine(trial, exc, self.last_site)
        for items in groups.values():
            # Cluster corruptions on nearby rows into the same batch: the
            # delta engine recomputes each batch's *union* row span, so a
            # sorted split keeps unions narrow where a random split would
            # push them toward the full feature map and forfeit the delta
            # savings.  Per-trial results are independent of batch
            # composition (bit-exactness contract), so ordering is purely
            # an efficiency choice.
            items.sort(
                key=lambda it: (it[2].dirty_rows is None, it[2].dirty_rows or (0, 0))
            )
            for start in range(0, len(items), self.group_size):
                self._run_group(items[start : start + self.group_size], results)
        return results

    def _run_group(self, items: list, results: list) -> None:
        resume_index = items[0][2].resume_index
        # Record when *any* trial in the group needs activations (trace
        # sampling makes the flag per-trial); recording never changes
        # the arithmetic, so batch-mates are unaffected.
        record = any(meta["record"] for _, _, _, meta in items)
        try:
            with span("propagate_batch"):
                batch = self.network.forward_from_batch(
                    resume_index,
                    [prep.act for _, _, prep, _ in items],
                    dtype=self.dtype,
                    record=record,
                    storage_dtype=self.storage_dtype,
                    goldens=[meta["golden"] for _, _, _, meta in items],
                    dirty_rows=[prep.dirty_rows for _, _, prep, _ in items],
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
    ``chunk``, arrival order or wall-clock.  Serial, parallel,
    shared-memory and kill/resume executions therefore make identical
    skip decisions trial-for-trial.

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


def run_campaign(
    spec: CampaignSpec,
    jobs: int | None = 1,
    *,
    batch: int = 1,
    chunk: int = 64,
    shared_golden: bool | None = None,
    checkpoint: str | Path | None = None,
    resume: bool = False,
    checkpoint_every: int = 64,
    trial_timeout: float | None = None,
    max_retries: int = 2,
    max_error_frac: float = 0.0,
    backoff_base: float = 0.5,
    backoff_cap: float = 8.0,
    timeout_grace: float = 5.0,
    events: EventRecorder | None = None,
    metrics: MetricsRegistry | None = None,
    spans: bool = False,
    manifest: str | Path | None = None,
    run_log: str | Path | None = None,
    progress_every: float = 0.0,
    trace_path: str | Path | None = None,
) -> CampaignResult:
    """Execute a campaign resiliently, optionally across a process pool.

    Trial ``i`` always uses the RNG stream ``child_rng(spec.seed, i)``,
    so results are identical for any ``jobs`` value — and, because a
    trial's outcome depends only on its index, a checkpointed campaign
    resumes bit-identically after a kill.

    Args:
        spec: Campaign configuration.
        jobs: Worker processes (1 = inline, None/0 = all cores).
        batch: Maximum group size: trials propagated per
            ``forward_from_batch`` call.  An execution knob, not part of
            the campaign identity: results, checkpoints and metric
            counters are bit-identical for every value (each trial's
            arithmetic is independent of its batch-mates), so it is
            deliberately *not* in :class:`CampaignSpec` or the
            checkpoint fingerprint — a campaign checkpointed at one
            batch size resumes correctly at another.
        chunk: Trials per slice handed to a worker (or run inline) at
            once; with a checkpoint, capped at ``checkpoint_every`` so
            completed trials reach the checkpoint at that cadence.
        shared_golden: Publish the golden activations / quantized
            weights / detector into a ``multiprocessing.shared_memory``
            segment computed once by the parent; workers attach
            read-only views instead of re-running golden inference.
            ``None`` (the default) auto-enables it for multi-worker
            runs.  Like ``batch``, a pure execution knob: the golden
            bits are identical either way, so results, checkpoints and
            metric counters are bit-identical with it on or off.
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
        max_retries: Retry budget per failing chunk / raising trial.
        max_error_frac: Abort (:class:`CampaignAbortedError`) once more
            than this fraction of ``spec.n_trials`` is quarantined.  The
            default 0.0 tolerates no errors — raising it is an explicit
            statement that partial campaigns are acceptable.
        backoff_base / backoff_cap: Pool-rebuild backoff schedule.
        timeout_grace: Flat per-chunk allowance for worker startup.
        events: :class:`~repro.core.tracing.EventRecorder` observing
            retry/rebuild/quarantine/resume events (a fresh one is used
            when None; note ``stats`` counts reflect every emission the
            recorder has seen).
        metrics: :class:`~repro.obs.metrics.MetricsRegistry` that worker
            delta snapshots merge into (a fresh one when None).  Resumed
            checkpoint records are replayed into it, so a resumed run's
            totals equal an uninterrupted run's.
        spans: Enable hierarchical timing spans — in this process and in
            every worker (``trial``, ``golden_infer``, per-layer forward,
            injection phases).  Off by default; the disabled path is a
            single flag check.
        manifest: Run-manifest JSON path.  When None and ``checkpoint``
            is set, defaults to ``<checkpoint>.manifest.json`` next to
            it (see :func:`repro.obs.manifest.default_obs_paths`).
        run_log: Structured JSONL run-log path; same defaulting rule
            (``<checkpoint>.runlog.jsonl``).
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
            across serial / parallel / batched / shared-mem / resumed
            executions: rows are pure functions of the trial index, and
            a resumed run re-executes any checkpointed trial whose trace
            row had not reached disk (re-deriving identical bytes)
            instead of leaving a hole.
    """
    recorder = events if events is not None else EventRecorder()
    registry = metrics if metrics is not None else MetricsRegistry()
    if spans:
        enable_spans()
    writer = None
    done: dict[int, TrialRecord | TrialError | TrialSkip] = {}
    resumed = 0
    resumed_skips = 0
    tracing = spec.trace_mode != "off"
    trace_writer = None
    trace_rows: dict[int, dict] = {}
    if tracing:
        if trace_path is None and checkpoint is not None:
            trace_path = default_trace_path(checkpoint)
        if trace_path is not None:
            # Imported lazily: checkpoint.py depends on this module's types.
            from repro.core.checkpoint import campaign_fingerprint

            trace_writer = TraceWriter(
                trace_path, campaign_fingerprint(spec), spec.trace_mode, spec.trace_every
            )
    if checkpoint is not None:
        # Imported lazily: checkpoint.py depends on this module's types.
        from repro.core.checkpoint import CheckpointWriter, load_checkpoint

        writer = CheckpointWriter(checkpoint, spec)
        if resume:
            state = load_checkpoint(checkpoint, spec=spec)
            if state is not None:
                retrace: set[int] = set()
                if tracing:
                    if trace_writer is not None:
                        prior_header, prior_rows = load_trace(trace_writer.path)
                        if (
                            prior_header is not None
                            and prior_header.get("fingerprint") == trace_writer.fingerprint
                        ):
                            trace_writer.preload(prior_rows)
                            trace_rows.update(prior_rows)
                    # Checkpointed trials whose trace row never reached
                    # disk re-run purely for their trace: outcomes are
                    # pure functions of the trial index, so the re-run
                    # re-derives identical records and identical trace
                    # bytes (already-traced trials are skipped as usual).
                    retrace = {
                        i for i in state.records
                        if spec.trace_selected(i) and i not in trace_rows
                    }
                done.update(
                    {i: r for i, r in state.records.items() if i not in retrace}
                )
                done.update(state.errors)
                done.update(state.skips)
                writer.preload(state)
                resumed = state.n_completed - len(retrace)
                resumed_skips = len(state.skips)
                # Replay completed trials into the registry so resumed
                # totals match an uninterrupted run's exactly (re-traced
                # trials are excluded: their live re-run counts them).
                for index, prior in state.records.items():
                    if index not in retrace:
                        record_trial_metrics(registry, prior)
                for prior_skip in state.skips.values():
                    record_skip_metrics(registry, spec, prior_skip)
                recorder.emit("resume", completed=resumed, path=str(checkpoint))

    if checkpoint is not None and (manifest is None or run_log is None):
        from repro.obs.manifest import default_obs_paths

        auto_manifest, auto_log = default_obs_paths(checkpoint)
        manifest = manifest if manifest is not None else auto_manifest
        run_log = run_log if run_log is not None else auto_log

    remaining = [i for i in range(spec.n_trials) if i not in done]
    planner = _EarlyStopPlanner(spec, done, recorder) if spec.target_halfwidth is not None else None
    # Shared golden state pays off exactly when more than one worker
    # would otherwise duplicate golden inference; ``shared_golden``
    # forces it either way (it is outcome-neutral, see the docstring).
    use_shm = (
        shared_golden
        if shared_golden is not None
        else effective_jobs(jobs) > 1 and len(remaining) > 1
    )

    observer = None
    if manifest is not None or run_log is not None:
        from repro.core.checkpoint import campaign_fingerprint
        from repro.core.serialize import to_jsonable
        from repro.obs.manifest import RunObserver

        observer = RunObserver(
            manifest_path=manifest,
            run_log_path=run_log,
            kind="campaign",
            meta={
                "fingerprint": campaign_fingerprint(spec),
                "network": spec.network,
                "dtype": spec.dtype,
                "target": spec.target,
                "seed": spec.seed,
                "n_trials": spec.n_trials,
                "jobs": jobs,
                "batch": batch,
                "resumed": resumed > 0,
                "resumed_trials": resumed,
                "shared_golden": use_shm,
                "trace": {
                    "mode": spec.trace_mode,
                    "every": spec.trace_every,
                    "path": str(trace_writer.path) if trace_writer is not None else None,
                },
                "spec": to_jsonable(spec),
            },
        )
        observer.begin()
        recorder.add_sink(observer.event_sink)

    error_budget = max_error_frac * spec.n_trials
    n_errors = sum(1 for v in done.values() if isinstance(v, TrialError))
    n_skips = 0
    since_flush = 0
    start = time.perf_counter()
    last_progress = start

    def emit_progress(final: bool = False) -> None:
        # Early-stopped (skipped) trials count toward completion — they
        # are resolved indices — but are also reported separately so the
        # progress reporter can show a ``skipped`` column and compute
        # trials/s over trials that actually propagated.
        recorder.emit(
            "progress",
            completed=len(done),
            total=spec.n_trials,
            completed_here=len(done) - resumed,
            skipped=resumed_skips + n_skips,
            skipped_here=n_skips,
            quarantined=n_errors,
            elapsed_s=round(time.perf_counter() - start, 3),
            final=final,
        )

    def quarantined_total() -> int:
        return sum(1 for v in done.values() if isinstance(v, TrialError))

    def build_stats() -> ExecutionStats:
        return ExecutionStats(
            resumed=resumed,
            retries=recorder.count("retry"),
            rebuilds=recorder.count("rebuild"),
            timeouts=recorder.count("timeout"),
            bisections=recorder.count("bisect"),
            quarantined=quarantined_total(),
            degraded=recorder.count("degrade") > 0,
        )

    def drain_spans() -> None:
        # Parent-side span timings (checkpoint flushes, the inline
        # chunk loop) fold into the same registry as worker timings.
        registry.merge_snapshot({"timing": timing_snapshot(reset=True)})

    def absorb_obs(snapshot: dict) -> None:
        # Trace rows ride in the obs payload (same message as the
        # chunk's results); strip them before the metrics merge.
        for row in snapshot.pop("traces", None) or ():
            trace_rows[int(row["index"])] = row
            if trace_writer is not None:
                trace_writer.add_row(row)
        registry.merge_snapshot(snapshot)

    def absorb(index: int, value: object) -> None:
        nonlocal n_errors, n_skips, since_flush, last_progress
        if isinstance(value, TrialFailure):
            # The supervised pool already emitted the quarantine event.
            value = TrialError(
                index=index, reason=value.reason, exc_type=value.exc_type,
                message=value.message, attempts=value.attempts,
            )
        elif isinstance(value, TrialError):
            recorder.emit("quarantine", index=index, reason=value.reason,
                          exc_type=value.exc_type)
        done[index] = value
        if isinstance(value, TrialError):
            n_errors += 1
        elif isinstance(value, TrialSkip):
            n_skips += 1
        if writer is not None:
            if isinstance(value, TrialError):
                writer.add_error(index, value)
            elif isinstance(value, TrialSkip):
                writer.add_skip(index, value)
            else:
                writer.add_record(index, value)
            since_flush += 1
            if since_flush >= checkpoint_every:
                # Trace rows received so far go to disk first; any trial
                # the checkpoint holds without a trace row (a kill can
                # always land between result and obs arrival) is re-run
                # on resume purely for its trace, so no flush ordering
                # can leave a permanent hole.
                if trace_writer is not None:
                    trace_writer.flush()
                with span("checkpoint_flush"):
                    writer.flush()
                since_flush = 0
                recorder.emit("checkpoint", completed=len(done))
        if progress_every > 0:
            now = time.perf_counter()
            if now - last_progress >= progress_every:
                last_progress = now
                emit_progress()
        if n_errors > error_budget:
            # The writers are closed (completed trials kept) on the way out.
            recorder.emit("abort", errors=n_errors, completed=len(done))
            raise CampaignAbortedError(
                f"{n_errors} quarantined trials exceed max_error_frac="
                f"{max_error_frac} of {spec.n_trials} trials",
                n_errors=n_errors,
                n_completed=len(done),
                checkpoint=Path(checkpoint) if checkpoint is not None else None,
            )

    if writer is not None:
        # A slice's trials return together; capping the slice lets
        # completed trials reach the checkpoint at its cadence.
        chunk = min(chunk, max(1, checkpoint_every))
    descriptor = None
    shm_handle = None
    try:
        try:
            if remaining:
                if use_shm:
                    from repro.core.sharedgolden import publish_golden_state

                    # The parent pays for golden inference / detector
                    # learning exactly once; workers attach read-only.
                    with span("shm_publish"):
                        proto = _CampaignTask(spec)
                        descriptor, shm_handle = publish_golden_state(proto)
                    recorder.emit(
                        "shm_publish",
                        segment=descriptor.segment,
                        nbytes=descriptor.nbytes,
                    )
                # functools.partial (not a lambda) so the factory pickles
                # into workers.
                map_trials(
                    partial(
                        _CampaignTask, spec, spans=spans, batch=batch, golden=descriptor
                    ),
                    n_trials=0,
                    jobs=jobs,
                    chunk=chunk,
                    indices=remaining,
                    plan=planner,
                    timeout=trial_timeout,
                    timeout_grace=timeout_grace,
                    max_retries=max_retries,
                    backoff_base=backoff_base,
                    backoff_cap=backoff_cap,
                    on_event=recorder.emit,
                    on_result=absorb,
                    on_obs=absorb_obs,
                )
            elif planner is not None:
                # Fully-resumed early-stopping run: no trials to execute,
                # but the stop boundary must still be replayed from the
                # checkpointed prefix so ``stopped_at`` is reproduced.
                while planner() is not None:
                    pass
        finally:
            if shm_handle is not None:
                from repro.core.sharedgolden import release_segment

                release_segment(shm_handle)
                recorder.emit("shm_unlink", segment=descriptor.segment)
            # Completed, aborted or failed: publish both files in index
            # order (the last obs payload can arrive after the last
            # cadence flush).  A checkpoint without trials is never
            # written: there would be nothing to resume.
            if trace_writer is not None:
                trace_writer.close()
            if writer is not None and len(writer):
                with span("checkpoint_flush"):
                    writer.close()
    except BaseException as exc:
        if observer is not None:
            drain_spans()
            status = "aborted" if isinstance(exc, CampaignAbortedError) else "failed"
            observer.finish(
                status=status,
                stats=_stats_dict(build_stats()),
                metrics=registry.snapshot(),
                events=recorder.counts,
                event_tail=_encode_events(recorder.tail()),
            )
        raise

    if remaining:
        emit_progress(final=True)
    drain_spans()
    records = [v for _, v in sorted(done.items()) if isinstance(v, TrialRecord)]
    errors = [v for _, v in sorted(done.items()) if isinstance(v, TrialError)]
    skips = [v for _, v in sorted(done.items()) if isinstance(v, TrialSkip)]
    stats = build_stats()
    result = CampaignResult(
        spec=spec, records=records, errors=errors, stats=stats,
        metrics=registry.snapshot(), skips=skips,
        stopped_at=planner.stopped_at if planner is not None else None,
        traces={index: trace_rows[index] for index in sorted(trace_rows)},
    )
    if observer is not None:
        summary = {
            "n_records": len(records),
            "n_errors": len(errors),
            "masked_fraction": result.masked_fraction,
            "sdc": {cls: result.sdc_rate(cls).p for cls in SDC_CLASSES},
        }
        if planner is not None:
            # Deterministic: skip decisions are a pure function of the
            # spec and trial indices, so these agree across serial /
            # parallel / shared-mem / resumed executions.
            summary["early_stop"] = {
                "n_skips": len(skips),
                "stopped_at": result.stopped_at,
            }
        if tracing:
            # Deterministic: the traced subset is selected by trial
            # index, so the row count agrees across execution shapes.
            summary["trace"] = {
                "mode": spec.trace_mode,
                "every": spec.trace_every,
                "rows": len(result.traces),
            }
        observer.finish(
            status="completed",
            stats=_stats_dict(stats),
            metrics=result.metrics,
            events=recorder.counts,
            event_tail=_encode_events(recorder.tail()),
            summary=summary,
        )
    return result


def _stats_dict(stats: ExecutionStats) -> dict:
    """JSON-safe form of :class:`ExecutionStats` for the manifest."""
    import dataclasses

    return dataclasses.asdict(stats)


def _encode_events(events: list) -> list[dict]:
    """JSON-safe form of a :class:`CampaignEvent` tail for the manifest."""
    from repro.core.serialize import to_jsonable

    return [
        {"seq": e.seq, "event": e.kind, "detail": to_jsonable(e.detail)}
        for e in events
    ]
