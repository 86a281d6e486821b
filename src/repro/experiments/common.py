"""Shared infrastructure for the per-table/figure experiment modules.

Every experiment module exposes:

- ``run(cfg: ExperimentConfig) -> dict``: compute the artifact's data.
- ``render(result: dict) -> str``: paper-style plain-text rendering.

The :mod:`repro.experiments.runner` CLI dispatches on experiment id and
wires up trial counts, scale, seed and parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from repro.core.campaign import CampaignResult, CampaignSpec, RunOptions, _CampaignRun
from repro.core.checkpoint import campaign_fingerprint

__all__ = ["ExperimentConfig", "campaign", "PAPER_NETWORKS", "IMAGENET_NETWORKS"]

#: All networks, Table 2 order.
PAPER_NETWORKS = ("ConvNet", "AlexNet", "CaffeNet", "NiN")
#: Networks using the ImageNet-like corpus (everything but ConvNet).
IMAGENET_NETWORKS = ("AlexNet", "CaffeNet", "NiN")
#: ``RunOptions`` fields an experiment leaves at their defaults
#: (:func:`campaign` sets the paths per campaign).
_FIXED_RUN_FIELDS = ("chunk", "checkpoint", "checkpoint_every", "backoff_base",
                     "backoff_cap", "timeout_grace", "manifest", "run_log", "trace_path")


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs common to every experiment.

    Attributes:
        trials: Baseline injection count per campaign (experiments scale
            this down for fine-grained sweeps such as per-bit campaigns).
        scale: Network scale profile.
        seed: Root seed.
        run: How every campaign executes (:class:`~repro.core.campaign.RunOptions`);
            its path and tuning fields keep their defaults, and
            ``checkpoint_dir`` and ``obs_dir`` set its paths per campaign.
        checkpoint_dir: When set, every campaign snapshots completed
            trials to ``<dir>/<fingerprint>.jsonl``.
        obs_dir: When set, every campaign writes a run manifest and a
            structured JSONL run log to ``<dir>/<fingerprint>.manifest.json``
            / ``<dir>/<fingerprint>.runlog.jsonl`` (docs/observability.md).
        target_halfwidth: When set, overrides every campaign spec's
            Wilson-CI early-stopping target (docs/architecture.md,
            "Early stopping").  Spec-identity caveat: this *changes* the
            campaign fingerprint, so checkpoints/manifests from runs
            without it do not resume into runs with it.
        stop_stratify: Stratum key for the stopping rule (only applied
            when ``target_halfwidth`` is set).
        stop_check_every: Trial-index boundary between stop decisions
            (only applied when ``target_halfwidth`` is set).
    """

    trials: int = 300
    scale: str = "reduced"
    seed: int = 0
    run: RunOptions = RunOptions()
    checkpoint_dir: str | None = None
    obs_dir: str | None = None
    target_halfwidth: float | None = None
    stop_stratify: str = "overall"
    stop_check_every: int = 64

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be positive")
        fixed = [f for f in _FIXED_RUN_FIELDS if getattr(self.run, f) != getattr(RunOptions, f)]
        if fixed:
            raise ValueError(f"experiments leave run options at their defaults: {', '.join(fixed)}")


_campaign_cache: dict[CampaignSpec, CampaignResult] = {}


def campaign(spec: CampaignSpec, cfg: ExperimentConfig) -> CampaignResult:
    """Run (or reuse) a campaign under ``cfg``; memoized per spec within the process.

    Several experiments share identical campaigns (e.g. Figure 3's rates
    feed Table 6's FIT calculation); the memo avoids re-running them.
    """
    if cfg.target_halfwidth is not None:
        # Early stopping is part of the campaign identity (it changes
        # which trials run), so it belongs on the spec — and must be
        # applied *before* the memo lookup and fingerprinting.
        spec = replace(
            spec,
            target_halfwidth=cfg.target_halfwidth,
            stop_stratify=cfg.stop_stratify,
            stop_check_every=cfg.stop_check_every,
        )
    cached = _campaign_cache.get(spec)
    if cached is None:
        fingerprint = campaign_fingerprint(spec)
        ck, obs = cfg.checkpoint_dir, cfg.obs_dir
        options = replace(
            cfg.run,  # every path is this campaign's own
            checkpoint=None if ck is None else Path(ck) / f"{fingerprint}.jsonl",
            manifest=None if obs is None else Path(obs) / f"{fingerprint}.manifest.json",
            run_log=None if obs is None else Path(obs) / f"{fingerprint}.runlog.jsonl",
        )
        recorder = None
        if options.progress_every > 0:
            from repro.obs.events import EventRecorder
            from repro.obs.progress import ProgressReporter

            recorder = EventRecorder()
            recorder.add_sink(ProgressReporter(min_interval=options.progress_every))
        cached = _CampaignRun(spec, options, recorder).execute()
        _campaign_cache[spec] = cached
    return cached
