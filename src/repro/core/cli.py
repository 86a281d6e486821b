"""Ad-hoc campaign CLI: ``repro-campaign --network AlexNet --dtype FLOAT16``.

Runs one fault-injection campaign with full control over the fault model
(target, latch class, bit, burst, storage format, detector) and prints
the paper-style aggregations; ``--out`` additionally writes the JSON
summary for downstream analysis.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.campaign import TARGETS, CampaignAbortedError, CampaignSpec, RunOptions, _CampaignRun
from repro.core.checkpoint import CheckpointMismatchError
from repro.core.fault import DATAPATH_LATCHES
from repro.core.serialize import campaign_summary, save_json
from repro.dtypes.registry import DTYPES
from repro.obs.events import EventRecorder
from repro.utils.tables import format_table
from repro.zoo.registry import NETWORKS

__all__ = ["main", "build_spec", "add_run_arguments", "run_options"]


def build_spec(args: argparse.Namespace) -> CampaignSpec:
    """Translate parsed CLI arguments into a campaign spec."""
    return CampaignSpec(
        network=args.network,
        dtype=args.dtype,
        target=args.target,
        n_trials=args.trials,
        scale=args.scale,
        n_inputs=args.inputs,
        seed=args.seed,
        latch=args.latch,
        bit=args.bit,
        burst=args.burst,
        layer_index=args.layer,
        with_detection=args.detect != "off",
        detector_kind=args.detect if args.detect != "off" else "sed",
        record_propagation=args.propagation,
        storage_dtype=args.storage_dtype,
        target_halfwidth=getattr(args, "target_halfwidth", None),
        stop_stratify=getattr(args, "stop_stratify", "overall"),
        stop_check_every=getattr(args, "stop_check_every", 64),
        stop_sdc_class=getattr(args, "stop_sdc_class", "sdc1"),
        trace_mode=getattr(args, "trace", "off"),
        trace_every=getattr(args, "trace_every", 16),
    )


def add_run_arguments(parser: argparse.ArgumentParser) -> tuple:
    """Declare the run flags ``repro-campaign`` and ``repro-exp`` share.

    Returns the ``(stopping, resilience, observability)`` argument
    groups; each CLI adds its own flags to them.
    """
    parser.add_argument("--jobs", type=int, default=1, help="worker processes (0 = every usable CPU)")
    parser.add_argument("--batch", type=int, default=RunOptions.batch,
                        help="maximum group size: trials propagated per batched "
                             "forward pass (results are bit-identical)")
    parser.add_argument("--shm", choices=("auto", "on", "off"), default="auto",
                        help="shared-memory golden state: the parent computes golden "
                             "activations/weights once, workers attach read-only "
                             "(auto = on for multi-worker runs; bit-identical)")
    stopping = parser.add_argument_group("early stopping (docs/architecture.md)")
    stopping.add_argument("--target-halfwidth", type=float, default=None, metavar="W",
                          help="stop sampling a stratum once its Wilson 95%% "
                               "half-width drops to W (part of the campaign "
                               "identity; deterministic across jobs/batch/resume)")
    stopping.add_argument("--stop-stratify", choices=("overall", "site", "block", "bit"),
                          default="overall",
                          help="stratum key the stopping rule tracks")
    stopping.add_argument("--stop-check-every", type=int, default=64, metavar="N",
                          help="trial-index boundary between stop decisions")
    resilience = parser.add_argument_group("resilience (docs/resilience.md)")
    resilience.add_argument("--resume", action="store_true",
                            help="skip trial indices already in the checkpoint")
    resilience.add_argument("--trial-timeout", type=float, default=None, metavar="SEC",
                            help="per-trial time budget; hung chunks are killed and retried")
    resilience.add_argument("--max-retries", type=int, default=2, metavar="N",
                            help="retry budget per failing chunk before bisection/quarantine")
    resilience.add_argument("--max-error-frac", type=float, default=0.0, metavar="F",
                            help="abort once more than this fraction of trials is quarantined")
    obs = parser.add_argument_group("observability (docs/observability.md)")
    obs.add_argument("--progress", type=float, default=0.0, metavar="SEC", nargs="?",
                     const=2.0,
                     help="print live progress (trials/s, ETA, RSS) every SEC "
                          "seconds (default 2.0 when given without a value)")
    obs.add_argument("--spans", action="store_true",
                     help="collect hierarchical timing spans (per-layer forward, "
                          "injection, checkpoint flushes) into the manifest")
    return stopping, resilience, obs


def run_options(args: argparse.Namespace, **extra) -> RunOptions:
    """The :class:`RunOptions` the shared flags select.

    ``extra`` holds the options a CLI declares itself.  An invalid value
    raises ``ValueError``, which both CLIs turn into exit 2.
    """
    return RunOptions(
        jobs=args.jobs, batch=args.batch,
        shared_golden={"auto": None, "on": True, "off": False}[args.shm],
        resume=args.resume, trial_timeout=args.trial_timeout, max_retries=args.max_retries,
        max_error_frac=args.max_error_frac, progress_every=args.progress, spans=args.spans,
        **extra,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-campaign",
        description="Run one fault-injection campaign (Li et al., SC'17 fault model).",
    )
    parser.add_argument("--network", choices=sorted(NETWORKS), default="AlexNet")
    parser.add_argument("--dtype", choices=sorted(DTYPES), default="FLOAT16")
    parser.add_argument("--target", choices=TARGETS, default="datapath")
    parser.add_argument("--trials", type=int, default=300)
    parser.add_argument("--scale", choices=("reduced", "full"), default="reduced")
    parser.add_argument("--inputs", type=int, default=3, help="golden inputs rotated")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--latch", choices=DATAPATH_LATCHES, default=None)
    parser.add_argument("--bit", type=int, default=None)
    parser.add_argument("--burst", type=int, default=1, help="adjacent bits per flip")
    parser.add_argument("--layer", type=int, default=None, help="pin a MAC layer index")
    parser.add_argument("--detect", choices=("off", "sed", "dmr"), default="off")
    parser.add_argument("--propagation", action="store_true",
                        help="track survival to the final fmap (Table 5)")
    parser.add_argument("--storage-dtype", choices=sorted(DTYPES), default=None,
                        help="Proteus-style reduced-precision buffer storage")
    parser.add_argument("--out", default=None, help="write the JSON summary here")
    stopping, resilience, obs = add_run_arguments(parser)
    stopping.add_argument("--stop-sdc-class", choices=("sdc1", "sdc5", "sdc10", "sdc20"),
                          default="sdc1",
                          help="SDC class whose confidence interval drives stopping")
    resilience.add_argument("--checkpoint", default=None, metavar="PATH",
                            help="periodically snapshot completed trials to this JSONL file")
    resilience.add_argument("--checkpoint-every", type=int, default=64, metavar="N",
                            help="completed trials between checkpoint flushes")
    resilience.add_argument("--events", action="store_true",
                            help="stream retry/rebuild/quarantine events to stderr")
    obs.add_argument("--manifest", default=None, metavar="PATH",
                     help="write the run-manifest JSON here (defaults next to "
                          "--checkpoint when one is set)")
    obs.add_argument("--run-log", default=None, metavar="PATH",
                     help="append the structured JSONL run log here (same default)")
    obs.add_argument("--trace", choices=("off", "sample", "all"), default="off",
                     help="record per-layer propagation traces for a subset of "
                          "trials selected by index (part of the campaign "
                          "identity; byte-identical across jobs/batch/resume)")
    obs.add_argument("--trace-every", type=int, default=16, metavar="N",
                     help="sampling stride for --trace sample (trace trials "
                          "whose index is divisible by N)")
    obs.add_argument("--trace-file", default=None, metavar="PATH",
                     help="trace JSONL path (defaults to "
                          "<checkpoint>.trace.jsonl when --checkpoint is set)")
    args = parser.parse_args(argv)

    try:
        spec = build_spec(args)
        if args.resume and args.checkpoint is None:
            raise ValueError("--resume requires --checkpoint")
        options = run_options(
            args, checkpoint=args.checkpoint, checkpoint_every=args.checkpoint_every,
            manifest=args.manifest, run_log=args.run_log, trace_path=args.trace_file,
        )
    except (ValueError, KeyError) as exc:
        print(f"invalid campaign: {exc}", file=sys.stderr)
        return 2

    recorder = EventRecorder(
        sink=(lambda event: print(event, file=sys.stderr)) if args.events else None
    )
    if args.progress:
        from repro.obs.progress import ProgressReporter

        recorder.add_sink(ProgressReporter(stream=sys.stderr, min_interval=args.progress))
    try:
        result = _CampaignRun(spec, options, recorder).execute()
    except CheckpointMismatchError as exc:
        print(f"checkpoint mismatch: {exc}", file=sys.stderr)
        return 2
    except CampaignAbortedError as exc:
        print(f"campaign aborted: {exc}", file=sys.stderr)
        if exc.checkpoint is not None:
            print(f"completed trials are preserved in {exc.checkpoint}; "
                  "re-run with --resume after fixing the cause", file=sys.stderr)
        return 3
    rows = []
    labels = {"sdc1": "SDC-1", "sdc5": "SDC-5", "sdc10": "SDC-10%", "sdc20": "SDC-20%"}
    for cls, rate in result.sdc_rates().items():
        rows.append([labels[cls], str(rate) if rate.n else "n/a"])
    title = f"{spec.network} / {spec.dtype} / {spec.target} ({spec.n_trials} injections)"
    print(format_table(["outcome", "probability (95% CI)"], rows, title=title))
    print(f"masked before output: {result.masked_fraction:.1%}")
    if spec.target_halfwidth is not None:
        saved = len(result.skips)
        stopped = (f", stopped at trial {result.stopped_at}"
                   if result.stopped_at is not None else "")
        print(f"early stopping: {saved} propagations skipped{stopped} "
              f"(target half-width {spec.target_halfwidth})")
    by_site = result.rate_by_site()
    if len(by_site) > 1:
        site_rows = [[s, str(r)] for s, r in by_site.items()]
        print()
        print(format_table(["site", "SDC-1"], site_rows))
    if spec.with_detection:
        q = result.detection_quality()
        print(f"detection ({spec.detector_kind}): precision {q.precision:.2%}, "
              f"recall {q.recall:.2%} over {q.total_sdc} SDCs")
    stats = result.stats
    if stats.resumed or stats.quarantined or stats.retries or stats.rebuilds:
        print(f"execution: {stats.resumed} resumed, {stats.quarantined} quarantined, "
              f"{stats.retries} retries, {stats.rebuilds} pool rebuilds, "
              f"{stats.timeouts} timeouts, {stats.bisections} bisections"
              + (", degraded to inline" if stats.degraded else ""))
    for err in result.errors:
        print(f"  quarantined trial {err.index}: {err.reason}"
              + (f" ({err.exc_type})" if err.exc_type else ""))
    if spec.trace_mode != "off":
        from repro.core.campaign import default_trace_path

        trace_target = args.trace_file or (
            default_trace_path(args.checkpoint) if args.checkpoint else None
        )
        where = f" ({trace_target})" if trace_target else " (in-memory only)"
        print(f"propagation traces: {len(result.traces)} trials{where}; "
              "inspect with 'repro-obs trace'")
    if args.out:
        path = save_json(campaign_summary(result), args.out)
        print(f"summary written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
