"""Experiment CLI: ``repro-exp <experiment> [--trials N] [--scale S] ...``

Dispatches to the per-table/figure experiment modules and prints their
paper-style renderings.  ``repro-exp all`` runs everything (budget the
trial count accordingly); ``repro-exp list`` enumerates experiment ids.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.core.cli import add_run_arguments, run_options
from repro.experiments import (
    e2e_protected_fit,
    ext_depth,
    ext_dmr_baseline,
    ext_lrn_ablation,
    ext_mapping,
    ext_propagation,
    ext_proteus,
    fig3_datatype_sdc,
    fig4_bit_position,
    fig5_value_deviation,
    fig6_layer_sdc,
    fig7_euclidean,
    fig8_sed,
    fig9_slh,
    table1_reuse,
    table2_networks,
    table3_dtypes,
    table4_value_ranges,
    table5_bitwise_sdc,
    table6_datapath_fit,
    table7_eyeriss_scaling,
    table8_buffer_fit,
)
from repro.experiments.common import ExperimentConfig

__all__ = ["EXPERIMENTS", "main", "run_experiment"]

#: Experiment id -> module, in paper order.
EXPERIMENTS = {
    "table1": table1_reuse,
    "table2": table2_networks,
    "table3": table3_dtypes,
    "fig3": fig3_datatype_sdc,
    "fig4": fig4_bit_position,
    "fig5": fig5_value_deviation,
    "table4": table4_value_ranges,
    "fig6": fig6_layer_sdc,
    "fig7": fig7_euclidean,
    "table5": table5_bitwise_sdc,
    "table6": table6_datapath_fit,
    "table7": table7_eyeriss_scaling,
    "table8": table8_buffer_fit,
    "fig8": fig8_sed,
    "fig9": fig9_slh,
    "e2e": e2e_protected_fit,
    # Extensions beyond the paper's evaluation (its stated future work).
    "proteus": ext_proteus,
    "dmr": ext_dmr_baseline,
    "mapping": ext_mapping,
    "lrn": ext_lrn_ablation,
    "depth": ext_depth,
    "propagation": ext_propagation,
}


def run_experiment(exp_id: str, cfg: ExperimentConfig, out_dir: str | None = None) -> str:
    """Run one experiment, optionally persisting its raw result as JSON.

    Args:
        exp_id: Experiment identifier (see :data:`EXPERIMENTS`).
        cfg: Trial budget / scale / seed / parallelism.
        out_dir: When given, write ``<out_dir>/<exp_id>.json`` (sanitized
            raw result), ``<out_dir>/<exp_id>.txt`` (rendering) and the
            run log ``<out_dir>/<exp_id>.runlog.jsonl``.

    Returns:
        The paper-style text rendering.
    """
    try:
        module = EXPERIMENTS[exp_id]
    except KeyError:
        raise KeyError(f"unknown experiment {exp_id!r}; known: {sorted(EXPERIMENTS)}") from None
    observer = None
    if out_dir is not None:
        from pathlib import Path

        from repro.obs.manifest import RunObserver

        base = Path(out_dir)
        observer = RunObserver(
            base / f"{exp_id}.runlog.jsonl",
            kind="experiment",
            meta={
                "experiment": exp_id,
                "title": module.TITLE,
                "trials": cfg.trials,
                "scale": cfg.scale,
                "seed": cfg.seed,
                "jobs": cfg.run.jobs,
            },
        )
        observer.begin()
    try:
        result = module.run(cfg)
        rendering = module.render(result)
    except BaseException:
        if observer is not None:
            observer.finish(status="failed")
        raise
    if out_dir is not None:
        from pathlib import Path

        from repro.core.serialize import save_json

        base = Path(out_dir)
        save_json(result, base / f"{exp_id}.json")
        base.mkdir(parents=True, exist_ok=True)
        (base / f"{exp_id}.txt").write_text(rendering + "\n")
        if observer is not None:
            observer.finish(
                status="completed",
                summary={"artifacts": [f"{exp_id}.json", f"{exp_id}.txt"]},
            )
    return rendering


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-exp",
        description="Reproduce tables/figures of Li et al., SC'17.",
    )
    parser.add_argument("experiment", help="experiment id, 'all', or 'list'")
    parser.add_argument("--trials", type=int, default=300, help="injections per campaign")
    parser.add_argument("--scale", choices=("reduced", "full"), default="reduced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="directory for JSON/text artifacts")
    _, resilience, obs = add_run_arguments(parser)
    resilience.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                            help="snapshot each campaign to <DIR>/<fingerprint>.jsonl")
    obs.add_argument("--obs-dir", default=None, metavar="DIR",
                     help="write each campaign's JSONL run log to "
                          "<DIR>/<fingerprint>.runlog.jsonl")
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for exp_id, module in EXPERIMENTS.items():
            print(f"{exp_id:8s} {module.TITLE}")
        return 0

    if args.resume and args.checkpoint_dir is None:
        print("--resume requires --checkpoint-dir", file=sys.stderr)
        return 2

    try:
        cfg = ExperimentConfig(
            trials=args.trials, scale=args.scale, seed=args.seed, run=run_options(args),
            checkpoint_dir=args.checkpoint_dir, obs_dir=args.obs_dir,
            target_halfwidth=args.target_halfwidth,
            stop_stratify=args.stop_stratify,
            stop_check_every=args.stop_check_every,
        )
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    targets = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for exp_id in targets:
        if exp_id not in EXPERIMENTS:
            print(f"unknown experiment {exp_id!r}; try 'list'", file=sys.stderr)
            return 2
        start = time.perf_counter()
        print(run_experiment(exp_id, cfg, out_dir=args.out))
        print(f"[{exp_id} done in {time.perf_counter() - start:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
