"""Figure 7: Euclidean distance between faulty and golden ACTs per layer.

Faults are injected at layer 1 using DOUBLE (its huge dynamic range
accentuates deviations) and the distance between the faulty and golden
ACT tensors is measured at the end of every layer.  Expected shape:
AlexNet/CaffeNet drop sharply after their layer-1/2 LRNs; NiN and
ConvNet stay comparatively flat.

Each network runs one fully traced campaign, and the figure is a
reduction of its trace rows: the ``l2_dev`` each row records per layer
(:func:`repro.obs.tracer.l2_distance`), read at :func:`relu_trace_layers`.
"""

from __future__ import annotations

from repro.core.campaign import CampaignSpec
from repro.dtypes.registry import get_dtype
from repro.experiments.common import PAPER_NETWORKS, ExperimentConfig, campaign
from repro.nn.network import Network
from repro.utils.tables import format_table
from repro.zoo.registry import get_network

__all__ = ["run", "render", "campaign_spec", "relu_trace_layers", "block_distances"]

EXPERIMENT_ID = "fig7"
TITLE = "Figure 7: Euclidean distance per layer after a layer-1 fault (DOUBLE)"

DTYPE = "DOUBLE"
#: Per-trial cap, so one overflowing trial cannot swamp a mean.
CAP = 1e30


def relu_trace_layers(network: Network) -> dict[int, int]:
    """Map block index -> layer index of the block's activation output.

    Figure 7 samples ACT values right after each layer's activation
    function — *before* any NORM/POOL that follows — which is what makes
    the AlexNet/CaffeNet curves drop between layer 1 and layer 2 (the
    LRN sits between the two sample points).  Falls back to the block's
    MAC layer when it has no ReLU.
    """
    out: dict[int, int] = {}
    for i, layer in enumerate(network.layers):
        if layer.block is None:
            continue
        if layer.kind == "relu" or (layer.block not in out and layer.kind in ("conv", "fc")):
            out[layer.block] = i
    return out


def block_distances(row: dict, points: dict[int, int]) -> dict[int, float]:
    """One trace row's Euclidean distance at each block's sample point.

    ``points`` maps block -> layer index.  The faulted layer's distance
    is the row's ``injected`` entry and later layers' are its ``layers``
    entries; a layer upstream of the fault, or downstream of the layer
    that masked it, equals golden and reads 0.
    """
    by_layer = {entry["layer"]: entry["l2_dev"] for entry in row["layers"]}
    if row["injected"] is not None:
        by_layer[row["resume_layer"] - 1] = row["injected"]["l2_dev"]
    return {block: float(by_layer.get(li, 0.0)) for block, li in points.items()}


def campaign_spec(network_name: str, cfg: ExperimentConfig) -> CampaignSpec:
    """The fully traced campaign behind one network's curve.

    Its faults are pinned to the first MAC layer and to the top
    magnitude-exponent bit: operand magnitudes sit near 1 (exponent ~0),
    so the flip creates the large deviation whose attenuation the figure
    traces (the paper traces propagation, not incidence).
    """
    network = get_network(network_name, cfg.scale)
    return CampaignSpec(
        network=network_name,
        dtype=DTYPE,
        n_trials=max(10, cfg.trials // 10),
        scale=cfg.scale,
        seed=cfg.seed,
        n_inputs=2,
        layer_index=network.mac_layer_indices()[0],
        bit=get_dtype(DTYPE).width - 2,
        trace_mode="all",
    )


def run(cfg: ExperimentConfig) -> dict:
    """Returns ``{network: {block: mean_distance}}``.

    Distances average over the unmasked trials of each network's
    :func:`campaign_spec`.
    """
    out: dict = {"config": cfg, "distances": {}}
    for network_name in PAPER_NETWORKS:
        points = relu_trace_layers(get_network(network_name, cfg.scale))
        traces = campaign(campaign_spec(network_name, cfg), cfg).traces
        rows = [row for row in traces.values() if not row["masked_at_injection"]]
        sums = dict.fromkeys(points, 0.0)
        for row in rows:
            for block, d in block_distances(row, points).items():
                sums[block] += min(d, CAP)
        out["distances"][network_name] = {
            b: (s / len(rows) if rows else 0.0) for b, s in sorted(sums.items())
        }
    return out


def render(result: dict) -> str:
    sections = []
    for network, dists in result["distances"].items():
        rows = [[b, f"{d:.4g}"] for b, d in dists.items()]
        sections.append(
            format_table(["layer", "mean Euclidean distance"], rows, title=f"{TITLE} — {network}")
        )
        vals = list(dists.values())
        if len(vals) >= 2 and vals[0] > 0:
            sections.append(f"layer1 -> layer2 attenuation: {vals[0] / max(vals[1], 1e-30):.2f}x")
    return "\n\n".join(sections)
