"""Error-propagation tracing (Figure 7 and Table 5 machinery).

Figure 7 measures, per layer, the Euclidean distance between the faulty
and golden ACT values after a fault is injected at layer 1 — showing LRN
slashing the deviation while plain stacks carry it flat.  Table 5 counts
the fraction of faults whose corruption is still present bit-wise in the
final fmap (the campaign's ``record_propagation`` covers the rates; this
module provides the per-block distance trace).
"""

from __future__ import annotations

import numpy as np

from repro.core.injector import InjectionResult
from repro.nn.network import InferenceResult, Network

__all__ = [
    "block_output_layers",
    "relu_trace_layers",
    "euclidean_by_block",
    "bitwise_mismatch_by_block",
]


def block_output_layers(network: Network) -> dict[int, int]:
    """Map block index -> layer index of the block's final output
    (terminal softmax excluded)."""
    out: dict[int, int] = {}
    for i, layer in enumerate(network.layers):
        if layer.block is not None and layer.kind != "softmax":
            out[layer.block] = i
    return out


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


def _faulty_activation(injection: InjectionResult, layer_index: int) -> np.ndarray | None:
    """Output of ``layer_index`` in the faulty run, if re-executed."""
    j = layer_index - injection.resume_index + 1
    if j < 0 or j >= len(injection.faulty_activations):
        return None
    return injection.faulty_activations[j]


def euclidean_by_block(
    network: Network,
    golden: InferenceResult,
    injection: InjectionResult,
    points: dict[int, int] | None = None,
) -> dict[int, float]:
    """Euclidean distance between faulty and golden ACTs per block.

    Args:
        points: Map of block -> layer index to sample at; defaults to
            block outputs.  Figure 7 passes :func:`relu_trace_layers`.

    Blocks upstream of the fault have distance 0 (they were not
    re-executed and equal the golden run).  Non-finite corrupted values
    are compared on a clipped scale so a single inf/NaN yields a large
    but finite distance.
    """
    distances: dict[int, float] = {}
    for block, li in (points or block_output_layers(network)).items():
        faulty = _faulty_activation(injection, li)
        if faulty is None:
            distances[block] = 0.0
            continue
        ref = golden.activations[li + 1]
        with np.errstate(invalid="ignore", over="ignore"):
            diff = faulty - ref
        bad = ~np.isfinite(diff)
        if bad.any():
            finite_mag = min(float(np.abs(diff[~bad]).max(initial=0.0)), 1e149)
            diff = np.where(bad, max(finite_mag, 1.0) * 10.0, diff)
        # Clip before squaring: a ~1e300 deviation would overflow the sum.
        diff = np.clip(diff, -1e150, 1e150)
        distances[block] = float(np.sqrt((diff * diff).sum()))
    return distances


def bitwise_mismatch_by_block(
    network: Network,
    golden: InferenceResult,
    injection: InjectionResult,
) -> dict[int, float]:
    """Fraction of mismatching ACT values per block output (element-wise).

    The paper compares "the ACT values bit by bit"; at operation
    granularity any value mismatch implies a bit mismatch, so element
    inequality is the equivalent measure.
    """
    mismatch: dict[int, float] = {}
    for block, li in block_output_layers(network).items():
        faulty = _faulty_activation(injection, li)
        if faulty is None:
            mismatch[block] = 0.0
            continue
        ref = golden.activations[li + 1]
        with np.errstate(invalid="ignore"):
            neq = faulty != ref
        both_nan = np.isnan(faulty) & np.isnan(ref)
        neq &= ~both_nan
        mismatch[block] = float(neq.mean())
    return mismatch
