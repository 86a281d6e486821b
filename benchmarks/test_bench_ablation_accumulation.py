"""Ablation: per-step MAC rounding vs accumulate-in-f64-then-quantize.

DESIGN.md calls out the injector's bit-exact chain replay (per-step
rounding for FP, per-step saturation for FxP) as a fidelity choice over
the cheaper quantize-once-at-the-end model.  This bench quantifies the
numeric gap on real AlexNet MAC chains: FLOAT16 chains differ by ulp-
level rounding, while 16b_rb10 chains can differ grossly whenever an
intermediate sum saturates.
"""

import numpy as np

from repro.dtypes import FLOAT16, FXP_16B_RB10
from repro.utils.rng import child_rng
from repro.zoo import eval_inputs, get_network


def _chain_samples(n=200):
    net = get_network("AlexNet")
    x = eval_inputs("AlexNet", 1)[0]
    rng = child_rng(5, 0)
    golden16 = net.forward(x, dtype=FLOAT16, record=True)
    goldenfx = net.forward(x, dtype=FXP_16B_RB10, record=True)
    chains = {"FLOAT16": [], "16b_rb10": []}
    for _ in range(n):
        li = int(rng.choice(net.mac_layer_indices()))
        layer = net.layers[li]
        in_shape = net.shapes[li]
        flat = int(rng.integers(layer.output_elements(in_shape)))
        idx = tuple(int(v) for v in np.unravel_index(flat, layer.out_shape(in_shape)))
        chains["FLOAT16"].append(layer.mac_operands(golden16.activations[li], idx, FLOAT16))
        chains["16b_rb10"].append(layer.mac_operands(goldenfx.activations[li], idx, FXP_16B_RB10))
    return chains


def _compare(dtype, chains):
    diffs = []
    for chain in chains:
        products = dtype.multiply(chain.weights, chain.inputs)
        exact = dtype.partials(np.concatenate(([chain.bias], products)))[-1]
        lazy = dtype.quantize(np.array([chain.bias + (chain.weights * chain.inputs).sum()]))[0]
        diffs.append(abs(exact - lazy))
    return np.array(diffs)


def test_bench_ablation_accumulation():
    chains = _chain_samples()
    diffs = {name: _compare(dtype, chains[name])
             for name, dtype in (("FLOAT16", FLOAT16), ("16b_rb10", FXP_16B_RB10))}
    print()
    for name, d in diffs.items():
        print(f"{name}: mean |per-step - lazy| = {d.mean():.4g}, "
              f"max = {d.max():.4g}, differing chains = {(d > 0).mean():.1%}")
    # FP per-step rounding drifts a little on long chains...
    assert diffs["FLOAT16"].mean() < 1.0
    # ...and some chains genuinely differ, which is why the injector
    # replays chains with per-step semantics.
    assert (diffs["FLOAT16"] > 0).any()
