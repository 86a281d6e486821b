"""Bench: regenerate Figure 6 (SDC probability per layer position).

Shape claim checked: fully-connected layers of AlexNet/CaffeNet are at
least as SDC-prone as the LRN-protected first convolutional layers.
"""

from repro.experiments import fig6_layer_sdc as exp

from bench_common import BENCH_CFG


def test_bench_fig6_layer_sdc():
    result = exp.run(BENCH_CFG)
    print("\n" + exp.render(result))
    for network in ("AlexNet", "CaffeNet"):
        per_block = result["layers"][network]
        fc_avg = sum(per_block[b][0] for b in (6, 7, 8)) / 3
        lrn_avg = sum(per_block[b][0] for b in (1, 2)) / 2
        assert fc_avg >= lrn_avg, network
