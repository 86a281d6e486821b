"""Bench: regenerate Figure 7 (per-layer Euclidean distance traces).

Shape claims checked: AlexNet/CaffeNet attenuate the layer-1 deviation
sharply after their LRNs; NiN (no normalization) carries it flat.
"""

from repro.experiments import fig7_euclidean as exp

from bench_common import BENCH_CFG


def test_bench_fig7_euclidean():
    result = exp.run(BENCH_CFG)
    print("\n" + exp.render(result))
    for network in ("AlexNet", "CaffeNet"):
        d = list(result["distances"][network].values())
        assert d[0] > 100 * d[1], network
    nin = list(result["distances"]["NiN"].values())
    assert nin[1] > 0.3 * nin[0]
