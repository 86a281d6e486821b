"""Bench (extension): LRN's contribution to error masking (ablation).

Shape claims checked: with LRN no escaping early-layer fault reaches the
output out-of-range; without LRN a large fraction does, and the mean
surviving deviation is astronomically larger (paper section 6.1,
implication 3).
"""

from repro.experiments import ext_lrn_ablation as exp

from bench_common import BENCH_CFG


def test_bench_ext_lrn():
    result = exp.run(BENCH_CFG)
    print("\n" + exp.render(result))
    with_lrn = result["with_lrn"]
    without = result["without_lrn"]
    assert with_lrn["escaped"].p < 0.05
    assert without["escaped"].p > 0.1
    assert without["mean_distance"] > 1e6 * max(with_lrn["mean_distance"], 1e-9)
