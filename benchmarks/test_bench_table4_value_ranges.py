"""Bench: regenerate Table 4 (fault-free ACT ranges per layer).

Shape claim checked: the calibrated ImageNet networks reproduce the
paper's per-layer dynamic ranges within a small factor.
"""

from repro.experiments import table4_value_ranges as exp

from bench_common import BENCH_CFG


def test_bench_table4_value_ranges():
    result = exp.run(BENCH_CFG)
    print("\n" + exp.render(result))
    for network in ("AlexNet", "CaffeNet", "NiN"):
        for blk, lo, hi, plo, phi in result["ranges"][network]:
            got = max(abs(lo), abs(hi))
            want = max(abs(plo), abs(phi))
            assert 0.25 * want < got < 4.0 * want, (network, blk)
