"""Bench (extension): SED vs bit-wise DMR detection baseline.

Shape claims checked: DMR reaches total recall but its paper-style
precision collapses (it flags masked-to-be errors, section 5.1.4),
while SED keeps precision near 100%.
"""

from repro.experiments import ext_dmr_baseline as exp

from bench_common import BENCH_CFG


def test_bench_ext_dmr():
    result = exp.run(BENCH_CFG)
    print("\n" + exp.render(result))
    for network, row in result["networks"].items():
        assert row["sed"]["precision"] >= row["dmr"]["precision"], network
        if row["dmr"]["total_sdc"]:
            assert row["dmr"]["recall"] == 1.0
