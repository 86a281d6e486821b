"""Bench: regenerate Table 5 (bit-wise propagation per conv layer).

Shape claims checked: most faults are masked before the final fmap
(paper: 84.36% average) and the final-layer propagation rate is the
lowest (deepest faults have the least room to spread).
"""

from repro.experiments import table5_bitwise_sdc as exp

from bench_common import BENCH_CFG


def test_bench_table5_bitwise_sdc():
    result = exp.run(BENCH_CFG)
    print("\n" + exp.render(result))
    assert result["avg_masked"] > 0.5
    rows = result["propagation"]
    assert rows[5][0] <= rows[1][0]  # deeper injection -> less spread
    assert result["avg_sdc1"] < rows[1][0]  # rankings flip less than bits
