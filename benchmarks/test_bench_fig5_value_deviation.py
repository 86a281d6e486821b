"""Bench: regenerate Figure 5 (value deviation, SDC vs benign).

Shape claim checked: the majority of SDC-causing corrupted values fall
outside the fault-free range; benign ones mostly stay inside (paper: 80%
vs 9.67%).
"""

from repro.experiments import fig5_value_deviation as exp

from bench_common import BENCH_CFG


def test_bench_fig5_value_deviation():
    result = exp.run(BENCH_CFG)
    print("\n" + exp.render(result))
    if result["sdc_pairs"]:
        assert result["sdc_out_of_range"] > result["benign_out_of_range"]
        assert result["sdc_out_of_range"] > 0.5
    assert result["benign_out_of_range"] < 0.5
