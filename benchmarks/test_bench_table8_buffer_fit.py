"""Bench: regenerate Table 8 (SDC/FIT per Eyeriss buffer, 16b_rb10).

Shape claims checked: Filter SRAM / Global Buffer dominate the buffer
FIT; Img/PSum REGs stay small; buffer FIT exceeds the datapath FIT of
the same configuration (Table 6) by a large factor.
"""

from repro.experiments import table6_datapath_fit, table8_buffer_fit as exp

from bench_common import BENCH_CFG


def test_bench_table8_buffer_fit():
    result = exp.run(BENCH_CFG)
    print("\n" + exp.render(result))
    dp = table6_datapath_fit.run(BENCH_CFG)
    for network, comps in result["buffers"].items():
        big = comps["Filter SRAM"][2] + comps["Global Buffer"][2]
        small = comps["Img REG"][2] + comps["PSum REG"][2]
        assert big >= small, network
        datapath_fit = dp["fit"][(network, "16b_rb10")][0]
        if big > 0:
            assert big > datapath_fit, network
