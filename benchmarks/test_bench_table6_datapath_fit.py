"""Bench: regenerate Table 6 (datapath FIT per data type and network).

Shape claims checked: replacing 32b_rb10 with 32b_rb26 cuts the FIT by
a large factor (paper: >2 orders of magnitude), and 16-bit formats have
lower FIT than their 32-bit counterparts at comparable SDC rates.
"""

from repro.experiments import table6_datapath_fit as exp

from bench_common import BENCH_CFG


def test_bench_table6_datapath_fit():
    result = exp.run(BENCH_CFG)
    print("\n" + exp.render(result))
    for network in ("AlexNet", "CaffeNet", "NiN"):
        wide = result["fit"][(network, "32b_rb10")][0]
        narrow = result["fit"][(network, "32b_rb26")][0]
        assert wide > 3 * max(narrow, 1e-9), network
