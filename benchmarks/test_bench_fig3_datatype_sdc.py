"""Bench: regenerate Figure 3 (SDC probability per data type/network).

Shape claims checked: the wide-range fixed point (32b_rb10) is far more
SDC-prone than the narrow formats (32b_rb26/16b_rb10), for every network.
"""

from repro.experiments import fig3_datatype_sdc as exp

from bench_common import BENCH_CFG


def test_bench_fig3_datatype_sdc():
    result = exp.run(BENCH_CFG)
    print("\n" + exp.render(result))
    for network, per_dtype in result["rates"].items():
        wide = per_dtype["32b_rb10"]["sdc1"][0]
        narrow = per_dtype["32b_rb26"]["sdc1"][0]
        assert wide >= narrow, network
    # ConvNet (shallow, 10 outputs) is the most FxP-fragile network.
    assert (
        result["rates"]["ConvNet"]["32b_rb10"]["sdc1"][0]
        >= result["rates"]["AlexNet"]["32b_rb10"]["sdc1"][0]
    )
