"""Bench: regenerate Table 2 (networks used)."""

from repro.experiments import table2_networks as exp

from bench_common import BENCH_CFG


def test_bench_table2_networks():
    result = exp.run(BENCH_CFG)
    print("\n" + exp.render(result))
    by_name = {d["network"]: d for d in result["networks"]}
    assert by_name["ConvNet"]["output_candidates"] == 10
    assert by_name["NiN"]["output_candidates"] == 1000
    assert "LRN" in by_name["AlexNet"]["topology"]
