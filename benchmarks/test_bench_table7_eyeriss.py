"""Bench: regenerate Table 7 (Eyeriss 65nm -> 16nm scaling)."""

from repro.experiments import table7_eyeriss_scaling as exp

from bench_common import BENCH_CFG


def test_bench_table7_eyeriss():
    result = exp.run(BENCH_CFG)
    print("\n" + exp.render(result))
    nm16 = result["rows"][1]
    assert nm16["n_pe"] == 1344
    assert nm16["global_buffer_kb"] == 784.0
