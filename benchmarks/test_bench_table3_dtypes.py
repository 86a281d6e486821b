"""Bench: regenerate Table 3 (data types used)."""

from repro.experiments import table3_dtypes as exp

from bench_common import BENCH_CFG


def test_bench_table3_dtypes():
    result = exp.run(BENCH_CFG)
    print("\n" + exp.render(result))
    names = [d["name"] for d in result["dtypes"]]
    assert names == ["DOUBLE", "FLOAT", "FLOAT16", "32b_rb26", "32b_rb10", "16b_rb10"]
