"""Bench: regenerate Table 1 (reuse taxonomy + row-stationary counts)."""

from repro.experiments import table1_reuse as exp

from bench_common import BENCH_CFG


def test_bench_table1_reuse():
    result = exp.run(BENCH_CFG)
    print("\n" + exp.render(result))
    eyeriss = next(r for r in result["taxonomy"] if r["accelerator"] == "Eyeriss")
    assert eyeriss["weight_reuse"] and eyeriss["image_reuse"] and eyeriss["output_reuse"]
    assert all(s["psum_uses"] == 1 for s in result["alexnet_reuse"])
