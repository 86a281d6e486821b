"""Bench: regenerate Figure 4 (SDC probability by bit position).

Shape claims checked: only high-order exponent (FP) / integer (FxP) bits
are vulnerable; mantissa and fraction bits have zero SDC probability.
"""

from repro.dtypes import get_dtype
from repro.experiments import fig4_bit_position as exp

from bench_common import BENCH_CFG


def test_bench_fig4_bit_position():
    result = exp.run(BENCH_CFG)
    print("\n" + exp.render(result))
    for panel, data in result["panels"].items():
        dtype = get_dtype(data["dtype"])
        for bit, (p, _ci, _n) in data["rates"].items():
            if dtype.field_of(bit) in ("mantissa", "fraction"):
                assert p == 0.0, (panel, bit)
    # 32b_rb10 integer bits are far more sensitive than 32b_rb26's.
    rb10 = sum(p for p, _, _ in result["panels"]["4d"]["rates"].values())
    rb26 = sum(p for p, _, _ in result["panels"]["4c"]["rates"].values())
    assert rb10 > rb26
