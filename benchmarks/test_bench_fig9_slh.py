"""Bench: regenerate Figure 9 (selective latch hardening curves).

Shape claims checked: the per-bit FIT asymmetry yields a steep coverage
curve (high beta), and ~100x FIT reduction costs a modest latch-area
overhead via the Multi mix (paper: ~20-25%).
"""

from repro.experiments import fig9_slh as exp

from bench_common import BENCH_CFG


def test_bench_fig9_slh():
    result = exp.run(BENCH_CFG)
    print("\n" + exp.render(result))
    for dtype_name, data in result["dtypes"].items():
        curves = data["overhead_curves"]
        multi_100x = curves["Multi"][-1]
        tmr_100x = curves["TMR"][-1]
        assert multi_100x is not None
        assert multi_100x <= tmr_100x + 1e-9  # the mix never loses to TMR
        assert multi_100x < 0.6  # far below whole-datapath TMR (250%)
        assert curves["RCC"][-1] is None or curves["RCC"][-1] >= 0  # RCC can't always reach 100x
