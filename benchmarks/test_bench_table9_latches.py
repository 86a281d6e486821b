"""Bench: regenerate Table 9 (hardened latch design points) and verify
the hardening-model invariants they induce."""

import numpy as np

from repro.core.hardening import HARDENING_TECHNIQUES, optimize_hardening
from repro.utils.tables import format_table


def test_bench_table9_latches():
    rows = [["Baseline", "1x", "1x"]] + [
        [t.name, f"{t.area:g}x", f"{t.fit_reduction:g}x"] for t in HARDENING_TECHNIQUES
    ]
    print("\n" + format_table(
        ["latch type", "area overhead", "FIT rate reduction"], rows,
        title="Table 9: hardened latches used in design space exploration",
    ))

    fit = np.geomspace(1.0, 1e-3, 16)
    plans = [optimize_hardening(fit, t) for t in (6.3, 37.0, 100.0)]
    overheads = [p.area_overhead for p in plans]
    assert overheads == sorted(overheads)  # stronger target costs more
    assert all(p.achieved_reduction >= t for p, t in zip(plans, (6.3, 37.0, 100.0)))
