"""Bench: regenerate Figure 8 (SED precision/recall).

Shape claims checked: precision and recall in the paper's ballpark
(90.21% / 92.5% averages) for the symptom-rich configurations.
"""

from repro.experiments import fig8_sed as exp

from bench_common import BENCH_CFG


def test_bench_fig8_sed():
    result = exp.run(BENCH_CFG)
    print("\n" + exp.render(result))
    assert result["avg_precision"] > 0.85
    assert result["avg_recall"] > 0.6
