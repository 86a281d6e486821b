"""Bench (extension): Proteus reduced-precision storage reliability.

The paper defers this evaluation to future work (section 6.1); this
bench carries it out.  Shape claims checked: Proteus's narrow storage
cuts every buffer component's SDC probability (no redundant dynamic
range to escape into) and the total buffer FIT by well over the 2x that
capacity alone would buy.
"""

from repro.experiments import ext_proteus as exp

from bench_common import BENCH_CFG


def test_bench_ext_proteus():
    result = exp.run(BENCH_CFG)
    print("\n" + exp.render(result))
    for component, d in result["components"].items():
        assert d["proteus_sdc"] <= d["wide_sdc"] + 0.02, component
    assert result["proteus_total"] < 0.5 * result["wide_total"]
