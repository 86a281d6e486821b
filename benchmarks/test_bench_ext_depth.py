"""Bench (extension): depth vs masking study with VGG-16.

Shape claims checked: masking tracks pooling density rather than raw
depth, and every network masks the majority-to-plurality of faults; the
range-headroom column explains NiN/VGG16's elevated FxP sensitivity.
"""

from repro.experiments import ext_depth as exp

from bench_common import BENCH_CFG


def test_bench_ext_depth():
    result = exp.run(BENCH_CFG)
    print("\n" + exp.render(result))
    nets = result["networks"]
    # Pool density ordering predicts masking ordering at the extremes.
    assert nets["ConvNet"]["pools_per_layer"] > nets["NiN"]["pools_per_layer"]
    assert nets["ConvNet"]["masked"] > nets["NiN"]["masked"]
    # ConvNet has vastly more format headroom than the ImageNet nets.
    assert nets["ConvNet"]["range_headroom"] > 5 * nets["NiN"]["range_headroom"]
