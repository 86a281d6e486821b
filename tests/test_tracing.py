"""Propagation tracing (Figure 7 machinery): per-block Euclidean distances
read from trace rows."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.fault import DatapathFault
from repro.core.injector import InjectionResult, inject_datapath
from repro.dtypes import FLOAT16
from repro.experiments.fig7_euclidean import block_distances, relu_trace_layers
from repro.obs.tracer import build_trace


def block_output_layers(network) -> dict[int, int]:
    """Map block index -> layer index of the block's final output."""
    return {network.layers[i].block: i for i in network.block_output_indices()}


def trace_row(network, golden, injection) -> dict:
    meta = {"golden": golden, "site": "accumulator", "block": 1, "bit": 14}
    record = SimpleNamespace(outcome=None, detected=None, reached_output=None)
    return build_trace(trial=0, meta=meta, injection=injection, record=record, network=network)


def euclidean_by_block(network, golden, injection, points=None) -> dict[int, float]:
    """Distance per block, at each block's output unless ``points`` says."""
    if points is None:
        points = block_output_layers(network)
    return block_distances(trace_row(network, golden, injection), points)


@pytest.fixture
def traced(tiny_network, tiny_input):
    golden = tiny_network.forward(tiny_input, dtype=FLOAT16, record=True)
    conv_out = golden.activations[1]
    victim = tuple(int(v) for v in np.argwhere((conv_out > 0.25) & (conv_out < 2.0))[0])
    last = tiny_network.layers[0].chain_length((3, 8, 8)) - 1
    fault = DatapathFault(0, victim, last, "accumulator", 14)  # -> huge value
    injection = inject_datapath(tiny_network, FLOAT16, fault, golden, record=True)
    assert not injection.masked
    return tiny_network, golden, injection


class TestTracePoints:
    def test_block_output_layers(self, tiny_network):
        assert block_output_layers(tiny_network) == {1: 2, 2: 6, 3: 7}

    def test_relu_trace_layers(self, tiny_network):
        # sample points: relu1 (idx 1), relu2 (idx 4), fc (idx 7 — no relu)
        assert relu_trace_layers(tiny_network) == {1: 1, 2: 4, 3: 7}


class TestEuclidean:
    def test_distances_nonnegative_and_finite(self, traced):
        net, golden, injection = traced
        d = euclidean_by_block(net, golden, injection)
        assert set(d) == {1, 2, 3}
        assert all(np.isfinite(v) and v >= 0 for v in d.values())

    def test_fault_visible_at_first_block(self, traced):
        net, golden, injection = traced
        d = euclidean_by_block(net, golden, injection, points=relu_trace_layers(net))
        assert d[1] > 0

    def test_upstream_blocks_zero(self, tiny_network, tiny_input):
        golden = tiny_network.forward(tiny_input, dtype=FLOAT16, record=True)
        fc_idx = tiny_network.mac_layer_indices()[-1]
        fault = DatapathFault(fc_idx, (1,), 2, "accumulator", 14)
        injection = inject_datapath(tiny_network, FLOAT16, fault, golden, record=True)
        if not injection.masked:
            d = euclidean_by_block(tiny_network, golden, injection)
            assert d[1] == 0.0 and d[2] == 0.0

    def test_masked_injection_all_zero(self, tiny_network, tiny_input):
        golden = tiny_network.forward(tiny_input, dtype=FLOAT16, record=True)
        fake = InjectionResult(
            scores=golden.scores, masked=True, value_before=0, value_after=0, resume_index=1
        )
        d = euclidean_by_block(tiny_network, golden, fake)
        assert all(v == 0.0 for v in d.values())

    def test_nonfinite_values_give_large_finite_distance(self, tiny_network, tiny_input):
        golden = tiny_network.forward(tiny_input, dtype=FLOAT16, record=True)
        act = golden.activations[1].copy()
        act[0, 0, 0] = np.inf
        res = tiny_network.forward_from(1, act, dtype=FLOAT16, record=True)
        fake = InjectionResult(
            scores=res.scores,
            masked=False,
            value_before=0,
            value_after=np.inf,
            resume_index=1,
            faulty_activations=[act] + res.activations[1:],
        )
        d = euclidean_by_block(tiny_network, golden, fake, points=relu_trace_layers(tiny_network))
        assert np.isfinite(d[1]) and d[1] > 0
