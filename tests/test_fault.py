"""Fault-site descriptors and sampling distributions."""

import numpy as np
import pytest

from repro.accel.buffers import FAULT_SCOPES
from repro.accel.eyeriss import EYERISS_16NM
from repro.accel.occupancy import build_occupancy
from repro.core.fault import (
    DATAPATH_LATCHES,
    SCOPE_COMPONENT,
    BufferFault,
    DatapathFault,
    sample_buffer_fault,
    sample_datapath_fault,
)
from repro.dtypes import FLOAT16, FXP_16B_RB10
from repro.utils.rng import child_rng
from repro.zoo import get_network


class TestDescriptors:
    def test_datapath_fault_validation(self):
        with pytest.raises(ValueError):
            DatapathFault(0, (0, 0, 0), 0, "bogus", 0)
        with pytest.raises(ValueError):
            DatapathFault(0, (0, 0, 0), -1, "psum", 0)

    def test_buffer_fault_validation(self):
        with pytest.raises(ValueError):
            BufferFault("bogus", 0, (0,), 0)
        with pytest.raises(ValueError):
            BufferFault("layer_weight", 0, (0,), -1)


class TestDatapathSampling:
    def test_fields_in_range(self, tiny_network, rng):
        for _ in range(50):
            f = sample_datapath_fault(tiny_network, FLOAT16, rng)
            layer = tiny_network.layers[f.layer_index]
            in_shape = tiny_network.shapes[f.layer_index]
            assert f.layer_index in tiny_network.mac_layer_indices()
            assert 0 <= f.step < layer.chain_length(in_shape)
            assert 0 <= f.bit < FLOAT16.width
            assert f.latch in DATAPATH_LATCHES
            assert len(f.out_index) == len(layer.out_shape(in_shape))

    def test_mac_weighted_layer_choice(self, tiny_network, rng):
        counts = {}
        for _ in range(400):
            f = sample_datapath_fault(tiny_network, FLOAT16, rng)
            counts[f.layer_index] = counts.get(f.layer_index, 0) + 1
        macs = tiny_network.mac_counts()
        heaviest = max(macs, key=macs.get)
        lightest = min(macs, key=macs.get)
        assert counts.get(heaviest, 0) > counts.get(lightest, 0)

    def test_pinning(self, tiny_network, rng):
        li = tiny_network.mac_layer_indices()[1]
        f = sample_datapath_fault(tiny_network, FLOAT16, rng, latch="psum", bit=3, layer_index=li)
        assert f.latch == "psum" and f.bit == 3 and f.layer_index == li

    def test_pin_non_mac_layer_rejected(self, tiny_network, rng):
        with pytest.raises(ValueError):
            sample_datapath_fault(tiny_network, FLOAT16, rng, layer_index=1)  # ReLU

    def test_deterministic_per_stream(self, tiny_network):
        a = sample_datapath_fault(tiny_network, FLOAT16, np.random.default_rng(7))
        b = sample_datapath_fault(tiny_network, FLOAT16, np.random.default_rng(7))
        assert a == b


class TestBufferSampling:
    def test_layer_weight_victim_within_tensor(self, tiny_network, rng):
        for _ in range(30):
            f = sample_buffer_fault(tiny_network, "layer_weight", FXP_16B_RB10, rng)
            w = tiny_network.layers[f.layer_index].params()["weight"]
            assert len(f.victim) == w.ndim
            w[f.victim]  # indexable

    def test_next_layer_victim_is_input_element(self, tiny_network, rng):
        for _ in range(30):
            f = sample_buffer_fault(tiny_network, "next_layer", FXP_16B_RB10, rng)
            shape = tiny_network.shapes[f.layer_index]
            assert len(f.victim) == len(shape)
            assert all(0 <= v < s for v, s in zip(f.victim, shape))

    def test_row_activation_targets_convs_with_valid_row(self, tiny_network, rng):
        for _ in range(30):
            f = sample_buffer_fault(tiny_network, "row_activation", FXP_16B_RB10, rng)
            layer = tiny_network.layers[f.layer_index]
            assert layer.kind == "conv"
            _, oh, _ = layer.out_shape(tiny_network.shapes[f.layer_index])
            assert 0 <= f.residency_row < oh
            # the residency row actually reads the victim pixel
            y = f.victim[1]
            oy = f.residency_row
            assert oy * layer.stride - layer.pad <= y <= oy * layer.stride - layer.pad + layer.kernel - 1

    def test_single_read_victim_has_step(self, tiny_network, rng):
        f = sample_buffer_fault(tiny_network, "single_read", FXP_16B_RB10, rng)
        layer = tiny_network.layers[f.layer_index]
        in_shape = tiny_network.shapes[f.layer_index]
        *out_index, step = f.victim
        assert 0 <= step < layer.chain_length(in_shape)

    def test_unknown_scope_rejected(self, tiny_network, rng):
        with pytest.raises(ValueError):
            sample_buffer_fault(tiny_network, "bogus", FXP_16B_RB10, rng)

    def test_bit_pinning(self, tiny_network, rng):
        f = sample_buffer_fault(tiny_network, "layer_weight", FXP_16B_RB10, rng, bit=14)
        assert f.bit == 14


def _choice_datapath(network, dtype, rng, latch=None, bit=None, layer_index=None, burst=1):
    """The ``rng.choice``-based datapath draw, kept as the stream reference."""
    mac_counts = network.mac_counts()
    if layer_index is None:
        w = np.asarray(list(mac_counts.values()), dtype=np.float64)
        layer_index = int(rng.choice(list(mac_counts), p=w / w.sum()))
    layer = network.layers[layer_index]
    in_shape = network.shapes[layer_index]
    flat = int(rng.integers(layer.output_elements(in_shape)))
    out_index = tuple(int(v) for v in np.unravel_index(flat, layer.out_shape(in_shape)))
    step = int(rng.integers(layer.chain_length(in_shape)))
    chosen_latch = latch if latch is not None else str(rng.choice(DATAPATH_LATCHES))
    chosen_bit = int(rng.integers(dtype.width)) if bit is None else bit
    return DatapathFault(layer_index, out_index, step, chosen_latch, chosen_bit, burst)


def _choice_buffer(network, scope, dtype, rng, occupancy=None):
    """The ``rng.choice``-based buffer draw, kept as the stream reference."""
    mac_idx = network.mac_layer_indices()
    chosen_bit = int(rng.integers(dtype.width))

    def weighted(items, weights):
        w = np.asarray(weights, dtype=np.float64)
        return int(rng.choice(items, p=w / w.sum()))

    def by_occupancy(candidates):
        weights = occupancy.layer_weights(SCOPE_COMPONENT[scope])
        usable = {li: w for li, w in weights.items() if li in candidates}
        if not usable:
            return None
        return weighted(list(usable), [usable[i] for i in usable])

    def victim_of(shape):
        flat = int(rng.integers(int(np.prod(shape))))
        return tuple(int(v) for v in np.unravel_index(flat, shape))

    if scope == "layer_weight":
        li = by_occupancy(mac_idx) if occupancy else None
        if li is None:
            li = weighted(mac_idx, [network.layers[i].params()["weight"].size for i in mac_idx])
        victim = victim_of(network.layers[li].params()["weight"].shape)
        return BufferFault(scope, li, victim, chosen_bit)
    if scope in ("row_activation", "next_layer"):
        candidates = mac_idx
        if scope == "row_activation":
            candidates = [i for i in mac_idx if network.layers[i].kind == "conv"]
        li = by_occupancy(candidates) if occupancy else None
        if li is None:
            li = weighted(candidates, [int(np.prod(network.shapes[i])) for i in candidates])
        victim = victim_of(network.shapes[li])
        residency_row = -1
        if scope == "row_activation":
            layer = network.layers[li]
            _, oh, _ = layer.out_shape(network.shapes[li])
            tops = [oy * layer.stride - layer.pad for oy in range(oh)]
            rows = [oy for oy, y0 in enumerate(tops) if y0 <= victim[1] <= y0 + layer.kernel - 1]
            residency_row = int(rng.choice(rows)) if rows else 0
        return BufferFault(scope, li, victim, chosen_bit, 1, residency_row)
    dp = _choice_datapath(network, dtype, rng, latch="psum", bit=chosen_bit)
    return BufferFault(scope, dp.layer_index, (*dp.out_index, dp.step), chosen_bit)


class TestDrawsPinned:
    """The samplers consume each trial's stream exactly as the
    ``rng.choice``-based draws above do, so no campaign's faults move."""

    SEEDS = range(200)

    @pytest.fixture(scope="class", params=["tiny", "ConvNet", "AlexNet", "NiN"])
    def network(self, request):
        if request.param == "tiny":
            from tests.conftest import build_tiny_network

            return build_tiny_network()
        return get_network(request.param)

    def test_datapath_draws(self, network):
        li = network.mac_layer_indices()[-1]
        pins = [{}, {"latch": "product"}, {"layer_index": li}, {"bit": 3},
                {"latch": "psum", "layer_index": li, "bit": 0}]
        for pin in pins:
            for t in self.SEEDS:
                got = sample_datapath_fault(network, FLOAT16, child_rng(9, t), **pin)
                assert got == _choice_datapath(network, FLOAT16, child_rng(9, t), **pin), (pin, t)

    @pytest.mark.parametrize("occupied", [False, True], ids=["sizes", "occupancy"])
    def test_buffer_draws(self, network, occupied):
        occupancy = build_occupancy(network, EYERISS_16NM) if occupied else None
        for scope in FAULT_SCOPES:
            for t in self.SEEDS:
                got = sample_buffer_fault(network, scope, FXP_16B_RB10, child_rng(9, t),
                                          occupancy=occupancy)
                want = _choice_buffer(network, scope, FXP_16B_RB10, child_rng(9, t), occupancy)
                assert got == want, (scope, t)
