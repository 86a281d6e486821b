"""Injection engines: chain replay semantics and fault spreading."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.fault import DATAPATH_LATCHES, BufferFault, DatapathFault, sample_buffer_fault
from repro.core.injector import (
    inject_buffer,
    inject_datapath,
    prepare_buffer,
    prepare_datapath,
    replay_chain,
    replay_datapath,
)
from repro.dtypes import DOUBLE, DTYPES, FLOAT16, FXP_16B_RB10
from repro.dtypes.base import DataType
from repro.nn import Conv2D, Dense, Flatten, Network
from repro.nn.im2col import window_out_span
from repro.nn.layers.base import MacChain
from repro.utils.rng import child_rng
from repro.zoo.registry import eval_inputs, get_network
from tests.conftest import build_tiny_network, reference_datapath


def chain_of(weights, inputs, bias=0.0):
    return MacChain(
        weights=np.asarray(weights, dtype=np.float64),
        inputs=np.asarray(inputs, dtype=np.float64),
        bias=float(bias),
    )


class TestReplayChain:
    def test_clean_matches_dot_product_in_double(self, rng):
        w, a = rng.normal(0, 1, 20), rng.normal(0, 1, 20)
        assert replay_chain(DOUBLE, chain_of(w, a, 0.5)) == pytest.approx(w @ a + 0.5)

    def test_weight_operand_fault(self):
        chain = chain_of([1.0, 2.0], [1.0, 1.0])
        f = DatapathFault(0, (0,), 0, "weight_operand", 14)  # +16 in 16b_rb10
        assert replay_chain(FXP_16B_RB10, chain, f) == pytest.approx(19.0)

    def test_input_operand_fault(self):
        chain = chain_of([2.0, 1.0], [1.0, 1.0])
        f = DatapathFault(0, (0,), 0, "input_operand", 14)
        # input 1.0 -> 17.0; product 34 saturates at 31.99..; +1
        expected = FXP_16B_RB10.add(np.array([FXP_16B_RB10.max_value]), np.array([1.0]))[0]
        assert replay_chain(FXP_16B_RB10, chain, f) == expected

    def test_product_fault(self):
        chain = chain_of([1.0, 1.0], [1.0, 1.0])
        f = DatapathFault(0, (0,), 1, "product", 12)  # product 1 -> 5
        assert replay_chain(FXP_16B_RB10, chain, f) == pytest.approx(6.0)

    def test_psum_fault_corrupts_running_sum_before_add(self):
        chain = chain_of([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], bias=0.0)
        # At step 2 the running sum is 2.0; flip bit 11 (2 units) -> 0.0
        f = DatapathFault(0, (0,), 2, "psum", 11)
        assert replay_chain(FXP_16B_RB10, chain, f) == pytest.approx(1.0)

    def test_accumulator_fault_corrupts_after_add(self):
        chain = chain_of([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        # After step 2's add the sum is 3.0; flip bit 10 (1 unit) -> 2.0
        f = DatapathFault(0, (0,), 2, "accumulator", 10)
        assert replay_chain(FXP_16B_RB10, chain, f) == pytest.approx(2.0)

    def test_accumulator_fault_last_step_equals_output_flip(self, rng):
        w, a = rng.normal(0, 0.2, 8), rng.normal(0, 0.2, 8)
        chain = chain_of(w, a, 0.1)
        clean = replay_chain(FLOAT16, chain)
        f = DatapathFault(0, (0,), 7, "accumulator", 15)  # sign flip at last step
        assert replay_chain(FLOAT16, chain, f) == pytest.approx(-clean)

    def test_fault_on_zero_operand_is_masked(self):
        chain = chain_of([0.5, 0.5], [0.0, 1.0])
        clean = replay_chain(FXP_16B_RB10, chain)
        f = DatapathFault(0, (0,), 0, "weight_operand", 13)
        assert replay_chain(FXP_16B_RB10, chain, f) == clean  # 0 input masks it

    def test_step_out_of_range(self):
        chain = chain_of([1.0], [1.0])
        with pytest.raises(ValueError):
            replay_chain(FLOAT16, chain, DatapathFault(0, (0,), 5, "psum", 0))

    def test_unknown_latch(self):
        chain = chain_of([1.0], [1.0])
        f = DatapathFault.__new__(DatapathFault)  # bypass validation
        object.__setattr__(f, "layer_index", 0)
        object.__setattr__(f, "out_index", (0,))
        object.__setattr__(f, "step", 0)
        object.__setattr__(f, "latch", "bogus")
        object.__setattr__(f, "bit", 0)
        with pytest.raises(ValueError):
            replay_chain(FLOAT16, chain, f)

    def test_saturating_chain_replay(self):
        # A huge corrupted product saturates and later steps subtract
        # from the rail — exact FxP accumulator behaviour.
        chain = chain_of([1.0, 1.0], [20.0, -5.0])
        f = DatapathFault(0, (0,), 0, "product", 14)  # 20 -> 4 (bit 14 = 16)
        assert replay_chain(FXP_16B_RB10, chain, f) == pytest.approx(-1.0)


class TestInjectDatapath:
    def test_changes_exactly_one_chain_then_propagates(self, tiny_network, tiny_input):
        golden = tiny_network.forward(tiny_input, dtype=FLOAT16, record=True)
        fault = DatapathFault(0, (1, 3, 3), 2, "accumulator", 14)
        res = inject_datapath(tiny_network, FLOAT16, fault, golden, record=True)
        assert not res.masked
        patched = res.faulty_activations[0]
        ref = golden.activations[1]
        diff = patched != ref
        assert diff.sum() == 1 and diff[1, 3, 3]

    def test_masked_returns_golden_scores(self, tiny_network, tiny_input):
        golden = tiny_network.forward(tiny_input, dtype=FLOAT16, record=True)
        # find an input tap that is zero (padding) for a masked result
        chainless = None
        layer = tiny_network.layers[0]
        chain = layer.mac_operands(golden.activations[0], (0, 0, 0), FLOAT16)
        zero_step = int(np.where(chain.inputs == 0)[0][0])
        fault = DatapathFault(0, (0, 0, 0), zero_step, "weight_operand", 10)
        res = inject_datapath(tiny_network, FLOAT16, fault, golden, record=True)
        assert res.masked
        assert np.array_equal(res.scores, golden.scores)
        assert res.faulty_activations == []

    def test_non_mac_layer_rejected(self, tiny_network, tiny_input):
        golden = tiny_network.forward(tiny_input, dtype=FLOAT16, record=True)
        with pytest.raises(TypeError):
            inject_datapath(tiny_network, FLOAT16, DatapathFault(1, (0, 0, 0), 0, "psum", 0), golden)

    def test_deterministic(self, tiny_network, tiny_input):
        golden = tiny_network.forward(tiny_input, dtype=FLOAT16, record=True)
        fault = DatapathFault(3, (2, 1, 1), 5, "psum", 13)
        a = inject_datapath(tiny_network, FLOAT16, fault, golden)
        b = inject_datapath(tiny_network, FLOAT16, fault, golden)
        assert np.array_equal(a.scores, b.scores)

    def test_values_recorded(self, tiny_network, tiny_input):
        golden = tiny_network.forward(tiny_input, dtype=FLOAT16, record=True)
        fault = DatapathFault(0, (0, 2, 2), 1, "accumulator", 14)
        res = inject_datapath(tiny_network, FLOAT16, fault, golden)
        assert res.value_after != res.value_before


class TestInjectBuffer:
    def test_layer_weight_spreads_across_layer(self, tiny_network, tiny_input):
        golden = tiny_network.forward(tiny_input, dtype=FLOAT16, record=True)
        fault = BufferFault("layer_weight", 0, (0, 0, 1, 1), 14)
        res = inject_buffer(tiny_network, FLOAT16, fault, golden, record=True)
        assert not res.masked
        # All corrupted outputs are in the victim weight's output channel 0
        diff = res.faulty_activations[0] != golden.activations[1]
        assert diff[0].sum() > 1  # many output pixels affected (reuse!)
        assert diff[1:].sum() == 0

    def test_layer_weight_does_not_mutate_network(self, tiny_network, tiny_input):
        golden = tiny_network.forward(tiny_input, dtype=FLOAT16, record=True)
        w_before = tiny_network.layers[0].weight.copy()
        fault = BufferFault("layer_weight", 0, (0, 0, 0, 0), 14)
        inject_buffer(tiny_network, FLOAT16, fault, golden)
        assert np.array_equal(tiny_network.layers[0].weight, w_before)
        again = tiny_network.forward(tiny_input, dtype=FLOAT16)
        assert np.array_equal(again.scores, golden.scores)

    def test_layer_weight_copies_the_read_only_weight_cache(self, tiny_network, tiny_input):
        golden = tiny_network.forward(tiny_input, dtype=FLOAT16, record=True)
        w, _ = tiny_network.layers[0].quantized_weights(FLOAT16)
        w_before = w.copy()
        fault = BufferFault("layer_weight", 0, (0, 0, 1, 1), 14)
        assert not inject_buffer(tiny_network, FLOAT16, fault, golden).masked
        assert tiny_network.layers[0].quantized_weights(FLOAT16)[0] is w
        assert not w.flags.writeable
        assert np.array_equal(w, w_before)

    def test_next_layer_corrupts_one_stored_act(self, tiny_network, tiny_input):
        golden = tiny_network.forward(tiny_input, dtype=FLOAT16, record=True)
        li = tiny_network.mac_layer_indices()[1]
        victim = (0, 1, 1)
        fault = BufferFault("next_layer", li, victim, 14)
        res = inject_buffer(tiny_network, FLOAT16, fault, golden, record=True)
        if not res.masked:
            diff = res.faulty_activations[0] != golden.activations[li]
            assert diff.sum() == 1

    def test_row_activation_affects_only_residency_row(self, tiny_network, tiny_input):
        golden = tiny_network.forward(tiny_input, dtype=FLOAT16, record=True)
        # pick a nonzero input pixel of conv2 (layer index 3)
        x = golden.activations[3]
        nz = np.argwhere(x != 0)
        c, y, xp = (int(v) for v in nz[0])
        oy = min(y, tiny_network.layers[3].out_shape(x.shape)[1] - 1)
        fault = BufferFault("row_activation", 3, (c, y, xp), 14, residency_row=oy)
        res = inject_buffer(tiny_network, FLOAT16, fault, golden, record=True)
        if not res.masked:
            diff = res.faulty_activations[0] != golden.activations[4]
            rows = {int(r) for r in np.argwhere(diff)[:, 1]}
            assert rows == {oy}

    def test_row_activation_nonreading_row_masked(self, tiny_network, tiny_input):
        golden = tiny_network.forward(tiny_input, dtype=FLOAT16, record=True)
        x = golden.activations[3]
        nz = np.argwhere(x != 0)
        c, y, xp = (int(v) for v in nz[-1])
        _, oh, _ = tiny_network.layers[3].out_shape(x.shape)
        # pick an output row whose window cannot cover input row y
        bad_rows = [
            oy for oy in range(oh)
            if not (oy - 1 <= y <= oy + 1)  # kernel 3, stride 1, pad 1
        ]
        if bad_rows:
            fault = BufferFault("row_activation", 3, (c, y, xp), 14, residency_row=bad_rows[0])
            res = inject_buffer(tiny_network, FLOAT16, fault, golden)
            assert res.masked

    def test_row_activation_unread_column_masked(self, rng):
        """A strided sweep skips some ifmap columns; an Img REG fault
        there is never consumed, exactly like a residency-row miss."""
        layer = Conv2D("c1", 2, 3, 1, stride=2)
        network = Network("strided", [layer, Flatten("fl")], input_shape=(2, 6, 6))
        layer.weight[:] = rng.normal(0.0, 0.4, layer.weight.shape)
        golden = network.forward(rng.normal(0.0, 1.0, (2, 6, 6)), dtype=FLOAT16, record=True)
        # 1x1 kernel at stride 2: output (0, 0) reads only pixel (0, 0).
        for victim in ((0, 0, 1), (0, 1, 0)):
            fault = BufferFault("row_activation", 0, victim, 14, residency_row=0)
            prep = prepare_buffer(network, FLOAT16, fault, golden)
            assert prep.masked, victim
            assert prep.value_after == prep.value_before

    def test_single_read_equals_datapath_psum(self, tiny_network, tiny_input):
        golden = tiny_network.forward(tiny_input, dtype=FLOAT16, record=True)
        bf = BufferFault("single_read", 0, (1, 2, 2, 4), 13)
        dp = DatapathFault(0, (1, 2, 2), 4, "psum", 13)
        a = inject_buffer(tiny_network, FLOAT16, bf, golden)
        b = inject_datapath(tiny_network, FLOAT16, dp, golden)
        assert np.array_equal(a.scores, b.scores)

    def test_unknown_scope(self, tiny_network, tiny_input):
        golden = tiny_network.forward(tiny_input, dtype=FLOAT16, record=True)
        bad = BufferFault.__new__(BufferFault)
        object.__setattr__(bad, "scope", "bogus")
        object.__setattr__(bad, "layer_index", 0)
        object.__setattr__(bad, "victim", (0,))
        object.__setattr__(bad, "bit", 0)
        object.__setattr__(bad, "residency_row", -1)
        with pytest.raises(ValueError):
            inject_buffer(tiny_network, FLOAT16, bad, golden)


def reference_row_activation(network, dtype, fault, golden, storage_dtype=None):
    """Independent per-chain oracle for an Img REG (``row_activation``) fault.

    Every (filter, column) chain of the residency row is rebuilt with
    ``mac_operands`` on a corrupted copy of the ifmap and replayed alone
    with :func:`replay_chain` (1-D ``multiply`` + ``partials`` from step
    0, never a shared prefix).  A chain whose narrowed value differs from
    the clean replay (NaN-aware) patches the golden output; the box spans
    the residency row's columns whose windows read the victim.  Besides
    the preparation's fields, reports whether any corrupted chain's running
    sum left the format's range (``saturated``) or ended inf/NaN
    (``nonfinite``).
    """
    li = fault.layer_index
    layer = network.layers[li]
    store = storage_dtype or dtype
    x = golden.activations[li]
    before = float(x[fault.victim])
    after = float(store.flip_bits(np.array([before]), fault.bit, fault.burst)[0])
    x_bad = x.copy()
    x_bad[fault.victim] = dtype.quantize(np.array([after]))[0]
    narrow = storage_dtype if li in network.block_output_indices() else None
    act = golden.activations[li + 1].copy()
    n_out, _, ow = layer.out_shape(x.shape)
    changed = saturated = nonfinite = False
    read = set()
    for f in range(n_out):
        for ox in range(ow):
            idx = (f, fault.residency_row, ox)
            chain_ok = layer.mac_operands(x, idx, dtype)
            chain_bad = layer.mac_operands(x_bad, idx, dtype)
            if np.array_equal(chain_bad.inputs, chain_ok.inputs):
                continue  # this window never reads the victim pixel
            read.add(ox)
            ok = np.array([replay_chain(dtype, chain_ok)])
            bad = np.array([replay_chain(dtype, chain_bad)])
            steps = dtype.multiply(chain_bad.weights, chain_bad.inputs)
            running = np.cumsum(np.concatenate(([chain_bad.bias], steps)))
            saturated |= bool(np.any((running > dtype.max_value) | (running < dtype.min_value)))
            if narrow is not None:
                ok, bad = narrow.quantize(ok), narrow.quantize(bad)
            nonfinite |= not np.isfinite(bad[0])
            if not (bad[0] == ok[0] or (np.isnan(bad[0]) and np.isnan(ok[0]))):
                act[idx] = bad[0]
                changed = True
    oy = fault.residency_row
    return SimpleNamespace(
        masked=not changed,
        value_before=before,
        value_after=after if changed else before,
        box=(oy, oy + 1, min(read), max(read) + 1) if changed else None,
        act=act if changed else None,
        saturated=saturated,
        nonfinite=nonfinite,
    )


def _row_activation_faults(network, golden, store: DataType, n_sampled: int):
    """Sampled Img REG faults plus, on every conv layer, flips of the top
    non-sign bit, the sign bit and a two-bit burst below them, on the
    largest-magnitude ifmap pixel and on one with magnitude in [1, 2)
    (whose top-exponent flip is inf or NaN)."""
    faults = [
        sample_buffer_fault(network, "row_activation", store, child_rng(5, t))
        for t in range(n_sampled)
    ]
    for li in network.mac_layer_indices():
        layer = network.layers[li]
        if not isinstance(layer, Conv2D):
            continue
        x = golden.activations[li]
        _, oh, _ = layer.out_shape(x.shape)
        victims = [np.unravel_index(np.argmax(np.abs(x)), x.shape)]
        victims += [tuple(np.argwhere((np.abs(x) >= 1) & (np.abs(x) < 2))[0])]
        for victim in victims:
            victim = tuple(int(v) for v in victim)
            lo, hi = window_out_span(victim[1], victim[1] + 1, layer.kernel, layer.stride,
                                     layer.pad, oh)
            for bit, burst in ((store.width - 2, 1), (store.width - 1, 1), (store.width - 3, 2)):
                faults.append(
                    BufferFault("row_activation", li, victim, bit, burst, (lo + hi) // 2)
                )
    return faults


def build_bare_conv_network() -> Network:
    """Two convs with no layer between them: ``c1``'s output is a block
    output, so Proteus narrows it to the storage format, and ``c2`` is
    strided."""
    network = Network(
        "bare",
        [
            Conv2D("c1", 3, 4, 3, stride=1, pad=1),
            Conv2D("c2", 4, 5, 3, stride=2, pad=1),
            Flatten("fl"),
            Dense("fc", 5 * 4 * 4, 3),
        ],
        input_shape=(3, 8, 8),
        has_confidence=False,
    )
    g = np.random.default_rng(1)
    for i in network.mac_layer_indices():
        params = network.layers[i].params()
        params["weight"][:] = g.normal(0.0, 0.4, params["weight"].shape)
        params["bias"][:] = g.normal(0.0, 0.05, params["bias"].shape)
    return network


ROW_CONFIGS = [(name, None) for name in DTYPES] + [("FLOAT", "FLOAT16"), ("32b_rb10", "16b_rb10")]


def _same_bits(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class TestRowActivationReference:
    """``prepare_buffer``'s Img REG build against the per-chain oracle."""

    @pytest.mark.parametrize(
        "dtype_name,storage_name", ROW_CONFIGS,
        ids=[f"{d}/{s}" if s else d for d, s in ROW_CONFIGS],
    )
    def test_matches_per_chain_reference(self, dtype_name, storage_name):
        dtype = DTYPES[dtype_name]
        storage = DTYPES[storage_name] if storage_name else None
        store = storage or dtype
        x_small = np.random.default_rng(0).normal(0.0, 1.0, (3, 8, 8))
        cases = [
            (build_tiny_network(), x_small, 8),
            (build_bare_conv_network(), x_small, 8),
            (get_network("ConvNet"), eval_inputs("ConvNet", 1)[0], 4),
        ]
        saturated = nonfinite = unmasked = 0
        for network, x, n_sampled in cases:
            golden = network.forward(x, dtype=dtype, record=True, storage_dtype=storage)
            for fault in _row_activation_faults(network, golden, store, n_sampled):
                ref = reference_row_activation(network, dtype, fault, golden, storage)
                prep = prepare_buffer(network, dtype, fault, golden, storage)
                assert prep.masked == ref.masked, fault
                assert _same_bits(prep.value_before, ref.value_before), fault
                assert _same_bits(prep.value_after, ref.value_after), fault
                assert prep.box == ref.box, fault
                if not ref.masked:
                    assert prep.act.tobytes() == ref.act.tobytes(), fault
                saturated += ref.saturated
                nonfinite += ref.nonfinite
                unmasked += not ref.masked
        assert unmasked > 0
        if store.is_float:
            assert nonfinite > 0  # top-exponent flips reached inf/NaN
        if dtype_name == "16b_rb10":
            assert saturated > 0  # integer-bit flips saturated mid-chain


def _faulty_addends(dtype, chain, fault) -> np.ndarray:
    """The faulty chain as its accumulator adds it: the start value, then
    each later addend.  Its unsaturated float64 cumsum leaves the
    format's range exactly when the fixed-point accumulator saturates."""
    k = fault.step
    products = dtype.multiply(chain.weights, chain.inputs)

    def running(n):  # the clean sum after n steps
        return replay_chain(dtype, MacChain(chain.weights[:n], chain.inputs[:n], chain.bias))

    def flip(v):
        return dtype.flip_bits(np.array([v]), fault.bit, fault.burst)[0]

    if fault.latch == "psum":
        return np.concatenate(([flip(running(k))], products[k:]))
    if fault.latch == "accumulator":
        return np.concatenate(([flip(running(k + 1))], products[k + 1 :]))
    w, a = chain.weights[k], chain.inputs[k]
    if fault.latch == "weight_operand":
        products[k] = dtype.multiply(np.array([flip(w)]), np.array([a]))[0]
    elif fault.latch == "input_operand":
        products[k] = dtype.multiply(np.array([w]), np.array([flip(a)]))[0]
    else:
        products[k] = flip(products[k])
    return np.concatenate(([chain.bias], products))


def _datapath_faults(network, golden, dtype, seed=7):
    """Every latch at steps 0, K-1 and a drawn middle step of two chains
    per MAC layer: a drawn output element and one whose value lies in
    [1, 2) (top-exponent flips of it are inf/NaN).  Each with a drawn
    single bit, a drawn 2-bit burst, a 2-bit burst clipped at the MSB and
    the top non-sign bit."""
    g = np.random.default_rng(seed)
    width = dtype.width
    faults = []
    for li in network.mac_layer_indices():
        layer, in_shape = network.layers[li], network.shapes[li]
        out = golden.activations[li + 1]
        length = layer.chain_length(in_shape)
        hits = np.argwhere((np.abs(out) >= 1) & (np.abs(out) < 2))
        big = hits[0] if len(hits) else np.unravel_index(np.argmax(np.abs(out)), out.shape)
        drawn = np.unravel_index(int(g.integers(layer.output_elements(in_shape))), out.shape)
        steps = sorted({0, length - 1, int(g.integers(length))})
        bits = [(int(g.integers(width)), 1), (int(g.integers(width - 1)), 2), (width - 1, 2),
                (width - 2, 1)]
        for out_index in (tuple(int(v) for v in ix) for ix in (big, drawn)):
            for step in steps:
                for latch in DATAPATH_LATCHES:
                    for bit, burst in bits:
                        faults.append(DatapathFault(li, out_index, step, latch, bit, burst))
    return faults


def _slice_preps(network, dtype, faults, goldens, storage):
    """Prepare each fault from values replayed as ``run_many`` replays a
    slice: one :func:`replay_datapath` call per MAC layer."""
    layers: dict[int, list[int]] = {}
    for i, fault in enumerate(faults):
        layers.setdefault(fault.layer_index, []).append(i)
    replayed = {}
    for rows in layers.values():
        values = replay_datapath(network, dtype, [faults[i] for i in rows],
                                 [goldens[i] for i in rows])
        replayed.update(zip(rows, values))
    return [
        prepare_datapath(network, dtype, fault, goldens[i], storage, replayed=replayed[i])
        for i, fault in enumerate(faults)
    ]


class TestDatapathReference:
    """``prepare_datapath``, on its own and from a slice replay over two
    inputs, against the per-chain oracle
    (``tests/conftest.py::reference_datapath``), field for field."""

    @pytest.mark.parametrize(
        "dtype_name,storage_name", ROW_CONFIGS,
        ids=[f"{d}/{s}" if s else d for d, s in ROW_CONFIGS],
    )
    def test_matches_per_chain_reference(self, dtype_name, storage_name):
        dtype = DTYPES[dtype_name]
        storage = DTYPES[storage_name] if storage_name else None
        g = np.random.default_rng(0)
        cases = [
            (build_tiny_network(), [g.normal(0.0, 1.0, (3, 8, 8)) for _ in range(2)]),
            (get_network("ConvNet"), eval_inputs("ConvNet", 2)),
        ]
        seen = dict.fromkeys(("unmasked", "saturated", "nonfinite", "narrowed", "fc"), 0)
        for network, xs in cases:
            both = [network.forward(x, dtype=dtype, record=True, storage_dtype=storage)
                    for x in xs]
            faults = _datapath_faults(network, both[0], dtype)
            goldens = [both[i % 2] for i in range(len(faults))]
            alone = [prepare_datapath(network, dtype, f, gd, storage)
                     for f, gd in zip(faults, goldens)]
            sliced = _slice_preps(network, dtype, faults, goldens, storage)
            for fault, golden, *preps in zip(faults, goldens, alone, sliced):
                ref = reference_datapath(network, dtype, fault, golden, storage)
                for prep in preps:
                    assert prep.resume_index == ref.resume_index, fault
                    assert prep.masked == ref.masked, fault
                    assert _same_bits(prep.value_before, ref.value_before), fault
                    assert _same_bits(prep.value_after, ref.value_after), fault
                    assert prep.box == ref.box, fault
                    if not ref.masked:
                        assert prep.act.tobytes() == ref.act.tobytes(), fault
                li = fault.layer_index
                chain = network.layers[li].mac_operands(golden.activations[li], fault.out_index,
                                                        dtype)
                with np.errstate(invalid="ignore", over="ignore"):
                    running = np.cumsum(_faulty_addends(dtype, chain, fault))
                seen["saturated"] += bool(np.any((running > dtype.max_value)
                                                 | (running < dtype.min_value)))
                seen["nonfinite"] += not np.isfinite(ref.value_after)
                seen["unmasked"] += not ref.masked
                seen["fc"] += len(fault.out_index) == 1 and not ref.masked
                seen["narrowed"] += bool(storage) and li in network.block_output_indices()
        assert seen["unmasked"] > 0 and seen["fc"] > 0, seen
        if dtype.is_float:
            assert seen["nonfinite"] > 0, seen  # top-exponent flips reached inf/NaN
        else:
            assert seen["saturated"] > 0, seen  # the faulty accumulator hit a rail
        if storage is not None:
            assert seen["narrowed"] > 0, seen


class TestRowActivationCost:
    def test_one_tap_gather_per_column_and_one_multiply(self, tiny_network, tiny_input,
                                                        monkeypatch):
        """The chain build gathers each affected column's taps once and
        forms the products of all filters in one broadcast multiply (plus
        the corrupt taps'), instead of two chains per (filter, column)."""
        golden = tiny_network.forward(tiny_input, dtype=FLOAT16, record=True)
        li = 3  # c2: 3x3 kernel, pad 1, stride 1, 6 filters
        layer = tiny_network.layers[li]
        x = golden.activations[li]
        victim = tuple(int(v) for v in np.argwhere(np.abs(x) >= 1)[0])
        _, _, ow = layer.out_shape(x.shape)
        lo, hi = window_out_span(victim[2], victim[2] + 1, layer.kernel, layer.stride,
                                 layer.pad, ow)
        ncols = hi - lo
        calls = {"mac_operands": 0, "multiply": 0}

        def counted(cls, name):
            real = getattr(cls, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(cls, name, wrapper)

        counted(Conv2D, "mac_operands")
        counted(type(FLOAT16), "multiply")
        fault = BufferFault("row_activation", li, victim, 14, residency_row=victim[1])
        prep = prepare_buffer(tiny_network, FLOAT16, fault, golden)
        assert not prep.masked
        assert 0 < calls["mac_operands"] <= ncols
        assert 0 < calls["multiply"] <= ncols + 1
