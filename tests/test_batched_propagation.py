"""Batched fault propagation: bit-exactness, golden immutability, parity.

The campaign hot path cuts a slice's prepared corruptions into groups
across resume layers and propagates each group through one
``Network.forward_from_batch`` call, which admits every trial at its own
layer.  The contract is byte-identity with the per-trial
``forward_from`` path — per trial, on scores and on every recorded
activation — which these tests enforce over mixed datapath and buffer
faults, with and without the Proteus storage narrowing, for both the
plain stacked engine and the delta engine (goldens + box patches), in
groups of one resume layer and of many, and through padded max-pools.
Further tests pin the delta engine's box patches at fmap edges, through
strided and padded windows, LRN and mixed box shapes, the elements each
call recomputes, the full fmaps it builds, and the slice's fill of its
groups.  Campaign-level
tests compare every group size with a trial-by-trial full-recompute
reference and drive the quarantine of groups whose propagation raises.
"""

import json

import numpy as np
import pytest

from repro.core.campaign import (
    CampaignSpec,
    TrialError,
    _CampaignTask,
    propagation_order,
    record_trial_metrics,
    run_campaign,
)
from repro.core.fault import BufferFault, DatapathFault, sample_buffer_fault, sample_datapath_fault
from repro.core.injector import finish_injection, prepare_buffer, prepare_datapath
from repro.core.serialize import campaign_summary
from repro.dtypes import DTYPES, FLOAT16
from repro.nn import LRN, Conv2D, Dense, Flatten, MaxPool2D, ReLU
from repro.nn.network import Network
from repro.obs.metrics import MetricsRegistry
from repro.utils.rng import child_rng
from repro.zoo import eval_inputs, get_network
from tests.conftest import build_tiny_network, reference_campaign

BUFFER_SCOPES = ("layer_weight", "row_activation", "next_layer", "single_read")


def golden_bytes(golden):
    return (golden.scores.tobytes(), [a.tobytes() for a in golden.activations])


def sample_preps(network, golden, storage_dtype, n=40, seed=42):
    """Mixed datapath + buffer preparations, serially seeded like a campaign."""
    preps = []
    for t in range(n):
        rng = child_rng(seed, t)
        if t % 2 == 0:
            fault = sample_datapath_fault(network, FLOAT16, rng)
            prep = prepare_datapath(network, FLOAT16, fault, golden, storage_dtype)
        else:
            scope = BUFFER_SCOPES[(t // 2) % len(BUFFER_SCOPES)]
            fault = sample_buffer_fault(
                network, scope, storage_dtype or FLOAT16, rng
            )
            prep = prepare_buffer(network, FLOAT16, fault, golden, storage_dtype)
        preps.append(prep)
    return preps


def edge_preps(network, golden, storage_dtype):
    """Corruptions of the first and last rows of every conv input and output.

    Global Buffer flips reach the conv first; accumulator flips of each
    conv output's largest value go straight to its ReLU and max-pool.
    """
    preps = []
    for li in network.mac_layer_indices():
        if network.layers[li].kind != "conv":
            continue
        c, h, w = network.shapes[li]
        for row in (0, h - 1):
            fault = BufferFault(scope="next_layer", layer_index=li, victim=(c - 1, row, w // 2), bit=14)
            preps.append(prepare_buffer(network, FLOAT16, fault, golden, storage_dtype))
        out = golden.activations[li + 1]
        steps = network.layers[li].chain_length(network.shapes[li])
        for row in (0, out.shape[1] - 1):
            f = int(np.argmax(out[:, row, 0]))
            fault = DatapathFault(li, (f, row, 0), steps - 1, "accumulator", bit=14)
            preps.append(prepare_datapath(network, FLOAT16, fault, golden, storage_dtype))
    return preps


#: (storage format, max-pool padding).  The padded tiny network adds the
#: edge-row corruptions, where a padded pool's windows read ``-inf``.
VARIANTS = [
    pytest.param(None, 0, id="plain-storage"),
    pytest.param("FLOAT16", 0, id="proteus-storage"),
    pytest.param(None, 1, id="plain-storage-pool-pad1"),
    pytest.param("FLOAT16", 1, id="proteus-storage-pool-pad1"),
]


def unmasked_preps(tiny_input, storage_name, pool_pad):
    """``(network, golden, storage dtype, unmasked preparations)``."""
    storage = DTYPES[storage_name] if storage_name else None
    network = build_tiny_network(pool_pad=pool_pad)
    golden = network.forward(tiny_input, dtype=FLOAT16, record=True, storage_dtype=storage)
    preps = sample_preps(network, golden, storage)
    if pool_pad:
        edges = [p for p in edge_preps(network, golden, storage) if not p.masked]
        assert len(edges) >= 6
        preps += edges
    return network, golden, storage, [p for p in preps if not p.masked]


def assert_same_bytes(batch, refs):
    """Each trial of ``batch`` equals its reference result, byte for byte."""
    for b, ref in enumerate(refs):
        got = batch.result(b)
        assert got.scores.tobytes() == ref.scores.tobytes()
        assert len(got.activations) == len(ref.activations)
        for mine, theirs in zip(got.activations, ref.activations):
            assert mine.tobytes() == theirs.tobytes()


class TestSerialBatchedEquivalence:
    @pytest.mark.parametrize("storage_name,pool_pad", VARIANTS)
    def test_batch_matches_serial_bytes(self, tiny_input, storage_name, pool_pad):
        network, golden, storage, preps = unmasked_preps(tiny_input, storage_name, pool_pad)
        assert len(preps) >= 8  # the mix must actually exercise the batch
        groups: dict[int, list] = {}
        for prep in preps:
            groups.setdefault(prep.resume_index, []).append(prep)
        assert len(groups) >= 2  # several distinct resume layers
        for resume_index, items in groups.items():
            serial = [
                network.forward_from(
                    resume_index, p.act, dtype=FLOAT16, record=True,
                    storage_dtype=storage,
                )
                for p in items
            ]
            plain = network.forward_from_batch(
                resume_index, [p.act for p in items], dtype=FLOAT16,
                record=True, storage_dtype=storage,
            )
            delta = network.forward_from_batch(
                resume_index, [p.patch for p in items], dtype=FLOAT16,
                record=True, storage_dtype=storage,
                goldens=[golden] * len(items),
                boxes=[p.box for p in items],
            )
            for batch in (plain, delta):
                assert_same_bytes(batch, serial)

    @pytest.mark.parametrize("storage_name,pool_pad", VARIANTS)
    def test_mixed_resume_batch_matches_serial_bytes(self, tiny_input, storage_name, pool_pad):
        """One call propagates every trial, each from its own resume layer."""
        network, golden, storage, preps = unmasked_preps(tiny_input, storage_name, pool_pad)
        resume = [p.resume_index for p in preps]
        assert len(set(resume)) >= 3
        serial = [
            network.forward_from(
                p.resume_index, p.act, dtype=FLOAT16, record=True, storage_dtype=storage
            )
            for p in preps
        ]
        acts = [p.act for p in preps]
        plain = network.forward_from_batch(
            resume, acts, dtype=FLOAT16, record=True, storage_dtype=storage
        )
        delta = network.forward_from_batch(
            resume, [p.patch for p in preps], dtype=FLOAT16, record=True,
            storage_dtype=storage, goldens=[golden] * len(preps), boxes=[p.box for p in preps],
        )
        for batch in (plain, delta):
            assert_same_bytes(batch, serial)

    def test_batch_boundary_echoes_inputs(self, tiny_network, tiny_input):
        """resume index == len(layers) runs zero layers, like forward_from."""
        full = tiny_network.forward(tiny_input, dtype=FLOAT16, record=True)
        end = len(tiny_network.layers)
        acts = [full.activations[end], full.activations[end] * 0.5]
        batch = tiny_network.forward_from_batch(end, acts, dtype=FLOAT16)
        for b, act in enumerate(acts):
            assert np.array_equal(batch.scores[b], act.ravel())
        with pytest.raises(IndexError):
            tiny_network.forward_from_batch(end + 1, acts, dtype=FLOAT16)

    def test_batch_rejects_empty_and_bad_shapes(self, tiny_network, tiny_input):
        with pytest.raises(ValueError):
            tiny_network.forward_from_batch(0, [], dtype=FLOAT16)
        with pytest.raises(ValueError):
            tiny_network.forward_from_batch(0, [np.zeros((1, 2, 3))], dtype=FLOAT16)


class TestRoundingFormatParity:
    """Batch composition must not move a bit in formats that round.

    FLOAT16 and the fixed-point formats have float64 dot products that are
    exact in any summation order, and ``tiny_network``'s convolutions are a
    single 64-column tile, so the tests above cannot see a change in GEMM
    accumulation order (say, one ``(K, Bt * tc)`` GEMM per tile instead of
    one per trial).  DOUBLE and FLOAT sums round, and the reduced
    ConvNet's convolutions span several tiles with K up to 800.
    """

    @staticmethod
    def _unmasked(dtype_name, target):
        """96 faults on the reduced ConvNet; returns the unmasked ones and
        a ``propagate(resume layers, preps)`` for them."""
        network = get_network("ConvNet")
        dtype = DTYPES[dtype_name]
        golden = network.forward(eval_inputs("ConvNet", 1)[0], dtype=dtype, record=True)
        preps = []
        for t in range(96):
            rng = child_rng(5, t)
            if target == "datapath":
                fault = sample_datapath_fault(network, dtype, rng)
                prep = prepare_datapath(network, dtype, fault, golden)
            else:
                fault = sample_buffer_fault(network, target, dtype, rng)
                prep = prepare_buffer(network, dtype, fault, golden)
            if not prep.masked:
                preps.append(prep)
        assert len(preps) >= 48

        def propagate(resume, group):
            return network.forward_from_batch(
                resume, [p.patch for p in group], dtype=dtype, record=True,
                goldens=[golden] * len(group), boxes=[p.box for p in group],
            )

        return preps, propagate

    @staticmethod
    def _check_solo(propagate, batch, group):
        for b, prep in enumerate(group):
            solo = propagate(prep.resume_index, [prep])
            assert batch.scores[b].tobytes() == solo.scores[0].tobytes()
            assert len(batch.activations[b]) == len(solo.activations[0])
            for mine, theirs in zip(batch.activations[b], solo.activations[0]):
                assert mine.tobytes() == theirs.tobytes()

    @pytest.mark.parametrize("target", ["datapath", "next_layer"])
    @pytest.mark.parametrize("dtype_name", ["DOUBLE", "FLOAT"])
    def test_groups_of_eight_match_solo(self, dtype_name, target):
        preps, propagate = self._unmasked(dtype_name, target)
        groups: dict[int, list] = {}
        for prep in preps:
            groups.setdefault(prep.resume_index, []).append(prep)
        for resume_index, items in groups.items():
            for g0 in range(0, len(items), 8):
                group = items[g0 : g0 + 8]
                self._check_solo(propagate, propagate(resume_index, group), group)

    @pytest.mark.parametrize("target", ["datapath", "next_layer"])
    @pytest.mark.parametrize("dtype_name", ["DOUBLE", "FLOAT"])
    def test_mixed_resume_groups_of_eight_match_solo(self, dtype_name, target):
        """Groups of eight cut in ``run_many``'s order, across resume layers."""
        preps, propagate = self._unmasked(dtype_name, target)
        preps.sort(key=propagation_order)
        groups = [preps[g0 : g0 + 8] for g0 in range(0, len(preps), 8)]
        assert any(len({p.resume_index for p in group}) > 1 for group in groups)
        for group in groups:
            batch = propagate([p.resume_index for p in group], group)
            self._check_solo(propagate, batch, group)


def _net(name, layers, input_shape, seed=0):
    network = Network(name, layers, input_shape=input_shape)
    g = np.random.default_rng(seed)
    for i in network.mac_layer_indices():
        for arr in network.layers[i].params().values():
            arr[:] = g.normal(0.0, 0.3, arr.shape)
    return network


def _corrupt(golden, layer_index, victims, value=1000.0):
    """Golden input of ``layer_index`` with ``value`` written at ``victims``."""
    act = golden.activations[layer_index].copy()
    for victim in victims:
        act[victim] = value
    return act


def _patch(act, box):
    """``act``'s values over ``box``: what delta propagation is handed."""
    return None if box is None else act[:, box[0] : box[1], box[2] : box[3]]


def _delta(network, resume, acts, boxes, golden, dtype=FLOAT16, record=True):
    """Delta-propagate whole activations ``acts``, each confined to its box."""
    patches = [act if box is None else _patch(act, box) for act, box in zip(acts, boxes)]
    return network.forward_from_batch(
        resume, patches, dtype=dtype, record=record, goldens=[golden] * len(acts), boxes=boxes
    )


class TestOwnRowWindows:
    """ReLU, LRN and max-pool recompute each trial's own box in one
    stacked call: ReLU and LRN over the patches' pixels side by side,
    max-pool over exactly the boxes' windows."""

    def test_layers_recompute_only_the_boxes(self, monkeypatch):
        network = _net(
            "windows",
            [ReLU("r"), LRN("n"), MaxPool2D("p", 2), Flatten("fl"), Dense("fc", 4 * 4 * 4, 3)],
            (4, 8, 8),
        )
        x = np.random.default_rng(3).uniform(0.5, 1.5, (4, 8, 8))
        golden = network.forward(x, dtype=FLOAT16, record=True)
        h = network.shapes[0][1]
        acts = [
            _corrupt(golden, 0, [(1, 0, 3)]),
            _corrupt(golden, 0, [(2, h - 1, 5), (0, h - 1, 6)]),
        ]
        boxes = [(0, 1, 3, 4), (h - 1, h, 5, 7)]
        computed: dict[str, list[int]] = {"relu": [], "lrn": [], "pool": []}

        def spy(cls, method, kind, pixels):
            real = getattr(cls, method)

            def wrapper(self, *args, **kwargs):
                out = real(self, *args, **kwargs)
                computed[kind].append(pixels(out))
                return out

            monkeypatch.setattr(cls, method, wrapper)

        spy(ReLU, "forward", "relu", lambda y: y[0, 0].size)
        spy(LRN, "forward", "lrn", lambda y: y[0, 0].size)
        spy(MaxPool2D, "forward_rows", "pool", lambda ys: sum(y[0].size for y in ys))
        batch = _delta(network, 0, acts, boxes, golden)
        # ReLU and LRN: the boxes' 1 + 2 pixels; the 2x2 pool reads them
        # in 1 + 2 windows (columns 5 and 6 lie in two of them).
        assert computed == {"relu": [3], "lrn": [3], "pool": [3]}
        assert_same_bytes(batch, [network.forward_from(0, a, FLOAT16, True) for a in acts])

    def test_pool_that_skips_the_dirty_row(self):
        """A strided sweep that reads no dirty row leaves an empty output
        box: that trial is golden from the pool on."""
        network = _net(
            "skip",
            [ReLU("r"), MaxPool2D("p", 1, stride=2), Flatten("fl"), Dense("fc", 2 * 4 * 4, 3)],
            (2, 8, 8),
        )
        x = np.random.default_rng(4).uniform(0.5, 1.5, (2, 8, 8))
        golden = network.forward(x, dtype=FLOAT16, record=True)
        skipped, read = _corrupt(golden, 0, [(0, 3, 2)]), _corrupt(golden, 0, [(1, 4, 6)])
        for acts, boxes in (([skipped, read], [(3, 4, 2, 3), (4, 5, 6, 7)]),
                            ([skipped], [(3, 4, 2, 3)])):
            batch = _delta(network, 0, acts, boxes, golden)
            assert_same_bytes(batch, [network.forward_from(0, a, FLOAT16, True) for a in acts])
        assert batch.scores[0].tobytes() == golden.scores.tobytes()

    def test_live_set_empties_before_a_later_join(self, tiny_input):
        """A trial that ReLU masks leaves no live trial at the first pool;
        a confined trial joins at the second conv, an unconfined one at
        the fc."""
        network = build_tiny_network()
        golden = network.forward(tiny_input, dtype=FLOAT16, record=True)
        negative = tuple(int(v) for v in np.argwhere(golden.activations[1] < 0)[0])
        masked = _corrupt(golden, 1, [negative], value=-1000.0)
        late = _corrupt(golden, 3, [(1, 1, 1)])
        fc = network.layers.index(network.layer_named("fc"))
        unconfined = golden.activations[fc] * 2.0
        resume = [1, 3, fc]
        acts = [masked, late, unconfined]
        _, y, x = negative
        batch = _delta(network, resume, acts, [(y, y + 1, x, x + 1), (1, 2, 1, 2), None], golden)
        assert_same_bytes(
            batch, [network.forward_from(r, a, FLOAT16, True) for r, a in zip(resume, acts)]
        )
        assert batch.scores[0].tobytes() == golden.scores.tobytes()
        assert batch.scores[1].tobytes() != golden.scores.tobytes()


def _box_net():
    """Padded k3 and k5, unpadded k5 and 1x1 convs, LRN, a padded max-pool
    and a strided one that reads every other column: 16x16 down to 2x2."""
    return _net(
        "boxes",
        [
            Conv2D("c1", 3, 6, 3, pad=1), ReLU("r1"), LRN("n1", n=3),
            MaxPool2D("p1", 3, stride=2, pad=1), Conv2D("c2", 6, 8, 5, pad=2), ReLU("r2"),
            Conv2D("c3", 8, 8, 5), ReLU("r3"), Conv2D("cccp", 8, 8, 1), ReLU("r4"),
            MaxPool2D("p2", 1, stride=2), Flatten("fl"), Dense("fc", 8 * 2 * 2, 5),
        ],
        (3, 16, 16),
    )


def _strided_net():
    """AlexNet conv1's geometry (k11, stride 4, no padding), then an
    unpadded k3 conv."""
    return _net(
        "strided",
        [
            Conv2D("c1", 3, 6, 11, stride=4), ReLU("r1"), Conv2D("c2", 6, 6, 3), ReLU("r2"),
            Flatten("fl"), Dense("fc", 6 * 4 * 4, 5),
        ],
        (3, 31, 31),
    )


def _edge_boxes(h, w):
    """One-pixel boxes at the four corners and the four edge midpoints,
    and two-pixel ones along the top and down the right edge."""
    pixels = [(0, 0), (0, w - 1), (h - 1, 0), (h - 1, w - 1),
              (0, w // 2), (h - 1, w // 2), (h // 2, 0), (h // 2, w - 1)]
    return [(y, y + 1, x, x + 1) for y, x in pixels] + [(0, 1, w - 2, w), (h - 2, h, w - 1, w)]


def _boxed_trial(network, golden, dtype, li, box, values):
    """``(li, act, box)``: golden input of layer ``li`` with ``values``
    (cycled, quantized) written over every channel of ``box``."""
    act = golden.activations[li].copy()
    r0, r1, c0, c1 = box
    region = act[:, r0:r1, c0:c1]
    region[...] = np.resize(dtype.quantize(np.asarray(values, dtype=np.float64)), region.shape)
    return li, act, box


BOX_DTYPES = ["FLOAT16", "DOUBLE", "16b_rb10"]


class TestBoxPatches:
    """Delta propagation carries each confined trial as a patch over its
    box of the golden activation; whatever the box, its shape and place,
    every trial must equal ``forward_from``'s full recompute of its whole
    activation, bit for bit, on scores and on every recorded activation."""

    @staticmethod
    def _check(network, golden, dtype, trials, record=True):
        resume = [li for li, _, _ in trials]
        acts = [act for _, act, _ in trials]
        boxes = [box for _, _, box in trials]
        batch = _delta(network, resume, acts, boxes, golden, dtype=dtype, record=record)
        refs = [network.forward_from(li, act, dtype, record) for li, act in zip(resume, acts)]
        if record:
            assert_same_bytes(batch, refs)
        else:
            assert batch.activations == []
            for b, ref in enumerate(refs):
                assert batch.scores[b].tobytes() == ref.scores.tobytes()
        return batch

    @staticmethod
    def _golden(network, dtype, seed=0):
        x = np.random.default_rng(seed).uniform(-1.0, 1.5, network.input_shape)
        return network.forward(x, dtype=dtype, record=True)

    @pytest.mark.parametrize("dtype_name", BOX_DTYPES)
    @pytest.mark.parametrize("build", [_box_net, _strided_net], ids=["padded", "strided"])
    def test_conv_edge_faults(self, build, dtype_name):
        """Corners and edge midpoints of every conv input, one trial at a
        time and all of them in one mixed-resume call."""
        dtype = DTYPES[dtype_name]
        network = build()
        golden = self._golden(network, dtype)
        trials = []
        for li, layer in enumerate(network.layers):
            if layer.kind == "conv":
                _, h, w = network.shapes[li]
                trials += [_boxed_trial(network, golden, dtype, li, box, [7.5, -3.25])
                           for box in _edge_boxes(h, w)]
        for trial in trials:
            self._check(network, golden, dtype, [trial])
        batch = self._check(network, golden, dtype, trials)
        assert any(s.tobytes() != golden.scores.tobytes() for s in batch.scores)

    @pytest.mark.parametrize("dtype_name", BOX_DTYPES)
    def test_lrn_box_with_inf_and_nan(self, dtype_name):
        dtype = DTYPES[dtype_name]
        network = _box_net()
        golden = self._golden(network, dtype, seed=1)
        lrn = network.layers.index(network.layer_named("n1"))
        _, h, w = network.shapes[lrn]
        trials = [
            _boxed_trial(network, golden, dtype, lrn, (0, 1, 3, 6), [np.inf, np.nan, -np.inf]),
            _boxed_trial(network, golden, dtype, lrn, (h - 2, h, w - 2, w), [np.nan, 2.0]),
            _boxed_trial(network, golden, dtype, lrn, (5, 7, 0, 3), [1e30, -np.inf]),
        ]
        self._check(network, golden, dtype, trials)

    @pytest.mark.parametrize("dtype_name", BOX_DTYPES)
    def test_padded_pool_edges(self, dtype_name):
        """Negative values fill the real part of the corner windows, so a
        window's padding must read ``-inf`` for its max to stay negative."""
        dtype = DTYPES[dtype_name]
        network = _box_net()
        golden = self._golden(network, dtype, seed=2)
        pool = network.layers.index(network.layer_named("p1"))
        _, h, w = network.shapes[pool]
        boxes = _edge_boxes(h, w) + [(0, 2, 0, 2), (h - 3, h, w - 3, w)]
        trials = [_boxed_trial(network, golden, dtype, pool, box, [-9.0, -0.5])
                  for box in boxes]
        batch = self._check(network, golden, dtype, trials)
        assert all(s.tobytes() != golden.scores.tobytes() for s in batch.scores[-2:])

    def test_strided_pool_skips_every_dirty_column(self):
        """Columns 1 and 3 are read by no window of a k1 stride-2 sweep:
        the trial is golden from that pool on, in any group."""
        network = _box_net()
        golden = self._golden(network, FLOAT16, seed=3)
        pool = network.layers.index(network.layer_named("p2"))
        _, h, _ = network.shapes[pool]
        skipped = _boxed_trial(network, golden, FLOAT16, pool, (0, h, 1, 2), [5.0])
        read = _boxed_trial(network, golden, FLOAT16, pool, (0, h, 2, 3), [5.0])
        batch = self._check(network, golden, FLOAT16, [skipped, read])
        assert batch.scores[0].tobytes() == golden.scores.tobytes()
        assert batch.scores[1].tobytes() != golden.scores.tobytes()
        assert network.layers[pool].out_box(network.shapes[pool], (0, h, 3, 4)) == (0, 2, 0, 0)

    @pytest.mark.parametrize("record", [True, False], ids=["record", "no-record"])
    @pytest.mark.parametrize("dtype_name", BOX_DTYPES)
    def test_mixed_resume_boxes_of_many_shapes(self, dtype_name, record):
        dtype = DTYPES[dtype_name]
        network = _box_net()
        golden = self._golden(network, dtype, seed=4)
        index = {layer.name: li for li, layer in enumerate(network.layers)}
        shapes = {
            "c1": [(3, 4, 0, 16), (0, 16, 0, 16), (6, 9, 2, 4)],
            "r1": [(15, 16, 15, 16), (4, 5, 2, 12)],
            "p1": [(0, 3, 0, 1), (7, 8, 4, 16)],
            "c2": [(2, 3, 1, 2), (0, 8, 7, 8), (3, 5, 3, 6)],
            "c3": [(0, 1, 0, 8), (7, 8, 0, 1)],
            "cccp": [(1, 3, 1, 3), (3, 4, 0, 4)],
        }
        trials = [
            _boxed_trial(network, golden, dtype, index[name], box, [6.0, -2.5, 0.75])
            for name, boxes in shapes.items()
            for box in boxes
        ]
        fc = index["fc"]
        trials.append((fc, golden.activations[fc] * 2.0, None))
        self._check(network, golden, dtype, trials, record=record)
        self._check(network, golden, dtype, trials[::-1], record=record)

    def test_confined_trials_build_no_full_fmap(self, monkeypatch):
        """Without recording, a confined trial's whole activation is built
        only where it leaves the delta layers (the flatten here); its
        preparation holds only the pixel column it changed."""
        import repro.nn.network as network_module

        network = _box_net()
        golden = self._golden(network, FLOAT16, seed=5)
        built: list[tuple[int, ...]] = []
        real = network_module.paste_patch

        def counted(base, patch, box, out=None):
            built.append(base.shape)
            return real(base, patch, box, out)

        monkeypatch.setattr(network_module, "paste_patch", counted)
        preps = []
        for li, layer in enumerate(network.layers):
            if layer.kind in ("conv", "pool"):
                c, h, w = network.shapes[li]
                for y, x in [(0, 0), (h // 2, w - 1)]:
                    fault = BufferFault(scope="next_layer", layer_index=li, victim=(c - 1, y, x),
                                        bit=14)
                    prep = prepare_buffer(network, FLOAT16, fault, golden)
                    assert prep.patch.shape == (c, 1, 1) and prep.box == (y, y + 1, x, x + 1)
                    preps.append(prep)
        assert built == []
        batch = network.forward_from_batch(
            [p.resume_index for p in preps], [p.patch for p in preps], dtype=FLOAT16,
            goldens=[golden] * len(preps), boxes=[p.box for p in preps],
        )
        exit_shape = network.shapes[network.layers.index(network.layer_named("fl"))]
        live = sum(s.tobytes() != golden.scores.tobytes() for s in batch.scores)
        assert 0 < len(built) == live and set(built) == {exit_shape}
        built.clear()
        network.forward_from_batch(
            [p.resume_index for p in preps], [p.patch for p in preps], dtype=FLOAT16,
            record=True, goldens=[golden] * len(preps), boxes=[p.box for p in preps],
        )
        assert len(set(built)) > 1  # recording builds every layer's fmap


class TestGoldenImmutability:
    """Injection must never write into the shared golden result.

    The delta engine passes golden activations *by reference* into
    masked trials' outputs, so one stray in-place write would corrupt
    every later trial on the same input.  Covers masked and unmasked
    preparations of all four buffer scopes.
    """

    def test_all_scopes_leave_golden_untouched(self, tiny_input):
        network = build_tiny_network()
        golden = network.forward(tiny_input, dtype=FLOAT16, record=True)
        before = golden_bytes(golden)
        masked_seen = set()
        for scope in BUFFER_SCOPES:
            for t in range(40):
                bit = 15 if scope == "next_layer" else None  # sign flips hit zeros
                fault = sample_buffer_fault(
                    network, scope, FLOAT16, child_rng(42, t), bit=bit
                )
                prep = prepare_buffer(network, FLOAT16, fault, golden)
                if prep.masked:
                    masked_seen.add(scope)
                finish_injection(network, FLOAT16, prep, golden, record=True)
                assert golden_bytes(golden) == before, (scope, t)
        assert masked_seen >= {"row_activation", "next_layer", "single_read"}

    def test_layer_weight_masked_path(self, tiny_input):
        # A sign flip on a zero weight is the one layer_weight fault that
        # masks at preparation time (the flipped word compares equal).
        network = build_tiny_network()
        network.layers[0].weight[0, 0, 0, 0] = 0.0
        golden = network.forward(tiny_input, dtype=FLOAT16, record=True)
        before = golden_bytes(golden)
        fault = BufferFault(
            scope="layer_weight", layer_index=0, victim=(0, 0, 0, 0), bit=15
        )
        prep = prepare_buffer(network, FLOAT16, fault, golden)
        assert prep.masked
        result = finish_injection(network, FLOAT16, prep, golden, record=True)
        assert result.masked
        assert result.scores.tobytes() == golden.scores.tobytes()
        assert golden_bytes(golden) == before


class TestRowActivationResidencyMiss:
    def test_miss_short_circuits_before_chain_replay(self, tiny_input):
        """A residency row that never reads the victim must cost nothing.

        The miss check sits before any chain replay or fmap copy; if the
        engine regresses to scanning affected columns first, the
        monkeypatched ``mac_operands`` below fires and fails the test.
        """
        network = build_tiny_network()
        golden = network.forward(tiny_input, dtype=FLOAT16, record=True)
        layer = network.layers[0]  # c1: 3x3 kernel, pad 1, stride 1

        def boom(*args, **kwargs):
            raise AssertionError("residency miss must not replay MAC chains")

        layer.mac_operands = boom
        # Victim pixel row 0; residency row 7's window covers rows 6..8.
        fault = BufferFault(
            scope="row_activation", layer_index=0, victim=(0, 0, 0), bit=3,
            residency_row=7,
        )
        prep = prepare_buffer(network, FLOAT16, fault, golden)
        assert prep.masked


class TestCampaignBatchParity:
    """``batch`` is an execution knob: records and deterministic metric
    counters must be byte-identical at every group size, and equal to
    the per-trial full-recompute reference."""

    SPECS = [
        CampaignSpec(network="ConvNet", dtype="FLOAT16", n_trials=30, seed=11),
        CampaignSpec(
            network="ConvNet", dtype="FLOAT16", target="row_activation",
            n_trials=20, seed=12,
        ),
        CampaignSpec(
            network="ConvNet", dtype="32b_rb10", storage_dtype="16b_rb10",
            n_trials=20, seed=13,
        ),
        CampaignSpec(
            network="ConvNet", dtype="FLOAT16", target="single_read", n_trials=20, seed=14,
        ),
    ]

    @staticmethod
    def _same_value(a: float, b: float) -> bool:
        return a == b or (a != a and b != b)

    @pytest.mark.parametrize("spec", SPECS, ids=["datapath", "buffer", "proteus", "psum"])
    def test_batched_campaign_matches_serial(self, spec):
        reference = reference_campaign(spec)
        for batch in (1, 8):
            result = run_campaign(spec, jobs=1, batch=batch)
            assert len(result.records) == spec.n_trials, batch
            for a, b in zip(reference.records, result.records):
                assert a.outcome == b.outcome
                assert (a.bit, a.site, a.block) == (b.bit, b.site, b.block)
                assert self._same_value(a.value_before, b.value_before)
                assert self._same_value(a.value_after, b.value_after)
            assert result.metrics["counters"] == reference.metrics["counters"], batch
            assert result.metrics["histograms"] == reference.metrics["histograms"], batch


GROUP_SPEC = CampaignSpec(
    network="ConvNet", dtype="FLOAT16", n_trials=32, seed=3, trace_mode="all"
)


def _fail_propagation(monkeypatch, min_group: int) -> list[int]:
    """Make the campaign's propagation calls raise for groups of at least
    ``min_group`` trials; returns the sizes of the groups that raised.

    Only calls passing ``goldens=`` are the campaign's grouped
    propagation; golden inference (``forward`` -> ``forward_from``)
    passes none and keeps working.
    """
    real = Network.forward_from_batch
    failed: list[int] = []

    def flaky(self, layer_index, acts, *args, goldens=None, **kwargs):
        if goldens is not None and len(acts) >= min_group:
            failed.append(len(acts))
            raise RuntimeError("injected propagation failure")
        return real(self, layer_index, acts, *args, goldens=goldens, **kwargs)

    monkeypatch.setattr(Network, "forward_from_batch", flaky)
    return failed


class TestGroupFailure:
    """A group whose propagation raises re-runs as groups of one, so only
    a trial that fails on its own is quarantined."""

    def test_failing_groups_rerun_as_groups_of_one(self, monkeypatch):
        single = run_campaign(GROUP_SPEC, jobs=1, batch=1)
        failed = _fail_propagation(monkeypatch, min_group=2)
        grouped = run_campaign(GROUP_SPEC, jobs=1, batch=8)
        assert failed, "no group of more than one trial was propagated"
        assert grouped.errors == []
        assert repr(grouped.records) == repr(single.records)
        assert grouped.metrics["counters"] == single.metrics["counters"]
        assert grouped.metrics["histograms"] == single.metrics["histograms"]
        assert grouped.traces == single.traces

    @pytest.mark.parametrize("batch", [1, 8])
    def test_trials_failing_alone_are_quarantined(self, monkeypatch, batch):
        reference = reference_campaign(GROUP_SPEC)
        _fail_propagation(monkeypatch, min_group=1)
        result = run_campaign(GROUP_SPEC, jobs=1, batch=batch, max_error_frac=1.0)
        unmasked = [i for i, m in enumerate(reference.masked) if not m]
        assert unmasked and len(unmasked) < GROUP_SPEC.n_trials
        assert [e.index for e in result.errors] == unmasked
        assert all(e.exc_type == "RuntimeError" for e in result.errors)
        # Masked trials never propagate, so they are still classified.
        kept = [r for i, r in enumerate(reference.records) if reference.masked[i]]
        assert repr(result.records) == repr(kept)
        assert sorted(result.traces) == [
            i for i, m in enumerate(reference.masked) if m
        ]
        counted = MetricsRegistry()
        for record in kept:
            record_trial_metrics(counted, record)
        assert result.metrics["counters"] == counted.snapshot()["counters"]
        assert result.metrics["counters"]["trials"] == len(result.records)


SLICE_SPECS = [
    CampaignSpec(network="ConvNet", dtype=dtype, target=target, n_trials=64, seed=21)
    for target in ("datapath", "row_activation", "single_read")
    for dtype in ("FLOAT16", "16b_rb10")
]


def _summary(result) -> dict:
    summary = campaign_summary(result)
    summary.pop("execution")  # harness counters, not physics
    return json.loads(json.dumps(summary, sort_keys=True))


class TestSliceReplay:
    """``run_many`` samples a slice, then replays its datapath and PSum REG
    chains one ``replay_datapath`` call per MAC layer; the slice's
    composition must not move a bit, and a raising replay must sink no
    slice-mate."""

    @pytest.mark.parametrize(
        "spec", SLICE_SPECS, ids=[f"{s.target}-{s.dtype}" for s in SLICE_SPECS]
    )
    def test_chunk_parity(self, spec):
        runs = [run_campaign(spec, jobs=1, batch=8, chunk=chunk) for chunk in (1, 7, 64)]
        for result in runs[1:]:
            assert repr(result.records) == repr(runs[0].records)
            assert _summary(result) == _summary(runs[0])

    def test_slice_fills_every_propagation_group(self, monkeypatch):
        """A 64-trial slice at batch 16 propagates its unmasked trials in
        ceil(unmasked / 16) calls, across resume layers."""
        spec = SLICE_SPECS[0]
        task = _CampaignTask(spec, batch=16)
        indices = list(range(64))
        unmasked = sum(not task.build_trial(*task.sample_trial(t)).masked for t in indices)
        calls: list[list[int]] = []
        real = Network.forward_from_batch

        def counted(self, layer_index, acts, *args, goldens=None, **kwargs):
            if goldens is not None:
                many = not np.isscalar(layer_index)
                calls.append(list(layer_index) if many else [layer_index] * len(acts))
            return real(self, layer_index, acts, *args, goldens=goldens, **kwargs)

        monkeypatch.setattr(Network, "forward_from_batch", counted)
        results = task.run_many(indices)
        assert not any(isinstance(r, TrialError) for r in results)
        assert unmasked > 16
        assert len(calls) == -(-unmasked // 16)
        assert sum(map(len, calls)) == unmasked
        assert any(len(set(resume)) > 1 for resume in calls)

    def test_one_replay_call_per_layer_per_slice(self, monkeypatch):
        self._check_one_replay_call_per_layer(monkeypatch, "datapath")

    def test_psum_one_replay_call_per_layer_per_slice(self, monkeypatch):
        self._check_one_replay_call_per_layer(monkeypatch, "single_read")

    @staticmethod
    def _check_one_replay_call_per_layer(monkeypatch, target):
        import repro.core.campaign as campaign
        import repro.core.injector as injector

        spec = next(s for s in SLICE_SPECS if s.target == target)
        chunk = 16
        slices: list[tuple[int, ...]] = []
        real = injector.replay_datapath

        def counted(network, dtype, faults, goldens):
            slices.append(tuple(f.layer_index for f in faults))
            return real(network, dtype, faults, goldens)

        def per_trial(*args, **kwargs):
            raise AssertionError("a campaign trial replayed its chain on its own")

        monkeypatch.setattr(campaign, "replay_datapath", counted)
        monkeypatch.setattr(injector, "replay_datapath", per_trial)
        result = run_campaign(spec, jobs=1, batch=8, chunk=chunk)
        assert result.errors == []
        task = _CampaignTask(spec)
        expected = []
        for start in range(0, spec.n_trials, chunk):
            layers: dict[int, int] = {}
            for trial in range(start, start + chunk):
                li = task.sample_trial(trial)[0].layer_index
                layers[li] = layers.get(li, 0) + 1
            expected += [(li,) * n for li, n in layers.items()]
        assert slices == expected
        assert max(map(len, slices)) > 1

    def test_raising_replay_quarantines_only_its_trial(self, monkeypatch):
        import repro.core.campaign as campaign

        spec = SLICE_SPECS[1]
        clean = run_campaign(spec, jobs=1, batch=8)
        task = _CampaignTask(spec)
        layer_of = [task.sample_trial(t)[0].layer_index for t in range(spec.n_trials)]
        victim = next(t for t in range(spec.n_trials) if layer_of.count(layer_of[t]) > 1)
        bad_fault = task.sample_trial(victim)[0]
        real = campaign.replay_datapath
        sizes: list[int] = []

        def flaky(network, dtype, faults, goldens):
            if bad_fault in faults:
                sizes.append(len(faults))
                raise RuntimeError("injected replay failure")
            return real(network, dtype, faults, goldens)

        monkeypatch.setattr(campaign, "replay_datapath", flaky)
        result = run_campaign(spec, jobs=1, batch=8, max_error_frac=1.0)
        assert sizes[0] > 1 and sizes[-1] == 1  # the group, then the trial alone
        assert [(e.index, e.exc_type) for e in result.errors] == [(victim, "RuntimeError")]
        kept = [r for t, r in enumerate(clean.records) if t != victim]
        assert repr(result.records) == repr(kept)
