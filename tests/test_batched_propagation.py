"""Batched fault propagation: bit-exactness, golden immutability, parity.

The campaign hot path groups prepared corruptions by resume layer and
propagates each group through ``Network.forward_from_batch``.  The
contract is byte-identity with the per-trial ``forward_from`` path — per
trial, on scores and on every recorded activation — which these tests
enforce over mixed datapath and buffer faults, with and without the
Proteus storage narrowing, for both the plain stacked engine and the
delta engine (goldens + dirty row spans).  Campaign-level tests compare
every group size with a trial-by-trial full-recompute reference and
drive the quarantine of groups whose propagation raises.
"""

import numpy as np
import pytest

from repro.core.campaign import CampaignSpec, record_trial_metrics, run_campaign
from repro.core.fault import BufferFault, sample_buffer_fault, sample_datapath_fault
from repro.core.injector import finish_injection, prepare_buffer, prepare_datapath
from repro.dtypes import DTYPES, FLOAT16
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


@pytest.fixture(params=[None, "FLOAT16"], ids=["plain-storage", "proteus-storage"])
def storage(request):
    return DTYPES[request.param] if request.param else None


class TestSerialBatchedEquivalence:
    def test_batch_matches_serial_bytes(self, tiny_input, storage):
        network = build_tiny_network()
        golden = network.forward(
            tiny_input, dtype=FLOAT16, record=True, storage_dtype=storage
        )
        preps = [p for p in sample_preps(network, golden, storage) if not p.masked]
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
                resume_index, [p.act for p in items], dtype=FLOAT16,
                record=True, storage_dtype=storage,
                goldens=[golden] * len(items),
                dirty_rows=[p.dirty_rows for p in items],
            )
            for batch in (plain, delta):
                for b, ref in enumerate(serial):
                    got = batch.result(b)
                    assert got.scores.tobytes() == ref.scores.tobytes()
                    assert len(got.activations) == len(ref.activations)
                    for mine, theirs in zip(got.activations, ref.activations):
                        assert mine.tobytes() == theirs.tobytes()

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

    @pytest.mark.parametrize("target", ["datapath", "next_layer"])
    @pytest.mark.parametrize("dtype_name", ["DOUBLE", "FLOAT"])
    def test_groups_of_eight_match_solo(self, dtype_name, target):
        network = get_network("ConvNet")
        dtype = DTYPES[dtype_name]
        golden = network.forward(eval_inputs("ConvNet", 1)[0], dtype=dtype, record=True)
        groups: dict[int, list] = {}
        for t in range(96):
            rng = child_rng(5, t)
            if target == "datapath":
                fault = sample_datapath_fault(network, dtype, rng)
                prep = prepare_datapath(network, dtype, fault, golden)
            else:
                fault = sample_buffer_fault(network, target, dtype, rng)
                prep = prepare_buffer(network, dtype, fault, golden)
            if not prep.masked:
                groups.setdefault(prep.resume_index, []).append(prep)
        assert sum(map(len, groups.values())) >= 48

        def propagate(resume_index, preps):
            return network.forward_from_batch(
                resume_index, [p.act for p in preps], dtype=dtype, record=True,
                goldens=[golden] * len(preps), dirty_rows=[p.dirty_rows for p in preps],
            )

        for resume_index, preps in groups.items():
            for g0 in range(0, len(preps), 8):
                group = preps[g0 : g0 + 8]
                batch = propagate(resume_index, group)
                for b, prep in enumerate(group):
                    solo = propagate(resume_index, [prep])
                    assert batch.scores[b].tobytes() == solo.scores[0].tobytes()
                    assert len(batch.activations[b]) == len(solo.activations[0])
                    for mine, theirs in zip(batch.activations[b], solo.activations[0]):
                        assert mine.tobytes() == theirs.tobytes()


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
    ]

    @staticmethod
    def _same_value(a: float, b: float) -> bool:
        return a == b or (a != a and b != b)

    @pytest.mark.parametrize("spec", SPECS, ids=["datapath", "buffer", "proteus"])
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
