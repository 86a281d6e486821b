"""Shared fixtures: tiny networks, deterministic RNG, warm weight store,
and the per-trial full-recompute campaign reference."""

from __future__ import annotations

import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.dtypes import DTYPES
from repro.nn import (
    Conv2D,
    Dense,
    Flatten,
    MaxPool2D,
    Network,
    ReLU,
    Softmax,
)

# Keep the weight store inside the repo so zoo networks are built once
# across the whole test session (ConvNet training is the expensive part).
os.environ.setdefault("REPRO_CACHE", str(Path(__file__).resolve().parent.parent / ".cache" / "repro-weights"))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def build_tiny_network(seed: int = 0, with_softmax: bool = True, pool_pad: int = 0) -> Network:
    """A 2-conv + 1-fc network small enough for exhaustive testing.

    ``pool_pad`` pads both max-pools, which no zoo network does.
    """
    side = 8
    for _ in range(2):
        side = (side + 2 * pool_pad - 2) // 2 + 1
    layers = [
        Conv2D("c1", 3, 4, 3, stride=1, pad=1),
        ReLU("r1"),
        MaxPool2D("p1", 2, pad=pool_pad),
        Conv2D("c2", 4, 6, 3, stride=1, pad=1),
        ReLU("r2"),
        MaxPool2D("p2", 2, pad=pool_pad),
        Flatten("fl"),
        Dense("fc", 6 * side * side, 5),
    ]
    if with_softmax:
        layers.append(Softmax("sm"))
    net = Network("tiny", layers, input_shape=(3, 8, 8), has_confidence=with_softmax)
    g = np.random.default_rng(seed)
    for i in net.mac_layer_indices():
        layer = net.layers[i]
        w = layer.params()["weight"]
        w[:] = g.normal(0.0, 0.4, w.shape)
        layer.params()["bias"][:] = g.normal(0.0, 0.05, layer.params()["bias"].shape)
    return net


@pytest.fixture
def tiny_network() -> Network:
    return build_tiny_network()


@pytest.fixture
def tiny_input(rng) -> np.ndarray:
    return rng.normal(0.0, 1.0, (3, 8, 8))


@pytest.fixture(params=list(DTYPES))
def any_dtype(request):
    """Parametrized over all six paper data types."""
    return DTYPES[request.param]


def reference_datapath(network, dtype, fault, golden, storage_dtype=None):
    """Independent per-chain oracle for a datapath fault's preparation.

    The victim's chain is rebuilt with ``mac_operands`` and replayed
    alone, clean and faulty, by :func:`~repro.core.injector.replay_chain`
    (a 1-D ``multiply`` + ``partials`` from step 0 each time).  A block
    output is narrowed to ``storage_dtype``; a faulty value that differs
    from the clean one (NaN-aware) patches a copy of the golden output,
    confined to the victim's pixel (``box``) for a conv output.  Returns
    what :func:`~repro.core.injector.finish_injection` reads of a
    preparation, with the whole ``act`` built here.
    """
    from repro.core.injector import replay_chain

    li = fault.layer_index
    chain = network.layers[li].mac_operands(golden.activations[li], fault.out_index, dtype)
    clean, faulty = replay_chain(dtype, chain), replay_chain(dtype, chain, fault)
    if storage_dtype is not None and li in network.block_output_indices():
        clean, faulty = (float(storage_dtype.quantize(np.array([v]))[0]) for v in (clean, faulty))
    if faulty == clean or (np.isnan(faulty) and np.isnan(clean)):
        return SimpleNamespace(resume_index=li + 1, masked=True, value_before=clean,
                               value_after=clean, act=None, box=None)
    act = golden.activations[li + 1].copy()
    act[fault.out_index] = faulty
    box = None
    if len(fault.out_index) == 3:
        _, oy, ox = fault.out_index
        box = (oy, oy + 1, ox, ox + 1)
    return SimpleNamespace(resume_index=li + 1, masked=False, value_before=clean,
                           value_after=faulty, act=act, box=box)


def reference_campaign(spec) -> SimpleNamespace:
    """Run ``spec`` trial by trial through the full-recompute path.

    Each trial is sampled, built, propagated by ``finish_injection``
    (every tail layer recomputed for that trial alone) and classified —
    never through ``run_many``, grouping or delta propagation — so it is
    an independent reference for what a campaign must produce at any
    ``batch``.  A datapath or PSum REG (``single_read``) trial's
    corruption comes from the per-chain oracle :func:`reference_datapath`,
    not from the engine's build.
    Returns ``records`` (trial order), ``metrics`` (snapshot of the
    folded records), ``traces`` (index -> row for the traced subset) and
    ``masked`` (per trial: masked at injection).
    """
    from repro.core.campaign import _CampaignTask, record_trial_metrics
    from repro.core.injector import finish_injection
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import build_trace

    task = _CampaignTask(spec)
    metrics = MetricsRegistry()
    out = SimpleNamespace(records=[], metrics=None, traces={}, masked=[])
    for trial in range(spec.n_trials):
        fault, meta = task.sample_trial(trial)
        if spec.target in ("datapath", "single_read"):
            prep = reference_datapath(
                task.network, task.dtype, fault, meta["golden"], task.storage_dtype
            )
        else:
            prep = task.build_trial(fault, meta)
        injection = finish_injection(
            task.network, task.dtype, prep, meta["golden"],
            record=meta["record"], storage_dtype=task.storage_dtype,
        )
        record = task.complete_trial(meta, injection)
        record_trial_metrics(metrics, record)
        if meta["traced"]:
            out.traces[trial] = build_trace(
                trial=trial, meta=meta, injection=injection, record=record,
                network=task.network, detector=task.detector,
                detector_checkpoints=task.detector_checkpoints,
            )
        out.records.append(record)
        out.masked.append(prep.masked)
    out.metrics = metrics.snapshot()
    return out
