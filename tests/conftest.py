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


def build_tiny_network(seed: int = 0, with_softmax: bool = True) -> Network:
    """A 2-conv + 1-fc network small enough for exhaustive testing."""
    layers = [
        Conv2D("c1", 3, 4, 3, stride=1, pad=1),
        ReLU("r1"),
        MaxPool2D("p1", 2),
        Conv2D("c2", 4, 6, 3, stride=1, pad=1),
        ReLU("r2"),
        MaxPool2D("p2", 2),
        Flatten("fl"),
        Dense("fc", 6 * 2 * 2, 5),
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


def reference_campaign(spec) -> SimpleNamespace:
    """Run ``spec`` trial by trial through the full-recompute path.

    Each trial is sampled, built, propagated by ``finish_injection``
    (every tail layer recomputed for that trial alone) and classified —
    never through ``run_many``, grouping or delta propagation — so it is
    an independent reference for what a campaign must produce at any
    ``batch``.  Returns ``records`` (trial order), ``metrics`` (snapshot
    of the folded records), ``traces`` (index -> row for the traced
    subset) and ``masked`` (per trial: masked at injection).
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
