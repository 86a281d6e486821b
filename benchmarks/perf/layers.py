"""Per-layer timer for the campaign benchmark, applied from outside the engine.

:class:`LayerTimer` wraps the public functions and methods of each
engine layer and records, per metric name, the number of calls, the
total time and the *self* time (total minus the time of nested wrapped
calls, tracked with a stack).  Nothing in ``src/`` changes: the wrappers
replace module attributes and class attributes while installed and are
removed by :meth:`LayerTimer.uninstall`.

A function is patched under every name it is looked up by: the defining
module and every ``repro.*`` module that bound it with ``from ... import``
(``core/campaign.py`` binds ``prepare_datapath``, ``classify_outcome``
and friends by name).  Methods are patched on the classes that define
them.

Forked pool workers inherit the wrappers.  Each worker starts from empty
counters (an after-fork hook) and writes its aggregate to
``worker-<pid>.json`` in the timer's directory from a
``multiprocessing.util.Finalize`` hook when it exits; the parent merges
those files with :meth:`LayerTimer.merge_workers` after joining its
children.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing.util
import os
import sys
from pathlib import Path
from time import perf_counter

__all__ = ["LayerTimer", "layer_metrics"]

#: (metric name, "module:attribute") for module-level functions.
_FUNCTIONS = (
    ("fault.sample", "repro.core.fault:sample_datapath_fault"),
    ("fault.sample", "repro.core.fault:sample_buffer_fault"),
    ("injector.prepare", "repro.core.injector:prepare_datapath"),
    ("injector.prepare", "repro.core.injector:prepare_buffer"),
    ("injector.finish", "repro.core.injector:finish_injection"),
    ("outcome.classify", "repro.core.outcome:classify_outcome"),
    ("detectors.learn", "repro.core.detectors:learn_detector"),
    ("tracer.build", "repro.obs.tracer:build_trace"),
    ("sharedgolden.publish", "repro.core.sharedgolden:publish_golden_state"),
    ("sharedgolden.attach", "repro.core.sharedgolden:attach_golden_state"),
    ("zoo.get_network", "repro.zoo.registry:get_network"),
    ("parallel.map_trials", "repro.utils.parallel:map_trials"),
    ("parallel.run_chunk", "repro.utils.parallel:_run_chunk"),
    ("parallel.wait", "repro.utils.parallel:wait"),
)

#: (metric name, "module:Class", method names) for methods.
_METHODS = (
    ("network.forward", "repro.nn.network:Network", ("forward",)),
    ("network.forward_from", "repro.nn.network:Network", ("forward_from",)),
    ("network.forward_from_batch", "repro.nn.network:Network", ("forward_from_batch",)),
    ("detectors.scan", "repro.core.detectors:SymptomDetector", ("scan",)),
    ("checkpoint.flush", "repro.core.checkpoint:CheckpointWriter", ("flush",)),
    ("tracer.flush", "repro.obs.tracer:TraceWriter", ("flush",)),
    ("nn.mac_operands", "repro.nn.layers.conv:Conv2D", ("mac_operands",)),
    ("nn.mac_operands", "repro.nn.layers.fc:Dense", ("mac_operands",)),
    ("dtypes.arith", "repro.dtypes.base:DataType", ("multiply", "partials", "accumulate_batch")),
    ("dtypes.arith", "repro.dtypes.fixedpoint:FixedPointType",
     ("multiply", "partials", "accumulate_batch")),
    ("dtypes.arith", "repro.dtypes.floating:FloatType", ("multiply", "partials", "accumulate_batch")),
)

#: Layer classes whose forward passes are timed per kind (``nn.<kind>``)
#: and per named layer (the layer table).
_LAYER_CLASSES = (
    ("nn.conv", "repro.nn.layers.conv:Conv2D",
     ("forward", "forward_with_weights", "forward_rows", "forward_rows_batch")),
    ("nn.fc", "repro.nn.layers.fc:Dense", ("forward", "forward_with_weights")),
    ("nn.pool", "repro.nn.layers.pool:MaxPool2D", ("forward", "forward_rows")),
    ("nn.relu", "repro.nn.layers.activation:ReLU", ("forward",)),
    ("nn.lrn", "repro.nn.layers.lrn:LRN", ("forward",)),
)

#: Timed names reported as ``<name>.self_s`` and ``<name>.calls``.
_CALL_METRICS = (
    "fault.sample", "injector.prepare", "injector.finish", "nn.mac_operands",
    "dtypes.arith", "network.forward_from_batch", "network.forward_from",
    "network.forward", "outcome.classify", "detectors.scan", "detectors.learn",
    "checkpoint.flush", "tracer.flush", "tracer.build", "sharedgolden.publish",
    "sharedgolden.attach", "zoo.get_network",
)

#: Names also reported as ``<name>.total_s``: their self time excludes
#: the chain replay and layer kernels they drive.
_TOTAL_METRICS = ("injector.prepare", "network.forward_from_batch")

#: The container of every inline trial; its self time is the campaign
#: loop itself, so it counts as unattributed rather than as a layer.
_CONTAINER = "parallel.map_trials"


def _accumulate(stats: dict[str, list[float]], name: str, cell) -> None:
    """Add a ``(calls, total_s, self_s)`` triple into ``stats[name]``."""
    into = stats.setdefault(name, [0, 0.0, 0.0])
    for i, value in enumerate(cell):
        into[i] += value


def _resolve(target: str):
    module_name, _, attr = target.partition(":")
    return importlib.import_module(module_name), attr


class LayerTimer:
    """Installs timing wrappers and aggregates what they record.

    Args:
        workdir: Directory for the per-pid worker aggregate files.
    """

    def __init__(self, workdir: str | Path):
        self.workdir = Path(workdir)
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self._owner: dict[int, str] = {}
        self.reset()
        multiprocessing.util.register_after_fork(self, LayerTimer._after_fork)

    # -- aggregation ------------------------------------------------------ #
    def reset(self) -> None:
        """Drop everything recorded so far (this process and workers)."""
        #: name -> [calls, total_s, self_s], recorded in this process.
        self.stats: dict[str, list[float]] = {}
        #: The same, merged from worker processes.
        self.worker_stats: dict[str, list[float]] = {}
        #: Plain counters (masked preparations, batch rows, bytes written).
        self.counts: dict[str, float] = {}
        #: "<network>/<layer>" -> self seconds, this process and workers.
        self.table: dict[str, float] = {}

    def _count(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- wrapping --------------------------------------------------------- #
    def _timed(self, name: str, fn, observe=None, table: bool = False):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                own = elapsed - frame[1]
                _accumulate(self.stats, name, (1, elapsed, own))
                if table:
                    label = self._owner.get(id(args[0]), args[0].name)
                    self.table[label] = self.table.get(label, 0.0) + own
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, fn, observe):
        """Untimed wrapper: counts without adding a stack frame."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            observe(args, kwargs, result)
            return result

        return wrapper

    def _patch_function(self, target: str, make) -> None:
        module, attr = _resolve(target)
        original = getattr(module, attr)
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _patch_method(self, target: str, method: str, make) -> None:
        module, attr = _resolve(target)
        cls = getattr(module, attr)
        if method not in vars(cls):
            return
        original = vars(cls)[method]
        self._patches.append((cls, method, original))
        setattr(cls, method, make(original))

    def install(self) -> None:
        """Wrap every layer function; a no-op when already installed."""
        if self._patches:
            return
        observers = {
            "injector.prepare": self._observe_prepare,
            "network.forward_from_batch": self._observe_batch,
            "zoo.get_network": self._observe_network,
        }
        for name, target in _FUNCTIONS:
            self._patch_function(
                target, lambda fn, n=name: self._timed(n, fn, observers.get(n))
            )
        for name, target, methods in _METHODS:
            for method in methods:
                self._patch_method(
                    target, method, lambda fn, n=name: self._timed(n, fn, observers.get(n))
                )
        for name, target, methods in _LAYER_CLASSES:
            for method in methods:
                self._patch_method(
                    target, method, lambda fn, n=name: self._timed(n, fn, table=True)
                )
        # Both snapshot writers publish through atomic_write_text; its
        # caller on the stack says whose bytes they are.  Untimed, so it
        # does not split the flush's self time.
        self._patch_function(
            "repro.core.checkpoint:atomic_write_text",
            lambda fn: self._counted(fn, self._observe_write),
        )

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- observers -------------------------------------------------------- #
    def _observe_prepare(self, args, kwargs, result) -> None:
        if result.masked:
            self._count("injector.masked", 1)

    def _observe_batch(self, args, kwargs, result) -> None:
        self._count("network.batch_rows", len(result.scores))

    def _observe_network(self, args, kwargs, network) -> None:
        for layer in network.layers:
            self._owner[id(layer)] = f"{network.name}/{layer.name}"

    def _observe_write(self, args, kwargs, result) -> None:
        if self._stack and self._stack[-1][0] in ("checkpoint.flush", "tracer.flush"):
            # json.dumps output is ASCII, so characters are bytes.
            self._count(f"{self._stack[-1][0]}.bytes", len(args[1]))

    # -- worker processes ------------------------------------------------- #
    def _after_fork(self) -> None:
        self._stack.clear()
        self.reset()
        if self._patches:
            multiprocessing.util.Finalize(None, self._dump_worker, exitpriority=100)

    def _dump_worker(self) -> None:
        payload = {"stats": self.stats, "counts": self.counts, "table": self.table}
        path = self.workdir / f"worker-{os.getpid()}.json"
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)

    def merge_workers(self) -> None:
        """Fold in, then delete, the aggregates of exited workers."""
        for path in sorted(self.workdir.glob("worker-*.json")):
            payload = json.loads(path.read_text())
            for name, cell in payload["stats"].items():
                _accumulate(self.worker_stats, name, cell)
            for key, value in payload["counts"].items():
                self._count(key, value)
            for label, own in payload["table"].items():
                self.table[label] = self.table.get(label, 0.0) + own
            path.unlink()


def layer_metrics(timer: LayerTimer, cycles: int, wall_s: float, jobs: int) -> dict[str, float]:
    """Per-cycle layer metrics from a timer that recorded ``cycles`` cycles.

    ``wall_s`` is the summed wall time of the ``run_campaign`` calls in
    those cycles.  Times from worker processes add up across workers, so
    with ``jobs`` > 1 they are CPU seconds, not a share of the wall.
    """
    both: dict[str, list[float]] = {}
    for source in (timer.stats, timer.worker_stats):
        for name, cell in source.items():
            _accumulate(both, name, cell)

    def get(name: str, field: int, source=both) -> float:
        return source.get(name, [0, 0.0, 0.0])[field]

    out: dict[str, float] = {}
    for name in _CALL_METRICS:
        out[f"{name}.self_s"] = get(name, 2) / cycles
        out[f"{name}.calls"] = get(name, 0) / cycles
    for name in _TOTAL_METRICS:
        out[f"{name}.total_s"] = get(name, 1) / cycles
    for name, _, _ in _LAYER_CLASSES:
        out[f"{name}.self_s"] = get(name, 2) / cycles
    prepares = get("injector.prepare", 0)
    out["injector.masked_frac"] = timer.counts.get("injector.masked", 0) / prepares if prepares else 0.0
    batches = get("network.forward_from_batch", 0)
    out["network.batch_fill"] = (
        timer.counts.get("network.batch_rows", 0) / batches if batches else 0.0
    )
    out["checkpoint.bytes_written"] = timer.counts.get("checkpoint.flush.bytes", 0) / cycles
    out["tracer.bytes_written"] = timer.counts.get("tracer.flush.bytes", 0) / cycles
    map_wall = get(_CONTAINER, 1, timer.stats)
    out["parallel.map_trials.wall_s"] = map_wall / cycles
    out["parallel.parent_wait_s"] = get("parallel.wait", 1, timer.stats) / cycles
    busy = get("parallel.run_chunk", 1, timer.worker_stats)
    out["parallel.worker_busy_frac"] = busy / (jobs * map_wall) if busy and map_wall else 0.0
    attributed = sum(own for name, (_, _, own) in timer.stats.items() if name != _CONTAINER)
    out["campaign.wall_s"] = wall_s / cycles
    out["campaign.unattributed_s"] = (wall_s - attributed) / cycles
    return out
