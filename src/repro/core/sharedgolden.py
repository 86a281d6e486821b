"""Shared-memory golden state for fault-injection campaigns.

Every campaign worker needs the same immutable inputs: the golden
(fault-free) activations of each evaluation input, and the quantized
weight tensors of the network.  Before this module, every worker process
re-ran golden inference (and the SED learning phase) during pool
startup — pure duplicated work, since trial outcomes are a function of
the golden *bits*, not of who computed them.

The parent now computes the golden state once, packs every array
back-to-back into a single ``multiprocessing.shared_memory`` segment and
ships workers a tiny picklable :class:`GoldenDescriptor` (segment name +
per-array offset/shape/dtype + the learned detector, whose bounds are a
few floats).  Workers attach the segment and reconstruct **read-only**
numpy views — no golden inference, no detector learning, no array
pickling in the task factory.

Lifecycle contract
------------------
- The *parent* is the only creator and the only unlinker.  Segments are
  named ``repro-golden-<pid>-<counter>``; a name collision (pid reuse
  against a stale segment) is resolved by retrying the next counter —
  creators never attach to a segment they did not fill.
- *Workers* (including every pool rebuild after a ``BrokenProcessPool``)
  only ever attach; the attach path cannot create a segment, so a crash
  loop can never shadow the parent's golden bits with an empty segment.
- The parent releases the segment in the campaign's ``finally`` path
  (:func:`release_segment` is idempotent), covering normal completion,
  :class:`~repro.core.campaign.CampaignAbortedError` and raising trials.
  If the parent is SIGKILLed, the stdlib ``resource_tracker`` — which
  keeps the create-time registration — unlinks the segment when the
  parent dies, so killed runs leak nothing.
- On Python < 3.13 ``SharedMemory`` registers on *attach* as well as on
  create.  Forked workers share the parent's tracker, where the extra
  registration is an idempotent no-op; spawned workers own a private
  tracker that would unlink the parent's segment when the worker exits,
  so those (and only those) deregister after attaching — the descriptor
  carries the creator's tracker pid to tell the two apart.

Golden immutability
-------------------
All reconstructed views have ``writeable = False``: the injection engine
only ever *reads* goldens (it copies before corrupting — see
``repro.core.injector`` and OBL-GOLDEN-IMMUTABLE), and a stray in-place
write in a worker raises immediately instead of silently corrupting
every other worker's golden reference.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.nn.network import InferenceResult

__all__ = [
    "SharedArray",
    "GoldenDescriptor",
    "SharedGoldenView",
    "publish_golden_state",
    "attach_golden_state",
    "release_segment",
]

#: Fresh names tried before giving up on segment creation.  Collisions
#: require pid reuse *and* a stale same-pid segment surviving its
#: resource tracker — each retry just bumps the counter suffix.
_CREATE_ATTEMPTS = 64

#: Per-array alignment inside the segment (cache-line sized).
_ALIGN = 64


@dataclass(frozen=True)
class SharedArray:
    """Placement of one numpy array inside the shared segment."""

    offset: int
    shape: tuple[int, ...]
    dtype: str  # numpy dtype string, endianness included (e.g. "<f8")


@dataclass(frozen=True)
class GoldenDescriptor:
    """Everything a worker needs to reconstruct the golden state.

    Picklable and small: array *placements*, never array payloads.

    Attributes:
        segment: Shared-memory segment name.
        nbytes: Segment size (attach-time sanity check).
        goldens: One ``(scores, activations)`` placement tuple per golden
            input, mirroring :class:`~repro.nn.network.InferenceResult`.
        weights: ``(layer_index, dtype_name, weight, bias)`` placements
            for every quantized-weight cache entry the parent had warmed.
        detector: The learned :class:`~repro.core.detectors.SymptomDetector`
            (or None); its bounds dict is a few floats — it travels in
            the descriptor, not the segment.
    """

    segment: str
    nbytes: int
    goldens: tuple[tuple[SharedArray, tuple[SharedArray, ...]], ...]
    weights: tuple[tuple[int, str, SharedArray, SharedArray], ...]
    detector: object | None = None
    #: Pid of the creator's resource-tracker process; lets attachers tell
    #: a shared tracker (fork workers — leave the create registration
    #: alone) from their own private one (spawn workers — deregister so
    #: worker exit cannot unlink the parent's segment).
    tracker_pid: int | None = None


def _create_segment(nbytes: int) -> shared_memory.SharedMemory:
    """Create a fresh segment, retrying new names on collision.

    The retry-or-attach policy for ``SharedMemory(create=True)`` name
    collisions: a *creator* must never adopt a stale segment's bytes, so
    it retries fresh names; only the attach path (workers, pool
    rebuilds) reuses an existing name — and that path cannot create.
    """
    pid = os.getpid()
    for attempt in range(_CREATE_ATTEMPTS):
        name = f"repro-golden-{pid}-{attempt}"
        try:
            return shared_memory.SharedMemory(name=name, create=True, size=nbytes)
        except FileExistsError:
            continue
    raise RuntimeError(
        f"could not create a shared golden segment after {_CREATE_ATTEMPTS} "
        f"name attempts (stale repro-golden-{pid}-* segments?)"
    )


def _tracker_pid() -> int | None:
    """Pid of this process's resource-tracker process, if one is running."""
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    return getattr(tracker, "_pid", None)


def _attach_segment(name: str, creator_tracker: int | None = None) -> shared_memory.SharedMemory:
    """Attach to an existing segment without adopting its lifetime.

    On Python >= 3.13 ``track=False`` skips resource-tracker
    registration.  Earlier versions register on attach too, and the
    right correction depends on *whose* tracker got the registration:

    - forked workers share the creator's tracker process, so the attach
      registration is an idempotent no-op on the creator's entry —
      deregistering there would strip the creator's SIGKILL protection;
    - spawned workers own a private tracker, whose attach registration
      would unlink the segment out from under the creator when the
      worker exits — that one must be removed.
    """
    try:
        return shared_memory.SharedMemory(name=name, create=False, track=False)
    except TypeError:  # Python < 3.13: no ``track`` parameter
        shm = shared_memory.SharedMemory(name=name, create=False)
        if _tracker_pid() != creator_tracker:
            try:
                # _name is what SharedMemory.__init__ registered (the
                # leading-slash POSIX spelling); unregister must match it.
                resource_tracker.unregister(shm._name, "shared_memory")
            except Exception:
                pass  # tracker absent (e.g. in a daemon): nothing registered
        return shm


def release_segment(shm: shared_memory.SharedMemory | None) -> None:
    """Close and unlink a parent-owned segment; idempotent.

    Safe to call from ``finally`` paths in any state: double release,
    live views (``BufferError``), or a segment someone else already
    unlinked are all absorbed.
    """
    if shm is None:
        return
    try:
        shm.close()
    except BufferError:
        pass  # live exported views; the mapping dies with the process
    try:
        shm.unlink()
    except FileNotFoundError:
        pass


def _plan(arrays: list[np.ndarray]) -> tuple[list[SharedArray], int]:
    """Assign aligned offsets to ``arrays``; returns (placements, total)."""
    placements: list[SharedArray] = []
    offset = 0
    for arr in arrays:
        placements.append(
            SharedArray(offset=offset, shape=tuple(arr.shape), dtype=arr.dtype.str)
        )
        offset += arr.nbytes
        offset = (offset + _ALIGN - 1) & ~(_ALIGN - 1)
    return placements, max(offset, 1)


def _view(shm: shared_memory.SharedMemory, spec: SharedArray, *, writeable: bool) -> np.ndarray:
    arr = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf, offset=spec.offset)
    if not writeable:
        arr.flags.writeable = False
    return arr


def publish_golden_state(task) -> tuple[GoldenDescriptor, shared_memory.SharedMemory]:
    """Pack a built campaign task's golden state into a shared segment.

    Args:
        task: A fully initialised ``_CampaignTask`` — its ``goldens``,
            ``network`` (with warmed quantized-weight caches) and
            ``detector`` are the published state.

    Returns:
        ``(descriptor, segment)``.  The caller owns the segment and must
        :func:`release_segment` it when the campaign ends.
    """
    arrays: list[np.ndarray] = []

    def add(arr: np.ndarray) -> int:
        arrays.append(np.ascontiguousarray(arr))
        return len(arrays) - 1

    golden_slots: list[tuple[int, tuple[int, ...]]] = []
    for golden in task.goldens:
        scores_slot = add(golden.scores)
        act_slots = tuple(add(a) for a in golden.activations)
        golden_slots.append((scores_slot, act_slots))

    weight_slots: list[tuple[int, str, int, int]] = []
    for li in task.network.mac_layer_indices():
        for dtype_name, (w, b) in sorted(
            task.network.layers[li].cached_quantized_weights().items()
        ):
            weight_slots.append((li, dtype_name, add(w), add(b)))

    placements, nbytes = _plan(arrays)
    shm = _create_segment(nbytes)
    for arr, spec in zip(arrays, placements):
        _view(shm, spec, writeable=True)[...] = arr

    descriptor = GoldenDescriptor(
        segment=shm.name,
        nbytes=nbytes,
        goldens=tuple(
            (placements[s], tuple(placements[a] for a in acts))
            for s, acts in golden_slots
        ),
        weights=tuple(
            (li, dtype_name, placements[ws], placements[bs])
            for li, dtype_name, ws, bs in weight_slots
        ),
        detector=task.detector,
        tracker_pid=_tracker_pid(),
    )
    return descriptor, shm


class SharedGoldenView:
    """A worker's read-only window onto the published golden state.

    Holds the attached segment open for the lifetime of the view: numpy
    views over ``shm.buf`` do NOT keep the mapping alive (numpy re-bases
    onto the underlying mmap, whose ``close()`` unmaps regardless of
    array references), so the arrays are valid exactly as long as this
    object stays un-closed.  Workers never need to call :meth:`close` —
    process exit releases the mapping — but an in-process (inline)
    campaign must purge every installed view before closing; see
    ``_CampaignTask.close``.
    """

    def __init__(self, descriptor: GoldenDescriptor):
        self.descriptor = descriptor
        self.shm = _attach_segment(descriptor.segment, descriptor.tracker_pid)
        if self.shm.size < descriptor.nbytes:
            raise ValueError(
                f"segment {descriptor.segment} is {self.shm.size} bytes, "
                f"descriptor expects {descriptor.nbytes}"
            )
        self.goldens: list[InferenceResult] = [
            InferenceResult(
                scores=_view(self.shm, scores, writeable=False),
                activations=[_view(self.shm, a, writeable=False) for a in acts],
            )
            for scores, acts in descriptor.goldens
        ]
        self.detector = descriptor.detector
        #: ``(layer_index, dtype_name)`` weight-cache entries this view
        #: actually installed (see :meth:`install_weights`).
        self.installed: list[tuple[int, str]] = []

    def install_weights(self, network) -> None:
        """Seed ``network``'s quantized-weight caches with shared views.

        Formats the network already has cached (forked workers inherit
        the parent's warm private arrays) are left untouched; only the
        entries actually installed here are recorded in ``installed`` so
        the campaign can purge exactly those before detaching — segment
        views die with the mapping, private arrays must survive it.
        """
        for li, dtype_name, wspec, bspec in self.descriptor.weights:
            if network.layers[li].install_quantized_weights(
                dtype_name,
                _view(self.shm, wspec, writeable=False),
                _view(self.shm, bspec, writeable=False),
            ):
                self.installed.append((li, dtype_name))

    def close(self) -> None:
        """Detach the segment; every view dies with the mapping.

        Callers must drop all references to the view's arrays first —
        an array read after close aliases unmapped memory.
        """
        self.goldens = []
        try:
            self.shm.close()
        except BufferError:
            pass


def attach_golden_state(descriptor: GoldenDescriptor) -> SharedGoldenView:
    """Reconstruct read-only golden state from a descriptor (worker side)."""
    return SharedGoldenView(descriptor)
