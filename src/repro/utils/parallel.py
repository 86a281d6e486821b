"""Supervised process-pool fan-out for fault-injection campaigns.

A campaign is thousands of independent single-fault inference runs — an
embarrassingly parallel workload.  ``map_trials`` shards trial indices
into slices across a process pool and hands each slice to the task's
``run_many``; each worker rebuilds its (picklable) task object once and
reuses cached golden activations across its shard, following the
fork-once/reuse-state idiom from the HPC guides.

At the paper's scale (~3M injections, Section 4) the pool itself must
survive faults, so the fan-out is *supervised*:

- chunks are submitted as futures, one queued behind each running one,
  so a worker starts its next chunk while the parent absorbs the last;
- each chunk has a deadline that starts when the chunk starts (a hung
  trial cannot stall the campaign forever);
- a crashed worker (``BrokenProcessPool``) triggers a pool rebuild with
  capped exponential backoff instead of aborting;
- crashed or timed-out chunks are retried against a retry budget, then
  *bisected* down to single trials so one poison trial is quarantined as
  a :class:`TrialFailure` instead of taking its chunk-mates down with it;
- when the pool keeps dying before any chunk completes, execution
  degrades gracefully to inline (``jobs=1``) mode.

A trial that raises is not the pool's to retry: ``run_many`` returns a
value for every index it is given, and the campaign task quarantines a
raising trial there, as a value, on its first attempt.

Inline execution (``jobs=1``) runs the same slices through the same
dispatch in this process.  It has no crash/hang protection — a trial
that kills or wedges the process kills or wedges the campaign.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import os
import time
import traceback
from collections import deque
from collections.abc import Callable, Sequence
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path

from repro.obs.spans import span

__all__ = [
    "blas_threads",
    "effective_jobs",
    "exc_summary",
    "map_trials",
    "TrialFailure",
    "usable_cpus",
]

_WORKER_TASK = None

#: Shortest supervision poll when a deadline is imminent (seconds).
_MIN_TICK = 0.02

#: Chunks in flight per worker: the one it runs and one queued behind
#: it, so a worker starts its next chunk while the parent absorbs (and
#: checkpoints) the one it just returned.
_QUEUE_DEPTH = 2


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, where the platform has one.

    A process pinned to fewer CPUs than the host has (``taskset``, a
    cpuset) would oversubscribe them if it counted ``os.cpu_count()``.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def effective_jobs(jobs: int | None) -> int:
    """Resolve a job-count request: None/0 -> every usable CPU.

    Negative values are a caller bug (typically bad CLI arithmetic such
    as ``jobs = cores - reserved`` going below zero) and raise rather
    than being silently coerced to serial execution.
    """
    if jobs is not None and not jobs >= 0:
        raise ValueError(f"jobs must be >= 0 (0/None = every usable CPU), got {jobs}")
    if jobs is None or jobs == 0:
        return usable_cpus()
    return jobs


@functools.cache
def _openblas() -> ctypes.CDLL | None:
    """numpy's bundled OpenBLAS, with its thread getter and setter declared.

    None when numpy ships no ``libscipy_openblas64_`` exporting both
    symbols: thread control is then a no-op.
    """
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path))
            getter = lib.scipy_openblas_get_num_threads64_
            setter = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        getter.argtypes, getter.restype = [], ctypes.c_int
        setter.argtypes, setter.restype = [ctypes.c_int], None
        return lib
    return None


def blas_threads(jobs: int | None = 1) -> int | None:
    """OpenBLAS threads each process running trials gets at ``jobs``.

    Inline (``jobs == 1``) that is this process's own count.  A pool
    worker gets its share of the usable CPUs, ``max(1, usable // jobs)``,
    or this process's count when that is lower: the cap never raises
    it.  None when numpy's OpenBLAS exposes no thread getter.  The count
    moves no campaign bits (the tests compare every format's summaries
    at one and two threads).
    """
    lib = _openblas()
    if lib is None:
        return None
    current = lib.scipy_openblas_get_num_threads64_()
    n_jobs = effective_jobs(jobs)
    return current if n_jobs == 1 else min(current, max(1, usable_cpus() // n_jobs))


@dataclass(frozen=True)
class TrialFailure:
    """Sentinel result for a trial the supervised pool could not complete.

    Appears in the ``map_trials`` result list in place of the trial's
    value when the trial crashed its worker or timed out more times than
    the retry budget allows.

    Attributes:
        index: Trial index the failure stands in for.
        reason: ``"crash"`` (worker died) or ``"timeout"`` (chunk
            deadline exceeded).
        attempts: Executions attempted before quarantine.
    """

    index: int
    reason: str
    attempts: int = 1


@dataclass
class _Chunk:
    """A contiguous slice of trial indices plus its failure history."""

    indices: list[int]
    attempts: int = 0
    #: True once the chunk runs alone for culprit verification: a pool
    #: crash cannot identify which in-flight chunk killed the worker, so
    #: a crash-exhausted singleton is re-run solo — failing alone is
    #: unambiguous guilt, succeeding alone is vindication.
    solo: bool = False
    #: Planner control message for the chunk's round (picklable; applied
    #: via ``task.apply_control`` in whichever worker runs the chunk).
    #: Retries and bisection halves inherit it, so a re-run chunk always
    #: executes under its original round's state.
    ctl: object = None


def _init_worker(task_factory: Callable[[], object], blas: int | None) -> None:
    global _WORKER_TASK
    # Workers inherit the parent's BLAS threads, one per core by
    # default: lowered to ``blas`` (never raised), ``jobs`` workers
    # share the cores instead of oversubscribing them.
    lib = _openblas()
    if blas is not None and lib is not None and lib.scipy_openblas_get_num_threads64_() > blas:
        lib.scipy_openblas_set_num_threads64_(blas)
    # Worker-lifetime task cache, rebound exactly once per process at
    # pool start.
    _WORKER_TASK = task_factory()


def exc_summary(exc: BaseException, frames: int = 3) -> str:
    """Compact one-string tail of a traceback (innermost ``frames``)."""
    tb = traceback.format_exception(type(exc), exc, exc.__traceback__)
    tail = [line.strip().replace("\n", " | ") for line in tb[-frames:]]
    return " | ".join(tail)[:500]


def _apply_ctl(task: object, ctl: object) -> None:
    """Install a round's control message on a task, when both exist.

    Control messages *replace* prior state (see the campaign task's
    ``apply_control``), so a worker that served round ``w`` and is then
    handed round ``w+2`` holds exactly round ``w+2``'s state — workers
    are interchangeable and chunk placement stays outcome-neutral.
    """
    if ctl is None:
        return
    apply = getattr(task, "apply_control", None)
    if callable(apply):
        apply(ctl)


def _close_task(task: object) -> None:
    """Best-effort ``task.close()`` (shared-memory views and the like)."""
    close = getattr(task, "close", None)
    if callable(close):
        try:
            close()
        except Exception:
            pass


def _run_slice(task, indices: Sequence[int], ctl: object = None) -> tuple[list, object]:
    """Run one chunk of trials through ``task.run_many``, in a worker or inline.

    Installs the round's control message, then hands the whole slice to
    ``run_many(indices) -> list``, whose values align with ``indices``
    (the campaign task quarantines its raising trials itself, as
    values).  Returns ``(pairs, obs)``: the ``(index, value)`` pairs, and
    the task's per-chunk observability delta (metric snapshot) when it
    exposes ``collect_obs()``, else None.  Snapshot and results travel
    in the same message, so a crashed or timed-out chunk loses both
    together and re-running it can never double-count a trial's metrics.
    """
    _apply_ctl(task, ctl)
    with span("chunk"):
        values = task.run_many(list(indices))
    collect = getattr(task, "collect_obs", None)
    return list(zip(indices, values)), (collect() if callable(collect) else None)


def _run_chunk(indices: Sequence[int], ctl: object = None) -> tuple[list, object]:
    """Worker body: :func:`_run_slice` on this worker's task."""
    assert _WORKER_TASK is not None, "worker not initialised"
    return _run_slice(_WORKER_TASK, indices, ctl)


def _emit(on_event: Callable[[str, dict], None] | None, kind: str, **detail) -> None:
    if on_event is not None:
        on_event(kind, detail)


class _Supervisor:
    """Drives chunks through a rebuildable pool until all trials resolve."""

    def __init__(
        self,
        task_factory: Callable[[], object],
        indices: Sequence[int],
        n_jobs: int,
        chunk: int,
        timeout: float | None,
        timeout_grace: float,
        max_retries: int,
        max_rebuilds: int,
        backoff_base: float,
        backoff_cap: float,
        on_event: Callable[[str, dict], None] | None,
        on_result: Callable[[int, object], None] | None,
        blas: int | None,
        on_obs: Callable[[object], None] | None = None,
        plan: Callable[[], tuple[Sequence[int], object] | None] | None = None,
        inline: bool = False,
    ):
        self.task_factory = task_factory
        self.n_jobs = n_jobs
        self.blas = blas
        self.chunk = chunk
        self.timeout = timeout
        self.timeout_grace = timeout_grace
        self.max_retries = max_retries
        self.max_rebuilds = max_rebuilds
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.on_event = on_event
        self.on_result = on_result
        self.on_obs = on_obs
        self.plan = plan

        self.results: dict[int, object] = {}
        self.pending: deque[_Chunk] = deque()
        self.probation: deque[_Chunk] = deque()
        #: Submitted chunks in submission order.  The executor runs them
        #: first in, first out, so the oldest ``n_jobs`` are the running
        #: ones and the rest are queued behind them.
        self.in_flight: dict[Future, _Chunk] = {}
        #: Deadlines of the running chunks (with a ``timeout``); a queued
        #: chunk's clock starts when it moves up to a worker.
        self.deadlines: dict[Future, float] = {}
        self.pool: ProcessPoolExecutor | None = None
        self.consecutive_rebuilds = 0
        self.ever_succeeded = False
        #: Chunks run in this process: from the start (``jobs=1``) or
        #: once the pool has degraded.
        self.inline = inline
        self.inline_task: object | None = None
        if plan is None:
            self._enqueue(indices, None)

    def _enqueue(self, indices: Sequence[int], ctl: object) -> None:
        indices = list(indices)
        self.pending.extend(
            _Chunk(indices[s : s + self.chunk], ctl=ctl)
            for s in range(0, len(indices), self.chunk)
        )

    # -- bookkeeping ------------------------------------------------------ #
    def _record(self, index: int, value: object) -> None:
        self.results[index] = value
        if self.on_result is not None:
            self.on_result(index, value)

    def _quarantine(self, index: int, reason: str, attempts: int) -> None:
        _emit(self.on_event, "quarantine", index=index, reason=reason, attempts=attempts)
        self._record(index, TrialFailure(index=index, reason=reason, attempts=attempts))

    def _requeue_or_bisect(self, c: _Chunk, reason: str) -> None:
        """Give a failed chunk another try, split it, or quarantine it."""
        span = (c.indices[0], c.indices[-1])
        if c.solo:
            # It failed while running alone: unambiguous culprit.
            self._quarantine(c.indices[0], reason, c.attempts)
        elif c.attempts <= self.max_retries:
            _emit(self.on_event, "retry", span=span, attempt=c.attempts, reason=reason)
            self.pending.append(c)
        elif len(c.indices) > 1:
            mid = len(c.indices) // 2
            _emit(self.on_event, "bisect", span=span, reason=reason)
            # Fresh budgets: each half gets a fair chance to prove the
            # poison trial lives in the other half.
            self.pending.appendleft(_Chunk(c.indices[mid:], ctl=c.ctl))
            self.pending.appendleft(_Chunk(c.indices[:mid], ctl=c.ctl))
        elif reason == "crash":
            # A crash cannot be attributed: this singleton's budget may
            # have been burned by a chunk-mate's worker dying.  Re-run it
            # alone so guilt or innocence is observed directly.
            c.solo = True
            _emit(self.on_event, "retry", span=span, attempt=c.attempts, reason="probation")
            self.probation.append(c)
        else:
            self._quarantine(c.indices[0], reason, c.attempts)

    # -- pool lifecycle ---------------------------------------------------- #
    def _build_pool(self) -> None:
        if self.consecutive_rebuilds:
            delay = min(
                self.backoff_cap,
                self.backoff_base * (2 ** (self.consecutive_rebuilds - 1)),
            )
            _emit(self.on_event, "rebuild",
                  consecutive=self.consecutive_rebuilds, backoff=delay)
            # A real wall-clock pause between pool rebuilds: backoff must
            # scale with elapsed time, not with seeded campaign state.
            time.sleep(delay)
        self.pool = ProcessPoolExecutor(
            max_workers=self.n_jobs,
            initializer=_init_worker,
            initargs=(self.task_factory, self.blas),
        )

    def _teardown_pool(self, kill: bool) -> None:
        if self.pool is None:
            return
        if kill:
            # A hung worker never answers a cooperative shutdown; SIGTERM
            # the worker processes so the executor releases its futures.
            procs = getattr(self.pool, "_processes", None) or {}
            for proc in list(procs.values()):
                proc.terminate()
        self.pool.shutdown(wait=False, cancel_futures=True)
        self.pool = None

    def _reclaim_in_flight(self, reason: str, charged: int) -> None:
        """Return every unresolved chunk to the queue after the pool died.

        Results that arrived before the pool died are kept.  Of the
        chunks still unresolved, the oldest ``charged`` were running:
        the culprit cannot be told apart from its fellows, so each takes
        one attempt (innocents that exhaust their budget are bisected,
        not lost).  The rest were queued behind them and go back to the
        front of the queue, in order, free.
        """
        for fut in list(self.in_flight):
            if fut.done():
                self._settle(fut)
        unresolved = list(self.in_flight.values())
        self.in_flight.clear()
        self.deadlines.clear()
        for c in unresolved[:charged]:
            c.attempts += 1
            self._requeue_or_bisect(c, reason)
        self.pending.extendleft(reversed(unresolved[charged:]))

    # -- inline execution -------------------------------------------------- #
    def _degrade(self) -> None:
        """Give up on the pool: run every remaining chunk in this process."""
        self.pending.extend(self.probation)
        self.probation.clear()
        self.inline = True
        _emit(self.on_event, "degrade",
              remaining=sum(len(c.indices) for c in self.pending))
        self._run_inline()

    def _run_inline(self) -> None:
        if self.inline_task is None:
            # Built once and reused across planner rounds: inline
            # execution is sticky for the rest of the map, so setup is
            # paid once.
            self.inline_task = self.task_factory()
        while self.pending:
            c = self.pending.popleft()
            self._absorb(_run_slice(self.inline_task, c.indices, c.ctl))

    # -- completed-future processing --------------------------------------- #
    def _absorb(self, payload: tuple[list, object]) -> None:
        with span("absorb"):
            pairs, obs = payload
            for index, value in pairs:
                self._record(index, value)
            if obs is not None and self.on_obs is not None:
                self.on_obs(obs)

    def _settle(self, fut: Future) -> bool:
        """Resolve a done future's chunk; False when its pool broke first.

        A chunk whose pool broke or shut down under it stays in flight
        for :meth:`_reclaim_in_flight`.
        """
        if fut.cancelled() or isinstance(fut.exception(), BrokenProcessPool):
            return False
        c = self.in_flight.pop(fut)
        self.deadlines.pop(fut, None)
        try:
            payload = fut.result()
        except Exception:
            # Infrastructure failure outside the trial (e.g. the result
            # failed to unpickle): treat like a chunk fault.
            c.attempts += 1
            self._requeue_or_bisect(c, "crash")
            return True
        self.consecutive_rebuilds = 0
        self.ever_succeeded = True
        self._absorb(payload)
        return True

    def _start_clocks(self) -> None:
        """Start the deadline of each chunk that has moved up to a worker."""
        if self.timeout is None:
            return
        now = time.perf_counter()
        for fut in itertools.islice(self.in_flight, self.n_jobs):
            if fut not in self.deadlines:
                budget = self.timeout * len(self.in_flight[fut].indices) + self.timeout_grace
                self.deadlines[fut] = now + budget

    # -- main loop ---------------------------------------------------------- #
    def run(self) -> dict[int, object]:
        try:
            if self.plan is None:
                self._run_round()
            else:
                # Planner mode: each round is released only after the
                # previous one fully resolved — the barrier that makes
                # the planner's decisions a pure function of the trial
                # prefix, independent of jobs/chunk/arrival order.
                while True:
                    nxt = self.plan()
                    if nxt is None:
                        break
                    round_indices, ctl = nxt
                    self._enqueue(round_indices, ctl)
                    self._run_round()
        finally:
            self._teardown_pool(kill=False)
            if self.inline_task is not None:
                _close_task(self.inline_task)
                self.inline_task = None
        return self.results

    def _run_round(self) -> None:
        if self.inline:
            self._run_inline()
            return
        while self.pending or self.probation or self.in_flight:
            if self.pool is None:
                # Degrade only when the pool has NEVER completed a
                # chunk — i.e. pool execution itself is broken.  Once
                # any chunk has succeeded, crashes are chunk-induced
                # and bisection/solo-probation will isolate them;
                # running a crashing trial inline would kill the
                # parent process.
                if self.consecutive_rebuilds > self.max_rebuilds and not self.ever_succeeded:
                    self._degrade()
                    break
                self._build_pool()
            try:
                self._top_up()
                broken = self._drain()
            except BrokenProcessPool:
                self._reclaim_in_flight("crash", charged=self.n_jobs)
                broken = True
            if broken:
                self.consecutive_rebuilds += 1
                self._teardown_pool(kill=False)

    def _top_up(self) -> None:
        """Keep one chunk queued behind each running one.

        ``_QUEUE_DEPTH * n_jobs`` chunks are in flight, so a worker that
        returns a chunk starts its next one at once instead of waiting
        while the parent absorbs the result.  Deadlines still measure
        execution, not queueing: a chunk's clock starts when it moves up
        to a worker (:meth:`_start_clocks`).
        """
        assert self.pool is not None
        if any(c.solo for c in self.in_flight.values()):
            return  # a solo verification run owns the pool
        while self.pending or self.probation:
            if self.probation:
                if self.in_flight:
                    break  # drain shared work before the next solo run
                c = self.probation.popleft()
            elif len(self.in_flight) < _QUEUE_DEPTH * self.n_jobs:
                c = self.pending.popleft()
            else:
                break
            try:
                fut = self.pool.submit(_run_chunk, c.indices, c.ctl)
            except (BrokenProcessPool, RuntimeError):
                queue = self.probation if c.solo else self.pending
                queue.appendleft(c)
                raise BrokenProcessPool("pool broke on submit")
            self.in_flight[fut] = c
            if c.solo:
                break
        self._start_clocks()

    def _drain(self) -> bool:
        """Wait for progress; returns True when the pool must be rebuilt."""
        tick = None
        if self.deadlines:
            tick = max(_MIN_TICK, min(self.deadlines.values()) - time.perf_counter())
        done, _ = wait(set(self.in_flight), timeout=tick, return_when=FIRST_COMPLETED)

        # Settle in submission order: each resolved chunk hands its
        # worker to the next queued one.
        for fut in [f for f in self.in_flight if f in done]:
            if not self._settle(fut):
                self._reclaim_in_flight("crash", charged=self.n_jobs)
                return True
        self._start_clocks()

        # Deadline sweep: a chunk past its deadline means a wedged
        # worker; the only portable remedy is killing the whole pool.
        now = time.perf_counter()
        expired = [
            fut
            for fut, d in self.deadlines.items()
            # A future that finished between wait() and this sweep is not
            # hung; its result is kept even if the pool is killed.
            if now > d and not fut.done()
        ]
        if expired:
            for fut in expired:
                c = self.in_flight[fut]
                _emit(self.on_event, "timeout",
                      span=(c.indices[0], c.indices[-1]), attempt=c.attempts + 1)
            self._teardown_pool(kill=True)
            for fut in expired:
                c = self.in_flight.pop(fut)
                del self.deadlines[fut]
                c.attempts += 1
                self._requeue_or_bisect(c, "timeout")
            # Chunks that had not expired were victims of our own pool
            # kill: requeue them without burning retry budget.
            self._reclaim_in_flight("timeout", charged=0)
            self.consecutive_rebuilds += 1
        return False


def map_trials(
    task_factory: Callable[[], object],
    jobs: int | None = 1,
    chunk: int = 64,
    *,
    indices: Sequence[int] = (),
    plan: Callable[[], tuple[Sequence[int], object] | None] | None = None,
    timeout: float | None = None,
    timeout_grace: float = 5.0,
    max_retries: int = 2,
    max_rebuilds: int = 3,
    backoff_base: float = 0.5,
    backoff_cap: float = 8.0,
    on_event: Callable[[str, dict], None] | None = None,
    on_result: Callable[[int, object], None] | None = None,
    on_obs: Callable[[object], None] | None = None,
) -> list:
    """Run trial indices through a task's slices, possibly in parallel, supervised.

    Args:
        task_factory: Zero-arg callable returning the task: an object
            whose ``run_many(indices)`` takes a whole slice and returns
            one value per index (see :func:`_run_slice`).  Invoked once
            per worker (and once inline when ``jobs == 1``), so expensive
            setup (network construction, golden run) is paid per worker
            rather than per trial.
        jobs: Worker processes; 1 runs inline (default, deterministic and
            debuggable), None/0 uses every usable CPU, negative raises.
            Each worker's OpenBLAS threads are capped at its share of
            the usable CPUs (see :func:`blas_threads`).
        chunk: Trials per inter-process message, and per inline slice
            (must be >= 1).  Results stream to ``on_result`` a chunk at
            a time.
        indices: Trial indices to run (checkpoint resume runs the gap
            set).
        plan: Round scheduler (statistical early stopping builds on
            this).  Called with no arguments; returns ``(indices, ctl)``
            for the next round, or None when the map is finished.  Each
            round runs to full resolution before the next ``plan()``
            call — a deterministic barrier — and ``ctl`` (a small
            picklable message) is installed on the executing task via
            ``task.apply_control(ctl)`` before any of the round's trials
            run, including on retries, bisection halves and degraded
            inline execution.  When given, ``indices`` is ignored.
        timeout: Per-trial time budget in seconds; a chunk's deadline is
            ``timeout * len(chunk) + timeout_grace`` after it starts.  One
            chunk waits queued behind each running one, and its clock
            starts when a worker frees up for it (the executor runs
            chunks in submission order), so queueing never counts.  None
            disables deadlines.  Ignored inline (a wedged trial cannot be
            killed from within its own process).
        timeout_grace: Flat per-chunk allowance covering worker startup
            (network build + golden inference happen on first use).
        max_retries: Extra attempts per crashed or timed-out chunk
            before bisection/quarantine.
        max_rebuilds: Consecutive pool rebuilds without any completed
            chunk before degrading to inline execution.
        backoff_base: First rebuild backoff delay (seconds); doubles per
            consecutive rebuild up to ``backoff_cap``.
        backoff_cap: Backoff ceiling (seconds).
        on_event: Observer callback ``(kind, detail)`` for supervision
            events: ``retry``, ``rebuild``, ``timeout``, ``bisect``,
            ``quarantine``, ``degrade``.
        on_result: Streaming callback ``(index, value)`` fired as each
            trial resolves, chunk by chunk (out of order in parallel
            mode) — the hook campaign checkpointing builds on.
        on_obs: Callback receiving each worker's per-chunk observability
            payload (``task.collect_obs()`` — typically a metric-snapshot
            delta; see :mod:`repro.obs.metrics`).  Payloads arrive in
            completion order; merging must therefore be commutative.

    Returns:
        Per-trial results in trial-index order.  A trial the supervisor
        could not complete yields a :class:`TrialFailure` in its slot;
        callers that want raw failures to propagate should check for it.
    """
    n_jobs = effective_jobs(jobs)
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    indices = list(indices)

    supervisor = _Supervisor(
        task_factory=task_factory,
        indices=indices,
        n_jobs=(
            n_jobs
            if plan is not None
            else min(n_jobs, max(1, (len(indices) + chunk - 1) // chunk))
        ),
        chunk=chunk,
        timeout=timeout,
        timeout_grace=timeout_grace,
        max_retries=max_retries,
        max_rebuilds=max_rebuilds,
        backoff_base=backoff_base,
        backoff_cap=backoff_cap,
        on_event=on_event,
        on_result=on_result,
        on_obs=on_obs,
        plan=plan,
        inline=n_jobs == 1 or (plan is None and len(indices) <= 1),
        blas=blas_threads(n_jobs),
    )
    resolved = supervisor.run()
    if plan is not None:
        return [resolved[i] for i in sorted(resolved)]
    return [resolved[i] for i in indices]
