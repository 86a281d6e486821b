"""Golden state that pool workers inherit from the campaign parent.

Every trial of a campaign replays one fault against the same fault-free
golden run, so every pool worker needs the same read-only state: the
network with its quantized weights, the golden activations and the
learned detector.  The parent builds one campaign task, publishes it
here and then starts the pool: forked workers inherit the task with the
rest of the parent's memory, and :func:`attach_golden_state` hands it to
them.  A worker started any other way (spawn, forkserver) finds nothing
published and builds its own task, which yields the same golden bits for
CPU time alone.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from contextlib import contextmanager

__all__ = ["attach_golden_state", "publish_golden_state"]

_PUBLISHED = None


@contextmanager
def publish_golden_state(task) -> Iterator[None]:
    """Publish ``task`` to the pool workers forked inside this block."""
    global _PUBLISHED
    _PUBLISHED = task
    try:
        yield
    finally:
        _PUBLISHED = None


def attach_golden_state(build: Callable[[], object]):
    """The published task (a forked worker's inheritance), else ``build()``."""
    return _PUBLISHED if _PUBLISHED is not None else build()
