"""RP105 / RP108 — observability hygiene in library code.

A fault-injection campaign's one sanctioned user-facing channel is the
observability stack (:mod:`repro.obs`): metrics registries, supervision
events, run manifests and the progress reporter.  A bare ``print()``
buried in library code bypasses all of it — the output cannot be
captured into a run log, breaks ``repro-obs`` tooling that parses
stdout, and (worst) interleaves nondeterministically when emitted from
pool workers.  CLI entry points and the progress reporter exist to
print; they are exempted by path via ``print-exempt-paths`` rather than
inline noqa so the policy lives in one reviewable place
(``[tool.repro-lint]`` in ``pyproject.toml``).

RP108 guards the other direction of the same channel: the *artifacts*
the observability stack writes.  Checkpoints, run logs, trace files and
manifests all promise byte-identical, SIGKILL-safe files, which only
holds when every write goes through the sanctioned writers
(``atomic_write_text``, or the append-only
:class:`repro.obs.jsonlog.JsonlLog`, which snapshots before appending
and ends canonical).  A direct ``open(path, "a")`` append stream or
ad-hoc ``json.dump`` in campaign code can tear mid-record on a kill and
silently break the resume and parity contracts, so RP108 flags them
inside campaign paths; the sanctioned writer modules themselves are
exempted via ``obs-writer-exempt-paths``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import FileContext
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register

__all__ = ["BarePrint", "NonAtomicObsWrite"]


@register
class BarePrint(Rule):
    """Flag ``print()`` calls in library code (CLI/reporters exempt)."""

    id = "RP105"
    name = "bare-print-in-library"
    summary = "bare print() in library code bypasses the repro.obs event/metric channel"
    scope_key = "library_paths"
    exempt_key = "print_exempt_paths"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield self.finding(
                    ctx,
                    node,
                    "bare print() in library code; emit through an EventRecorder "
                    "sink / repro.obs instead, or list this module under "
                    "print-exempt-paths if its job is to print",
                )


def _call_name(node: ast.Call) -> str | None:
    """Trailing name of the called function (``open`` for ``Path.open``)."""
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _append_mode(node: ast.Call) -> bool:
    """True when an ``open`` call's mode string requests append mode."""
    mode = None
    if isinstance(node.func, ast.Name) and len(node.args) >= 2:
        mode = node.args[1]  # builtin open(path, mode)
    elif isinstance(node.func, ast.Attribute) and node.args:
        mode = node.args[0]  # Path.open(mode)
    for kw in node.keywords:
        if kw.arg == "mode":
            mode = kw.value
    # A mode string, not just any string containing "a": Path("x").open
    # puts arbitrary strings in the first positional slot elsewhere.
    return (
        isinstance(mode, ast.Constant)
        and isinstance(mode.value, str)
        and "a" in mode.value
        and set(mode.value) <= set("rwxab+tU")
    )


@register
class NonAtomicObsWrite(Rule):
    """Flag non-atomic JSONL/JSON writes in campaign paths.

    Two shapes, both of which can tear a run artifact on SIGKILL and
    break byte-identity across serial / parallel / resumed executions:

    - ``open(path, "a")`` / ``path.open("a")`` — an ad-hoc append stream
      leaves a partial record behind when the process dies mid-write
      (:class:`repro.obs.jsonlog.JsonlLog` is the sanctioned append log).
    - ``json.dump(obj, fh)`` — serializes incrementally into whatever
      file object it is handed; the atomic writers serialize to a string
      first and publish it with ``os.replace``.

    The sanctioned writers (checkpoint, manifest, tracer) are exempted
    by path via ``obs-writer-exempt-paths``.
    """

    id = "RP108"
    name = "non-atomic-obs-write"
    summary = "append-mode open()/json.dump in campaign code bypasses the atomic writers"
    scope_key = "campaign_paths"
    exempt_key = "obs_writer_exempt_paths"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name == "open" and _append_mode(node):
                yield self.finding(
                    ctx,
                    node,
                    "append-mode open() in campaign code can tear the artifact "
                    "on SIGKILL; publish through atomic_write_text, or log "
                    "per-trial lines through repro.obs.jsonlog.JsonlLog, instead",
                )
            elif (
                name == "dump"
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "json"
            ):
                yield self.finding(
                    ctx,
                    node,
                    "json.dump() streams into an open file; serialize with "
                    "json.dumps and publish via atomic_write_text so run "
                    "artifacts stay kill-safe and byte-identical",
                )
