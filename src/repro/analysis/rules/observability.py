"""RP105 — observability hygiene in library code.

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
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import FileContext
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register

__all__ = ["BarePrint"]


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

