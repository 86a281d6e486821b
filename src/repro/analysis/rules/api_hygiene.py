"""RP5xx — public API hygiene.

Every public module declares ``__all__`` and lists its public
definitions there: it is the contract the docs, the experiment runner
and downstream users rely on, and an unexported public function is how
half-migrated refactors linger unnoticed.  A stale entry naming nothing
is ruff's F822, which CI runs.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import FileContext
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register

__all__ = ["HasDunderAll", "PublicDefExported"]

#: Module basenames exempt from the __all__ requirement.
_EXEMPT = frozenset({"__main__.py", "conftest.py", "setup.py"})


def _literal_all(tree: ast.Module) -> tuple[ast.AST | None, list[str] | None]:
    """The module's ``__all__`` node and names (None when absent/dynamic)."""
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            if isinstance(node.value, (ast.List, ast.Tuple)) and all(
                isinstance(el, ast.Constant) and isinstance(el.value, str)
                for el in node.value.elts
            ):
                return node, [el.value for el in node.value.elts]
            return node, None
    return None, None


@register
class HasDunderAll(Rule):
    """Flag public modules without a top-level ``__all__``.

    Test modules (``test_*.py``) and the trees listed under
    ``script-paths`` (examples, one-off tools) are exempt: they are entry
    points collected by a runner, not importable API surface.
    """

    id = "RP501"
    name = "missing-dunder-all"
    summary = "public modules must declare __all__"
    exempt_key = "script_paths"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        name = ctx.path.name
        if name in _EXEMPT or (name.startswith("_") and name != "__init__.py"):
            return
        if name.startswith("test_"):
            return
        node, _ = _literal_all(ctx.tree)
        if node is None:
            yield self.finding(
                ctx, ctx.tree, "public module does not declare __all__"
            )


@register
class PublicDefExported(Rule):
    """Flag public top-level defs/classes missing from ``__all__``."""

    id = "RP503"
    name = "unexported-public-def"
    summary = "public top-level functions/classes must appear in __all__"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        node, names = _literal_all(ctx.tree)
        if node is None or names is None:
            return
        exported = set(names)
        for stmt in ctx.tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if stmt.name.startswith("_") or stmt.name in exported:
                continue
            yield self.finding(
                ctx,
                stmt,
                f"public {'class' if isinstance(stmt, ast.ClassDef) else 'function'} "
                f"{stmt.name!r} is not listed in __all__ (export it or underscore it)",
            )
