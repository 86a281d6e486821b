"""Rule registry: stable ``RPnnn`` ids mapped to rule singletons.

Rules self-register at import time via the :func:`register` decorator;
importing :mod:`repro.analysis.rules` populates the registry.  Ids are
grouped by family:

- ``RP1xx`` determinism
- ``RP2xx`` dtype safety
- ``RP3xx`` atomic-write hygiene
- ``RP4xx`` registry consistency
- ``RP5xx`` API hygiene
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.analysis.engine import FileContext, ProjectContext
    from repro.analysis.findings import Finding

__all__ = ["Rule", "ProjectRule", "register", "all_rules", "get_rule", "known_ids", "expand_ids"]

_RULE_ID = re.compile(r"^RP[1-5]\d\d$")

_REGISTRY: dict[str, "Rule"] = {}


class Rule:
    """Base class for per-file AST rules.

    Class attributes:
        id: Stable ``RPnnn`` identifier.
        name: Short kebab-case rule name.
        summary: One-line description (shown by ``--list-rules``).
        scope_key: Optional :class:`~repro.analysis.config.LintConfig`
            attribute naming the path prefixes the rule is confined to;
            None applies the rule to every linted file.
        exempt_key: Optional :class:`~repro.analysis.config.LintConfig`
            attribute naming path prefixes the rule *skips* even inside
            its scope (e.g. RP105 exempts CLI/reporter modules whose job
            is to print).  Applied after ``scope_key``.
    """

    id: str = ""
    name: str = ""
    summary: str = ""
    scope_key: str | None = None
    exempt_key: str | None = None

    def check(self, ctx: "FileContext") -> Iterator["Finding"]:
        """Yield findings for one parsed file."""
        raise NotImplementedError

    def finding(self, ctx: "FileContext", node, message: str) -> "Finding":
        """Build a finding anchored at an AST node (1-based column)."""
        from repro.analysis.findings import Finding

        return Finding(
            file=ctx.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=self.id,
            message=message,
        )

    def explain(self) -> str:
        """Long-form rule documentation for ``repro-lint --explain``.

        Renders the rule header plus its class docstring.
        """
        import inspect
        import textwrap

        doc = inspect.getdoc(type(self)) or ""
        header = f"{self.id} {self.name}\n  {self.summary}"
        if self.scope_key is not None:
            header += f"\n  scope: {self.scope_key} (configurable in [tool.repro-lint])"
        return header + ("\n\n" + textwrap.dedent(doc) if doc else "")


class ProjectRule(Rule):
    """Base class for cross-file rules (run once over the whole tree)."""

    def check(self, ctx: "FileContext") -> Iterator["Finding"]:  # pragma: no cover
        return iter(())

    def check_project(self, ctx: "ProjectContext") -> Iterator["Finding"]:
        """Yield findings computed over all linted files at once."""
        raise NotImplementedError


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator: instantiate and index a rule by its id."""
    if not _RULE_ID.match(cls.id):
        raise ValueError(f"rule id {cls.id!r} does not match RP[1-5]xx")
    if cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id}")
    _REGISTRY[cls.id] = cls()
    return cls


def all_rules() -> list[Rule]:
    """Every registered rule, ordered by id (imports rule modules)."""
    _ensure_loaded()
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    """Look up one rule by id."""
    _ensure_loaded()
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        raise KeyError(f"unknown rule {rule_id!r}; known: {sorted(_REGISTRY)}") from None


def known_ids() -> frozenset[str]:
    """The set of registered rule ids."""
    _ensure_loaded()
    return frozenset(_REGISTRY)


def expand_ids(selectors: Iterable[str]) -> set[str]:
    """Expand id selectors (exact ``RP101`` or family prefix ``RP1``/``RP3xx``)."""
    _ensure_loaded()
    out: set[str] = set()
    for sel in selectors:
        sel = sel.strip().upper().replace("X", "")
        if not sel:
            continue
        matched = {rid for rid in _REGISTRY if rid == sel or rid.startswith(sel)}
        if not matched:
            raise KeyError(f"selector {sel!r} matches no registered rule")
        out |= matched
    return out


def _ensure_loaded() -> None:
    # Importing the rules package triggers the register() decorators.
    import repro.analysis.rules  # noqa: F401
