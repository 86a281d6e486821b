"""Lint engine: walk files, parse, run rules, apply suppressions.

The engine parses each ``.py`` file once into an :class:`ast.Module`,
hands the shared :class:`FileContext` to every applicable per-file rule,
then runs the cross-file :class:`~repro.analysis.registry.ProjectRule`
passes over the whole tree.  Findings on lines carrying a matching
``# repro: noqa[RPnnn]`` (or a blanket ``# repro: noqa``) are dropped.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.config import LintConfig, path_matches
from repro.analysis.findings import PARSE_ERROR_ID, Finding
from repro.analysis.registry import ProjectRule, all_rules, expand_ids, known_ids

__all__ = ["FileContext", "ProjectContext", "lint_paths", "iter_python_files"]

#: Inline suppression: ``# repro: noqa`` or ``# repro: noqa[RP101, RP201]``.
_NOQA = re.compile(r"#\s*repro:\s*noqa(?:\[(?P<ids>[^\]]*)\])?", re.IGNORECASE)


@dataclass
class FileContext:
    """One parsed source file, shared by every rule that inspects it."""

    path: Path
    display_path: str
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)

    @classmethod
    def parse(cls, path: Path, display_path: str | None = None) -> "FileContext":
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        return cls(
            path=path,
            display_path=display_path or str(path),
            source=source,
            tree=tree,
            lines=source.splitlines(),
        )

    def in_scope(self, fragments: Sequence[str]) -> bool:
        """True when this file lies under any of the path ``fragments``."""
        return any(path_matches(self.path, frag) for frag in fragments)

    def suppressed_ids(self, line: int) -> frozenset[str] | None:
        """Suppression on ``line``: None = none, empty set = blanket noqa."""
        if not 1 <= line <= len(self.lines):
            return None
        match = _NOQA.search(self.lines[line - 1])
        if match is None:
            return None
        ids = match.group("ids")
        if ids is None:
            return frozenset()
        return frozenset(token.strip().upper() for token in ids.split(",") if token.strip())


@dataclass
class ProjectContext:
    """All linted files at once, for cross-file consistency rules."""

    files: list[FileContext]
    config: LintConfig

    def find(self, fragment: str) -> list[FileContext]:
        """Files whose path contains the posix ``fragment``."""
        return [ctx for ctx in self.files if path_matches(ctx.path, fragment)]


def iter_python_files(paths: Iterable[Path | str]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated ``.py`` list."""
    seen: dict[Path, None] = {}
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                seen.setdefault(sub, None)
        elif not path.exists():
            raise FileNotFoundError(f"no such file or directory: {path}")
        elif path.suffix == ".py":
            seen.setdefault(path, None)
    return sorted(seen)


def _active_ids(config: LintConfig) -> set[str]:
    active = expand_ids(config.select) if config.select else set(known_ids())
    if config.ignore:
        active -= expand_ids(config.ignore)
    return active


def _suppressed(ctx: FileContext, finding: Finding) -> bool:
    ids = ctx.suppressed_ids(finding.line)
    return ids is not None and (not ids or finding.rule_id in ids)


def lint_paths(
    paths: Iterable[Path | str],
    config: LintConfig | None = None,
    root: Path | None = None,
) -> list[Finding]:
    """Lint files/directories and return sorted surviving findings.

    Args:
        paths: Files or directories to lint (directories recurse).
        config: Resolved configuration; library defaults when None.
        root: When given, report paths relative to it where possible.

    Unparseable files yield a single ``RP000`` finding rather than
    aborting the run, so one syntax error cannot hide other results.
    """
    config = config or LintConfig()
    rules = [rule for rule in all_rules() if rule.id in _active_ids(config)]
    file_rules = [r for r in rules if not isinstance(r, ProjectRule)]
    project_rules = [r for r in rules if isinstance(r, ProjectRule)]

    contexts: list[FileContext] = []
    findings: list[Finding] = []
    for path in iter_python_files(paths):
        if any(path_matches(path, frag) for frag in config.exclude):
            continue
        display = str(path)
        if root is not None:
            try:
                display = str(path.resolve().relative_to(root.resolve()))
            except ValueError:
                pass
        try:
            ctx = FileContext.parse(path, display_path=display)
        except (SyntaxError, UnicodeDecodeError) as exc:
            line = getattr(exc, "lineno", 1) or 1
            findings.append(
                Finding(
                    file=display,
                    line=line,
                    col=(getattr(exc, "offset", 1) or 1),
                    rule_id=PARSE_ERROR_ID,
                    message=f"file could not be parsed: {exc.msg if hasattr(exc, 'msg') else exc}",
                )
            )
            continue
        contexts.append(ctx)
        for rule in file_rules:
            if rule.scope_key is not None and not ctx.in_scope(config.scope(rule.scope_key)):
                continue
            if rule.exempt_key is not None and ctx.in_scope(config.scope(rule.exempt_key)):
                continue
            findings.extend(f for f in rule.check(ctx) if not _suppressed(ctx, f))

    project = ProjectContext(files=contexts, config=config)
    by_display = {ctx.display_path: ctx for ctx in contexts}
    for rule in project_rules:
        for finding in rule.check_project(project):
            ctx = by_display.get(finding.file)
            if ctx is not None and _suppressed(ctx, finding):
                continue
            findings.append(finding)
    return sorted(findings)
