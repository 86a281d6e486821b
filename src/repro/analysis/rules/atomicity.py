"""RP3xx — atomic-write hygiene under the parallel campaign runner.

Campaign workers share on-disk caches (weight store, experiment
artifacts).  The safe pattern is write-to-temp + ``os.replace``; but if
the temp filename is shared between processes, two workers interleave
writes into the same file and the subsequent rename publishes a torn
archive — the exact ``zipfile.BadZipFile`` class of bug this repository
shipped in ``repro/zoo/store.py``.  A temp name is only safe when it
embeds a per-process/per-call uniqueness token (pid, uuid, mkstemp...).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import FileContext
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register

__all__ = ["SharedTempReplace"]

#: Identifiers anywhere in the temp-name expression (or the value it was
#: built from) that make the name unique per process or per call.
_UNIQUENESS_TOKENS = (
    "getpid", "pid", "uuid", "mkstemp", "mkdtemp",
    "namedtemporaryfile", "temporaryfile", "token_hex", "token_urlsafe",
    "unique", "nonce", "getrandbits",
)


def _attr_chain(node: ast.expr) -> list[str]:
    """Flatten ``a.b.c`` into ``["a", "b", "c"]`` (empty if not a chain)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return []


def _mentions_tmp(node: ast.expr) -> bool:
    """Does the expression embed a string constant naming a temp file?"""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if "tmp" in sub.value.lower() or "temp" in sub.value.lower():
                return True
    return False


def _has_uniqueness_token(node: ast.expr) -> bool:
    for sub in ast.walk(node):
        ident = None
        if isinstance(sub, ast.Name):
            ident = sub.id
        elif isinstance(sub, ast.Attribute):
            ident = sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            ident = sub.value
        if ident is not None and any(tok in ident.lower() for tok in _UNIQUENESS_TOKENS):
            return True
    return False


def _replace_targets(func: ast.AST) -> set[str]:
    """Names that flow into a rename/replace publishing step in ``func``."""
    targets: set[str] = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        chain = _attr_chain(node.func)
        if not chain:
            continue
        # tmp.replace(dst) / tmp.rename(dst): receiver is the temp path.
        if chain[-1] in ("replace", "rename") and len(chain) == 2 and node.args:
            targets.add(chain[0])
        # os.replace(tmp, dst) / os.rename(tmp, dst) / shutil.move(tmp, dst)
        if (
            chain[-1] in ("replace", "rename", "move")
            and len(chain) >= 2
            and chain[0] in ("os", "shutil")
            and node.args
            and isinstance(node.args[0], ast.Name)
        ):
            targets.add(node.args[0].id)
    return targets


@register
class SharedTempReplace(Rule):
    """Flag write-then-replace temp files not unique per process."""

    id = "RP301"
    name = "shared-temp-replace"
    summary = "temp file renamed into place must embed a per-process token (pid/uuid)"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        scopes: list[ast.AST] = [
            node
            for node in ast.walk(ctx.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for scope in scopes or [ctx.tree]:
            replaced = _replace_targets(scope)
            if not replaced:
                continue
            for node in ast.walk(scope):
                if not isinstance(node, ast.Assign):
                    continue
                names = {t.id for t in node.targets if isinstance(t, ast.Name)}
                if not (names & replaced):
                    continue
                if _mentions_tmp(node.value) and not _has_uniqueness_token(node.value):
                    yield self.finding(
                        ctx,
                        node,
                        "temp filename is shared between processes; concurrent campaign "
                        "workers interleave writes and publish a torn file on replace() "
                        "— embed os.getpid()/uuid4() in the name (or use tempfile.mkstemp)",
                    )

