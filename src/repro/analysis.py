"""repro.analysis — fault-injection-aware static analysis.

The paper's conclusions rest on statistically valid fault-injection
campaigns: ~3,000 injections per layer, bit-exact datatype semantics and
deterministic re-execution.  The parity obligations' tests and the
benchmark's outcome digests check determinism end to end
(``obligations/*.json``, ``docs/release_gates.md``); this module checks
the invariants no run can see, with seven AST checks in five families:

- ``RP1xx`` library output — no bare ``print()`` in library code.
- ``RP2xx`` dtype safety — no float ``==``/``!=`` outside the
  bit-exactness test suites.
- ``RP3xx`` atomic-write hygiene — write-then-``replace`` temp files must
  be unique per process.
- ``RP4xx`` registry consistency — experiment modules and zoo networks
  must be registered, with no orphans.
- ``RP5xx`` API hygiene — ``__all__`` present and complete in every
  public module.

:func:`lint_paths` parses each file once and runs every check on it.
Tier-1 runs it over the whole checkout
(``tests/test_analysis.py::TestRepoSelfCheck::test_repo_is_lint_clean``,
the node of the ``OBL-LINT-CLEAN`` obligation, which also requires the
run to take under 60 s).  A finding is suppressed
inline by naming its id on its line: ``# repro: noqa[RP201]`` or
``# repro: noqa[RP105, RP201]``.  Rule-by-rule rationale:
``docs/static_analysis.md``.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "FLOAT_EQ_EXEMPT_PATHS",
    "LIBRARY_PATHS",
    "PARSE_ERROR_ID",
    "PRINT_EXEMPT_PATHS",
    "SCRIPT_PATHS",
    "Finding",
    "lint_paths",
    "path_matches",
]

# Path scopes.  Values match as posix fragments against each linted
# file's path (see path_matches), so "repro/core" matches any layout that
# nests the package (src/repro/core/...).

#: Library code, where a bare ``print()`` is flagged (RP105).
LIBRARY_PATHS = ("repro",)
#: Modules whose job is to print (CLIs, the live progress reporter):
#: exempt from RP105 here rather than by inline noqa, so the whole
#: policy is reviewable in one place.
PRINT_EXEMPT_PATHS = (
    "repro/core/cli.py",
    "repro/experiments/runner.py",
    "repro/obs/cli.py",
    "repro/obs/progress.py",
)
#: Bit-exactness assertions are the point of the test and benchmark
#: suites, so exact float ``==``/``!=`` (RP201) is allowed there.
FLOAT_EQ_EXEMPT_PATHS = ("tests", "benchmarks")
#: Script trees (examples, one-off tools) exempt from the ``__all__``
#: contract (RP501): they are entry points, not importable API.
SCRIPT_PATHS = ("examples",)

#: Pseudo-rule id for files that cannot be parsed.
PARSE_ERROR_ID = "RP000"

#: Inline suppression: ``# repro: noqa[RP105, RP201]``.
_NOQA = re.compile(r"#\s*repro:\s*noqa\[(?P<ids>[^\]]*)\]", re.IGNORECASE)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location.

    Attributes:
        file: Path of the offending file, as given to :func:`lint_paths`
            (relative to its ``root`` where possible).
        line: 1-based line number.
        col: 1-based column number.
        rule_id: Stable rule identifier (``RPnnn``).
        message: Human-readable explanation.
    """

    file: str
    line: int
    col: int
    rule_id: str
    message: str

    def render(self) -> str:
        """One-line text rendering (``path:line:col: RPnnn message``)."""
        return f"{self.file}:{self.line}:{self.col}: {self.rule_id} {self.message}"


def path_matches(path: Path | str, fragment: str) -> bool:
    """True when ``fragment`` occurs as a posix path fragment of ``path``.

    ``repro/core`` matches ``src/repro/core/campaign.py`` but not
    ``src/repro/core_utils.py``; a fragment naming a file matches that
    file anywhere in the tree.
    """
    posix = Path(path).as_posix().strip("/")
    frag = fragment.strip("/")
    return f"/{posix}/".find(f"/{frag}/") >= 0 or posix.endswith(f"/{frag}") or posix == frag


@dataclass
class _Source:
    """One parsed source file, shared by every check that inspects it."""

    path: Path
    display: str
    tree: ast.Module
    lines: list[str]

    def in_scope(self, fragments: tuple[str, ...]) -> bool:
        """True when this file lies under any of the path ``fragments``."""
        return any(path_matches(self.path, frag) for frag in fragments)

    def finding(self, rule_id: str, node: ast.AST, message: str) -> Finding:
        """A finding anchored at an AST node (1-based column)."""
        return Finding(
            file=self.display,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=rule_id,
            message=message,
        )

    def suppresses(self, finding: Finding) -> bool:
        """Does the finding's line carry a noqa marker naming its id?"""
        if not 1 <= finding.line <= len(self.lines):
            return False
        match = _NOQA.search(self.lines[finding.line - 1])
        return match is not None and finding.rule_id in {
            token.strip().upper() for token in match.group("ids").split(",")
        }


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


# --------------------------------------------------------------------- #
# RP105 — observability hygiene in library code.
#
# A fault-injection campaign's one sanctioned user-facing channel is the
# observability stack (repro.obs): metrics registries, supervision
# events, run logs and the progress reporter.  A bare print()
# buried in library code bypasses all of it — the output cannot be
# captured into a run log, breaks repro-obs tooling that parses stdout,
# and (worst) interleaves nondeterministically when emitted from pool
# workers.  CLI entry points and the progress reporter exist to print;
# PRINT_EXEMPT_PATHS exempts them by path rather than by inline noqa.
# --------------------------------------------------------------------- #


def _bare_print(src: _Source) -> Iterator[Finding]:
    """RP105 bare-print-in-library: flag ``print()`` calls in library code.

    Scoped to :data:`LIBRARY_PATHS`; :data:`PRINT_EXEMPT_PATHS` (CLIs,
    the progress reporter) are skipped.
    """
    if not src.in_scope(LIBRARY_PATHS) or src.in_scope(PRINT_EXEMPT_PATHS):
        return
    for node in ast.walk(src.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        ):
            yield src.finding(
                "RP105",
                node,
                "bare print() in library code; emit through an EventRecorder "
                "sink / repro.obs instead, or list this module under "
                "PRINT_EXEMPT_PATHS if its job is to print",
            )


# --------------------------------------------------------------------- #
# RP2xx — bit-exact datatype safety.
#
# Table 3's datatype comparison is only meaningful if every value in a
# fixed-point campaign actually lives in the declared format, and == on
# floats compares bit patterns the formats may not even be able to
# represent.
# --------------------------------------------------------------------- #

#: Non-finite sentinels that float equality can never match reliably.
_NONFINITE_ATTRS = frozenset({"inf", "nan", "NAN", "NaN", "Inf", "Infinity", "NINF", "PINF"})


def _is_float_operand(node: ast.expr) -> bool:
    """Float literal, ``-literal``, or a non-finite constant attribute."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    chain = _attr_chain(node)
    return len(chain) == 2 and chain[0] in ("np", "numpy", "math") and chain[1] in _NONFINITE_ATTRS


def _float_equality(src: _Source) -> Iterator[Finding]:
    """RP201 float-equality: flag ``==`` / ``!=`` against float literals or inf/nan.

    Exempt under :data:`FLOAT_EQ_EXEMPT_PATHS` (tests and benchmarks):
    asserting *bit-exact* equality against known values is the point of
    the dtype test suites.
    """
    if src.in_scope(FLOAT_EQ_EXEMPT_PATHS):
        return
    for node in ast.walk(src.tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, (lhs, rhs) in zip(node.ops, zip(operands, operands[1:])):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if _is_float_operand(lhs) or _is_float_operand(rhs):
                yield src.finding(
                    "RP201",
                    node,
                    "exact float comparison; quantized formats may not represent "
                    "the literal — use math.isclose/np.isclose (or np.isinf/np.isnan)",
                )
                break


# --------------------------------------------------------------------- #
# RP3xx — atomic-write hygiene under the parallel campaign runner.
#
# Campaign workers share on-disk caches (weight store, experiment
# artifacts).  The safe pattern is write-to-temp + os.replace; but if
# the temp filename is shared between processes, two workers interleave
# writes into the same file and the subsequent rename publishes a torn
# archive — the exact zipfile.BadZipFile class of bug this repository
# shipped in repro/zoo/store.py.  A temp name is only safe when it
# embeds a per-process/per-call uniqueness token (pid, uuid, mkstemp...).
# --------------------------------------------------------------------- #

#: Identifiers anywhere in the temp-name expression (or the value it was
#: built from) that make the name unique per process or per call.
_UNIQUENESS_TOKENS = (
    "getpid", "pid", "uuid", "mkstemp", "mkdtemp",
    "namedtemporaryfile", "temporaryfile", "token_hex", "token_urlsafe",
    "unique", "nonce", "getrandbits",
)


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


def _shared_temp_replace(src: _Source) -> Iterator[Finding]:
    """RP301 shared-temp-replace: flag write-then-replace temp files not unique per process."""
    scopes: list[ast.AST] = [
        node
        for node in ast.walk(src.tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    for scope in scopes or [src.tree]:
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
                yield src.finding(
                    "RP301",
                    node,
                    "temp filename is shared between processes; concurrent campaign "
                    "workers interleave writes and publish a torn file on replace() "
                    "— embed os.getpid()/uuid4() in the name (or use tempfile.mkstemp)",
                )


# --------------------------------------------------------------------- #
# RP4xx — registry consistency across the experiment and zoo packages.
#
# repro-exp all and the campaign CLI only reach experiments that
# runner.py registers, and campaigns can only build networks that
# zoo/registry.py maps.  An orphan module is dead weight at best and, at
# worst, a silently stale reproduction of a paper table that no CI entry
# point ever executes again.  These checks run once over all linted
# files.
# --------------------------------------------------------------------- #

#: Experiment-package housekeeping modules that need no registration.
_EXPERIMENT_EXEMPT = frozenset({"__init__", "__main__", "runner", "common"})


def _dict_value_names(tree: ast.Module, dict_name: str) -> set[str] | None:
    """Names appearing in the values of a top-level ``dict_name = {...}``.

    Returns None when no such literal dict assignment exists.
    """
    for node in tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id == dict_name:
                if not isinstance(node.value, ast.Dict):
                    return None
                names: set[str] = set()
                for value in node.value.values:
                    for sub in ast.walk(value):
                        if isinstance(sub, ast.Name):
                            names.add(sub.id)
                        elif isinstance(sub, ast.Attribute):
                            names.add(sub.attr)
                return names
    return None


def _experiment_registered(sources: list[_Source]) -> Iterator[Finding]:
    """RP401 experiment-registered: every experiment module must appear in runner.py's EXPERIMENTS."""
    modules = [src for src in sources if path_matches(src.path, "repro/experiments")]
    runner = next((m for m in modules if m.path.name == "runner.py"), None)
    if runner is None:
        return
    registered = _dict_value_names(runner.tree, "EXPERIMENTS")
    if registered is None:
        yield runner.finding("RP401", runner.tree, "runner.py has no literal EXPERIMENTS dict")
        return
    for mod in modules:
        stem = mod.path.stem
        if stem in _EXPERIMENT_EXEMPT or stem.startswith("_"):
            continue
        if stem not in registered:
            yield mod.finding(
                "RP401",
                mod.tree,
                f"experiment module {stem!r} is not registered in runner.py "
                "EXPERIMENTS; it will never run under 'repro-exp all' or CI",
            )


def _zoo_network_registered(sources: list[_Source]) -> Iterator[Finding]:
    """RP402 zoo-network-registered: every zoo ``build_*`` network must appear in zoo/registry.py."""
    modules = [src for src in sources if path_matches(src.path, "repro/zoo")]
    registry = next((m for m in modules if m.path.name == "registry.py"), None)
    if registry is None:
        return
    referenced: set[str] = {
        node.id for node in ast.walk(registry.tree) if isinstance(node, ast.Name)
    }
    referenced |= {
        alias.asname or alias.name
        for node in ast.walk(registry.tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    for mod in modules:
        if mod.path.name == "registry.py":
            continue
        for node in mod.tree.body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("build_"):
                if node.name not in referenced:
                    yield mod.finding(
                        "RP402",
                        node,
                        f"network builder {node.name!r} is not referenced by "
                        "zoo/registry.py; campaigns cannot reach it by name",
                    )


# --------------------------------------------------------------------- #
# RP5xx — public API hygiene.
#
# Every public module declares __all__ and lists its public definitions
# there: it is the contract the docs, the experiment runner and
# downstream users rely on, and an unexported public function is how
# half-migrated refactors linger unnoticed.  A stale entry naming
# nothing is ruff's F822, which CI runs.
# --------------------------------------------------------------------- #

#: Module basenames exempt from the __all__ requirement.
_DUNDER_ALL_EXEMPT = frozenset({"__main__.py", "conftest.py", "setup.py"})


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


def _missing_dunder_all(src: _Source) -> Iterator[Finding]:
    """RP501 missing-dunder-all: flag public modules without a top-level ``__all__``.

    Test modules (``test_*.py``) and the trees under
    :data:`SCRIPT_PATHS` (examples, one-off tools) are exempt: they are
    entry points collected by a runner, not importable API surface.
    """
    if src.in_scope(SCRIPT_PATHS):
        return
    name = src.path.name
    if name in _DUNDER_ALL_EXEMPT or (name.startswith("_") and name != "__init__.py"):
        return
    if name.startswith("test_"):
        return
    node, _ = _literal_all(src.tree)
    if node is None:
        yield src.finding("RP501", src.tree, "public module does not declare __all__")


def _unexported_public_def(src: _Source) -> Iterator[Finding]:
    """RP503 unexported-public-def: flag public top-level defs/classes missing from ``__all__``."""
    node, names = _literal_all(src.tree)
    if node is None or names is None:
        return
    exported = set(names)
    for stmt in src.tree.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if stmt.name.startswith("_") or stmt.name in exported:
            continue
        yield src.finding(
            "RP503",
            stmt,
            f"public {'class' if isinstance(stmt, ast.ClassDef) else 'function'} "
            f"{stmt.name!r} is not listed in __all__ (export it or underscore it)",
        )


# --------------------------------------------------------------------- #
# Driver.
# --------------------------------------------------------------------- #

#: Checks run on each parsed file.
_FILE_CHECKS = (
    _bare_print,
    _float_equality,
    _shared_temp_replace,
    _missing_dunder_all,
    _unexported_public_def,
)
#: Checks run once over every parsed file.
_PROJECT_CHECKS = (_experiment_registered, _zoo_network_registered)


def _python_files(paths: Iterable[Path | str]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated ``.py`` list."""
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            seen.update(path.rglob("*.py"))
        elif not path.exists():
            raise FileNotFoundError(f"no such file or directory: {path}")
        elif path.suffix == ".py":
            seen.add(path)
    return sorted(seen)


def lint_paths(paths: Iterable[Path | str], root: Path | None = None) -> list[Finding]:
    """Lint files/directories and return the sorted unsuppressed findings.

    Args:
        paths: Files or directories to lint (directories recurse).
        root: When given, report paths relative to it where possible.

    A file that cannot be parsed yields one ``RP000`` finding rather
    than aborting the run, so one syntax error cannot hide other
    results.  A finding is dropped when its line carries a
    ``# repro: noqa[...]`` marker naming its id.
    """
    sources: list[_Source] = []
    findings: list[Finding] = []
    for path in _python_files(paths):
        display = str(path)
        if root is not None:
            try:
                display = str(path.resolve().relative_to(root.resolve()))
            except ValueError:
                pass
        try:
            text = path.read_text(encoding="utf-8")
            tree = ast.parse(text, filename=str(path))
        except (SyntaxError, UnicodeDecodeError) as exc:
            findings.append(
                Finding(
                    file=display,
                    line=getattr(exc, "lineno", 1) or 1,
                    col=getattr(exc, "offset", 1) or 1,
                    rule_id=PARSE_ERROR_ID,
                    message=f"file could not be parsed: {exc.msg if hasattr(exc, 'msg') else exc}",
                )
            )
            continue
        src = _Source(path=path, display=display, tree=tree, lines=text.splitlines())
        sources.append(src)
        for file_check in _FILE_CHECKS:
            findings.extend(file_check(src))
    for project_check in _PROJECT_CHECKS:
        findings.extend(project_check(sources))
    by_display = {src.display: src for src in sources}
    return sorted(
        f for f in findings if f.file not in by_display or not by_display[f.file].suppresses(f)
    )
