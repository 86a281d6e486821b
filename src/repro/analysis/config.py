"""Lint configuration: ``[tool.repro-lint]`` in ``pyproject.toml``.

Recognised keys (all optional)::

    [tool.repro-lint]
    exclude = ["tests/fixtures"]          # path fragments to skip
    select = ["RP1", "RP301"]             # restrict to these ids/families
    ignore = ["RP503"]                    # drop these ids/families
    campaign-paths = ["repro/core", "repro/experiments"]
    dtype-paths = ["repro/dtypes", "repro/nn"]
    kernel-paths = ["repro/dtypes/fixedpoint.py"]
    library-paths = ["repro"]
    print-exempt-paths = ["repro/core/cli.py", "repro/obs/cli.py"]

The ``*-paths`` keys scope the path-sensitive rule families: wall-clock
reads (RP103) are only an error inside campaign paths, missing
``dtype=`` (RP202) inside numeric packages, bare-float arithmetic (RP203)
inside fixed-point kernels, and bare ``print()`` (RP105) inside library
paths *except* the print-exempt CLI/reporter modules.  Path values match
as posix fragments against each linted file's path, so ``repro/core``
matches any layout that nests the package (``src/repro/core/...``).

``float-eq-exempt-paths`` and ``script-paths`` carve the test/benchmark
suites and example scripts out of RP201 and RP501, where exact
comparison and script-style modules are deliberate.
``obs-writer-exempt-paths`` names the sanctioned artifact writers
(checkpoint, manifest, tracer; appends go through ``repro.obs.jsonlog``)
that RP108 exempts from its ban on direct append-mode JSON writes.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

__all__ = ["LintConfig", "load_config", "find_pyproject", "path_matches"]

if sys.version_info >= (3, 11):
    import tomllib
else:  # pragma: no cover - exercised only on 3.10
    try:
        import tomli as tomllib
    except ModuleNotFoundError:
        tomllib = None


@dataclass(frozen=True)
class LintConfig:
    """Resolved lint configuration (defaults match this repository)."""

    exclude: tuple[str, ...] = ()
    select: tuple[str, ...] = ()
    ignore: tuple[str, ...] = ()
    campaign_paths: tuple[str, ...] = (
        "repro/core", "repro/experiments", "repro/utils/parallel.py",
    )
    dtype_paths: tuple[str, ...] = ("repro/dtypes", "repro/nn")
    kernel_paths: tuple[str, ...] = ("repro/dtypes/fixedpoint.py",)
    library_paths: tuple[str, ...] = ("repro",)
    print_exempt_paths: tuple[str, ...] = (
        "repro/core/cli.py",
        "repro/experiments/runner.py",
        "repro/analysis/cli.py",
        "repro/obs/cli.py",
        "repro/obs/progress.py",
        "repro/gate/cli.py",
    )
    #: The sanctioned JSONL/JSON writers (RP108): campaign-path code
    #: appending JSON records directly can tear on SIGKILL and break the
    #: byte-identity contract; these modules *are* the artifact writers
    #: and are exempt from their own rule.
    obs_writer_exempt_paths: tuple[str, ...] = (
        "repro/core/checkpoint.py",
        "repro/obs/manifest.py",
        "repro/obs/tracer.py",
    )
    #: Paths where exact float ==/!= is the *point* (bit-exactness
    #: assertions in the test/benchmark suites) — RP201 skips them.
    float_eq_exempt_paths: tuple[str, ...] = ("tests", "benchmarks")
    #: Script trees (examples, one-off tools) exempt from the __all__
    #: contract (RP501): they are entry points, not importable API.
    script_paths: tuple[str, ...] = ("examples",)
    config_file: str | None = field(default=None, compare=False)

    def scope(self, key: str) -> tuple[str, ...]:
        """Path fragments for a rule's ``scope_key``."""
        return getattr(self, key)


def path_matches(path: Path | str, fragment: str) -> bool:
    """True when ``fragment`` occurs as a posix path fragment of ``path``.

    ``repro/core`` matches ``src/repro/core/campaign.py`` but not
    ``src/repro/core_utils.py``; a fragment naming a file matches that
    file anywhere in the tree.
    """
    posix = Path(path).as_posix().strip("/")
    frag = fragment.strip("/")
    return f"/{posix}/".find(f"/{frag}/") >= 0 or posix.endswith(f"/{frag}") or posix == frag


def find_pyproject(start: Path) -> Path | None:
    """Walk up from ``start`` to the nearest ``pyproject.toml``."""
    node = start.resolve()
    if node.is_file():
        node = node.parent
    for candidate in (node, *node.parents):
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None


def load_config(pyproject: Path | None) -> LintConfig:
    """Parse ``[tool.repro-lint]`` out of ``pyproject``; defaults if absent."""
    cfg = LintConfig()
    if pyproject is None or tomllib is None:
        return cfg
    with open(pyproject, "rb") as fh:
        data = tomllib.load(fh)
    table = data.get("tool", {}).get("repro-lint", {})
    if not isinstance(table, dict):
        raise TypeError("[tool.repro-lint] must be a table")
    known = {f.name.replace("_", "-"): f.name for f in fields(LintConfig) if f.name != "config_file"}
    updates: dict[str, tuple[str, ...]] = {}
    for key, value in table.items():
        attr = known.get(key)
        if attr is None:
            raise KeyError(f"unknown [tool.repro-lint] key {key!r}; known: {sorted(known)}")
        if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
            raise TypeError(f"[tool.repro-lint] {key} must be a list of strings")
        updates[attr] = tuple(value)
    return replace(cfg, config_file=str(pyproject), **updates)
