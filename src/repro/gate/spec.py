"""Obligation specs: the declarative form of the repo's reliability invariants.

An *obligation* is one promise the repo makes (serial ≡ parallel ≡
batch-N ≡ kill/resume byte-identity, golden immutability, FIT within the
ISO 26262 budget, SED precision/recall floors, bench speedup floors,
lint cleanliness...) written down as data instead of being implied by
the existence of a CI job.  Each obligation declares:

- ``id`` — stable ``OBL-...`` identifier CI refers to;
- ``title`` — a one-line label;
- ``invariant`` — the promise in prose, for humans;
- ``recipes`` — how to *check* the promise: pytest node ids, benchmark
  gauge floors over ``BENCH_<date>.json``, or a plain command;
- ``tags`` — free-form grouping labels.

Every obligation blocks the release when its evidence fails.  Specs
live in ``obligations/*.json`` packs at the repo root; the gate
(:mod:`repro.gate.runner`) resolves them, executes the recipes, and
emits an evidence manifest (:mod:`repro.gate.evidence`).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "OBLIGATION_ID_RE",
    "RECIPE_TYPES",
    "SPEC_FORMAT",
    "SPEC_VERSION",
    "Obligation",
    "RecipeSpec",
    "SpecError",
    "default_spec_dir",
    "load_pack",
    "load_specs",
]

SPEC_FORMAT = "repro-obligations"
SPEC_VERSION = 1

#: Obligation identifiers: stable, grep-able, CI-referenceable.
OBLIGATION_ID_RE = re.compile(r"OBL-[A-Z0-9][A-Z0-9-]*")

#: Recipe executors the gate knows how to run (repro.gate.recipes).
RECIPE_TYPES = ("pytest", "bench", "command")

#: Recipe wall-clock ceiling when a spec does not declare one (seconds).
DEFAULT_RECIPE_TIMEOUT = 900.0


class SpecError(ValueError):
    """An obligation pack is malformed (parse or schema error)."""


@dataclass(frozen=True)
class RecipeSpec:
    """One executable evidence recipe of an obligation."""

    type: str
    params: dict = field(default_factory=dict)
    timeout: float = DEFAULT_RECIPE_TIMEOUT

    def describe(self) -> str:
        """One-line human summary used by ``list`` / ``explain``."""
        p = self.params
        if self.type == "pytest":
            nodes = p.get("nodes", [])
            head = nodes[0] if nodes else "?"
            extra = f" (+{len(nodes) - 1} more)" if len(nodes) > 1 else ""
            return f"pytest {head}{extra}"
        if self.type == "bench":
            checks = p.get("checks", [])
            parts = [f"{c.get('gauge')} {c.get('op', '>=')} {c.get('value')}" for c in checks]
            return "bench " + "; ".join(parts)
        if self.type == "command":
            return "command " + " ".join(str(a) for a in p.get("argv", []))
        return self.type


@dataclass(frozen=True)
class Obligation:
    """One declared invariant plus the recipes that evidence it."""

    id: str
    title: str
    invariant: str
    recipes: tuple[RecipeSpec, ...]
    tags: tuple[str, ...] = ()
    pack: str = ""
    path: str = ""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


def _parse_recipe(raw: object, where: str) -> RecipeSpec:
    _require(isinstance(raw, dict), f"{where}: recipe must be a mapping, got {type(raw).__name__}")
    assert isinstance(raw, dict)
    params = dict(raw)
    rtype = params.pop("type", None)
    _require(isinstance(rtype, str) and rtype in RECIPE_TYPES,
             f"{where}: recipe type {rtype!r} not one of {RECIPE_TYPES}")
    timeout = params.pop("timeout", DEFAULT_RECIPE_TIMEOUT)
    _require(isinstance(timeout, (int, float)) and timeout > 0,
             f"{where}: recipe timeout must be a positive number")
    return RecipeSpec(type=str(rtype), params=params, timeout=float(timeout))


def _parse_obligation(raw: object, pack: str, path: Path) -> Obligation:
    _require(isinstance(raw, dict), f"{path}: obligation must be a mapping")
    assert isinstance(raw, dict)
    obl_id = raw.get("id")
    where = f"{path}:{obl_id or '<missing id>'}"
    _require(isinstance(obl_id, str) and OBLIGATION_ID_RE.fullmatch(obl_id) is not None,
             f"{where}: id must match {OBLIGATION_ID_RE.pattern!r}")
    title = raw.get("title")
    _require(isinstance(title, str) and bool(title.strip()), f"{where}: needs a 'title'")
    invariant = raw.get("invariant")
    _require(isinstance(invariant, str) and bool(invariant.strip()),
             f"{where}: needs the 'invariant' stated in prose")
    raw_recipes = raw.get("recipes")
    _require(isinstance(raw_recipes, list) and len(raw_recipes) > 0,
             f"{where}: needs at least one recipe")
    assert isinstance(raw_recipes, list)
    recipes = tuple(_parse_recipe(r, where) for r in raw_recipes)
    tags = raw.get("tags", [])
    _require(isinstance(tags, list) and all(isinstance(t, str) for t in tags),
             f"{where}: tags must be a list of strings")
    unknown = set(raw) - {"id", "title", "invariant", "recipes", "tags"}
    _require(not unknown, f"{where}: unknown keys {sorted(unknown)}")
    return Obligation(
        id=str(obl_id),
        title=str(title).strip(),
        invariant=" ".join(str(invariant).split()),
        recipes=recipes,
        tags=tuple(tags),
        pack=pack,
        path=str(path),
    )


def load_pack(path: str | Path) -> list[Obligation]:
    """Parse one ``obligations/*.json`` pack into validated obligations."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}: not valid JSON: {exc}") from exc
    _require(isinstance(doc, dict), f"{path}: pack must be a mapping")
    assert isinstance(doc, dict)
    _require(doc.get("format") == SPEC_FORMAT,
             f"{path}: format must be {SPEC_FORMAT!r}, got {doc.get('format')!r}")
    _require(doc.get("version") == SPEC_VERSION,
             f"{path}: unsupported version {doc.get('version')!r}")
    pack = doc.get("pack")
    _require(isinstance(pack, str) and bool(pack), f"{path}: needs a 'pack' name")
    raw = doc.get("obligations")
    _require(isinstance(raw, list) and len(raw) > 0, f"{path}: needs a non-empty 'obligations' list")
    assert isinstance(raw, list)
    return [_parse_obligation(o, str(pack), path) for o in raw]


def load_specs(spec_dir: str | Path) -> list[Obligation]:
    """Load every pack under ``spec_dir``, enforcing repo-unique ids."""
    spec_dir = Path(spec_dir)
    paths = sorted(spec_dir.glob("*.json"))
    _require(bool(paths), f"no obligation packs (*.json) under {spec_dir}")
    obligations: list[Obligation] = []
    seen: dict[str, str] = {}
    for path in paths:
        for obl in load_pack(path):
            if obl.id in seen:
                raise SpecError(
                    f"{path}: duplicate obligation id {obl.id} (also in {seen[obl.id]})")
            seen[obl.id] = str(path)
            obligations.append(obl)
    return sorted(obligations, key=lambda o: o.id)


def default_spec_dir(start: str | Path | None = None) -> Path:
    """Locate the repo's ``obligations/`` directory from ``start`` upward."""
    here = Path(start) if start is not None else Path.cwd()
    for candidate in (here, *here.resolve().parents):
        spec_dir = candidate / "obligations"
        if spec_dir.is_dir() and any(spec_dir.glob("*.json")):
            return spec_dir
    # Fall back to the checkout that repro itself was imported from.
    pkg_root = Path(__file__).resolve().parents[3]
    spec_dir = pkg_root / "obligations"
    if spec_dir.is_dir():
        return spec_dir
    raise SpecError(
        f"no obligations/ directory found above {here} (pass --specs explicitly)")
