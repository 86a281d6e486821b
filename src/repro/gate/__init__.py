"""Obligation-based release gates over the repo's reliability invariants.

The repo's core promises — serial ≡ parallel ≡ batch-N ≡ kill/resume
byte-identity, golden immutability, FIT within the ISO 26262 budget,
SED precision/recall floors, batched-propagation speedup floors, lint
cleanliness — used to be enforced by an ad-hoc scatter of CI jobs and
test asserts.  This package lifts them into data:

- :mod:`repro.gate.spec` — declarative obligation specs
  (``obligations/*.json``): id, invariant in prose, evidence recipes;
- :mod:`repro.gate.recipes` — recipe executors (pytest node ids and
  commands as subprocesses with deadlines, benchmark gauge floors over
  ``BENCH_<date>.json``);
- :mod:`repro.gate.runner` — recipe fan-out on threads and the verdict
  algebra;
- :mod:`repro.gate.evidence` — the atomic, machine-readable evidence
  manifest that is CI's release artifact;
- :mod:`repro.gate.cli` — the ``repro-gate`` command
  (``list`` / ``check`` / ``evidence`` / ``explain`` / ``selfcheck``).

Design grounding: POET's obligations/recipes/evidence model — an
invariant is *satisfied* only while live evidence maps to it.
"""

from repro.gate.spec import (
    OBLIGATION_ID_RE,
    RECIPE_TYPES,
    Obligation,
    RecipeSpec,
    SpecError,
    default_spec_dir,
    load_pack,
    load_specs,
)
from repro.gate.runner import check_obligations, select_obligations

__all__ = [
    "OBLIGATION_ID_RE",
    "RECIPE_TYPES",
    "Obligation",
    "RecipeSpec",
    "SpecError",
    "check_obligations",
    "default_spec_dir",
    "load_pack",
    "load_specs",
    "select_obligations",
]
