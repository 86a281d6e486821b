"""repro.analysis — fault-injection-aware static analysis (``repro-lint``).

The paper's conclusions rest on statistically valid fault-injection
campaigns: ~3,000 injections per layer, bit-exact datatype semantics and
deterministic re-execution.  The parity obligations and outcome digests
check determinism end to end (``docs/release_gates.md``); this package
checks, on every commit, the invariants no run can see, via an
AST-visitor rule engine with five project-specific pass families:

- ``RP1xx`` library output — no bare ``print()`` in library code.
- ``RP2xx`` dtype safety — no float ``==``/``!=`` outside the
  bit-exactness test suites.
- ``RP3xx`` atomic-write hygiene — write-then-``replace`` temp files must
  be unique per process.
- ``RP4xx`` registry consistency — experiment modules and zoo networks
  must be registered, with no orphans.
- ``RP5xx`` API hygiene — ``__all__`` present and complete in every
  public module.

``repro-lint --explain RP201`` documents each rule.  Findings can be
suppressed inline (``# repro: noqa[RP201]``) or steered via
``[tool.repro-lint]`` in ``pyproject.toml``.  Run as ``repro-lint`` or
``python -m repro.analysis``.
"""

from repro.analysis.config import LintConfig, load_config
from repro.analysis.engine import FileContext, ProjectContext, lint_paths
from repro.analysis.findings import Finding
from repro.analysis.registry import ProjectRule, Rule, all_rules, get_rule, register
from repro.analysis.reporters import render_json, render_text

__all__ = [
    "Finding",
    "FileContext",
    "LintConfig",
    "ProjectContext",
    "ProjectRule",
    "Rule",
    "all_rules",
    "get_rule",
    "lint_paths",
    "load_config",
    "register",
    "render_json",
    "render_text",
]
