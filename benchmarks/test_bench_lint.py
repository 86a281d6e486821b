"""Bench: whole-repo repro-lint wall time.

Acceptance: linting the entire checkout (src, tests, benchmarks,
examples) stays under a generous ceiling — roughly 10x the seed-time
measurement — so the linter cannot quietly regress into an unusable
pre-commit hook.

The timing lands in ``benchmarks/BENCH_<date>.json`` via ``run_once``
like every other benchmark, so historical lint cost can be diffed with
``repro-obs`` alongside campaign metrics.
"""

from pathlib import Path
from time import perf_counter

from repro.analysis import lint_paths, load_config

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Wall-clock ceiling for one full-repo lint (seed measurement: ~6 s).
LINT_CEILING_S = 60.0


def _lint_repo():
    config = load_config(REPO_ROOT / "pyproject.toml")
    paths = [
        REPO_ROOT / sub
        for sub in ("src", "tests", "benchmarks", "examples")
        if (REPO_ROOT / sub).is_dir()
    ]
    return lint_paths(paths, config=config, root=REPO_ROOT)


def test_bench_lint_whole_repo(run_once):
    start = perf_counter()
    findings = run_once(_lint_repo)
    elapsed = perf_counter() - start

    print(f"\nrepro-lint over the full checkout: {elapsed:.2f} s, {len(findings)} findings")
    assert findings == [], "\n".join(f.render() for f in findings)
    assert elapsed < LINT_CEILING_S, (
        f"whole-repo lint took {elapsed:.1f} s (ceiling {LINT_CEILING_S:.0f} s); "
        "the lint engine has regressed"
    )
