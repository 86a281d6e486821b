"""Recipe executors: turn an obligation's evidence recipe into a verdict.

Every executor returns a JSON-safe *outcome* dict::

    {"status": "pass" | "fail" | "error",
     "duration_s": float,
     "pointer": "<one-line evidence pointer>",
     "evidence": {...recipe-specific detail...}}

``fail`` means the recipe ran and the invariant does not hold; ``error``
means the recipe itself could not produce evidence (missing file, crash,
timeout).  Both are gate failures — an invariant without evidence is not
satisfied — but the distinction is preserved in the manifest so a broken
recipe is not mistaken for a broken invariant.

Recipe types
------------
- ``pytest`` — run the named test node ids in a subprocess; the nodes
  *are* the evidence pointer.
- ``bench`` — evaluate gauge floor expressions against the newest
  ``benchmarks/BENCH_<date>.json`` snapshot, optionally (re)generating
  the gauges by running a benchmark file when they are absent.
- ``command`` — arbitrary argv; exit 0 is the invariant.

Every executor that runs anything runs it as a subprocess under the
recipe's ``timeout``, so a wedged recipe ends as an ``error`` outcome
instead of stalling the gate.
"""

from __future__ import annotations

import fnmatch
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from repro.gate.spec import RECIPE_TYPES, RecipeSpec

__all__ = ["run_recipe"]

#: Characters of subprocess output preserved as evidence.
_OUTPUT_TAIL = 4000


def _tail(text: str, limit: int = _OUTPUT_TAIL) -> str:
    text = text.strip()
    return text if len(text) <= limit else "...[truncated]...\n" + text[-limit:]


def _subprocess_env(root: Path) -> dict:
    env = dict(os.environ)
    src = root / "src"
    if src.is_dir():
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else str(src)
    return env


def _run_argv(argv: list[str], root: Path, timeout: float) -> dict:
    """Run a subprocess, capturing the outcome shape all runners share."""
    try:
        proc = subprocess.run(
            argv, cwd=root, env=_subprocess_env(root),
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"returncode": None, "timed_out": True, "output": "", "argv": argv}
    except OSError as exc:
        return {"returncode": None, "timed_out": False,
                "output": f"spawn failed: {exc}", "argv": argv}
    output = proc.stdout + ("\n" + proc.stderr if proc.stderr.strip() else "")
    return {"returncode": proc.returncode, "timed_out": False,
            "output": _tail(output), "argv": argv}


# -- pytest ----------------------------------------------------------------- #
def _recipe_pytest(params: dict, root: Path, timeout: float) -> dict:
    nodes = params.get("nodes")
    if not isinstance(nodes, list) or not nodes:
        return {"status": "error", "pointer": "pytest recipe needs 'nodes'", "evidence": {}}
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *nodes]
    run = _run_argv(argv, root, timeout)
    if run["timed_out"]:
        return {"status": "error", "pointer": f"pytest timed out after {timeout:g}s",
                "evidence": {"nodes": nodes, **run}}
    ok = run["returncode"] == 0
    pointer = f"pytest exit {run['returncode']}: {', '.join(nodes)}"
    return {"status": "pass" if ok else "fail", "pointer": pointer,
            "evidence": {"nodes": nodes, **run}}


# -- bench gauge floors ----------------------------------------------------- #
_OPS = {
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b,
    "<": lambda a, b: a < b,
}

_AGGS = {
    "max": max,
    "min": min,
    "mean": lambda vals: sum(vals) / len(vals),
}


def _latest_bench(root: Path, pattern: str) -> Path | None:
    candidates = sorted(root.glob(pattern))
    return candidates[-1] if candidates else None


def _load_gauges(path: Path) -> dict:
    payload = json.loads(path.read_text(encoding="utf-8"))
    return dict(payload.get("snapshot", {}).get("gauges", {}))


def _eval_check(check: dict, gauges: dict) -> dict:
    gauge, op = check.get("gauge", ""), check.get("op", ">=")
    agg, floor = check.get("agg", "max"), check.get("value")
    result = {"gauge": gauge, "op": op, "agg": agg, "value": floor}
    if op not in _OPS or agg not in _AGGS or not isinstance(floor, (int, float)):
        result.update(ok=False, reason="malformed check")
        return result
    matched = {k: v for k, v in gauges.items() if fnmatch.fnmatchcase(k, gauge)}
    if not matched:
        result.update(ok=False, reason="no matching gauge", matched={})
        return result
    observed = _AGGS[agg](list(matched.values()))
    result.update(ok=bool(_OPS[op](observed, floor)), observed=observed, matched=matched)
    return result


def _recipe_bench(params: dict, root: Path, timeout: float) -> dict:
    pattern = params.get("file", "benchmarks/BENCH_*.json")
    checks = params.get("checks")
    if not isinstance(checks, list) or not checks:
        return {"status": "error", "pointer": "bench recipe needs 'checks'", "evidence": {}}
    generate = params.get("generate")

    path = _latest_bench(root, pattern)
    gauges = _load_gauges(path) if path is not None else {}
    missing = [c for c in checks
               if not any(fnmatch.fnmatchcase(k, c.get("gauge", "")) for k in gauges)]
    generated = None

    def _regenerate() -> dict | None:
        # (Re)measure: run the benchmark file that owns the gauges; its
        # session-end hook merges them into today's BENCH snapshot.
        nonlocal path, gauges, generated
        generated = _run_argv([sys.executable, "-m", "pytest", "-q", generate], root, timeout)
        if generated["timed_out"]:
            return {"status": "error",
                    "pointer": f"benchmark generation timed out after {timeout:g}s",
                    "evidence": {"generate": generated}}
        path = _latest_bench(root, pattern)
        gauges = _load_gauges(path) if path is not None else {}
        return None

    can_generate = isinstance(generate, str) and bool(generate)
    if missing and can_generate:
        timed_out = _regenerate()
        if timed_out is not None:
            return timed_out

    if path is None:
        return {"status": "error", "pointer": f"no benchmark snapshot matches {pattern}",
                "evidence": {"pattern": pattern, "generate": generated}}
    results = [_eval_check(c, gauges) for c in checks]
    ok = all(r["ok"] for r in results)
    if not ok and generated is None and can_generate:
        # A stale snapshot (e.g. measured under load) may under-report;
        # re-measure once before calling the floor violated.
        timed_out = _regenerate()
        if timed_out is not None:
            return timed_out
        results = [_eval_check(c, gauges) for c in checks]
        ok = all(r["ok"] for r in results)
    worst = next((r for r in results if not r["ok"]), None)
    pointer = (f"all {len(results)} gauge floor(s) hold in {path.name}" if ok else
               f"{worst['gauge']} {worst['op']} {worst['value']} violated in {path.name}"
               f" (observed {worst.get('observed', 'nothing')})")
    evidence = {"file": str(path), "checks": results}
    if generated is not None:
        evidence["generate"] = generated
    return {"status": "pass" if ok else "fail", "pointer": pointer, "evidence": evidence}


# -- command ---------------------------------------------------------------- #
def _recipe_command(params: dict, root: Path, timeout: float) -> dict:
    argv = params.get("argv")
    if not isinstance(argv, list) or not argv:
        return {"status": "error", "pointer": "command recipe needs 'argv'", "evidence": {}}
    run = _run_argv([str(a) for a in argv], root, timeout)
    if run["timed_out"]:
        return {"status": "error", "pointer": f"command timed out after {timeout:g}s",
                "evidence": run}
    ok = run["returncode"] == 0
    return {"status": "pass" if ok else "fail",
            "pointer": f"exit {run['returncode']}: {' '.join(str(a) for a in argv)}",
            "evidence": run}


_RUNNERS = {
    "pytest": _recipe_pytest,
    "bench": _recipe_bench,
    "command": _recipe_command,
}

assert set(_RUNNERS) == set(RECIPE_TYPES), "recipe registry out of sync with spec"


def run_recipe(recipe: RecipeSpec, root: str | Path) -> dict:
    """Execute one recipe against the checkout at ``root``.

    Never raises: an executor bug becomes an ``error`` outcome so the
    gate can report it alongside the honest verdicts.
    """
    runner = _RUNNERS.get(recipe.type)
    start = time.perf_counter()
    if runner is None:
        outcome = {"status": "error", "pointer": f"unknown recipe type {recipe.type!r}",
                   "evidence": {}}
    else:
        try:
            outcome = runner(dict(recipe.params), Path(root), recipe.timeout)
        except Exception as exc:  # a recipe bug must not take down the gate
            outcome = {"status": "error",
                       "pointer": f"recipe raised {type(exc).__name__}: {exc}",
                       "evidence": {"exception": repr(exc)}}
    outcome["type"] = recipe.type
    outcome["describe"] = recipe.describe()
    outcome["duration_s"] = round(time.perf_counter() - start, 3)
    return outcome
