"""Gate execution: resolve obligations, run recipes, collect verdicts.

Every recipe that runs anything runs it as a subprocess under its own
``timeout`` (:mod:`repro.gate.recipes`), so a wedged recipe bounds
itself and ends as an ``error`` outcome.  Recipes therefore need no
supervised pool: they run on ``jobs`` threads (one after another at
``jobs=1``) and their outcomes stream from the calling thread as they
finish.  ``bench`` recipes measure wall-clock ratios, which other
recipes sharing the cores would skew into false floor violations, so
they run one at a time after the rest.

Verdict algebra per obligation: every recipe ``pass`` → ``pass``; any
recipe ``fail`` or ``error`` → ``fail``.  The gate as a whole fails iff
any obligation ends ``fail``.
"""

from __future__ import annotations

from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor, as_completed
from pathlib import Path

from repro.gate.recipes import run_recipe
from repro.gate.spec import Obligation
from repro.utils.parallel import effective_jobs

__all__ = ["check_obligations", "select_obligations"]


def select_obligations(
    obligations: list[Obligation], ids: list[str] | None
) -> list[Obligation]:
    """Resolve an id selection (None/empty = everything), order-stable."""
    if not ids:
        return list(obligations)
    by_id = {o.id: o for o in obligations}
    unknown = [i for i in ids if i not in by_id]
    if unknown:
        known = ", ".join(sorted(by_id)) or "<none>"
        raise KeyError(f"unknown obligation id(s) {unknown}; known: {known}")
    seen: set[str] = set()
    picked = []
    for obl_id in ids:
        if obl_id not in seen:
            seen.add(obl_id)
            picked.append(by_id[obl_id])
    return picked


def _obligation_verdict(obligation: Obligation, outcomes: list[dict]) -> dict:
    ok = all(o.get("status") == "pass" for o in outcomes)
    return {
        "id": obligation.id,
        "title": obligation.title,
        "invariant": obligation.invariant,
        "pack": obligation.pack,
        "spec_path": obligation.path,
        "tags": list(obligation.tags),
        "recipes": outcomes,
        "verdict": "pass" if ok else "fail",
    }


def check_obligations(
    obligations: list[Obligation],
    root: str | Path,
    *,
    jobs: int = 1,
    on_outcome: Callable[[dict], None] | None = None,
) -> dict:
    """Run every recipe of every obligation; return the gate report.

    Args:
        obligations: Already-selected obligations (see
            :func:`select_obligations`).
        root: Repo checkout the recipes run against.
        jobs: Recipes run at once (1 = one after another, 0 = one per
            core); ``bench`` recipes always run alone, after the rest.
        on_outcome: Streaming callback per finished recipe outcome,
            called from this thread.

    Returns the report dict that :mod:`repro.gate.evidence` wraps into
    the evidence manifest: per-obligation verdicts + recipe outcomes +
    the overall ``ok`` flag.
    """
    flat = [(o.id, recipe) for o in obligations for recipe in o.recipes]
    outcomes: dict[int, dict] = {}

    def run(index: int) -> dict:
        obligation_id, recipe = flat[index]
        return {"obligation": obligation_id, **run_recipe(recipe, root)}

    def record(index: int, outcome: dict) -> None:
        outcomes[index] = outcome
        if on_outcome is not None:
            on_outcome(outcome)

    pooled = [i for i, (_, recipe) in enumerate(flat) if recipe.type != "bench"]
    benches = [i for i, (_, recipe) in enumerate(flat) if recipe.type == "bench"]
    with ThreadPoolExecutor(max_workers=effective_jobs(jobs)) as pool:
        futures = {pool.submit(run, i): i for i in pooled}
        for future in as_completed(futures):
            record(futures[future], future.result())
    for index in benches:
        record(index, run(index))

    by_obligation: dict[str, list[dict]] = {o.id: [] for o in obligations}
    for index, (obligation_id, _) in enumerate(flat):
        by_obligation[obligation_id].append(outcomes[index])
    entries = [_obligation_verdict(o, by_obligation[o.id]) for o in obligations]
    failures = [e["id"] for e in entries if e["verdict"] == "fail"]
    return {
        "ok": not failures,
        "blocking_failures": failures,
        "counts": {
            "total": len(entries),
            "passed": len(entries) - len(failures),
            "failed": len(failures),
        },
        "obligations": entries,
    }
