"""``repro-gate``: obligation-based release gates over reliability invariants.

Subcommands:

- ``list`` — every obligation with its pack, recipe count and title.
- ``check [ID...] [--all]`` — execute the selected obligations' evidence
  recipes and atomically write the evidence manifest; exit 1 when any
  obligation fails.
- ``evidence <manifest>`` — render a previously written manifest.
- ``explain <ID>`` — the obligation's invariant and recipes.
- ``selfcheck`` — validate every pack, and cross-check CI: every
  obligation id referenced by the workflows exists, and the workflows
  actually gate on every obligation.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path

from repro.gate.evidence import build_manifest, load_manifest, render_manifest, write_manifest
from repro.gate.runner import check_obligations, select_obligations
from repro.gate.spec import (
    OBLIGATION_ID_RE,
    Obligation,
    SpecError,
    default_spec_dir,
    load_specs,
)
from repro.utils.parallel import effective_jobs
from repro.utils.tables import format_table

__all__ = ["build_parser", "main", "selfcheck"]


def _resolve_specs(arg: str | None) -> tuple[Path, list[Obligation]]:
    spec_dir = Path(arg) if arg is not None else default_spec_dir()
    return spec_dir, load_specs(spec_dir)


def _cmd_list(args) -> int:
    _, obligations = _resolve_specs(args.specs)
    if args.format == "json":
        print(json.dumps([
            {"id": o.id, "pack": o.pack, "title": o.title, "tags": list(o.tags),
             "recipes": [r.describe() for r in o.recipes]}
            for o in obligations
        ], indent=2))
        return 0
    rows = [[o.id, o.pack, str(len(o.recipes)), o.title] for o in obligations]
    print(format_table(["obligation", "pack", "recipes", "title"],
                       rows, title=f"{len(obligations)} obligations"))
    return 0


def _cmd_explain(args) -> int:
    _, obligations = _resolve_specs(args.specs)
    matches = [o for o in obligations if o.id == args.id]
    if not matches:
        print(f"repro-gate: no obligation {args.id!r}; try 'repro-gate list'",
              file=sys.stderr)
        return 2
    o = matches[0]
    print(f"{o.id} — {o.title}")
    print(f"pack: {o.pack} ({o.path})")
    if o.tags:
        print(f"tags: {', '.join(o.tags)}")
    print(f"\ninvariant:\n  {o.invariant}")
    print("\nevidence recipes:")
    for i, r in enumerate(o.recipes, 1):
        print(f"  {i}. [{r.type}, timeout {r.timeout:g}s] {r.describe()}")
    return 0


def _cmd_check(args) -> int:
    spec_dir, obligations = _resolve_specs(args.specs)
    if not args.ids and not getattr(args, "all", False):
        print("repro-gate: select obligation ids or pass --all", file=sys.stderr)
        return 2
    try:
        selected = select_obligations(obligations, args.ids or None)
        jobs = effective_jobs(args.jobs)
    except KeyError as exc:
        print(f"repro-gate: {exc.args[0]}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"repro-gate: --jobs: {exc}", file=sys.stderr)
        return 2
    root = Path(args.root) if args.root else spec_dir.parent

    def on_outcome(outcome: dict) -> None:
        print(f"  {outcome['obligation']} · {outcome['type']} → {outcome['status']}"
              f" ({outcome['duration_s']:.1f}s)  {outcome['pointer']}")

    n_recipes = sum(len(o.recipes) for o in selected)
    print(f"repro-gate: checking {len(selected)} obligation(s), "
          f"{n_recipes} recipe(s), jobs={jobs}")
    report = check_obligations(selected, root, jobs=jobs, on_outcome=on_outcome)
    manifest = build_manifest(report, spec_dir=spec_dir, argv=list(sys.argv))
    out = Path(args.out)
    write_manifest(out, manifest)
    print()
    print(render_manifest(manifest))
    print(f"\nevidence manifest: {out}")
    if not report["ok"]:
        print("repro-gate: FAIL — obligations violated: "
              + ", ".join(report["blocking_failures"]), file=sys.stderr)
        return 1
    return 0


def _cmd_evidence(args) -> int:
    try:
        manifest = load_manifest(args.manifest)
    except (OSError, ValueError) as exc:
        print(f"repro-gate: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(manifest, indent=2, sort_keys=True))
    else:
        print(render_manifest(manifest, only_id=args.id))
    return 0


_CHECK_INVOCATION_RE = re.compile(r"repro-gate\s+check\s+([^\n\\]*)")


def selfcheck(spec_dir: Path, ci_paths: list[Path]) -> list[str]:
    """Spec/CI consistency problems (empty list = healthy).

    Checks, in order:
    1. every pack parses and validates (:func:`load_specs` raising is
       reported, not propagated);
    2. every ``OBL-...`` id mentioned anywhere in the CI workflows
       exists in the packs (a renamed obligation cannot leave a stale
       CI reference behind);
    3. the workflows run ``repro-gate check`` at all, and their explicit
       id selections (or ``--all``) cover every obligation (a new
       obligation cannot silently stay ungated).
    """
    problems: list[str] = []
    try:
        obligations = load_specs(spec_dir)
    except SpecError as exc:
        return [f"spec error: {exc}"]
    known = {o.id for o in obligations}

    gated: set[str] = set()
    saw_check = False
    for path in ci_paths:
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            problems.append(f"{path}: unreadable ({exc})")
            continue
        for mention in set(OBLIGATION_ID_RE.findall(text)):
            if mention not in known:
                problems.append(f"{path}: references unknown obligation {mention}")
        for invocation in _CHECK_INVOCATION_RE.findall(text):
            saw_check = True
            if "--all" in invocation.split():
                gated |= known
            gated |= set(OBLIGATION_ID_RE.findall(invocation))
    if ci_paths and not saw_check:
        problems.append("no workflow invokes 'repro-gate check'")
    for obl_id in sorted(known - gated):
        problems.append(f"obligation {obl_id} is not gated by any workflow")
    return problems


def _cmd_selfcheck(args) -> int:
    spec_dir = Path(args.specs) if args.specs else default_spec_dir()
    root = Path(args.root) if args.root else spec_dir.parent
    ci_paths = sorted((root / ".github" / "workflows").glob("*.yml")) + sorted(
        (root / ".github" / "workflows").glob("*.yaml"))
    if args.ci:
        ci_paths = [Path(p) for p in args.ci]
    problems = selfcheck(spec_dir, ci_paths)
    if problems:
        for problem in problems:
            print(f"repro-gate selfcheck: {problem}", file=sys.stderr)
        return 1
    obligations = load_specs(spec_dir)
    print(f"repro-gate selfcheck: {len(obligations)} obligation(s) across "
          f"{len({o.pack for o in obligations})} pack(s); "
          f"{len(ci_paths)} workflow(s) cross-checked — consistent")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-gate",
        description="Obligation-based release gate over the repo's reliability invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_specs(p):
        p.add_argument("--specs", default=None,
                       help="obligations/ directory (default: found from cwd upward)")

    p_list = sub.add_parser("list", help="list every obligation")
    add_specs(p_list)
    p_list.add_argument("--format", choices=("text", "json"), default="text")

    p_check = sub.add_parser("check", help="run evidence recipes and emit the manifest")
    add_specs(p_check)
    p_check.add_argument("ids", nargs="*", help="obligation ids (omit with --all)")
    p_check.add_argument("--all", action="store_true", help="check every obligation")
    p_check.add_argument("--out", default="gate-evidence.json",
                         help="evidence manifest path (default: ./gate-evidence.json)")
    p_check.add_argument("--jobs", type=int, default=1,
                         help="recipes run at once (default 1; 0 = every usable CPU)")
    p_check.add_argument("--root", default=None,
                         help="checkout to run recipes against (default: specs' parent)")

    p_evidence = sub.add_parser("evidence", help="render an evidence manifest")
    p_evidence.add_argument("manifest")
    p_evidence.add_argument("--id", default=None, help="show one obligation's evidence")
    p_evidence.add_argument("--format", choices=("text", "json"), default="text")

    p_explain = sub.add_parser("explain", help="show one obligation's spec")
    add_specs(p_explain)
    p_explain.add_argument("id")

    p_self = sub.add_parser("selfcheck", help="validate packs and CI cross-references")
    add_specs(p_self)
    p_self.add_argument("--root", default=None, help="repo root (default: specs' parent)")
    p_self.add_argument("--ci", nargs="*", default=None,
                        help="workflow files (default: .github/workflows/*.yml)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    commands = {
        "list": _cmd_list,
        "check": _cmd_check,
        "evidence": _cmd_evidence,
        "explain": _cmd_explain,
        "selfcheck": _cmd_selfcheck,
    }
    try:
        return commands[args.command](args)
    except SpecError as exc:
        print(f"repro-gate: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into head/less that exited early: not an error.
        # Swap in a closed-safe stdout so interpreter shutdown does not
        # complain about the broken one.
        sys.stdout = open(os.devnull, "w", encoding="utf-8")
        return 0


if __name__ == "__main__":
    sys.exit(main())
