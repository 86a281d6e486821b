"""``repro-lint`` command line interface.

Exit codes: 0 = clean, 1 = findings (including parse errors), 2 = usage
or configuration error.  ``python -m repro.analysis`` is identical.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.config import LintConfig, find_pyproject, load_config
from repro.analysis.engine import lint_paths
from repro.analysis.registry import all_rules, get_rule
from repro.analysis.reporters import REPORTERS

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Fault-injection-aware static analysis for the repro codebase.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src/ if present, else .)",
    )
    parser.add_argument(
        "--format",
        choices=sorted(REPORTERS),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--config",
        default=None,
        metavar="PYPROJECT",
        help="explicit pyproject.toml holding [tool.repro-lint] "
        "(default: nearest one above the first path)",
    )
    parser.add_argument(
        "--no-config",
        action="store_true",
        help="ignore pyproject.toml and lint with built-in defaults",
    )
    parser.add_argument(
        "--select",
        action="append",
        default=[],
        metavar="IDS",
        help="comma-separated rule ids/families to run (repeatable)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        default=[],
        metavar="IDS",
        help="comma-separated rule ids/families to skip (repeatable)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every registered rule and exit",
    )
    parser.add_argument(
        "--explain",
        default=None,
        metavar="RPnnn",
        help="print one rule's long-form documentation and exit",
    )
    return parser


def _split_ids(raw: list[str]) -> tuple[str, ...]:
    return tuple(token.strip() for chunk in raw for token in chunk.split(",") if token.strip())


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            scope = f" [scope: {rule.scope_key}]" if rule.scope_key else ""
            print(f"{rule.id} {rule.name:28s} {rule.summary}{scope}")
        return 0

    if args.explain is not None:
        try:
            rule = get_rule(args.explain.strip().upper())
        except KeyError as exc:
            print(f"repro-lint: error: {exc.args[0]}", file=sys.stderr)
            return 2
        print(rule.explain())
        return 0

    paths = args.paths or (["src"] if Path("src").is_dir() else ["."])
    try:
        if args.no_config:
            config = LintConfig()
        else:
            pyproject = Path(args.config) if args.config else find_pyproject(Path(paths[0]))
            config = load_config(pyproject)
        if args.select:
            config = config.__class__(**{**config.__dict__, "select": _split_ids(args.select)})
        if args.ignore:
            config = config.__class__(**{**config.__dict__, "ignore": _split_ids(args.ignore)})
        root = Path(config.config_file).parent if config.config_file else Path.cwd()
        findings = lint_paths(paths, config, root=root)
    except (OSError, KeyError, TypeError) as exc:
        message = exc.args[0] if isinstance(exc, (KeyError, TypeError)) and exc.args else exc
        print(f"repro-lint: error: {message}", file=sys.stderr)
        return 2
    try:
        print(REPORTERS[args.format](findings))
    except BrokenPipeError:
        # Reader (head, pager) closed early; the verdict still stands.
        sys.stderr.close()
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
