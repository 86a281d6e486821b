"""The obligation table: each promise in ``obligations/*.json`` names its tests.

An obligation states one invariant the repo promises and the pytest
nodes that check it.  A node under ``tests/`` runs in tier-1; a
``benchmarks/test_bench_*.py`` node runs in CI's ``claims`` step.  These
tests keep the table true: the packs parse, every node runs in one of
those two places and resolves to collected tests, and every ``OBL-`` id
that the workflows, docs or code name exists.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SPEC_FORMAT = "repro-obligations"
SPEC_VERSION = 2
OBLIGATION_ID = re.compile(r"OBL-[A-Z0-9][A-Z0-9-]*")
#: A node tier-1 runs (under tests/) or the claims step runs (a bench).
RUNNABLE_NODE = re.compile(r"(tests/[\w/]+\.py|benchmarks/test_bench_\w+\.py)(::.+)?")
#: CI's claims step: every bench except the campaign benchmark's smoke test.
CLAIMS_STEP = re.compile(
    r"^\s*run: python -m pytest benchmarks --ignore=benchmarks/perf\b", re.MULTILINE
)
#: Files that may name an obligation id.
ID_SOURCES = (
    ".github/workflows/*.yml",
    "docs/*.md",
    "README.md",
    "EXPERIMENTS.md",
    "src/**/*.py",
    "benchmarks/*.py",
)


def _obligations() -> list[dict]:
    obligations = []
    for path in sorted((REPO_ROOT / "obligations").glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc.get("format") == SPEC_FORMAT, path
        assert doc.get("version") == SPEC_VERSION, path
        assert set(doc) == {"format", "version", "obligations"}, path
        obligations += doc["obligations"]
    return obligations


def _nodes() -> list[str]:
    return sorted({node for o in _obligations() for node in o["nodes"]})


def test_packs_parse():
    obligations = _obligations()
    assert obligations
    for o in obligations:
        assert set(o) == {"id", "title", "invariant", "nodes"}, o
        assert OBLIGATION_ID.fullmatch(o["id"]), o["id"]
        assert o["title"].strip() and o["invariant"].strip(), o["id"]
        assert o["nodes"] and all(isinstance(n, str) for n in o["nodes"]), o["id"]


def test_obligation_ids_are_unique():
    ids = [o["id"] for o in _obligations()]
    assert sorted({i for i in ids if ids.count(i) > 1}) == []


def test_every_node_runs_in_tier1_or_the_claims_step():
    assert [n for n in _nodes() if not RUNNABLE_NODE.fullmatch(n)] == []


def test_every_node_resolves():
    # Collect whole files and match nodes against the printed ids: given a
    # file and a node inside it, pytest collects the file and never
    # reports the node as missing.
    nodes = _nodes()
    files = sorted({node.split("::")[0] for node in nodes})
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "pytest", "--collect-only", "--verbosity=-1", "-p", "no:cacheprovider"]
    proc = subprocess.run(
        [*argv, *files], cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    collected = [line for line in proc.stdout.splitlines() if "::" in line]
    unresolved = [
        node for node in nodes
        if not any(c == node or c.startswith((f"{node}::", f"{node}[")) for c in collected)
    ]
    assert unresolved == []


def test_every_named_obligation_exists():
    known = {o["id"] for o in _obligations()}
    unknown = sorted(
        f"{path.relative_to(REPO_ROOT)}: {name}"
        for pattern in ID_SOURCES
        for path in REPO_ROOT.glob(pattern)
        for name in set(OBLIGATION_ID.findall(path.read_text(encoding="utf-8")))
        if name not in known
    )
    assert unknown == []


def test_ci_runs_the_bench_nodes():
    ci = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    assert CLAIMS_STEP.search(ci), "ci.yml has no step that runs benchmarks/"
