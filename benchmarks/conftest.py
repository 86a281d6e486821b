"""Shared set-up for the benches.

Each ``test_bench_*`` module regenerates one table or figure of the
paper, or measures one speed bound, and asserts its claims as a plain
pytest test.  Campaigns inside one pytest process are memoized, so
benches that share specs share the work.  CI's ``claims`` job runs them
all: ``python -m pytest benchmarks --ignore=benchmarks/perf``.
"""

import os
from pathlib import Path

os.environ.setdefault(
    "REPRO_CACHE",
    str(Path(__file__).resolve().parent.parent / ".cache" / "repro-weights"),
)
