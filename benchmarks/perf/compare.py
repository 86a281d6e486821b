"""Compare two sets of campaign-benchmark results against the bounds in BENCHMARK.json.

    python3 benchmarks/perf/compare.py --base A1.json A2.json ... --new B1.json B2.json ...

Each file is a ``run.py --out`` result (untraced).  Give at least ten
runs per side, alternating which side runs first, and list them in the
order they ran: the i-th base run and the i-th new run form a pair.

For every workload and end-to-end metric the tool prints the median and
quartiles of each side and one verdict:

- ``unresolved``: a side has fewer than two runs, or either side's
  spread (quartile distance over median) is wider than the metric's
  bound, unless every new run reads better than every base run (then
  ``better``);
- ``worse``: the new median is worse than the base median by more than
  the bound;
- ``better``: over at least ten pairs, the new median is better by more
  than the base spread and the new run wins at least nine pairs in ten;
- ``same``: anything else.

It also checks that every run with the same seed produced the same
outcome digests.  The exit status is 1 when a metric is worse, a digest
differs or a run failed its own checks, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

__all__ = ["main", "verdict"]

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Absolute floors under a metric's relative bound, in the metric's unit:
#: a set-up time of a few tenths of a second moves by more than its share
#: from scheduling alone.
ABS_FLOOR = {"setup_s": 0.05}

#: Pairs needed before a gain can be claimed.
MIN_PAIRS = 10


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base: list[float], new: list[float], bound: float, higher_better: bool,
            floor: float = 0.0) -> tuple[str, float]:
    """Classify ``new`` against ``base``; returns ``(verdict, change)``.

    ``change`` is the relative change of the median, positive when better.
    """
    sign = 1.0 if higher_better else -1.0
    b1, bmed, b3 = _quartiles(base)
    n1, nmed, n3 = _quartiles(new)
    change = sign * (nmed - bmed) / bmed
    allow = max(bound, floor / bmed)
    base_spread = (b3 - b1) / bmed
    spread = max(base_spread, (n3 - n1) / nmed)
    if min(len(base), len(new)) < 2:
        return "unresolved", change  # no spread to judge against
    if spread > allow:
        if min(sign * v for v in new) > max(sign * v for v in base):
            return "better", change
        return "unresolved", change
    if change < -allow:
        return "worse", change
    pairs = list(zip(base, new))
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    if len(pairs) >= MIN_PAIRS and change > base_spread and wins >= 0.9 * len(pairs):
        return "better", change
    return "same", change


def _load(paths: list[Path]) -> list[dict]:
    runs = []
    for path in paths:
        run = json.loads(path.read_text())
        if run["header"]["trace"]:
            raise SystemExit(f"compare.py: {path} is a traced run; compare untraced runs")
        runs.append(run)
    return runs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, nargs="+", required=True)
    parser.add_argument("--new", type=Path, nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    base, new = _load(args.base), _load(args.new)
    status = 0

    for run in base + new:
        if not run["correct"]:
            print(f"run with seed {run['header']['seed']} failed its outcome checks")
            status = 1

    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    print(f"{'workload':<15} " + " ".join(f"{m['name']:<24}" for m in metrics))
    details = []
    for name in names:
        cells = []
        for m in metrics:
            a = [r["workloads"][name]["metrics"][m["name"]] for r in base if name in r["workloads"]]
            b = [r["workloads"][name]["metrics"][m["name"]] for r in new if name in r["workloads"]]
            if not a or not b:
                cells.append(f"{'absent':<24}")
                continue
            word, change = verdict(a, b, m["bound"], m["better"] == "higher",
                                   ABS_FLOOR.get(m["name"], 0.0))
            status = 1 if word == "worse" else status
            cells.append(f"{word + f' ({change:+.1%})':<24}")
            (a1, amed, a3), (b1, bmed, b3) = _quartiles(a), _quartiles(b)
            details.append(
                f"{name:<15} {m['name']:<13} base {amed:.5g} [{a1:.5g}, {a3:.5g}] n={len(a)}"
                f"  new {bmed:.5g} [{b1:.5g}, {b3:.5g}] n={len(b)}  {m['unit']}"
            )
        print(f"{name:<15} " + " ".join(cells))
    print()
    print("\n".join(details))

    print()
    for name in names:
        by_seed: dict[tuple, set] = {}
        for run in base + new:
            if name in run["workloads"]:
                digests = tuple(run["workloads"][name]["digests"])
                key = (run["header"]["seed"], run["header"]["smoke"])
                by_seed.setdefault(key, set()).add(digests)
        differ = sorted(seed for (seed, _), seen in by_seed.items() if len(seen) > 1)
        if differ:
            status = 1
            print(f"{name:<15} digests DIFFER for seeds {differ}")
        else:
            print(f"{name:<15} digests identical across {len(by_seed)} seed(s)")
    return status


if __name__ == "__main__":
    sys.exit(main())
