"""``repro-obs``: inspect campaign run manifests, run logs and traces.

Four subcommands over the artifacts :mod:`repro.obs.manifest` and
:mod:`repro.obs.tracer` write:

- ``summarize <run>`` — render a run's manifest (identity, timing,
  metric counters, span time split, event tallies) as tables; accepts a
  ``.manifest.json`` or a ``.runlog.jsonl``.
- ``tail <run>`` — print the last N supervision events of a run log.
- ``diff <a> <b>`` — compare two runs: throughput, error rates, and
  per-phase time split, with deltas.  Exit status is the comparison
  verdict: 0 when the runs agree on every deterministic fact, 1 when
  they diverge — so scripts and CI jobs can consume the command as a
  pass/fail check instead of parsing its tables.
  Execution knobs (jobs, batch, shared memory, trace path) are *flagged*
  when they differ but never count as divergence.
- ``trace <run|tracefile>`` — render a campaign's propagation traces:
  cross-trial aggregation by default (depth histogram, per-layer
  kill/survival matrix, deviation-vs-depth), or one trial's layer-by-
  layer narrative with ``--trial N``.  Accepts the ``.trace.jsonl``
  itself, or a manifest/runlog/checkpoint it can be resolved from.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from repro.obs.manifest import load_run
from repro.utils.tables import format_table

__all__ = [
    "compare_runs",
    "main",
    "render_diff",
    "render_summary",
    "render_tail",
    "render_trace",
    "render_trace_trial",
    "run_identity",
]


def _fmt_seconds(value: float | None) -> str:
    if value is None:
        return "n/a"
    if value >= 60.0:
        return f"{value / 60.0:.1f} min"
    return f"{value:.2f} s"


def _run_facts(run: dict) -> dict:
    """Flatten a loaded run into the fields summarize/diff print."""
    manifest = run.get("manifest") or {}
    meta = manifest.get("run", {}) or (run.get("begin") or {})
    timing = manifest.get("timing", {})
    metrics = manifest.get("metrics", {})
    counters = metrics.get("counters", {})
    execution = manifest.get("execution", {})
    summary = manifest.get("summary", {})
    duration = timing.get("duration_s")
    trials = counters.get("trials", meta.get("n_trials"))
    throughput = None
    if duration and trials:
        throughput = trials / duration
    return {
        "status": manifest.get("status", "unknown"),
        "kind": manifest.get("kind", "campaign"),
        "meta": meta,
        "timing": timing,
        "spans": timing.get("spans", {}),
        "counters": counters,
        "gauges": metrics.get("gauges", {}),
        "histograms": metrics.get("histograms", {}),
        "execution": execution,
        "events": manifest.get("events", {}),
        "summary": summary,
        "env": manifest.get("env", {}),
        "duration_s": duration,
        "trials": trials,
        "throughput": throughput,
    }


def _identity_rows(facts: dict) -> list[list[str]]:
    meta, env, timing = facts["meta"], facts["env"], facts["timing"]
    rows = []
    for key in ("fingerprint", "network", "dtype", "target", "n_trials",
                "seed", "jobs", "batch", "resumed", "resumed_trials", "experiment"):
        if key in meta and meta[key] is not None:
            rows.append([key, str(meta[key])])
    trace = meta.get("trace") or {}
    if trace.get("mode") and trace["mode"] != "off":
        rows.append(["trace", f"{trace['mode']} (every={trace.get('every')})"])
    rows.append(["status", facts["status"]])
    if timing.get("started_at"):
        rows.append(["started", str(timing["started_at"])])
    rows.append(["duration", _fmt_seconds(facts["duration_s"])])
    if facts["throughput"] is not None:
        rows.append(["throughput", f"{facts['throughput']:.1f} trials/s"])
    if env.get("git_rev"):
        rows.append(["git", str(env["git_rev"])[:12]])
    if env.get("python"):
        rows.append(["python / numpy", f"{env.get('python')} / {env.get('numpy')}"])
    return rows


def _span_rows(spans: dict) -> list[list[str]]:
    total = sum(t.get("total_s", 0.0) for t in spans.values()) or 1.0
    rows = []
    for path in sorted(spans, key=lambda p: -spans[p].get("total_s", 0.0)):
        t = spans[path]
        count = t.get("count", 0)
        total_s = t.get("total_s", 0.0)
        mean_ms = 1000.0 * total_s / count if count else 0.0
        rows.append([
            path, str(count), f"{total_s:.3f}", f"{mean_ms:.2f}",
            f"{1000.0 * t.get('max_s', 0.0):.2f}", f"{100.0 * total_s / total:.1f}%",
        ])
    return rows


def render_summary(run: dict) -> str:
    """Tables describing one loaded run (see :func:`load_run`)."""
    facts = _run_facts(run)
    if not run.get("manifest"):
        lines = [f"{run['path']}: no manifest found "
                 "(run still in flight, or killed before its first flush)"]
        if run.get("begin"):
            lines.append(format_table(
                ["key", "value"],
                [[k, str(v)] for k, v in sorted(run["begin"].items()) if k != "kind"],
                title="begin record",
            ))
        if run.get("events"):
            lines.append(f"{len(run['events'])} events logged; try 'repro-obs tail'")
        return "\n\n".join(lines)
    blocks = [format_table(["key", "value"], _identity_rows(facts),
                           title=f"run: {facts['kind']} ({run['path']})")]
    if facts["counters"]:
        blocks.append(format_table(
            ["counter", "value"],
            [[k, str(v)] for k, v in sorted(facts["counters"].items())],
            title="metrics",
        ))
    for name, hist in sorted(facts["histograms"].items()):
        edges, counts = hist.get("edges", []), hist.get("counts", [])
        labels = [f"<= {e:g}" for e in edges] + ["overflow"]
        rows = [[lab, str(c)] for lab, c in zip(labels, counts) if c]
        if rows:
            blocks.append(format_table(["bucket", "count"], rows, title=f"histogram: {name}"))
    if facts["spans"]:
        blocks.append(format_table(
            ["span", "count", "total s", "mean ms", "max ms", "share"],
            _span_rows(facts["spans"]), title="time split",
        ))
    execution = {k: v for k, v in facts["execution"].items() if v}
    if execution:
        blocks.append(format_table(
            ["stat", "value"], [[k, str(v)] for k, v in sorted(execution.items())],
            title="execution",
        ))
    counts = facts["events"].get("counts", {})
    if counts:
        blocks.append(format_table(
            ["event", "count"], [[k, str(v)] for k, v in sorted(counts.items())],
            title="events",
        ))
    sdc = facts["summary"].get("sdc", {})
    if sdc:
        blocks.append(format_table(
            ["class", "probability"], [[k, f"{v:.4f}"] for k, v in sorted(sdc.items())],
            title="outcomes",
        ))
    return "\n\n".join(blocks)


def render_tail(run: dict, n: int = 20, kind: str | None = None) -> str:
    """The last ``n`` event lines of a run (optionally one kind only)."""
    events = run.get("events", [])
    if kind is not None:
        events = [e for e in events if e.get("event") == kind]
    events = events[-n:]
    if not events:
        return "no matching events"
    rows = []
    for e in events:
        detail = e.get("detail", {})
        rows.append([
            str(e.get("seq", "")),
            f"{e['t']:.2f}" if isinstance(e.get("t"), (int, float)) else "",
            str(e.get("event", "")),
            " ".join(f"{k}={v}" for k, v in sorted(detail.items())),
        ])
    return format_table(["seq", "t+s", "event", "detail"], rows)


#: ``run`` meta keys that describe *how* a run executed, not *what* it
#: computed: two byte-identical campaigns may legitimately differ here.
#: ``trace`` is the *effective* trace config dict — its mode/stride are
#: identity (they live in the spec and the fingerprint), but the dict
#: also records the trace file path, which differs between equivalent
#: runs, so the whole meta entry is an execution knob for diffing.
_EXECUTION_META = ("jobs", "batch", "resumed", "resumed_trials", "shared_golden", "blas_threads", "trace")


def run_identity(run: dict) -> dict:
    """The deterministic projection of a loaded run.

    Everything the repo's byte-identity promise covers: spec identity,
    final status, metric counters/gauges/histograms, and the outcome
    summary.  Wall-clock sections (timing, spans, throughput), harness
    accounting (``execution``, event counts) and environment provenance
    are excluded — they differ between equivalent runs by design.
    """
    manifest = run.get("manifest") or {}
    metrics = manifest.get("metrics", {})
    meta = dict(manifest.get("run", {}) or {})
    for key in _EXECUTION_META:
        meta.pop(key, None)
    return {
        "run": meta,
        "status": manifest.get("status", "unknown"),
        "counters": metrics.get("counters", {}),
        "gauges": metrics.get("gauges", {}),
        "histograms": metrics.get("histograms", {}),
        "summary": manifest.get("summary", {}),
    }


def _flatten(value, prefix: str, out: dict) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(value[key], f"{prefix}.{key}" if prefix else str(key), out)
    else:
        out[prefix] = value


def compare_runs(run_a: dict, run_b: dict) -> list[str]:
    """Divergences between two runs' deterministic facts (empty = agree).

    Each entry is a human- and machine-readable line of the form
    ``<dotted.path>: <a-value> != <b-value>`` (or ``only in a/b``).
    """
    flat_a: dict = {}
    flat_b: dict = {}
    _flatten(run_identity(run_a), "", flat_a)
    _flatten(run_identity(run_b), "", flat_b)
    diverged = []
    for key in sorted(set(flat_a) | set(flat_b)):
        if key not in flat_a:
            diverged.append(f"{key}: only in b ({flat_b[key]!r})")
        elif key not in flat_b:
            diverged.append(f"{key}: only in a ({flat_a[key]!r})")
        elif flat_a[key] != flat_b[key]:
            diverged.append(f"{key}: {flat_a[key]!r} != {flat_b[key]!r}")
    return diverged


def _diff_row(label: str, a, b, fmt: str = "{:.2f}") -> list[str]:
    def show(v):
        return fmt.format(v) if isinstance(v, (int, float)) else "n/a"

    delta = ""
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        delta = fmt.format(b - a)
        if a:
            delta += f" ({100.0 * (b - a) / a:+.1f}%)"
    return [label, show(a), show(b), delta]


def render_diff(run_a: dict, run_b: dict) -> str:
    """Compare two loaded runs: throughput, errors, per-phase time split."""
    fa, fb = _run_facts(run_a), _run_facts(run_b)
    rows = [
        _diff_row("duration_s", fa["duration_s"], fb["duration_s"]),
        _diff_row("trials", fa["trials"], fb["trials"], fmt="{:d}"),
        _diff_row("trials/s", fa["throughput"], fb["throughput"]),
    ]
    for key in ("quarantined", "retries", "rebuilds", "timeouts"):
        rows.append(_diff_row(
            key, fa["execution"].get(key, 0), fb["execution"].get(key, 0), fmt="{:d}"))
    sdc_keys = sorted(set(fa["summary"].get("sdc", {})) | set(fb["summary"].get("sdc", {})))
    for key in sdc_keys:
        rows.append(_diff_row(
            f"sdc:{key}",
            fa["summary"].get("sdc", {}).get(key),
            fb["summary"].get("sdc", {}).get(key),
            fmt="{:.4f}",
        ))
    blocks = [format_table(
        ["metric", run_a["path"], run_b["path"], "delta"], rows, title="run diff")]
    paths = sorted(set(fa["spans"]) | set(fb["spans"]))
    if paths:
        span_rows = []
        for path in paths:
            ta = fa["spans"].get(path, {}).get("total_s")
            tb = fb["spans"].get(path, {}).get("total_s")
            span_rows.append(_diff_row(path, ta, tb, fmt="{:.3f}"))
        blocks.append(format_table(
            ["span", "a total s", "b total s", "delta"], span_rows,
            title="per-phase time split"))
    knobs_a = {k: (run_a.get("manifest") or {}).get("run", {}).get(k) for k in _EXECUTION_META}
    knobs_b = {k: (run_b.get("manifest") or {}).get("run", {}).get(k) for k in _EXECUTION_META}
    knob_rows = [
        [key, str(knobs_a[key]), str(knobs_b[key])]
        for key in _EXECUTION_META
        if knobs_a[key] != knobs_b[key]
    ]
    if knob_rows:
        blocks.append(format_table(
            ["knob", run_a["path"], run_b["path"]], knob_rows,
            title="execution knobs differ (informational, not fact divergence)"))
    return "\n\n".join(blocks)


# -- propagation traces -------------------------------------------------- #

def _load_trace_rows(path: str) -> tuple[dict, dict[int, dict]]:
    """Resolve ``path`` to a propagation trace: the file itself, or a
    manifest/runlog/checkpoint it can be derived from."""
    from repro.obs.tracer import default_trace_path, load_trace

    target = Path(path)
    if not target.exists():
        raise FileNotFoundError(f"no such file: {path}")
    header, rows = load_trace(target)
    if header is not None:
        return header, rows
    sibling = default_trace_path(target)
    if sibling.exists():
        header, rows = load_trace(sibling)
        if header is not None:
            return header, rows
    run = load_run(path)
    meta = (run.get("manifest") or {}).get("run", {}) or (run.get("begin") or {})
    recorded = (meta.get("trace") or {}).get("path")
    if recorded:
        header, rows = load_trace(recorded)
        if header is not None:
            return header, rows
        raise FileNotFoundError(
            f"trace file recorded in manifest does not exist: {recorded}")
    raise FileNotFoundError(
        f"no propagation trace found for {path} "
        "(was the campaign run with trace_mode off?)")


def _fmt_dev(value) -> str:
    if isinstance(value, (int, float)):
        return f"{value:.4g}"
    return str(value)  # "nan"/"inf" survive serialization as strings


def _outcome_label(row: dict) -> str:
    outcome = row.get("outcome") or {}
    flags = [cls for cls in ("sdc1", "sdc5", "sdc10", "sdc20") if outcome.get(cls)]
    if flags:
        return ",".join(flags)
    return "masked" if outcome.get("masked") else "benign"


def render_trace_trial(header: dict, row: dict) -> str:
    """One traced trial's layer-by-layer propagation narrative."""
    facts = [
        ["trial", str(row.get("index"))],
        ["fingerprint", str(header.get("fingerprint", "?"))],
        ["site / block / bit",
         f"{row.get('site')} / {row.get('block')} / {row.get('bit')}"],
        ["resume layer", str(row.get("resume_layer"))],
        ["value", f"{_fmt_dev(row.get('value_before'))} -> {_fmt_dev(row.get('value_after'))}"],
        ["outcome", _outcome_label(row)],
        ["depth", str(row.get("depth"))],
    ]
    if row.get("detected") is not None:
        facts.append(["detected", str(row["detected"])])
    if row.get("detector_layer") is not None:
        facts.append(["detector fired at layer", str(row["detector_layer"])])
    blocks = [format_table(["key", "value"], facts, title="traced trial")]
    layers = row.get("layers") or []
    if layers:
        layer_rows = []
        for entry in layers:
            span_txt = "-"
            if entry.get("dirty_rows"):
                lo, hi = entry["dirty_rows"]
                span_txt = f"[{lo}, {hi})"
            layer_rows.append([
                str(entry["layer"]), entry["name"], entry["kind"],
                str(entry["corrupted"]), span_txt,
                _fmt_dev(entry["max_abs_dev"]), _fmt_dev(entry["mean_abs_dev"]),
                _fmt_dev(entry["max_rel_dev"]),
                _fmt_dev(entry["l2_dev"]) if "l2_dev" in entry else "-",  # version 1 rows
            ])
        blocks.append(format_table(
            ["layer", "name", "kind", "corrupted", "rows",
             "max|dev|", "mean|dev|", "max rel", "l2"],
            layer_rows, title="propagation"))
    if row.get("masked_at_injection"):
        tail = "corruption erased at the injection site (quantized back onto golden)"
    elif row.get("masking"):
        masking = row["masking"]
        tail = (f"corruption died at layer {masking['layer']} "
                f"({masking['name']}: {masking['kind']}) "
                f"after surviving {row.get('depth')} layer(s)")
    else:
        tail = f"corruption survived all {row.get('depth')} traced layer(s) to the output"
    blocks.append(tail)
    return "\n\n".join(blocks)


def render_trace(header: dict, rows: dict[int, dict]) -> str:
    """Cross-trial aggregation tables for a propagation trace."""
    from repro.obs.tracer import (
        trace_depth_histogram,
        trace_deviation_by_depth,
        trace_layer_matrix,
    )

    trace_cfg = header.get("trace", {}) or {}
    n = len(rows)
    masked_inj = sum(1 for r in rows.values() if r.get("masked_at_injection"))
    reached = sum(1 for r in rows.values() if r.get("reached_output"))
    fired = sum(1 for r in rows.values() if r.get("detector_layer") is not None)
    overview = [
        ["fingerprint", str(header.get("fingerprint", "?"))],
        ["mode", f"{trace_cfg.get('mode')} (every={trace_cfg.get('every')})"],
        ["traced trials", str(n)],
        ["masked at injection", str(masked_inj)],
        ["reached output", str(reached)],
        ["detector fired", str(fired)],
    ]
    blocks = [format_table(["key", "value"], overview, title="propagation trace")]
    if not n:
        blocks.append("no trace rows (campaign still in flight, or nothing sampled)")
        return "\n\n".join(blocks)
    hist = trace_depth_histogram(rows)
    blocks.append(format_table(
        ["depth", "trials", "share"],
        [[str(d), str(c), f"{100.0 * c / n:.1f}%"] for d, c in hist.items()],
        title="propagation depth (layers survived)"))
    matrix = trace_layer_matrix(rows)
    if matrix:
        blocks.append(format_table(
            ["layer", "name", "kind", "entered", "killed", "survived", "kill %"],
            [[str(li), cell["name"], cell["kind"], str(cell["entered"]),
              str(cell["killed"]), str(cell["survived"]),
              f"{100.0 * cell['killed'] / cell['entered']:.1f}%"]
             for li, cell in matrix.items()],
            title="per-layer kill/survival"))
    table = trace_deviation_by_depth(rows)
    if table:
        blocks.append(format_table(
            ["step", "live traces", "max|dev|", "mean max|dev|"],
            [[str(step), str(cell["live"]), _fmt_dev(cell["max_abs_dev"]),
              _fmt_dev(cell["mean_abs_dev"])]
             for step, cell in table.items()],
            title="deviation vs depth"))
    return "\n\n".join(blocks)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description="Inspect fault-injection run manifests and run logs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_sum = sub.add_parser("summarize", help="render a run's manifest and metrics")
    p_sum.add_argument("run", help="a .manifest.json or .runlog.jsonl file")
    p_tail = sub.add_parser("tail", help="print the last events of a run log")
    p_tail.add_argument("run", help="a .runlog.jsonl (or manifest with an event tail)")
    p_tail.add_argument("-n", type=int, default=20, help="events to show")
    p_tail.add_argument("--kind", default=None, help="only this event kind")
    p_diff = sub.add_parser(
        "diff", help="compare two runs (exit 1 when deterministic facts diverge)")
    p_diff.add_argument("run_a")
    p_diff.add_argument("run_b")
    p_trace = sub.add_parser(
        "trace", help="render a campaign's propagation traces")
    p_trace.add_argument(
        "run", help="a .trace.jsonl, or a manifest/runlog/checkpoint to resolve one from")
    p_trace.add_argument(
        "--trial", type=int, default=None,
        help="show one trial's layer-by-layer narrative instead of aggregates")
    args = parser.parse_args(argv)

    try:
        if args.command == "summarize":
            print(render_summary(load_run(args.run)))
        elif args.command == "tail":
            print(render_tail(load_run(args.run), n=args.n, kind=args.kind))
        elif args.command == "trace":
            header, rows = _load_trace_rows(args.run)
            if args.trial is not None:
                row = rows.get(args.trial)
                if row is None:
                    print(f"repro-obs: trial {args.trial} is not in the traced subset "
                          f"({len(rows)} trials traced)", file=sys.stderr)
                    return 1
                print(render_trace_trial(header, row))
            else:
                print(render_trace(header, rows))
        else:
            run_a, run_b = load_run(args.run_a), load_run(args.run_b)
            print(render_diff(run_a, run_b))
            diverged = compare_runs(run_a, run_b)
            if diverged:
                print(f"\nDIVERGED: {len(diverged)} deterministic fact(s) differ")
                for line in diverged:
                    print(f"  {line}")
                return 1
            print("\nruns agree on every deterministic fact")
    except FileNotFoundError as exc:
        print(f"repro-obs: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into head/less that exited early: not an error.
        # Swap in a closed-safe stdout so interpreter shutdown does not
        # complain about the broken one.
        sys.stdout = open(os.devnull, "w", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
