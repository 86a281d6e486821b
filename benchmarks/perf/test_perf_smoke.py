"""Smoke tests of the campaign benchmark (about 15 s with a warm weight store).

    python3 -m pytest benchmarks/perf/test_perf_smoke.py -q

They run ``run.py --smoke`` once untraced and once traced, then check
the metric names against ``BENCHMARK.json``, that every layer wrapper
fires on the workload the README's layer table assigns it to, and that
tracing leaves every outcome digest unchanged.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
from compare import verdict  # noqa: E402

#: Per-layer metric -> workloads on which it must be non-zero.
FIRES = {
    "fault.sample.calls": ["datapath-sweep"],
    "injector.prepare.calls": ["buffer-row"],
    "injector.finish.calls": ["durable-jobs2"],
    "injector.masked_frac": ["datapath-sweep"],
    "nn.mac_operands.calls": ["buffer-row"],
    "dtypes.arith.calls": ["buffer-row"],
    "nn.conv.self_s": ["buffer-next"],
    "nn.fc.self_s": ["buffer-next"],
    "nn.pool.self_s": ["buffer-next"],
    "nn.relu.self_s": ["buffer-next"],
    "nn.lrn.self_s": ["buffer-next"],
    "network.forward_from_batch.calls": ["buffer-next", "datapath-sweep"],
    "network.batch_fill": ["buffer-next", "datapath-sweep"],
    "network.forward_from.calls": ["durable-jobs2"],
    "network.forward.calls": WORKLOADS,
    "outcome.classify.calls": ["durable-jobs2"],
    "detectors.scan.calls": ["durable-jobs2"],
    "detectors.learn.calls": ["durable-jobs2"],
    "checkpoint.flush.calls": ["durable-jobs2"],
    "checkpoint.bytes_written": ["durable-jobs2"],
    "tracer.flush.calls": ["durable-jobs2"],
    "tracer.build.calls": ["durable-jobs2"],
    "tracer.bytes_written": ["durable-jobs2"],
    "sharedgolden.publish.calls": ["durable-jobs2"],
    "sharedgolden.attach.calls": ["durable-jobs2"],
    "zoo.get_network.calls": WORKLOADS,
    "parallel.map_trials.wall_s": WORKLOADS,
    "parallel.parent_wait_s": ["durable-jobs2"],
    "parallel.worker_busy_frac": ["durable-jobs2"],
}

#: Metrics of the writing and pool layers, which only durable-jobs2 uses.
DURABLE_ONLY = [
    "checkpoint.flush.calls", "tracer.flush.calls", "sharedgolden.publish.calls",
    "parallel.parent_wait_s",
]


def _run(out_dir: Path, *extra: str) -> tuple[dict, dict]:
    out = out_dir / "result.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), json.loads(out.read_text())


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("untraced"))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("traced"), "--trace")


def _check_names(result: tuple[dict, dict], section: str) -> None:
    line, full = result
    names = {m["name"] for m in SPEC[section]}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert set(line["metrics"]) == {f"{w}.{n}" for w in WORKLOADS for n in names}
    for name in WORKLOADS:
        assert set(full["workloads"][name]["metrics"]) == names


def test_end_to_end_metric_names_match_spec(untraced):
    _check_names(untraced, "end_to_end")
    _, full = untraced
    for name in WORKLOADS:
        assert all(v > 0 for v in full["workloads"][name]["metrics"].values())


def test_per_layer_metric_names_match_spec(traced):
    _check_names(traced, "per_layer")


def test_every_wrapper_fires_on_its_workload(traced):
    _, full = traced
    for metric, names in FIRES.items():
        for name in names:
            assert full["workloads"][name]["metrics"][metric] > 0, (metric, name)
    for metric in DURABLE_ONLY:
        for name in WORKLOADS:
            if name != "durable-jobs2":
                assert full["workloads"][name]["metrics"][metric] == 0, (metric, name)
    for name in WORKLOADS:
        metrics = full["workloads"][name]["metrics"]
        assert 0 <= metrics["campaign.unattributed_s"] < metrics["campaign.wall_s"]
        assert full["workloads"][name]["layer_table"]


def test_traced_digests_equal_untraced(untraced, traced):
    for name in WORKLOADS:
        plain = untraced[1]["workloads"][name]["digests"]
        assert plain and None not in plain
        assert traced[1]["workloads"][name]["digests"] == plain


def test_refuses_to_run_without_engine_source(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "buffer-row", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    assert verdict(base, base, 0.10, True)[0] == "same"
    assert verdict(base, [v * 0.8 for v in base], 0.10, True)[0] == "worse"
    assert verdict(base, [v * 1.2 for v in base], 0.10, True)[0] == "better"
    assert verdict(base, [v * 0.8 for v in base], 0.10, False)[0] == "better"
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert verdict(base, noisy, 0.10, True)[0] == "unresolved"
    assert verdict([0.30] * 10, [0.34] * 10, 0.10, False, floor=0.05)[0] == "same"
    assert verdict([100.0], [101.0], 0.10, True)[0] == "unresolved"
