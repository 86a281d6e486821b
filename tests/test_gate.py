"""Release gate: obligation specs, recipe executors, runner, CLI.

The gate is release-critical tooling, so the tests treat it the way the
gate treats the repo: spec validation is probed with malformed packs
and with one that is not JSON at all, and the tamper-detection property
— a deliberately violated invariant must fail ``repro-gate check`` with
a pointer to the failing evidence — is exercised end to end through the
real CLI against a sandbox spec directory.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

from repro.gate import cli as gate_cli
from repro.gate.evidence import (
    EVIDENCE_FORMAT,
    build_manifest,
    load_manifest,
    render_manifest,
    write_manifest,
)
from repro.gate.recipes import run_recipe
from repro.gate.runner import check_obligations, select_obligations
from repro.gate.spec import (
    RECIPE_TYPES,
    Obligation,
    RecipeSpec,
    SpecError,
    load_pack,
    load_specs,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
SPEC_DIR = REPO_ROOT / "obligations"


def _pack(tmp_path: Path, doc: dict, name: str = "pack.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return path


def _minimal_pack(*, obl_id="SANDBOX", exit_code=0) -> dict:
    return {
        "format": "repro-obligations",
        "version": 1,
        "pack": "sandbox",
        "obligations": [{
            "id": f"OBL-{obl_id}",
            "title": "sandbox obligation",
            "invariant": "the sandbox command exits zero",
            "recipes": [{
                "type": "command",
                "argv": [sys.executable, "-c", f"raise SystemExit({exit_code})"],
                "timeout": 60,
            }],
        }],
    }


def _command_pack(tmp_path, *, obl_id="SANDBOX", exit_code=0, name="pack.json"):
    return _pack(tmp_path, _minimal_pack(obl_id=obl_id, exit_code=exit_code), name=name)


class TestSpecLoading:
    def test_shipped_specs_load_sorted_and_blocking(self):
        obligations = load_specs(SPEC_DIR)
        ids = [o.id for o in obligations]
        assert ids == sorted(ids)
        assert "OBL-IDENTITY-PARITY" in ids
        assert all(o.recipes for o in obligations)
        assert RECIPE_TYPES == ("pytest", "bench", "command")

    def test_command_pack_round_trip(self, tmp_path):
        path = _command_pack(tmp_path)
        (obl,) = load_pack(path)
        assert obl.id == "OBL-SANDBOX"
        assert obl.recipes[0].type == "command"
        assert obl.recipes[0].timeout == 60.0

    # Each id reads "<field: old>-<field: new>".
    @pytest.mark.parametrize("mutation, needle", [
        pytest.param('"format": "repro-obligations"', '"format": "wrong"',
                     id="format: repro-obligations-format: wrong"),
        pytest.param('"version": 1', '"version": 99', id="version: 1-version: 99"),
        pytest.param('"pack": "sandbox"', '"pack": null', id="pack: sandbox-pack:"),
        pytest.param('"id": "OBL-SANDBOX"', '"id": "not-an-id"',
                     id="id: OBL-SANDBOX-id: not-an-id"),
        pytest.param('"title": ', '"bogus_key": ',
                     id="title: sandbox obligation-bogus_key: sandbox obligation"),
        pytest.param('"format": "repro-obligations"', 'format: repro-obligations',
                     id="not JSON"),
    ])
    def test_malformed_pack_raises_spec_error(self, tmp_path, mutation, needle):
        path = tmp_path / "bad.json"
        good = json.dumps(_minimal_pack(), indent=2)
        path.write_text(good.replace(mutation, needle), encoding="utf-8")
        with pytest.raises(SpecError, match="bad.json"):
            load_pack(path)

    def test_duplicate_ids_across_packs_rejected(self, tmp_path):
        _command_pack(tmp_path, name="a.json")
        _command_pack(tmp_path, name="b.json")
        with pytest.raises(SpecError, match="duplicate obligation id"):
            load_specs(tmp_path)

    def test_select_obligations(self):
        obligations = load_specs(SPEC_DIR)
        picked = select_obligations(obligations, ["OBL-LINT-CLEAN", "OBL-LINT-CLEAN"])
        assert [o.id for o in picked] == ["OBL-LINT-CLEAN"]
        assert select_obligations(obligations, None) == obligations
        with pytest.raises(KeyError, match="OBL-NOPE"):
            select_obligations(obligations, ["OBL-NOPE"])


def _bench_file(root: Path, gauges: dict) -> Path:
    bench_dir = root / "benchmarks"
    bench_dir.mkdir(exist_ok=True)
    path = bench_dir / "BENCH_2026-08-08.json"
    path.write_text(json.dumps({
        "format": "repro-bench-metrics", "version": 1, "date": "2026-08-08",
        "snapshot": {"counters": {}, "gauges": gauges, "histograms": {}, "timing": {}},
    }), encoding="utf-8")
    return path


class TestRecipes:
    def test_command_pass_and_fail(self, tmp_path):
        ok = run_recipe(RecipeSpec("command", {
            "argv": [sys.executable, "-c", "raise SystemExit(0)"]}, 60.0), tmp_path)
        assert ok["status"] == "pass" and "exit 0" in ok["pointer"]
        bad = run_recipe(RecipeSpec("command", {
            "argv": [sys.executable, "-c", "raise SystemExit(3)"]}, 60.0), tmp_path)
        assert bad["status"] == "fail" and "exit 3" in bad["pointer"]

    def test_command_timeout_is_an_error(self, tmp_path):
        out = run_recipe(RecipeSpec("command", {
            "argv": [sys.executable, "-c", "import time; time.sleep(30)"]}, 0.3), tmp_path)
        assert out["status"] == "error"
        assert "timed out" in out["pointer"]

    def test_bench_floor_holds(self, tmp_path):
        path = _bench_file(tmp_path, {"grp/g16_speedup": 2.4, "grp/g32_speedup": 3.1})
        out = run_recipe(RecipeSpec("bench", {"checks": [
            {"gauge": "grp/g*_speedup", "agg": "max", "op": ">=", "value": 2.0},
        ]}, 60.0), tmp_path)
        assert out["status"] == "pass"
        assert out["evidence"]["file"] == str(path)
        assert out["evidence"]["checks"][0]["observed"] == 3.1

    def test_bench_floor_violated_points_at_snapshot(self, tmp_path):
        path = _bench_file(tmp_path, {"sed/avg_precision": 0.5})
        out = run_recipe(RecipeSpec("bench", {"checks": [
            {"gauge": "sed/avg_precision", "agg": "min", "op": ">=", "value": 0.85},
        ]}, 60.0), tmp_path)
        assert out["status"] == "fail"
        assert path.name in out["pointer"] and "violated" in out["pointer"]

    def test_bench_missing_gauge_without_generator_fails(self, tmp_path):
        _bench_file(tmp_path, {"other/gauge": 1.0})
        out = run_recipe(RecipeSpec("bench", {"checks": [
            {"gauge": "sed/avg_recall", "op": ">=", "value": 0.6},
        ]}, 60.0), tmp_path)
        assert out["status"] == "fail"
        assert out["evidence"]["checks"][0]["reason"] == "no matching gauge"

    def test_bench_no_snapshot_is_an_error(self, tmp_path):
        out = run_recipe(RecipeSpec("bench", {"checks": [
            {"gauge": "x", "op": ">=", "value": 1.0},
        ]}, 60.0), tmp_path)
        assert out["status"] == "error"
        assert "no benchmark snapshot" in out["pointer"]

    def test_unknown_recipe_type_is_an_error(self, tmp_path):
        out = run_recipe(RecipeSpec("pytest", {}, 60.0), tmp_path)
        assert out["status"] == "error"  # pytest recipe without nodes


def _obligation(obl_id, exit_code):
    return Obligation(
        id=obl_id, title=f"{obl_id} title", invariant="command exits zero",
        recipes=(RecipeSpec("command", {
            "argv": [sys.executable, "-c", f"raise SystemExit({exit_code})"]}, 60.0),),
    )


class TestRunner:
    def test_all_pass(self, tmp_path):
        report = check_obligations(
            [_obligation("OBL-A", 0), _obligation("OBL-B", 0)], tmp_path)
        assert report["ok"] is True
        assert report["counts"] == {"total": 2, "passed": 2, "failed": 0}

    def test_blocking_failure_clears_ok(self, tmp_path):
        report = check_obligations(
            [_obligation("OBL-A", 0), _obligation("OBL-B", 2)], tmp_path)
        assert report["ok"] is False
        assert report["blocking_failures"] == ["OBL-B"]

    def test_parallel_matches_inline(self, tmp_path):
        obligations = [_obligation("OBL-A", 0), _obligation("OBL-B", 1),
                       _obligation("OBL-C", 0)]
        inline = check_obligations(obligations, tmp_path, jobs=1)
        pooled = check_obligations(obligations, tmp_path, jobs=2)
        strip = lambda rep: [  # noqa: E731 - local comparator
            (e["id"], e["verdict"], [r["status"] for r in e["recipes"]])
            for e in rep["obligations"]
        ]
        assert strip(inline) == strip(pooled)

    def test_streaming_outcomes(self, tmp_path):
        seen = []
        check_obligations([_obligation("OBL-A", 0)], tmp_path,
                          on_outcome=lambda o: seen.append(o["obligation"]))
        assert seen == ["OBL-A"]

    def test_bench_recipes_run_exclusively_after_the_pool(self, tmp_path):
        # Timing benches must not share cores with pooled recipes: the
        # bench outcome streams last even though it is declared first,
        # and the outcomes still land on the right obligations in order.
        _bench_file(tmp_path, {"g/x": 3.0})
        bench = Obligation(
            id="OBL-BENCH", title="t", invariant="i",
            recipes=(RecipeSpec("bench", {"checks": [
                {"gauge": "g/x", "op": ">=", "value": 1.0}]}, 60.0),))
        seen = []
        report = check_obligations(
            [bench, _obligation("OBL-CMD", 0)], tmp_path,
            on_outcome=lambda o: seen.append(o["obligation"]))
        assert seen == ["OBL-CMD", "OBL-BENCH"]
        assert report["ok"] is True
        by_id = {e["id"]: e for e in report["obligations"]}
        assert by_id["OBL-BENCH"]["recipes"][0]["type"] == "bench"
        assert by_id["OBL-CMD"]["recipes"][0]["type"] == "command"


class TestEvidence:
    def test_manifest_round_trip(self, tmp_path):
        report = check_obligations([_obligation("OBL-A", 1)], tmp_path)
        manifest = build_manifest(report, spec_dir=tmp_path, argv=["check", "--all"])
        assert manifest["format"] == EVIDENCE_FORMAT
        assert manifest["status"] == "fail"
        assert manifest["env"].get("python")
        out = tmp_path / "evidence.json"
        write_manifest(out, manifest)
        assert load_manifest(out) == json.loads(json.dumps(manifest))

    def test_load_rejects_foreign_documents(self, tmp_path):
        path = tmp_path / "not-evidence.json"
        path.write_text('{"format": "something-else"}', encoding="utf-8")
        with pytest.raises(ValueError, match="repro-evidence-manifest"):
            load_manifest(path)

    def test_render_shows_failures(self, tmp_path):
        report = check_obligations(
            [_obligation("OBL-BAD", 1), _obligation("OBL-OK", 0)], tmp_path)
        text = render_manifest(build_manifest(report, spec_dir=tmp_path))
        assert "1/2 passed, 1 failed" in text
        assert "OBL-BAD: fail" in text and "exit 1" in text  # the failure's evidence
        assert "OBL-OK: pass" not in text  # a pass shows its detail on demand only


class TestCli:
    def test_list_and_explain(self, tmp_path, capsys):
        _command_pack(tmp_path)
        assert gate_cli.main(["list", "--specs", str(tmp_path)]) == 0
        assert "OBL-SANDBOX" in capsys.readouterr().out
        assert gate_cli.main(["explain", "OBL-SANDBOX", "--specs", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "invariant" in out and "sandbox command exits zero" in out

    def test_check_requires_a_selection(self, tmp_path, capsys):
        _command_pack(tmp_path)
        assert gate_cli.main(["check", "--specs", str(tmp_path)]) == 2
        assert "--all" in capsys.readouterr().err

    def test_check_jobs_validated_before_any_recipe(self, tmp_path, capsys):
        _command_pack(tmp_path)
        out = tmp_path / "evidence.json"
        argv = ["check", "--all", "--specs", str(tmp_path), "--root", str(tmp_path),
                "--out", str(out), "--jobs"]
        assert gate_cli.main([*argv, "-1"]) == 2
        captured = capsys.readouterr()
        assert "--jobs" in captured.err and captured.out == ""
        assert not out.exists()
        # 0 means every core, as in repro-campaign and repro-exp.
        assert gate_cli.main([*argv, "0"]) == 0
        assert f"jobs={os.cpu_count()}" in capsys.readouterr().out

    def test_check_green_sandbox_writes_manifest(self, tmp_path, capsys):
        _command_pack(tmp_path, exit_code=0)
        out = tmp_path / "evidence.json"
        code = gate_cli.main(["check", "--all", "--specs", str(tmp_path),
                              "--root", str(tmp_path), "--out", str(out)])
        assert code == 0
        manifest = load_manifest(out)
        assert manifest["status"] == "pass"
        assert manifest["obligations"][0]["id"] == "OBL-SANDBOX"

    def test_tamper_detection_fails_with_evidence_pointer(self, tmp_path, capsys):
        # The acceptance probe: violate an invariant on purpose (a bench
        # floor above the measured gauge) and require the gate to exit
        # nonzero with a trace to the failing evidence.
        spec_dir = tmp_path / "obligations"
        spec_dir.mkdir()
        bench = _bench_file(tmp_path, {"sed/avg_precision": 0.42})
        _pack(spec_dir, {
            "format": "repro-obligations",
            "version": 1,
            "pack": "sandbox",
            "obligations": [{
                "id": "OBL-TAMPERED",
                "title": "deliberately violated floor",
                "invariant": "precision stays above 0.85",
                "recipes": [{"type": "bench", "checks": [
                    {"gauge": "sed/avg_precision", "agg": "min", "op": ">=", "value": 0.85},
                ]}],
            }],
        })
        out = tmp_path / "evidence.json"
        code = gate_cli.main(["check", "--all", "--specs", str(spec_dir),
                              "--root", str(tmp_path), "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert "OBL-TAMPERED" in captured.err
        manifest = load_manifest(out)
        assert manifest["status"] == "fail"
        assert manifest["blocking_failures"] == ["OBL-TAMPERED"]
        (entry,) = manifest["obligations"]
        (recipe,) = entry["recipes"]
        assert recipe["status"] == "fail"
        assert bench.name in recipe["pointer"]  # the trace to the evidence
        assert recipe["evidence"]["checks"][0]["observed"] == 0.42

    def test_evidence_renders_written_manifest(self, tmp_path, capsys):
        _command_pack(tmp_path, exit_code=1)
        out = tmp_path / "evidence.json"
        assert gate_cli.main(["check", "--all", "--specs", str(tmp_path),
                              "--root", str(tmp_path), "--out", str(out)]) == 1
        capsys.readouterr()
        assert gate_cli.main(["evidence", str(out), "--id", "OBL-SANDBOX"]) == 0
        assert "OBL-SANDBOX" in capsys.readouterr().out

    def test_spec_error_exits_2(self, tmp_path, capsys):
        (tmp_path / "broken.json").write_text('{"format": "wrong"}', encoding="utf-8")
        assert gate_cli.main(["list", "--specs", str(tmp_path)]) == 2
        assert "repro-gate" in capsys.readouterr().err


class TestSelfcheck:
    def _workflow(self, tmp_path, text):
        path = tmp_path / "ci.yml"
        path.write_text(text, encoding="utf-8")
        return path

    def test_repo_specs_and_workflows_are_consistent(self):
        workflows = sorted((REPO_ROOT / ".github" / "workflows").glob("*.yml"))
        assert gate_cli.selfcheck(SPEC_DIR, workflows) == []

    def test_unknown_id_reference_is_reported(self, tmp_path):
        spec_dir = tmp_path / "obligations"
        spec_dir.mkdir()
        _command_pack(spec_dir)
        wf = self._workflow(tmp_path, "run: repro-gate check --all  # OBL-GHOST\n")
        problems = gate_cli.selfcheck(spec_dir, [wf])
        assert any("OBL-GHOST" in p for p in problems)

    def test_ungated_blocking_obligation_is_reported(self, tmp_path):
        spec_dir = tmp_path / "obligations"
        spec_dir.mkdir()
        _command_pack(spec_dir)
        wf = self._workflow(tmp_path, "run: echo no gate here\n")
        problems = gate_cli.selfcheck(spec_dir, [wf])
        assert any("no workflow invokes" in p for p in problems)
        assert any("OBL-SANDBOX is not gated" in p for p in problems)

    def test_explicit_id_selection_counts_as_gated(self, tmp_path):
        spec_dir = tmp_path / "obligations"
        spec_dir.mkdir()
        _command_pack(spec_dir)
        wf = self._workflow(tmp_path, "run: repro-gate check OBL-SANDBOX\n")
        assert gate_cli.selfcheck(spec_dir, [wf]) == []
