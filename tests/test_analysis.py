"""repro.analysis (repro-lint): rule fixtures, suppressions, config, CLI.

Each RPnnn rule gets a minimal triggering snippet plus a negative case;
path-scoped rules are exercised through fixture trees that mimic the
package layout (``repro/core/...``).  The suite ends with the repo
self-check: ``repro-lint src/`` must report zero findings.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    Finding,
    LintConfig,
    all_rules,
    get_rule,
    lint_paths,
    load_config,
    render_json,
    render_text,
)
from repro.analysis.cli import main as lint_main
from repro.analysis.config import find_pyproject, path_matches
from repro.analysis.findings import PARSE_ERROR_ID
from repro.analysis.registry import expand_ids

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint_snippet(
    tmp_path: Path,
    code: str,
    relpath: str = "mod.py",
    config: LintConfig | None = None,
) -> list[Finding]:
    """Write ``code`` at ``tmp_path/relpath`` and lint just that file."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(code))
    return lint_paths([target], config=config)


def ids(findings: list[Finding]) -> set[str]:
    return {f.rule_id for f in findings}


def by_rule(findings: list[Finding], rule_id: str) -> list[Finding]:
    return [f for f in findings if f.rule_id == rule_id]


class TestRegistry:
    def test_all_rule_families_present(self):
        families = {rule.id[:3] for rule in all_rules()}
        assert families == {"RP1", "RP2", "RP3", "RP4", "RP5"}

    def test_ids_are_stable_and_unique(self):
        rule_ids = [rule.id for rule in all_rules()]
        assert len(rule_ids) == len(set(rule_ids))
        assert set(rule_ids) == {"RP105", "RP201", "RP301", "RP401", "RP402", "RP501", "RP503"}

    def test_get_rule_unknown_raises(self):
        with pytest.raises(KeyError):
            get_rule("RP999")

    def test_expand_family_selector(self):
        assert expand_ids(["RP4"]) == {"RP401", "RP402"}
        assert expand_ids(["RP5xx"]) == {"RP501", "RP503"}
        with pytest.raises(KeyError):
            expand_ids(["RP9"])


class TestObservabilityRules:
    def test_rp105_bare_print_in_library(self, tmp_path):
        code = """
        __all__ = []

        def helper(x):
            print("debug", x)
        """
        findings = lint_snippet(tmp_path, code, relpath="repro/core/mod.py")
        assert "RP105" in ids(findings)

    def test_rp105_exempt_paths_skip_cli_and_reporter(self, tmp_path):
        code = """
        __all__ = []

        def main():
            print("usage: ...")
        """
        for relpath in ("repro/core/cli.py", "repro/obs/progress.py"):
            findings = lint_snippet(tmp_path, code, relpath=relpath)
            assert "RP105" not in ids(findings), relpath

    def test_rp105_outside_library_scope_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "__all__ = []\nprint('hi')\n", relpath="scripts/tool.py"
        )
        assert "RP105" not in ids(findings)

    def test_rp105_shadowed_print_method_clean(self, tmp_path):
        code = """
        __all__ = []

        def render(doc):
            doc.print()
        """
        findings = lint_snippet(tmp_path, code, relpath="repro/core/mod.py")
        assert "RP105" not in ids(findings)

    def test_rp105_noqa_exemption(self, tmp_path):
        code = """
        __all__ = []

        def helper(x):
            print(x)  # repro: noqa[RP105]
        """
        findings = lint_snippet(tmp_path, code, relpath="repro/core/mod.py")
        assert "RP105" not in ids(findings)

    def test_rp105_custom_exempt_config(self, tmp_path):
        from repro.analysis.config import LintConfig

        code = """
        __all__ = []
        print("banner")
        """
        cfg = LintConfig(print_exempt_paths=("repro/custom/banner.py",))
        findings = lint_snippet(tmp_path, code, relpath="repro/custom/banner.py", config=cfg)
        assert "RP105" not in ids(findings)


class TestDtypeRules:
    def test_rp201_float_literal_equality(self, tmp_path):
        findings = lint_snippet(tmp_path, "__all__ = []\nok = (x == 0.5)\n")
        assert "RP201" in ids(findings)

    def test_rp201_nonfinite_and_negative(self, tmp_path):
        code = """
        __all__ = []
        import numpy as np
        a = x != np.inf
        b = y == -1.0
        """
        findings = [f for f in lint_snippet(tmp_path, code) if f.rule_id == "RP201"]
        assert len(findings) == 2

    def test_rp201_int_equality_clean(self, tmp_path):
        assert "RP201" not in ids(lint_snippet(tmp_path, "__all__ = []\nok = (x == 3)\n"))

class TestAtomicityRule:
    SHARED_TMP = """
    __all__ = []
    import os

    def save(path):
        tmp = path.with_suffix(".tmp.npz")
        write(tmp)
        tmp.replace(path)
    """

    def test_rp301_shared_temp_flagged(self, tmp_path):
        assert "RP301" in ids(lint_snippet(tmp_path, self.SHARED_TMP))

    def test_rp301_os_replace_form_flagged(self, tmp_path):
        code = """
        __all__ = []
        import os

        def save(path):
            tmp = str(path) + ".tmp"
            write(tmp)
            os.replace(tmp, path)
        """
        assert "RP301" in ids(lint_snippet(tmp_path, code))

    def test_rp301_pid_unique_temp_clean(self, tmp_path):
        code = """
        __all__ = []
        import os

        def save(path):
            tmp = path.with_name(f"{path.stem}.{os.getpid()}.tmp.npz")
            write(tmp)
            tmp.replace(path)
        """
        assert "RP301" not in ids(lint_snippet(tmp_path, code))

class TestRegistrySyncRules:
    @staticmethod
    def _experiment_tree(tmp_path: Path, register_orphan: bool) -> Path:
        pkg = tmp_path / "repro" / "experiments"
        pkg.mkdir(parents=True)
        registered = "'orphan': orphan," if register_orphan else ""
        (pkg / "runner.py").write_text(
            textwrap.dedent(
                f"""
                __all__ = ["EXPERIMENTS"]
                from repro.experiments import fig1, orphan
                EXPERIMENTS = {{"fig1": fig1, {registered}}}
                """
            )
        )
        (pkg / "fig1.py").write_text("__all__ = []\n")
        (pkg / "orphan.py").write_text("__all__ = []\n")
        (pkg / "common.py").write_text("__all__ = []\n")
        return tmp_path

    def test_rp401_orphan_experiment(self, tmp_path):
        findings = lint_paths([self._experiment_tree(tmp_path, register_orphan=False)])
        orphans = [f for f in findings if f.rule_id == "RP401"]
        assert len(orphans) == 1 and "orphan" in orphans[0].message

    def test_rp401_registered_clean(self, tmp_path):
        findings = lint_paths([self._experiment_tree(tmp_path, register_orphan=True)])
        assert "RP401" not in ids(findings)

    def test_rp402_orphan_zoo_builder(self, tmp_path):
        pkg = tmp_path / "repro" / "zoo"
        pkg.mkdir(parents=True)
        (pkg / "registry.py").write_text(
            textwrap.dedent(
                """
                __all__ = ["NETWORKS"]
                from repro.zoo.lenet import build_lenet
                NETWORKS = {"LeNet": build_lenet}
                """
            )
        )
        (pkg / "lenet.py").write_text("__all__ = ['build_lenet']\ndef build_lenet():\n    pass\n")
        (pkg / "mystery.py").write_text("__all__ = ['build_mystery']\ndef build_mystery():\n    pass\n")
        findings = lint_paths([tmp_path])
        orphans = [f for f in findings if f.rule_id == "RP402"]
        assert len(orphans) == 1 and "build_mystery" in orphans[0].message


class TestApiHygieneRules:
    def test_rp501_missing_dunder_all(self, tmp_path):
        assert "RP501" in ids(lint_snippet(tmp_path, "def f():\n    pass\n"))

    def test_rp501_exemptions(self, tmp_path):
        assert "RP501" not in ids(lint_snippet(tmp_path, "x = 1\n", relpath="__main__.py"))
        assert "RP501" not in ids(lint_snippet(tmp_path, "x = 1\n", relpath="_private.py"))

    def test_rp503_unexported_public_def(self, tmp_path):
        code = """
        __all__ = ["listed"]
        def listed():
            pass
        def hidden():
            pass
        class Orphan:
            pass
        """
        findings = [f for f in lint_snippet(tmp_path, code) if f.rule_id == "RP503"]
        assert {("hidden" in f.message or "Orphan" in f.message) for f in findings} == {True}
        assert len(findings) == 2


class TestEngine:
    def test_parse_error_reported_not_fatal(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        (tmp_path / "fine.py").write_text("__all__ = []\nok = (x == 0.5)\n")
        findings = lint_paths([tmp_path])
        assert PARSE_ERROR_ID in ids(findings)
        assert "RP201" in ids(findings)  # the broken file did not mask the good one

    def test_parse_error_does_not_hide_project_findings(self, tmp_path):
        tree = TestRegistrySyncRules._experiment_tree(tmp_path, register_orphan=False)
        (tree / "repro" / "experiments" / "broken.py").write_text("def broken(:\n")
        findings = lint_paths([tree])
        assert [Path(f.file).name for f in by_rule(findings, PARSE_ERROR_ID)] == ["broken.py"]
        orphans = by_rule(findings, "RP401")
        assert len(orphans) == 1 and "orphan" in orphans[0].message

    def test_blanket_noqa_suppresses(self, tmp_path):
        findings = lint_snippet(tmp_path, "__all__ = []\nok = (x == 0.5)  # repro: noqa\n")
        assert "RP201" not in ids(findings)

    def test_targeted_noqa_suppresses_only_listed(self, tmp_path):
        code = """
        __all__ = []

        def helper(x):
            print(x)  # repro: noqa[RP105]
            ok = (x == 0.5)  # repro: noqa[RP105, RP201]
            bad = (x == 0.5)  # repro: noqa[RP105]
        """
        findings = lint_snippet(tmp_path, code, relpath="repro/core/mod.py")
        assert "RP105" not in ids(findings)
        assert len([f for f in findings if f.rule_id == "RP201"]) == 1

    def test_config_exclude(self, tmp_path):
        config = LintConfig(exclude=("skipme",))
        findings = lint_snippet(tmp_path, "ok = (x == 0.5)\n", relpath="skipme/mod.py", config=config)
        assert findings == []

    def test_config_select_and_ignore(self, tmp_path):
        code = "ok = (x == 0.5)\n"  # RP201 + RP501
        only_dtype = lint_snippet(tmp_path, code, config=LintConfig(select=("RP2",)))
        assert ids(only_dtype) == {"RP201"}
        no_dtype = lint_snippet(tmp_path, code, config=LintConfig(ignore=("RP201",)))
        assert ids(no_dtype) == {"RP501"}

    def test_path_matches_fragments(self):
        assert path_matches("src/repro/core/campaign.py", "repro/core")
        assert path_matches("src/repro/dtypes/fixedpoint.py", "repro/dtypes/fixedpoint.py")
        assert not path_matches("src/repro/core_utils.py", "repro/core")


class TestConfigLoading:
    def test_load_config_reads_repro_lint_table(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(
            textwrap.dedent(
                """
                [tool.repro-lint]
                exclude = ["vendored"]
                ignore = ["RP503"]
                library-paths = ["mypkg"]
                """
            )
        )
        config = load_config(pyproject)
        assert config.exclude == ("vendored",)
        assert config.ignore == ("RP503",)
        assert config.library_paths == ("mypkg",)
        # Unset keys keep library defaults.
        assert config.float_eq_exempt_paths == ("tests", "benchmarks")

    def test_load_config_unknown_key_raises(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text("[tool.repro-lint]\nbogus = []\n")
        with pytest.raises(KeyError):
            load_config(pyproject)

    def test_find_pyproject_walks_up(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("")
        nested = tmp_path / "a" / "b"
        nested.mkdir(parents=True)
        assert find_pyproject(nested) == tmp_path / "pyproject.toml"


class TestReporters:
    def _findings(self):
        return [Finding(file="a.py", line=3, col=7, rule_id="RP201", message="msg")]

    def test_text_format(self):
        text = render_text(self._findings())
        assert "a.py:3:7: RP201 msg" in text
        assert text.endswith("1 finding")

    def test_json_round_trip_fields(self):
        doc = json.loads(render_json(self._findings()))
        assert doc["version"] == 2
        assert doc["count"] == 1
        (entry,) = doc["findings"]
        assert set(entry) == {"file", "line", "col", "rule_id", "rule-id", "message"}
        assert entry["file"] == "a.py"
        assert entry["line"] == 3
        assert entry["rule_id"] == "RP201" == entry["rule-id"]
        assert entry["message"] == "msg"


class TestCli:
    def test_exit_zero_on_clean_file(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("__all__ = []\n")
        assert lint_main(["--no-config", str(clean)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_exit_one_on_findings_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("ok = (x == 0.5)\n")
        assert lint_main(["--no-config", "--format", "json", str(bad)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["count"] >= 1
        assert {"file", "line", "col", "rule_id", "rule-id", "message"} <= set(doc["findings"][0])

    def test_select_flag(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("ok = (x == 0.5)\n")
        assert lint_main(["--no-config", "--select", "RP5", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "RP501" in out and "RP201" not in out

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.id in out

    def test_missing_path_is_usage_error(self, capsys):
        assert lint_main(["--no-config", "does-not-exist-anywhere"]) == 2
        assert "error" in capsys.readouterr().err


class TestExplainCli:
    def test_explain_syntactic_rule(self, capsys):
        assert lint_main(["--explain", "rp201"]) == 0
        out = capsys.readouterr().out
        assert "RP201" in out and "float-eq-exempt-paths" in out

    def test_explain_unknown_rule_is_usage_error(self, capsys):
        assert lint_main(["--explain", "RP999"]) == 2
        assert "unknown rule" in capsys.readouterr().err


class TestRepoSelfCheck:
    def test_repo_is_lint_clean(self):
        """The acceptance gate: the whole checkout reports zero findings."""
        config = load_config(REPO_ROOT / "pyproject.toml")
        paths = [
            REPO_ROOT / sub
            for sub in ("src", "tests", "benchmarks", "examples")
            if (REPO_ROOT / sub).is_dir()
        ]
        findings = lint_paths(paths, config=config, root=REPO_ROOT)
        assert findings == [], "\n" + "\n".join(f.render() for f in findings)

    def test_cli_self_check_exit_zero(self, capsys):
        code = lint_main(["--config", str(REPO_ROOT / "pyproject.toml"), str(REPO_ROOT / "src")])
        capsys.readouterr()
        assert code == 0

    def test_seed_race_pattern_is_caught(self, tmp_path):
        """The exact store.py bug class this PR fixed must stay flagged."""
        snippet = """
        __all__ = ["save_params"]
        import numpy as np

        def save_params(path, arrays):
            tmp = path.with_suffix(".tmp.npz")
            np.savez_compressed(tmp, **arrays)
            tmp.replace(path)
        """
        findings = lint_snippet(tmp_path, snippet, relpath="repro/zoo/store.py")
        assert "RP301" in ids(findings)
