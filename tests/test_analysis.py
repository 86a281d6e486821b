"""repro.analysis (repro-lint): rule fixtures, suppressions, config, CLI.

Each RPnnn rule gets a minimal triggering snippet plus a negative case;
path-scoped rules are exercised through fixture trees that mimic the
package layout (``repro/dtypes/...``).  The suite ends with the repo
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
        assert {"RP101", "RP102", "RP103", "RP104", "RP105", "RP106", "RP108",
                "RP201", "RP202", "RP203",
                "RP301", "RP302", "RP401", "RP402", "RP501", "RP502", "RP503"} <= set(rule_ids)

    def test_get_rule_unknown_raises(self):
        with pytest.raises(KeyError):
            get_rule("RP999")

    def test_expand_family_selector(self):
        assert expand_ids(["RP1"]) == {
            "RP101", "RP102", "RP103", "RP104", "RP105", "RP106", "RP108",
        }
        assert expand_ids(["RP3xx"]) == {"RP301", "RP302"}
        with pytest.raises(KeyError):
            expand_ids(["RP9"])


class TestDeterminismRules:
    def test_rp101_legacy_numpy_random(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            __all__ = []
            import numpy as np
            np.random.seed(0)
            x = np.random.rand(4)
            """,
        )
        assert [f.rule_id for f in findings if f.rule_id == "RP101"] == ["RP101", "RP101"]

    def test_rp101_from_import(self, tmp_path):
        findings = lint_snippet(tmp_path, "__all__ = []\nfrom numpy.random import randn\n")
        assert "RP101" in ids(findings)

    def test_rp101_new_generator_api_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            __all__ = []
            import numpy as np
            rng = np.random.default_rng(np.random.SeedSequence(entropy=7))
            """,
        )
        assert "RP101" not in ids(findings)

    def test_rp102_stdlib_random(self, tmp_path):
        assert "RP102" in ids(lint_snippet(tmp_path, "__all__ = []\nimport random\n"))
        assert "RP102" in ids(lint_snippet(tmp_path, "__all__ = []\nfrom random import choice\n"))

    def test_rp103_wall_clock_scoped_to_campaign_paths(self, tmp_path):
        code = """
        __all__ = []
        import time
        t = time.time()
        """
        inside = lint_snippet(tmp_path, code, relpath="repro/core/mod.py")
        outside = lint_snippet(tmp_path, code, relpath="repro/zoo/mod.py")
        assert "RP103" in ids(inside)
        assert "RP103" not in ids(outside)

    def test_rp103_monotonic_timer_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "__all__ = []\nimport time\nt = time.perf_counter()\n",
            relpath="repro/core/mod.py",
        )
        assert "RP103" not in ids(findings)

    def test_rp104_sleep_scoped_to_campaign_paths(self, tmp_path):
        code = """
        __all__ = []
        import time

        def backoff():
            time.sleep(0.5)
        """
        inside = lint_snippet(tmp_path, code, relpath="repro/utils/parallel.py")
        outside = lint_snippet(tmp_path, code, relpath="repro/zoo/mod.py")
        assert "RP104" in ids(inside)
        assert "RP104" not in ids(outside)

    def test_rp104_noqa_exemption(self, tmp_path):
        code = """
        __all__ = []
        import time

        def backoff(delay):
            time.sleep(delay)  # repro: noqa[RP104]
        """
        findings = lint_snippet(tmp_path, code, relpath="repro/core/mod.py")
        assert "RP104" not in ids(findings)

    def test_rp106_golden_subscript_write(self, tmp_path):
        code = """
        __all__ = []

        def corrupt(golden, i, v):
            golden.scores[i] = v
        """
        inside = lint_snippet(tmp_path, code, relpath="repro/core/mod.py")
        outside = lint_snippet(tmp_path, code, relpath="repro/zoo/mod.py")
        assert "RP106" in ids(inside)
        assert "RP106" not in ids(outside)

    def test_rp106_augmented_write_and_nested_chain(self, tmp_path):
        code = """
        __all__ = []

        def corrupt(task, i):
            task.goldens[i].scores += 1.0
            task.goldens[i].activations[0][3] = 0.0
        """
        findings = lint_snippet(tmp_path, code, relpath="repro/core/mod.py")
        assert [f.rule_id for f in findings if f.rule_id == "RP106"] == ["RP106", "RP106"]

    def test_rp106_copy_then_corrupt_clean(self, tmp_path):
        code = """
        __all__ = []
        import numpy as np

        def inject(golden, i, v):
            faulty = golden.scores.copy()
            faulty[i] = v
            golden_copy = np.ascontiguousarray(golden.scores)
            golden_copy[i] = v
            return faulty, golden_copy
        """
        findings = lint_snippet(tmp_path, code, relpath="repro/core/mod.py")
        assert "RP106" not in ids(findings)

    def test_rp106_rebind_clean(self, tmp_path):
        code = """
        __all__ = []

        def swap(new):
            golden = new
            return golden
        """
        findings = lint_snippet(tmp_path, code, relpath="repro/core/mod.py")
        assert "RP106" not in ids(findings)


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

    def test_repo_source_tree_is_rp105_clean(self):
        src = Path(__file__).resolve().parents[1] / "src"
        findings = [f for f in lint_paths([src]) if f.rule_id == "RP105"]
        assert findings == []

    def test_rp108_append_open_in_campaign_code(self, tmp_path):
        code = """
        __all__ = []

        def persist(path, row):
            with open(path, "a") as fh:
                fh.write(row)
        """
        findings = lint_snippet(tmp_path, code, relpath="repro/core/mod.py")
        assert "RP108" in ids(findings)

    def test_rp108_path_open_append_and_mode_kwarg(self, tmp_path):
        code = """
        __all__ = []

        def persist(path, row):
            with path.open("ab") as fh:
                fh.write(row)
            with open(path, mode="a") as fh:
                fh.write(row)
        """
        findings = lint_snippet(tmp_path, code, relpath="repro/experiments/mod.py")
        assert len(by_rule(findings, "RP108")) == 2

    def test_rp108_json_dump_in_campaign_code(self, tmp_path):
        code = """
        __all__ = []
        import json

        def persist(path, payload):
            with open(path, "w") as fh:
                json.dump(payload, fh)
        """
        findings = lint_snippet(tmp_path, code, relpath="repro/core/mod.py")
        assert "RP108" in ids(findings)

    def test_rp108_read_and_write_modes_clean(self, tmp_path):
        code = """
        __all__ = []
        import json

        def load(path):
            with open(path, "r") as fh:
                return json.load(fh)

        def save(path, payload):
            path.write_text(json.dumps(payload))
            path.open()  # default read mode
            open(path, "w").close()
        """
        findings = lint_snippet(tmp_path, code, relpath="repro/core/mod.py")
        assert "RP108" not in ids(findings)

    def test_rp108_mode_like_string_required(self, tmp_path):
        # An arbitrary first argument containing "a" is not a mode string.
        code = """
        __all__ = []

        def show(browser):
            browser.open("page.html")
        """
        findings = lint_snippet(tmp_path, code, relpath="repro/core/mod.py")
        assert "RP108" not in ids(findings)

    def test_rp108_outside_campaign_scope_clean(self, tmp_path):
        code = """
        __all__ = []

        def persist(path, row):
            with open(path, "a") as fh:
                fh.write(row)
        """
        findings = lint_snippet(tmp_path, code, relpath="repro/zoo/mod.py")
        assert "RP108" not in ids(findings)

    def test_rp108_writer_modules_exempt(self, tmp_path):
        from repro.analysis.config import LintConfig

        code = """
        __all__ = []
        import json

        def snapshot(path, payload):
            with open(path, "a") as fh:
                json.dump(payload, fh)
        """
        cfg = LintConfig(
            campaign_paths=("repro/core",),
            obs_writer_exempt_paths=("repro/core/checkpoint.py",),
        )
        findings = lint_snippet(
            tmp_path, code, relpath="repro/core/checkpoint.py", config=cfg
        )
        assert "RP108" not in ids(findings)

    def test_rp108_noqa_exemption(self, tmp_path):
        code = """
        __all__ = []

        def persist(path, row):
            fh = open(path, "a")  # repro: noqa[RP108]
            fh.write(row)
        """
        findings = lint_snippet(tmp_path, code, relpath="repro/core/mod.py")
        assert "RP108" not in ids(findings)

    def test_repo_source_tree_is_rp108_clean(self):
        src = Path(__file__).resolve().parents[1] / "src"
        findings = [f for f in lint_paths([src]) if f.rule_id == "RP108"]
        assert findings == []


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

    def test_rp202_missing_dtype_in_scope(self, tmp_path):
        code = """
        __all__ = []
        import numpy as np
        a = np.zeros((3, 3))
        b = np.array([1.0, 2.0])
        """
        inside = lint_snippet(tmp_path, code, relpath="repro/dtypes/mod.py")
        outside = lint_snippet(tmp_path, code, relpath="repro/zoo/mod.py")
        assert len([f for f in inside if f.rule_id == "RP202"]) == 2
        assert "RP202" not in ids(outside)

    def test_rp202_explicit_dtype_and_copy_clean(self, tmp_path):
        code = """
        __all__ = []
        import numpy as np
        a = np.zeros((3, 3), dtype=np.int64)
        b = np.array(a)
        """
        findings = lint_snippet(tmp_path, code, relpath="repro/nn/mod.py")
        assert "RP202" not in ids(findings)

    def test_rp203_bare_float_in_kernel(self, tmp_path):
        code = """
        __all__ = []
        def quantize(x, scale):
            y = x * 0.5
            y += 1.0
            return y
        """
        config = LintConfig(kernel_paths=("repro/dtypes/fixedpoint.py",))
        inside = lint_snippet(tmp_path, code, relpath="repro/dtypes/fixedpoint.py", config=config)
        outside = lint_snippet(tmp_path, code, relpath="repro/dtypes/base.py", config=config)
        assert len([f for f in inside if f.rule_id == "RP203"]) == 2
        assert "RP203" not in ids(outside)


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
        code = (  # repro: noqa[RP302] — fixture string mentions tmp/getpid
            """
        __all__ = []
        import os

        def save(path):
            tmp = path.with_name(f"{path.stem}.{os.getpid()}.tmp.npz")
            write(tmp)
            tmp.replace(path)
        """
        )
        assert "RP301" not in ids(lint_snippet(tmp_path, code))

    def test_rp302_unique_temp_without_publish(self, tmp_path):
        code = (  # repro: noqa[RP302] — fixture string mentions tmp/getpid
            """
        __all__ = []
        import os

        def save(path, data):
            tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
            tmp.write_text(data)
        """
        )
        assert "RP302" in ids(lint_snippet(tmp_path, code))

    def test_rp302_published_temp_clean(self, tmp_path):
        code = (  # repro: noqa[RP302] — fixture string mentions tmp/getpid
            """
        __all__ = []
        import os

        def save(path, data):
            tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
            tmp.write_text(data)
            os.replace(tmp, path)
        """
        )
        assert "RP302" not in ids(lint_snippet(tmp_path, code))


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

    def test_rp502_stale_entry(self, tmp_path):
        findings = lint_snippet(tmp_path, "__all__ = ['ghost']\n")
        stale = [f for f in findings if f.rule_id == "RP502"]
        assert len(stale) == 1 and "ghost" in stale[0].message

    def test_rp502_conditional_import_counts(self, tmp_path):
        code = """
        __all__ = ["tomllib"]
        try:
            import tomllib
        except ImportError:
            import tomli as tomllib
        """
        assert "RP502" not in ids(lint_snippet(tmp_path, code))

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
        (tmp_path / "fine.py").write_text("__all__ = []\nimport random\n")
        findings = lint_paths([tmp_path])
        assert PARSE_ERROR_ID in ids(findings)
        assert "RP102" in ids(findings)  # the broken file did not mask the good one

    def test_parse_error_does_not_hide_project_findings(self, tmp_path):
        tree = TestRegistrySyncRules._experiment_tree(tmp_path, register_orphan=False)
        (tree / "repro" / "experiments" / "broken.py").write_text("def broken(:\n")
        findings = lint_paths([tree])
        assert [Path(f.file).name for f in by_rule(findings, PARSE_ERROR_ID)] == ["broken.py"]
        orphans = by_rule(findings, "RP401")
        assert len(orphans) == 1 and "orphan" in orphans[0].message

    def test_blanket_noqa_suppresses(self, tmp_path):
        findings = lint_snippet(tmp_path, "__all__ = []\nimport random  # repro: noqa\n")
        assert "RP102" not in ids(findings)

    def test_targeted_noqa_suppresses_only_listed(self, tmp_path):
        code = """
        __all__ = []
        import random  # repro: noqa[RP102]
        ok = (x == 0.5)  # repro: noqa[RP101, RP201]
        bad = (y == 0.5)  # repro: noqa[RP102]
        """
        findings = lint_snippet(tmp_path, code)
        assert "RP102" not in ids(findings)
        assert len([f for f in findings if f.rule_id == "RP201"]) == 1

    def test_config_exclude(self, tmp_path):
        config = LintConfig(exclude=("skipme",))
        findings = lint_snippet(tmp_path, "import random\n", relpath="skipme/mod.py", config=config)
        assert findings == []

    def test_config_select_and_ignore(self, tmp_path):
        code = "import random\n"  # RP102 + RP501
        only_det = lint_snippet(tmp_path, code, config=LintConfig(select=("RP1",)))
        assert ids(only_det) == {"RP102"}
        no_det = lint_snippet(tmp_path, code, config=LintConfig(ignore=("RP102",)))
        assert ids(no_det) == {"RP501"}

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
                campaign-paths = ["mypkg/campaigns"]
                """
            )
        )
        config = load_config(pyproject)
        assert config.exclude == ("vendored",)
        assert config.ignore == ("RP503",)
        assert config.campaign_paths == ("mypkg/campaigns",)
        # Unset keys keep library defaults.
        assert config.dtype_paths == ("repro/dtypes", "repro/nn")

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
        return [Finding(file="a.py", line=3, col=7, rule_id="RP101", message="msg")]

    def test_text_format(self):
        text = render_text(self._findings())
        assert "a.py:3:7: RP101 msg" in text
        assert text.endswith("1 finding")

    def test_json_round_trip_fields(self):
        doc = json.loads(render_json(self._findings()))
        assert doc["version"] == 2
        assert doc["count"] == 1
        (entry,) = doc["findings"]
        assert set(entry) == {"file", "line", "col", "rule_id", "rule-id", "message"}
        assert entry["file"] == "a.py"
        assert entry["line"] == 3
        assert entry["rule_id"] == "RP101" == entry["rule-id"]
        assert entry["message"] == "msg"


class TestCli:
    def test_exit_zero_on_clean_file(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("__all__ = []\n")
        assert lint_main(["--no-config", str(clean)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_exit_one_on_findings_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n")
        assert lint_main(["--no-config", "--format", "json", str(bad)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["count"] >= 1
        assert {"file", "line", "col", "rule_id", "rule-id", "message"} <= set(doc["findings"][0])

    def test_select_flag(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n")
        assert lint_main(["--no-config", "--select", "RP5", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "RP501" in out and "RP102" not in out

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
        assert lint_main(["--explain", "rp104"]) == 0
        out = capsys.readouterr().out
        assert "RP104" in out and "backoff" in out

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
