"""repro.analysis: rule fixtures, suppressions and the repo self-check.

Each RPnnn rule gets a minimal triggering snippet plus a negative case;
path-scoped rules are exercised through fixture trees that mimic the
package layout (``repro/core/...``).  The suite ends with the repo
self-check: the whole checkout must report zero findings.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis import PARSE_ERROR_ID, Finding, lint_paths, path_matches

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint_snippet(tmp_path: Path, code: str, relpath: str = "mod.py") -> list[Finding]:
    """Write ``code`` at ``tmp_path/relpath`` and lint just that file."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(code))
    return lint_paths([target])


def ids(findings: list[Finding]) -> set[str]:
    return {f.rule_id for f in findings}


def by_rule(findings: list[Finding], rule_id: str) -> list[Finding]:
    return [f for f in findings if f.rule_id == rule_id]


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

    def test_path_matches_fragments(self):
        assert path_matches("src/repro/core/campaign.py", "repro/core")
        assert path_matches("src/repro/dtypes/fixedpoint.py", "repro/dtypes/fixedpoint.py")
        assert not path_matches("src/repro/core_utils.py", "repro/core")


class TestRepoSelfCheck:
    def test_repo_is_lint_clean(self):
        """The acceptance gate: the whole checkout reports zero findings."""
        paths = [
            REPO_ROOT / sub
            for sub in ("src", "tests", "benchmarks", "examples")
            if (REPO_ROOT / sub).is_dir()
        ]
        findings = lint_paths(paths, root=REPO_ROOT)
        assert findings == [], "\n" + "\n".join(f.render() for f in findings)

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
