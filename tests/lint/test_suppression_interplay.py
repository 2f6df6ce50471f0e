"""Interplay cases: multi-rule lines, duplicate-line fingerprints, and
``--write-baseline`` idempotency."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.lint import Baseline, LintConfig, run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"

# One line in a task root that trips two rules: an environment read
# outside the sanctioned knobs module (REP-ENV-READ, column 11) and a
# process-identity call (REP-NONDET, column 37).
DOUBLE_TROUBLE = """\
    import os

    __all__ = ["seed"]


    def seed(spec):
        return os.environ.get("SEED") or os.getpid(){SUPPRESS}
"""

BOTH_RULES = ["REP-ENV-READ", "REP-NONDET"]

TASKS = LintConfig(task_root_modules=("app.tasks",))


def build(make_project, suppress=""):
    source = DOUBLE_TROUBLE.replace("{SUPPRESS}", suppress)
    return make_project({"app/__init__.py": "", "app/tasks.py": source})


class TestOneLineTwoRules:
    def test_both_rules_fire_on_the_same_line(self, make_project):
        project = build(make_project)
        result = run_lint(project=project, config=TASKS, rules=BOTH_RULES)
        assert sorted(f.rule for f in result.active) == BOTH_RULES
        assert {(f.rule, f.line, f.col) for f in result.active} == {
            ("REP-ENV-READ", 7, 11),
            ("REP-NONDET", 7, 37),
        }

    def test_single_code_allow_suppresses_only_that_rule(self, make_project):
        project = build(make_project, suppress="  # repro: allow[REP-ENV-READ]")
        result = run_lint(project=project, config=TASKS, rules=BOTH_RULES)
        assert [f.rule for f in result.active] == ["REP-NONDET"]
        assert result.n_suppressed == 1

    def test_comma_list_suppresses_both(self, make_project):
        project = build(
            make_project, suppress="  # repro: allow[REP-ENV-READ,REP-NONDET]"
        )
        result = run_lint(project=project, config=TASKS, rules=BOTH_RULES)
        assert result.active == []
        assert result.n_suppressed == 2

    def test_star_suppresses_both(self, make_project):
        project = build(make_project, suppress="  # repro: allow[*]")
        result = run_lint(project=project, config=TASKS, rules=BOTH_RULES)
        assert result.active == []
        assert result.n_suppressed == 2

    def test_baselining_one_rule_leaves_the_other_active(
        self, make_project, tmp_path
    ):
        project = build(make_project)
        first = run_lint(project=project, config=TASKS, rules=["REP-ENV-READ"])
        baseline_path = tmp_path / "baseline.json"
        Baseline.write(baseline_path, first.findings)
        result = run_lint(
            project=project,
            config=TASKS,
            rules=BOTH_RULES,
            baseline=Baseline.load(baseline_path),
        )
        assert [f.rule for f in result.active] == ["REP-NONDET"]
        assert result.n_baselined == 1


class TestDuplicateLineFingerprints:
    FILES = {
        "app/__init__.py": "",
        "app/tasks.py": """\
            import time

            __all__ = ["alpha", "beta"]


            def alpha(spec):
                return time.time()


            def beta(spec):
                return time.time()
        """,
    }

    CONFIG = LintConfig(task_root_modules=("app.tasks",))

    def test_identical_lines_get_distinct_fingerprints(self, make_project):
        project = make_project(self.FILES)
        result = run_lint(
            project=project, config=self.CONFIG, rules=["REP-NONDET"]
        )
        texts = [f.line_text for f in result.active]
        prints = {f.fingerprint for f in result.active}
        assert len(result.active) == 2
        assert texts[0] == texts[1]  # same source text...
        assert len(prints) == 2  # ...still separately identified

    def test_baseline_covers_each_occurrence_separately(
        self, make_project, tmp_path
    ):
        project = make_project(self.FILES)
        result = run_lint(
            project=project, config=self.CONFIG, rules=["REP-NONDET"]
        )
        baseline_path = tmp_path / "baseline.json"
        Baseline.write(baseline_path, result.findings)
        rerun = run_lint(
            project=project,
            config=self.CONFIG,
            rules=["REP-NONDET"],
            baseline=Baseline.load(baseline_path),
        )
        assert rerun.active == []
        assert rerun.n_baselined == 2


class TestWriteBaselineIdempotency:
    def run_cli(self, *args, cwd):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        return subprocess.run(
            [sys.executable, "-m", "repro.lint", *args],
            capture_output=True,
            text=True,
            cwd=cwd,
            env=env,
        )

    def test_second_write_is_byte_identical(self, tmp_path):
        pkg = tmp_path / "app"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("", encoding="utf-8")
        (pkg / "config.py").write_text(
            textwrap.dedent(
                """\
                import os


                def root():
                    return os.environ.get("APP_ROOT")
                """
            ),
            encoding="utf-8",
        )
        baseline = tmp_path / "baseline.json"
        first = self.run_cli(
            "app", "--baseline", str(baseline), "--write-baseline",
            cwd=tmp_path,
        )
        assert first.returncode == 0, first.stdout + first.stderr
        blob_one = baseline.read_bytes()
        second = self.run_cli(
            "app", "--baseline", str(baseline), "--write-baseline",
            cwd=tmp_path,
        )
        assert second.returncode == 0
        assert baseline.read_bytes() == blob_one

    def test_write_then_lint_is_green(self, tmp_path):
        pkg = tmp_path / "app"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("", encoding="utf-8")
        (pkg / "config.py").write_text(
            "import os\n\n\ndef root():\n"
            "    return os.environ.get('APP_ROOT')\n",
            encoding="utf-8",
        )
        baseline = tmp_path / "baseline.json"
        wrote = self.run_cli(
            "app", "--baseline", str(baseline), "--write-baseline",
            cwd=tmp_path,
        )
        assert wrote.returncode == 0
        gated = self.run_cli("app", "--baseline", str(baseline), cwd=tmp_path)
        assert gated.returncode == 0
