"""CLI behaviour: exit codes, formats, and the real-tree contract."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import LintUsageError, run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"


def run_cli(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        capture_output=True,
        text=True,
        cwd=cwd or REPO_ROOT,
        env=env,
    )


def write_fixture(tmp_path, body):
    pkg = tmp_path / "app"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("", encoding="utf-8")
    (pkg / "config.py").write_text(textwrap.dedent(body), encoding="utf-8")
    return tmp_path


def insert_after(path, prefix, body_lines):
    """Insert ``body_lines`` as the first statements of the ``prefix`` def."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    for index, line in enumerate(lines):
        if line.startswith(prefix):
            lines[index + 1 : index + 1] = [f"    {body}\n" for body in body_lines]
            break
    else:
        pytest.fail(f"{prefix} not found in {path.name}")
    path.write_text("".join(lines), encoding="utf-8")


DIRTY = """\
    import os


    def root():
        return os.environ.get("APP_ROOT")
"""

CLEAN = """\
    def root():
        return "/data"
"""


class TestExitCodes:
    def test_findings_exit_1(self, tmp_path):
        fixture = write_fixture(tmp_path, DIRTY)
        proc = run_cli(str(fixture), "--no-baseline")
        assert proc.returncode == 1
        assert "REP-ENV-READ" in proc.stdout
        assert "app/config.py:5:" in proc.stdout

    def test_clean_exit_0(self, tmp_path):
        fixture = write_fixture(tmp_path, CLEAN)
        proc = run_cli(str(fixture), "--no-baseline")
        assert proc.returncode == 0
        assert "0 findings" in proc.stdout

    def test_no_paths_exit_2(self):
        proc = run_cli()
        assert proc.returncode == 2
        assert "no paths" in proc.stderr

    def test_unknown_rule_exit_2(self, tmp_path):
        fixture = write_fixture(tmp_path, CLEAN)
        proc = run_cli(str(fixture), "--rules", "REP-BOGUS")
        assert proc.returncode == 2
        assert "unknown rule" in proc.stderr

    def test_missing_path_exit_2(self):
        proc = run_cli("/no/such/dir")
        assert proc.returncode == 2


class TestOutputs:
    def test_list_rules(self):
        proc = run_cli("--list-rules")
        assert proc.returncode == 0
        for code in (
            "REP-NONDET",
            "REP-FALSY-STORE",
            "REP-THREAD-ESCAPE",
            "REP-ENV-READ",
            "REP-GETSTATE-CACHE",
            "REP-HASH-INPUT",
        ):
            assert code in proc.stdout

    def test_json_format(self, tmp_path):
        fixture = write_fixture(tmp_path, DIRTY)
        proc = run_cli(str(fixture), "--no-baseline", "--format", "json")
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["exit_code"] == 1
        assert payload["summary"]["active"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "REP-ENV-READ"
        assert finding["fingerprint"]

    def test_rule_selection(self, tmp_path):
        fixture = write_fixture(tmp_path, DIRTY)
        proc = run_cli(
            str(fixture), "--no-baseline", "--rules", "REP-NONDET"
        )
        assert proc.returncode == 0  # env read not in the selected set

    def test_write_baseline_roundtrip(self, tmp_path):
        fixture = write_fixture(tmp_path, DIRTY)
        baseline = tmp_path / "baseline.json"
        wrote = run_cli(
            str(fixture), "--baseline", str(baseline), "--write-baseline"
        )
        assert wrote.returncode == 0
        assert baseline.exists()
        rerun = run_cli(str(fixture), "--baseline", str(baseline))
        assert rerun.returncode == 0
        verbose = run_cli(
            str(fixture), "--baseline", str(baseline), "--verbose"
        )
        assert "[baselined]" in verbose.stdout


class TestRealTree:
    def test_committed_tree_is_clean(self):
        proc = run_cli("src/", "--baseline", "lint-baseline.json")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_committed_baseline_is_empty(self):
        payload = json.loads(
            (REPO_ROOT / "lint-baseline.json").read_text(encoding="utf-8")
        )
        assert payload["findings"] == []

    @pytest.fixture(scope="class")
    def injected(self, tmp_path_factory):
        """Three seeded bugs in one staged tree, linted once.

        - a wall-clock read in the task root ``run_point`` (REP-NONDET);
        - a consumed read of a spec field that ``train_zoo_entry``'s key
          builder never hashes (REP-KEY-COVERAGE): ``checkpoint_spec``
          is inclusion-model, it hashes an explicit field list, so the
          read is exactly the stale-cache bug the rule exists to stop;
        - ``count()`` in ``obs/metrics.py`` updating the registry
          without its ``with _LOCK:`` (REP-THREAD-ESCAPE: the module
          declares a lock).

        Returns the CLI process, the active findings, and the staged
        ``metrics.py``.
        """
        staged = tmp_path_factory.mktemp("injected") / "src"
        shutil.copytree(SRC, staged, ignore=shutil.ignore_patterns("__pycache__"))
        tasks = staged / "repro" / "runtime" / "tasks.py"
        insert_after(
            tasks, "def run_point", ["import time", "_seeded_now = time.time()"]
        )
        # a *consumed* read: bare aliases that feed nothing are
        # (correctly) invisible to the read-set analysis
        insert_after(
            tasks, "def train_zoo_entry", ['if params["secret_knob"]:', "    pass"]
        )
        metrics = staged / "repro" / "obs" / "metrics.py"
        locked = "    with _LOCK:\n        _COUNTERS[name] = "
        source = metrics.read_text(encoding="utf-8")
        assert source.count(locked) == 1
        metrics.write_text(
            source.replace(locked, "    _COUNTERS[name] = "), encoding="utf-8"
        )

        proc = run_cli(str(staged), "--no-baseline", "--format", "json")
        findings = json.loads(proc.stdout)["findings"]
        active = [f for f in findings if not f.get("suppressed")]
        return proc, active, metrics

    def test_injected_bugs_fail_the_gate(self, injected):
        proc, active, _ = injected
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert sorted(f["rule"] for f in active) == [
            "REP-KEY-COVERAGE", "REP-NONDET", "REP-THREAD-ESCAPE"
        ]

    def test_injected_wall_clock_fails_the_gate(self, injected):
        """Seeding time.time() into a task body must fail CI's lint job."""
        _, active, _ = injected
        (nondet,) = [f for f in active if f["rule"] == "REP-NONDET"]
        assert nondet["path"].endswith("repro/runtime/tasks.py")
        assert "time.time" in nondet["message"]
        assert "'run_point'" in nondet["message"]

    def test_injected_unhashed_field_read_fails_the_gate(self, injected):
        """Reading a spec field the cache key never hashes must fail CI."""
        _, active, _ = injected
        (coverage,) = [f for f in active if f["rule"] == "REP-KEY-COVERAGE"]
        assert coverage["path"].endswith("repro/runtime/tasks.py")
        assert "'train_zoo_entry'" in coverage["message"]  # the task root
        assert "'secret_knob'" in coverage["message"]  # the missing field
        assert "never hashes" in coverage["message"]

    def test_injected_unlocked_counter_fails_the_gate(self, injected):
        """Dropping the registry's lock from ``count()`` must fail CI."""
        _, active, metrics = injected
        (race,) = [f for f in active if f["rule"] == "REP-THREAD-ESCAPE"]
        assert race["path"].endswith("repro/obs/metrics.py")
        assert "'_COUNTERS'" in race["message"]
        assert "'count'" in race["message"]
        lines = metrics.read_text(encoding="utf-8").splitlines()
        unlocked = [
            number
            for number, line in enumerate(lines, start=1)
            if line.startswith("    _COUNTERS[name] = ")
        ]
        assert unlocked == [race["line"]]


class TestJobs:
    def test_jobs_other_than_one_is_a_usage_error(self, tmp_path):
        fixture = write_fixture(tmp_path, DIRTY)
        assert len(run_lint([fixture], jobs=1).active) == 1
        with pytest.raises(LintUsageError, match="jobs"):
            run_lint([fixture], jobs=2)
