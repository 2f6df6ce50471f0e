"""Inline suppressions, fingerprints, and the committed baseline."""

from __future__ import annotations

import tokenize

from repro.lint import Baseline, LintConfig, run_lint

ENV_FILES = {
    "app/__init__.py": "",
    "app/config.py": """\
import os


def root():
    return os.environ.get("APP_ROOT")
""",
}

SANCTIONED = {"sanctioned_env_modules": ("app.knobs",)}


def _write(tmp_path, files):
    for rel, source in files.items():
        dest = tmp_path / rel
        dest.parent.mkdir(parents=True, exist_ok=True)
        dest.write_text(source, encoding="utf-8")
    return tmp_path


class TestSuppressions:
    def test_same_line_comment(self, lint):
        files = dict(ENV_FILES)
        files["app/config.py"] = (
            "import os\n\n\ndef root():\n"
            "    return os.environ.get('APP_ROOT')"
            "  # repro: allow[REP-ENV-READ]\n"
        )
        result = lint(files, "REP-ENV-READ", **SANCTIONED)
        assert result.active == []
        assert result.n_suppressed == 1

    def test_comment_only_line_covers_next_line(self, lint):
        files = dict(ENV_FILES)
        files["app/config.py"] = (
            "import os\n\n\ndef root():\n"
            "    # repro: allow[REP-ENV-READ]\n"
            "    return os.environ.get('APP_ROOT')\n"
        )
        result = lint(files, "REP-ENV-READ", **SANCTIONED)
        assert result.active == []
        assert result.n_suppressed == 1

    def test_wrong_code_does_not_suppress(self, lint):
        files = dict(ENV_FILES)
        files["app/config.py"] = (
            "import os\n\n\ndef root():\n"
            "    return os.environ.get('APP_ROOT')"
            "  # repro: allow[REP-NONDET]\n"
        )
        result = lint(files, "REP-ENV-READ", **SANCTIONED)
        assert len(result.active) == 1

    def test_star_suppresses_everything(self, lint):
        files = dict(ENV_FILES)
        files["app/config.py"] = (
            "import os\n\n\ndef root():\n"
            "    return os.environ.get('APP_ROOT')  # repro: allow[*]\n"
        )
        result = lint(files, "REP-ENV-READ", **SANCTIONED)
        assert result.active == []

    def test_comment_inside_string_is_not_a_suppression(self, lint):
        files = dict(ENV_FILES)
        files["app/config.py"] = (
            "import os\n\nNOTE = '# repro: allow[REP-ENV-READ]'\n\n\n"
            "def root():\n    return os.environ.get('APP_ROOT')\n"
        )
        result = lint(files, "REP-ENV-READ", **SANCTIONED)
        assert len(result.active) == 1

    def test_marker_free_source_is_never_tokenized(self, lint, monkeypatch):
        # Most modules carry no suppression; tokenizing them all made
        # loading the largest part of a lint pass.
        def forbidden(*args, **kwargs):
            raise AssertionError("a marker-free source was tokenized")

        monkeypatch.setattr(tokenize, "generate_tokens", forbidden)
        result = lint(ENV_FILES, "REP-ENV-READ", **SANCTIONED)
        assert len(result.active) == 1
        assert result.n_suppressed == 0


class TestBaseline:
    def test_baselined_findings_do_not_fail(self, tmp_path, make_project):
        project = make_project(ENV_FILES)
        config = LintConfig(**SANCTIONED)
        first = run_lint(project=project, config=config, rules=["REP-ENV-READ"])
        assert first.exit_code == 1

        baseline_path = tmp_path / "baseline.json"
        Baseline.write(baseline_path, first.findings)
        baseline = Baseline.load(baseline_path)
        second = run_lint(
            project=project,
            config=config,
            rules=["REP-ENV-READ"],
            baseline=baseline,
        )
        assert second.exit_code == 0
        assert second.n_baselined == 1

    def test_new_finding_not_covered_by_old_baseline(
        self, tmp_path, make_project
    ):
        project = make_project(ENV_FILES)
        config = LintConfig(**SANCTIONED)
        first = run_lint(project=project, config=config, rules=["REP-ENV-READ"])
        baseline_path = tmp_path / "baseline.json"
        Baseline.write(baseline_path, first.findings)

        grown = dict(ENV_FILES)
        grown["app/config.py"] += (
            "\n\ndef other():\n    return os.getenv('APP_OTHER')\n"
        )
        fresh_dir = tmp_path / "fresh"
        _write(fresh_dir, grown)
        from repro.lint import load_project

        project2 = load_project([fresh_dir])
        result = run_lint(
            project=project2,
            config=config,
            rules=["REP-ENV-READ"],
            baseline=Baseline.load(baseline_path),
        )
        # The original site is grandfathered; the new one still fails.
        assert result.n_baselined == 1
        assert len(result.active) == 1
        assert "os.getenv" in result.active[0].message

    def test_missing_baseline_file_is_empty(self, tmp_path):
        baseline = Baseline.load(tmp_path / "does-not-exist.json")
        assert baseline.fingerprints == set()


class TestFingerprints:
    def test_stable_across_line_insertion_above(self, tmp_path):
        from repro.lint import load_project

        config = LintConfig(**SANCTIONED)
        a_dir = _write(tmp_path / "a", ENV_FILES)
        shifted = dict(ENV_FILES)
        shifted["app/config.py"] = (
            "import os\n\nPADDING = 1\nMORE = 2\n\n\ndef root():\n"
            "    return os.environ.get(\"APP_ROOT\")\n"
        )
        b_dir = _write(tmp_path / "b", shifted)

        fp_a = [
            f.fingerprint
            for f in run_lint(
                project=load_project([a_dir]), config=config,
                rules=["REP-ENV-READ"],
            ).findings
        ]
        fp_b = [
            f.fingerprint
            for f in run_lint(
                project=load_project([b_dir]), config=config,
                rules=["REP-ENV-READ"],
            ).findings
        ]
        assert fp_a == fp_b

    def test_editing_flagged_line_changes_fingerprint(self, tmp_path):
        from repro.lint import load_project

        config = LintConfig(**SANCTIONED)
        a_dir = _write(tmp_path / "a", ENV_FILES)
        edited = dict(ENV_FILES)
        edited["app/config.py"] = edited["app/config.py"].replace(
            "APP_ROOT", "APP_HOME"
        )
        b_dir = _write(tmp_path / "b", edited)

        fp_a = run_lint(
            project=load_project([a_dir]), config=config, rules=["REP-ENV-READ"]
        ).findings[0].fingerprint
        fp_b = run_lint(
            project=load_project([b_dir]), config=config, rules=["REP-ENV-READ"]
        ).findings[0].fingerprint
        assert fp_a != fp_b
