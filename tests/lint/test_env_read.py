"""REP-ENV-READ: os.environ access outside the sanctioned knobs module."""

from __future__ import annotations

from repro.lint import LintConfig
from repro.lint.rules.base import LintContext
from repro.lint.rules.env_read import EnvReadRule
from repro.lint.scopes import ScopeTable

PKG = {"app/__init__.py": ""}


class TestEnvReadPositive:
    def test_environ_get_flagged_exactly_once(self, lint):
        files = dict(PKG)
        files["app/config.py"] = """\
            import os


            def workers():
                return int(os.environ.get("APP_WORKERS", "1"))
        """
        result = lint(
            files, "REP-ENV-READ", sanctioned_env_modules=("app.knobs",)
        )
        # The attribute chain os.environ.get must not double-count.
        assert len(result.active) == 1
        finding = result.active[0]
        assert finding.line == 5
        assert "os.environ" in finding.message
        assert "app.knobs" in finding.message

    def test_getenv_flagged(self, lint):
        files = dict(PKG)
        files["app/config.py"] = """\
            import os


            def root():
                return os.getenv("APP_ROOT")
        """
        result = lint(
            files, "REP-ENV-READ", sanctioned_env_modules=("app.knobs",)
        )
        assert len(result.active) == 1

    def test_aliased_import_still_caught(self, lint):
        files = dict(PKG)
        files["app/config.py"] = """\
            from os import environ


            def root():
                return environ.get("APP_ROOT")
        """
        result = lint(
            files, "REP-ENV-READ", sanctioned_env_modules=("app.knobs",)
        )
        assert len(result.active) == 1


class TestEnvReadNegative:
    def test_sanctioned_module_clean(self, lint):
        files = dict(PKG)
        files["app/knobs.py"] = """\
            import os


            def read_knob(name, default=None):
                return os.environ.get(name, default)
        """
        result = lint(
            files, "REP-ENV-READ", sanctioned_env_modules=("app.knobs",)
        )
        assert result.active == []

    def test_unrelated_os_usage_clean(self, lint):
        files = dict(PKG)
        files["app/paths.py"] = """\
            import os


            def join(a, b):
                return os.path.join(a, b)
        """
        result = lint(
            files, "REP-ENV-READ", sanctioned_env_modules=("app.knobs",)
        )
        assert result.active == []


class TestEnvReadResolution:
    """The rule resolves only chains whose root name is bound from ``os``."""

    def test_module_without_os_binding_resolves_nothing(
        self, make_project, monkeypatch
    ):
        files = dict(PKG)
        files["app/model.py"] = """\
            import numpy as np
            from app import helpers


            def forward(x):
                return np.tanh(helpers.scale.value * x)
        """
        files["app/config.py"] = """\
            import os
            import numpy as np


            def root():
                return os.environ.get("APP_ROOT"), np.linalg.norm
        """
        ctx = LintContext(
            project=make_project(files),
            config=LintConfig(sanctioned_env_modules=("app.knobs",)),
        )
        ctx.scopes  # built before the spy: only the rule's calls count
        calls = []
        resolve = ScopeTable.resolve_in_module

        def spy(self, scope, dotted, local_imports=None):
            calls.append((scope.module.name, dotted))
            return resolve(self, scope, dotted, local_imports)

        monkeypatch.setattr(ScopeTable, "resolve_in_module", spy)
        findings = EnvReadRule().run(ctx)
        assert [(f.line, f.col) for f in findings] == [(6, 11)]
        assert calls, "the os-bound chain was never resolved"
        assert {module for module, _ in calls} == {"app.config"}
        assert {dotted.split(".")[0] for _, dotted in calls} == {"os"}
