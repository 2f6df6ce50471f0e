"""REP-THREAD-ESCAPE's declared-lock trigger: a module that declares a
lock must mutate its module-level state under it."""

from __future__ import annotations

PKG = {"app/__init__.py": ""}


class TestUnlockedGlobalPositive:
    def test_item_assignment_outside_lock(self, lint):
        files = dict(PKG)
        files["app/registry.py"] = """\
            import threading

            _LOCK = threading.Lock()
            _REGISTRY = {}


            def record(name, value):
                _REGISTRY[name] = value
        """
        result = lint(files, "REP-THREAD-ESCAPE")
        assert len(result.active) == 1
        finding = result.active[0]
        assert finding.line == 8
        assert "_REGISTRY" in finding.message
        assert "record" in finding.message

    def test_mutator_method_outside_lock(self, lint):
        files = dict(PKG)
        files["app/registry.py"] = """\
            import threading

            _LOCK = threading.Lock()
            _SEEN = set()


            def mark(name):
                _SEEN.add(name)
        """
        result = lint(files, "REP-THREAD-ESCAPE")
        assert len(result.active) == 1
        assert ".add() mutation" in result.active[0].message

    def test_global_rebind_outside_lock(self, lint):
        files = dict(PKG)
        files["app/registry.py"] = """\
            import threading

            _LOCK = threading.Lock()
            _STATE = {}
            _COUNT = 0


            def bump():
                global _COUNT
                _COUNT = _COUNT + 1
        """
        result = lint(files, "REP-THREAD-ESCAPE")
        assert len(result.active) == 1
        assert "rebinding" in result.active[0].message


class TestUnlockedGlobalNegative:
    def test_mutation_under_lock_clean(self, lint):
        files = dict(PKG)
        files["app/registry.py"] = """\
            import threading

            _LOCK = threading.Lock()
            _REGISTRY = {}


            def record(name, value):
                with _LOCK:
                    _REGISTRY[name] = value
        """
        result = lint(files, "REP-THREAD-ESCAPE")
        assert result.active == []

    def test_unexposed_module_clean(self, lint):
        files = dict(PKG)
        files["app/plain.py"] = """\
            _MEMO = {}


            def remember(key, value):
                _MEMO[key] = value
        """
        # No lock declared and no callback path: single-threaded.
        result = lint(files, "REP-THREAD-ESCAPE")
        assert result.active == []

    def test_unexposed_module_global_rebind_clean(self, lint):
        files = dict(PKG)
        files["app/tracer.py"] = """\
            _ACTIVE = None


            def install(tracer):
                global _ACTIVE
                _ACTIVE = tracer
        """
        # The install-a-hook pattern: a scalar global rebound in a module
        # with no lock and no callback path is not a race.
        result = lint(files, "REP-THREAD-ESCAPE")
        assert result.active == []

    def test_local_variable_mutation_clean(self, lint):
        files = dict(PKG)
        files["app/registry.py"] = """\
            import threading

            _LOCK = threading.Lock()
            _REGISTRY = {}


            def build():
                scratch = {}
                scratch["x"] = 1
                scratch.update({"y": 2})
                return scratch
        """
        result = lint(files, "REP-THREAD-ESCAPE")
        assert result.active == []
