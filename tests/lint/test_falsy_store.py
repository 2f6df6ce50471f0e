"""REP-FALSY-STORE: truthiness on __len__-bearing objects."""

from __future__ import annotations

from collections import Counter

from repro.lint import LintConfig, callgraph, run_lint

STORE = """\
    class Store:
        def __init__(self):
            self.items = {}

        def __len__(self):
            return len(self.items)
"""

PKG = {"app/__init__.py": "", "app/store.py": STORE}


class TestFalsyStorePositive:
    def test_local_constructed_store(self, lint):
        files = dict(PKG)
        files["app/use.py"] = """\
            from app.store import Store


            def lookup(key):
                store = Store()
                if store:
                    return store.items.get(key)
                return None
        """
        result = lint(files, "REP-FALSY-STORE")
        assert len(result.active) == 1
        finding = result.active[0]
        assert finding.path.endswith("app/use.py")
        assert finding.line == 6
        assert "'store'" in finding.message
        assert "is not None" in finding.message

    def test_annotated_parameter(self, lint):
        files = dict(PKG)
        files["app/use.py"] = """\
            from app.store import Store


            def lookup(store: Store, key):
                if not store:
                    return None
                return store.items.get(key)
        """
        result = lint(files, "REP-FALSY-STORE")
        assert len(result.active) == 1
        assert result.active[0].line == 5

    def test_optional_annotation_still_flagged(self, lint):
        files = dict(PKG)
        files["app/use.py"] = """\
            from app.store import Store


            def lookup(store: "Store | None", key):
                return store.items.get(key) if store else None
        """
        result = lint(files, "REP-FALSY-STORE")
        assert len(result.active) == 1

    def test_self_attribute_bound_in_init(self, lint):
        files = dict(PKG)
        files["app/use.py"] = """\
            from app.store import Store


            class Engine:
                def __init__(self, store=None):
                    self.store = store if store is not None else Store()

                def get(self, key):
                    if self.store:
                        return self.store.items.get(key)
                    return None
        """
        result = lint(files, "REP-FALSY-STORE")
        assert len(result.active) == 1
        assert result.active[0].line == 9
        assert "'self.store'" in result.active[0].message

    def test_boolop_operand(self, lint):
        files = dict(PKG)
        files["app/use.py"] = """\
            from app.store import Store


            def any_cached(key):
                store = Store()
                return store and key in store.items
        """
        result = lint(files, "REP-FALSY-STORE")
        assert len(result.active) == 1


class TestFalsyStoreNegative:
    def test_identity_comparison_clean(self, lint):
        files = dict(PKG)
        files["app/use.py"] = """\
            from app.store import Store


            def lookup(store: Store, key):
                if store is not None:
                    return store.items.get(key)
                return None
        """
        result = lint(files, "REP-FALSY-STORE")
        assert result.active == []

    def test_len_comparison_clean(self, lint):
        files = dict(PKG)
        files["app/use.py"] = """\
            from app.store import Store


            def is_empty(store: Store):
                return len(store) == 0
        """
        result = lint(files, "REP-FALSY-STORE")
        assert result.active == []

    def test_class_with_bool_not_flagged(self, lint):
        files = {"app/__init__.py": ""}
        files["app/store.py"] = """\
            class Flagged:
                def __len__(self):
                    return 0

                def __bool__(self):
                    return True
        """
        files["app/use.py"] = """\
            from app.store import Flagged


            def check():
                flag = Flagged()
                if flag:
                    return 1
                return 0
        """
        result = lint(files, "REP-FALSY-STORE")
        assert result.active == []

    def test_untyped_name_not_flagged(self, lint):
        files = dict(PKG)
        files["app/use.py"] = """\
            def lookup(store, key):
                if store:
                    return store.get(key)
                return None
        """
        result = lint(files, "REP-FALSY-STORE")
        assert result.active == []


class TestBindingsComputedOnce:
    def test_full_pass_types_each_function_and_class_once(
        self, make_project, monkeypatch
    ):
        # REP-FALSY-STORE, the call graph and the escape inference all
        # read one table: a full pass types each function's locals and
        # each class's ``self.X`` once, however many methods share them
        local_calls: Counter = Counter()
        class_calls: Counter = Counter()
        real_local = callgraph.local_class_bindings
        real_class = callgraph.CallGraph._class_attr_bindings

        def counting_local(scopes, fn):
            local_calls[fn.fq] += 1
            return real_local(scopes, fn)

        def counting_class(graph, cls):
            class_calls[cls.fq] += 1
            return real_class(graph, cls)

        monkeypatch.setattr(callgraph, "local_class_bindings", counting_local)
        monkeypatch.setattr(
            callgraph.CallGraph, "_class_attr_bindings", counting_class
        )
        files = dict(PKG)
        files["app/use.py"] = """\
            from app.store import Store


            class Engine:
                def __init__(self):
                    self.store = Store()

                def get(self, key):
                    if self.store:
                        return self.store.items.get(key)
                    return None


            class FastEngine(Engine):
                def peek(self, key):
                    store = Store()
                    return self.store.items.get(key) if self.store else store
        """
        result = run_lint(project=make_project(files), config=LintConfig())
        falsy = [f for f in result.active if f.rule == "REP-FALSY-STORE"]
        # the subclass's finding needs the base class's ``self.store``
        assert [(f.path.split("/")[-1], f.line) for f in falsy] == [
            ("use.py", 9),
            ("use.py", 17),
        ]
        assert dict(local_calls) == {
            "app.store.Store.__init__": 1,
            "app.store.Store.__len__": 1,
            "app.use.Engine.__init__": 1,
            "app.use.Engine.get": 1,
            "app.use.FastEngine.peek": 1,
        }
        assert dict(class_calls) == {
            "app.store.Store": 1,
            "app.use.Engine": 1,
            "app.use.FastEngine": 1,
        }
