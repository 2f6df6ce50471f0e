"""Unit tests for the interprocedural dataflow engine itself.

These exercise :mod:`repro.lint.dataflow` (intraprocedural field-
sensitive reads) and :mod:`repro.lint.readsets` (transitive summaries
over the call graph) directly, independent of any rule.
"""

from __future__ import annotations

import pytest

from repro.lint.callgraph import CallGraph
from repro.lint.dataflow import analyze_function
from repro.lint.readsets import ReadSetAnalysis
from repro.lint.scopes import ScopeTable

PKG = {"app/__init__.py": ""}


@pytest.fixture
def build(make_project):
    def _build(files):
        project = make_project({**PKG, **files})
        scopes = ScopeTable(project)
        return scopes, CallGraph(scopes)

    return _build


def read_paths(analysis, fn, param):
    summary = analysis.summary(fn)
    return sorted(event.path for event in summary.events(param))


class TestIntraprocedural:
    def test_field_reads_are_path_sensitive(self, build):
        scopes, graph = build(
            {
                "app/m.py": """\
                    def f(spec):
                        a = spec["model"]
                        return a["width"] + spec.fidelity
                """
            }
        )
        fa = analyze_function(graph.functions["app.m.f"])
        paths = sorted(event.path for event in fa.reads)
        assert paths == [("fidelity",), ("model", "width")]

    def test_alias_and_dict_copy_followed(self, build):
        scopes, graph = build(
            {
                "app/m.py": """\
                    def f(spec):
                        alias = spec
                        copied = dict(alias)
                        return copied.get("seed", 0)
                """
            }
        )
        fa = analyze_function(graph.functions["app.m.f"])
        assert [event.path for event in fa.reads] == [("seed",)]

    def test_whole_value_use_is_star_read(self, build):
        scopes, graph = build(
            {
                "app/m.py": """\
                    def f(spec):
                        sub = spec["link"]
                        return [*sub]
                """
            }
        )
        fa = analyze_function(graph.functions["app.m.f"])
        assert [event.path for event in fa.reads] == [("link",)]

    def test_builtin_call_flow_widens_in_summary(self, build):
        scopes, graph = build(
            {
                "app/m.py": """\
                    def f(spec):
                        return list(spec["link"])
                """
            }
        )
        fa = analyze_function(graph.functions["app.m.f"])
        assert fa.reads == []  # a flow into list(), not yet a read
        analysis = ReadSetAnalysis(graph)
        assert read_paths(analysis, graph.functions["app.m.f"], "spec") == [
            ("link",)
        ]

    def test_call_flow_recorded_not_read(self, build):
        scopes, graph = build(
            {
                "app/m.py": """\
                    def helper(x):
                        return x

                    def f(spec):
                        return helper(spec["train"])
                """
            }
        )
        fa = analyze_function(graph.functions["app.m.f"])
        assert fa.reads == []
        assert [(flow.path, flow.arg_index) for flow in fa.flows] == [
            (("train",), 0)
        ]


class TestTransitiveSummaries:
    def test_reads_reroot_through_callee(self, build):
        scopes, graph = build(
            {
                "app/m.py": """\
                    def leaf(cfg):
                        return cfg["seed"]

                    def f(spec):
                        return leaf(spec["train"])
                """
            }
        )
        analysis = ReadSetAnalysis(graph)
        assert read_paths(analysis, graph.functions["app.m.f"], "spec") == [
            ("train", "seed")
        ]

    def test_witness_location_is_the_deep_read(self, build):
        scopes, graph = build(
            {
                "app/helpers.py": """\
                    def leaf(cfg):
                        return cfg["seed"]
                """,
                "app/m.py": """\
                    from app.helpers import leaf

                    def f(spec):
                        return leaf(spec["train"])
                """,
            }
        )
        analysis = ReadSetAnalysis(graph)
        summary = analysis.summary(graph.functions["app.m.f"])
        (event,) = summary.events("spec")
        assert event.module == "app.helpers"
        assert event.fn_fq == "app.helpers.leaf"

    def test_unknown_callee_widens_to_flow_path(self, build):
        scopes, graph = build(
            {
                "app/m.py": """\
                    import json

                    def f(spec):
                        return json.dumps(spec["train"])
                """
            }
        )
        analysis = ReadSetAnalysis(graph)
        # json.dumps is external: assume it reads the whole subtree
        assert read_paths(analysis, graph.functions["app.m.f"], "spec") == [
            ("train",)
        ]

    def test_keyword_argument_maps_to_callee_param(self, build):
        scopes, graph = build(
            {
                "app/m.py": """\
                    def leaf(unused, cfg=None):
                        return cfg["lr"]

                    def f(spec):
                        return leaf(1, cfg=spec["train"])
                """
            }
        )
        analysis = ReadSetAnalysis(graph)
        assert read_paths(analysis, graph.functions["app.m.f"], "spec") == [
            ("train", "lr")
        ]

    def test_recursion_terminates_with_widening(self, build):
        scopes, graph = build(
            {
                "app/m.py": """\
                    def f(spec):
                        if spec.get("again"):
                            return f(spec["inner"])
                        return 0
                """
            }
        )
        analysis = ReadSetAnalysis(graph)
        paths = read_paths(analysis, graph.functions["app.m.f"], "spec")
        assert ("again",) in paths
        assert ("inner",) in paths  # the recursive flow widened, not hung

    def test_prefix_reads_dedupe(self, build):
        scopes, graph = build(
            {
                "app/m.py": """\
                    def f(spec):
                        whole = list(spec["model"])
                        return spec["model"]["width"], whole
                """
            }
        )
        analysis = ReadSetAnalysis(graph)
        # the subtree read at ("model",) subsumes ("model", "width")
        assert read_paths(analysis, graph.functions["app.m.f"], "spec") == [
            ("model",)
        ]
