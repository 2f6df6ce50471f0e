"""REP-HASH-INPUT: cosmetic fields must not feed content addresses.

``task_key`` hashes a canonical spec into the cache address.  Display
labels, titles, and descriptions are cosmetic — two points differing
only in label must share a cache entry (PR 2 established that contract)
— so a spec dict that still carries ``"label"``/``"name"``-style keys
when it reaches key construction either fragments the cache or, worse,
makes byte-identity depend on how a point happens to be titled.

Detection is one-level dataflow: a call to a registered key function is
flagged when its spec argument is (or was assigned, in the same
function, from) a dict literal or ``dict(...)`` call containing a
cosmetic key at any literal nesting depth.
"""

from __future__ import annotations

import ast

from repro.lint.config import COSMETIC_KEYS
from repro.lint.findings import Finding, make_finding
from repro.lint.rules.base import LintContext, Rule, register
from repro.lint.scopes import FunctionInfo, dotted_name


def _cosmetic_keys_in(expr: ast.expr) -> "list[tuple[str, int, int]]":
    """Cosmetic string keys anywhere inside a literal dict expression."""
    out: list[tuple[str, int, int]] = []
    for node in ast.walk(expr):
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if (
                    isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                    and key.value in COSMETIC_KEYS
                ):
                    out.append((key.value, key.lineno, key.col_offset))
        elif isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name == "dict" or (name or "").endswith(".dict"):
                for keyword in node.keywords:
                    if keyword.arg in COSMETIC_KEYS:
                        out.append(
                            (keyword.arg, keyword.value.lineno, keyword.value.col_offset)
                        )
    return out


def _local_dict_assignments(fn: FunctionInfo) -> "dict[str, ast.expr]":
    out: dict[str, ast.expr] = {}
    for node in ast.walk(fn.node):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
        ):
            out[node.targets[0].id] = node.value
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if node.value is not None:
                out[node.target.id] = node.value
    return out


@register
class HashInputRule(Rule):
    code = "REP-HASH-INPUT"
    summary = "cosmetic/display field flows into content-address construction"

    def run(self, ctx: LintContext) -> "list[Finding]":
        key_functions = set(ctx.config.key_functions)
        findings: list[Finding] = []
        graph = ctx.callgraph
        for fq, sites in sorted(graph.calls.items()):
            fn = graph.functions[fq]
            local_dicts: "dict[str, ast.expr] | None" = None
            for site in sites:
                if site.target_fq not in key_functions:
                    continue
                spec_arg = self._spec_argument(site.node)
                if spec_arg is None:
                    continue
                if isinstance(spec_arg, ast.Name):
                    if local_dicts is None:
                        local_dicts = _local_dict_assignments(fn)
                    spec_arg = local_dicts.get(spec_arg.id, spec_arg)
                for key, lineno, col in _cosmetic_keys_in(spec_arg):
                    findings.append(
                        make_finding(
                            self.code,
                            fn.module,
                            lineno,
                            col,
                            f"cosmetic field {key!r} reaches "
                            f"{site.raw}() inside {fn.qualname!r}; display "
                            "fields must be stripped before key "
                            "construction or equal work will hash to "
                            "different content addresses",
                        )
                    )
        return findings

    @staticmethod
    def _spec_argument(call: ast.Call) -> "ast.expr | None":
        if call.args:
            return call.args[0]
        for keyword in call.keywords:
            if keyword.arg == "spec":
                return keyword.value
        return None
