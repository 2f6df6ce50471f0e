"""REP-FALSY-STORE: truthiness tests on ``__len__``-bearing objects.

PR 7 shipped three copies of the same latent bug: ``if self.cache:`` on
a store that defines ``__len__`` is False for an *empty* store, so code
that meant "is a cache configured?" silently skipped every get on cold
runs.  This rule generalizes the family: any bare truthiness test
(``if x:``, ``if not x:``, ``x and ...``, ``while x:``, ...) on a name
or attribute the analyzer can type to a project class that defines
``__len__`` (and no ``__bool__``) is ambiguous between identity and
emptiness — write ``x is not None`` or ``len(x) == 0`` instead.
"""

from __future__ import annotations

import ast

from repro.lint.findings import Finding, make_finding
from repro.lint.rules.base import LintContext, Rule, register
from repro.lint.scopes import ClassInfo, FunctionInfo


def _sized_classes(ctx: LintContext) -> "set[str]":
    """Project classes defining ``__len__`` but not ``__bool__``."""
    out: set[str] = set()
    for scope in ctx.scopes.scopes.values():
        for cls in scope.classes.values():
            mro = ctx.scopes.mro(cls)
            has_len = any("__len__" in klass.methods for klass in mro)
            has_bool = any("__bool__" in klass.methods for klass in mro)
            if has_len and not has_bool:
                out.add(cls.fq)
    return out


def _boolean_contexts(fn_node: ast.AST) -> "list[ast.expr]":
    """Expressions evaluated for truthiness inside ``fn_node``."""
    out: list[ast.expr] = []
    for node in ast.walk(fn_node):
        if isinstance(node, (ast.If, ast.While)):
            out.append(node.test)
        elif isinstance(node, ast.IfExp):
            out.append(node.test)
        elif isinstance(node, ast.Assert):
            out.append(node.test)
        elif isinstance(node, ast.BoolOp):
            out.extend(node.values)
        elif isinstance(node, ast.comprehension):
            out.extend(node.ifs)
    # Unwrap `not x` and collapse duplicates by identity.
    expanded: list[ast.expr] = []
    seen: set[int] = set()
    for expr in out:
        while isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.Not):
            expr = expr.operand
        if id(expr) not in seen:
            seen.add(id(expr))
            expanded.append(expr)
    return expanded


@register
class FalsyStoreRule(Rule):
    code = "REP-FALSY-STORE"
    summary = "truthiness test on a __len__-bearing object where identity is meant"

    def run(self, ctx: LintContext) -> "list[Finding]":
        sized = _sized_classes(ctx)
        if not sized:
            return []
        findings: list[Finding] = []
        for scope in ctx.scopes.scopes.values():
            for fn in scope.functions.values():
                findings.extend(self._check_function(ctx, fn, sized))
        return findings

    def _check_function(
        self, ctx: LintContext, fn: FunctionInfo, sized: "set[str]"
    ) -> "list[Finding]":
        locals_map = ctx.callgraph.local_bindings[fn.fq]
        attr_map = ctx.callgraph.self_bindings(fn)
        findings: list[Finding] = []
        for expr in _boolean_contexts(fn.node):
            cls: "ClassInfo | None" = None
            described = ""
            if isinstance(expr, ast.Name):
                cls = locals_map.get(expr.id)
                described = expr.id
            elif (
                isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
            ):
                cls = attr_map.get(expr.attr)
                described = f"self.{expr.attr}"
            if cls is None or cls.fq not in sized:
                continue
            findings.append(
                make_finding(
                    self.code,
                    fn.module,
                    expr.lineno,
                    expr.col_offset,
                    f"truthiness test on {described!r} ({cls.name} defines "
                    "__len__, so an empty instance is falsy); use "
                    f"'{described} is not None' for presence or an explicit "
                    "len() comparison for emptiness",
                )
            )
        return findings
