"""REP-GETSTATE-CACHE: shipped classes must strip transient caches.

Models and quantizers cross IPC inline, by pickle: a SplitBeam chain
task carries its STA's whole ladder in its parameters.  A layer that
stashes forward activations in ``self._cached_*`` (or
``_cache``/``_scratch``/``_mask``) and fails to drop them in
``__getstate__`` pickles them too, so a leaked activation cache bloats
every chain message, and the same weights pickle to different bytes
before and after a forward pass.

Detection is by convention plus registry: every project subclass of a
registered shipped base (``repro.nn.module.Module``) — and every class
explicitly listed as shipped — must have a ``__getstate__`` somewhere
in its project MRO whose body demonstrably covers each transient-named
attribute the class assigns, either exactly (``state.pop("_mask")``,
``state["_mask"] = None``, ``key == "_mask"``) or by prefix
(``key.startswith("_cached")``).
"""

from __future__ import annotations

import ast

from repro.lint.config import TRANSIENT_EXACT, TRANSIENT_PREFIXES
from repro.lint.findings import Finding, make_finding
from repro.lint.rules.base import LintContext, Rule, register
from repro.lint.scopes import ClassInfo, FunctionInfo


def _transient_attrs(cls: ClassInfo) -> "dict[str, tuple[FunctionInfo, int, int]]":
    """Transient-named ``self.X`` assignments in this class's own methods."""
    out: dict[str, tuple[FunctionInfo, int, int]] = {}
    for method in cls.methods.values():
        for node in ast.walk(method.node):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                name = target.attr
                matches = name in TRANSIENT_EXACT or any(
                    name.startswith(prefix) for prefix in TRANSIENT_PREFIXES
                )
                if matches and name not in out:
                    out[name] = (method, target.lineno, target.col_offset)
    return out


def _getstate_coverage(
    ctx: LintContext, cls: ClassInfo
) -> "tuple[bool, set[str], set[str]]":
    """(has __getstate__, exactly-covered names, covered prefixes) over the MRO."""
    exact: set[str] = set()
    prefixes: set[str] = set()
    found = False
    for klass in ctx.scopes.mro(cls):
        method = klass.methods.get("__getstate__")
        if method is None:
            continue
        found = True
        for node in ast.walk(method.node):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                continue
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute):
                    # state.pop("name") / state.startswith("prefix") via key
                    if func.attr == "pop" and node.args:
                        literal = _str_literal(node.args[0])
                        if literal is not None:
                            exact.add(literal)
                    elif func.attr == "startswith" and node.args:
                        literal = _str_literal(node.args[0])
                        if literal is not None:
                            prefixes.add(literal)
            elif isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                for operand in operands:
                    literal = _str_literal(operand)
                    if literal is not None:
                        exact.add(literal)
            elif isinstance(node, (ast.Assign, ast.Delete)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else node.targets
                )
                for target in targets:
                    if isinstance(target, ast.Subscript):
                        literal = _str_literal(target.slice)
                        if literal is not None:
                            exact.add(literal)
    return found, exact, prefixes


def _str_literal(node: ast.expr) -> "str | None":
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


@register
class GetstateCacheRule(Rule):
    code = "REP-GETSTATE-CACHE"
    summary = "shipped class whose __getstate__ leaks transient cache attrs"

    def run(self, ctx: LintContext) -> "list[Finding]":
        shipped_roots = set(ctx.config.shipped_bases)
        shipped = {
            cls.fq: cls for cls in ctx.scopes.subclasses_of(shipped_roots)
        }
        for fq in ctx.config.shipped_classes:
            cls = ctx.scopes.resolve_class(fq)
            if cls is not None:
                shipped[cls.fq] = cls
        findings: list[Finding] = []
        for fq in sorted(shipped):
            cls = shipped[fq]
            transients = _transient_attrs(cls)
            if not transients:
                continue
            has_getstate, exact, prefixes = _getstate_coverage(ctx, cls)
            for name in sorted(transients):
                method, lineno, col = transients[name]
                covered = has_getstate and (
                    name in exact
                    or any(name.startswith(prefix) for prefix in prefixes)
                )
                if covered:
                    continue
                reason = (
                    "no __getstate__ in its MRO"
                    if not has_getstate
                    else "__getstate__ does not strip it"
                )
                findings.append(
                    make_finding(
                        self.code,
                        method.module,
                        lineno,
                        col,
                        f"transient attribute {name!r} on shipped class "
                        f"{cls.name} survives pickling ({reason}); pickled "
                        "bytes will differ before vs after a forward pass, "
                        "and every message that ships the model carries "
                        "the cache",
                    )
                )
        return findings
