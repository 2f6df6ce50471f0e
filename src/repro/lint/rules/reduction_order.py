"""REP-REDUCTION-ORDER: float accumulation over an unordered iteration.

Float addition is not associative: summing the same values in a
different order changes the low-order bits of the result.  Set
iteration order depends on ``PYTHONHASHSEED`` (for strings) and on
insertion history; ``os.listdir``/``glob.glob`` order depends on the
filesystem.  A task that accumulates floats over such an ordering can
therefore produce different result bytes for the same parameter
mapping — breaking the bit-identity contract the cache and the
``repro verify`` gate rely on.

Flagged, when reachable from a task root:

* ``sum(...)`` whose operand iterates a set literal/comprehension,
  ``set()``/``frozenset()`` call, an unordered filesystem call
  (``os.listdir``, ``glob.glob``, ``Path.iterdir`` ...), or a
  comprehension driven by one of those;
* ``acc += <float expr>`` inside a ``for`` loop over such an iterable.

Not flagged: clearly integral accumulation (int constants, ``len()``,
``//``) — integer addition is associative; iteration wrapped in
``sorted(...)``; and ``math.fsum``, whose compensated summation is
order-independent.
"""

from __future__ import annotations

import ast

from repro.lint.config import ORDER_SAFE_CALLS, UNORDERED_ATTRS, UNORDERED_CALLS
from repro.lint.findings import Finding, make_finding
from repro.lint.rules.base import LintContext, Rule, register, task_roots
from repro.lint.scopes import FunctionInfo

_SET_FACTORIES = frozenset({"builtins.set", "builtins.frozenset"})
_INTEGRAL_CALLS = frozenset({"len", "int", "ord", "count", "index"})


@register
class ReductionOrderRule(Rule):
    code = "REP-REDUCTION-ORDER"
    summary = "float accumulation over an unordered iteration order"

    def run(self, ctx: LintContext) -> "list[Finding]":
        roots = task_roots(ctx)
        if not roots:
            return []
        graph = ctx.callgraph
        predecessor = graph.reachable_from(roots)
        findings: list[Finding] = []
        for fq in sorted(predecessor):
            fn = graph.functions.get(fq)
            if fn is None:
                continue
            chain = tuple(graph.chain(predecessor, fq))
            findings.extend(self._check_fn(ctx, fn, chain))
        return findings

    def _check_fn(
        self, ctx: LintContext, fn: FunctionInfo, chain: "tuple[str, ...]"
    ) -> "list[Finding]":
        sites = {
            id(site.node): site.target_fq
            for site in ctx.callgraph.calls.get(fn.fq, ())
            if not site.indirect and site.target_fq is not None
        }
        assigns: dict[str, ast.expr] = {}
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    assigns[target.id] = node.value

        def unordered(expr: ast.expr, depth: int = 0) -> "str | None":
            """A description of why ``expr`` iterates unordered, or None."""
            if depth > 4:
                return None
            if isinstance(expr, (ast.Set, ast.SetComp)):
                return "a set"
            if isinstance(expr, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                if expr.generators:
                    return unordered(expr.generators[0].iter, depth + 1)
                return None
            if isinstance(expr, ast.Call):
                target = sites.get(id(expr))
                if target in ORDER_SAFE_CALLS:
                    return None
                if target == "builtins.sorted":
                    return None
                if target in _SET_FACTORIES:
                    return "set()"
                if target in UNORDERED_CALLS:
                    return f"{target}()"
                if (
                    isinstance(expr.func, ast.Attribute)
                    and expr.func.attr in UNORDERED_ATTRS
                ):
                    return f".{expr.func.attr}()"
                return None
            if isinstance(expr, ast.Name) and expr.id in assigns:
                value = assigns[expr.id]
                if value is not expr:
                    return unordered(value, depth + 1)
            return None

        findings: list[Finding] = []
        root_name = chain[0].split(".")[-1] if chain else fn.qualname

        def emit(node: ast.AST, what: str, source: str) -> None:
            findings.append(
                make_finding(
                    self.code,
                    fn.module,
                    node.lineno,
                    node.col_offset,
                    f"{what} over {source} in {fn.qualname!r} (reachable "
                    f"from task root {root_name!r}); float addition is not "
                    "associative, so the unordered iteration changes result "
                    "bits across runs — iterate sorted(...) or use "
                    "math.fsum",
                    chain=chain,
                )
            )

        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call) and sites.get(id(node)) == "builtins.sum":
                if not node.args:
                    continue
                operand = node.args[0]
                source = unordered(operand)
                if source is None:
                    continue
                if isinstance(
                    operand, (ast.GeneratorExp, ast.ListComp)
                ) and _integral(operand.elt):
                    continue
                emit(node, "sum()", source)
            elif isinstance(node, ast.For):
                source = unordered(node.iter)
                if source is None:
                    continue
                for stmt in ast.walk(node):
                    if (
                        isinstance(stmt, ast.AugAssign)
                        and isinstance(stmt.op, ast.Add)
                        and isinstance(stmt.target, ast.Name)
                        and not _integral(stmt.value)
                    ):
                        emit(stmt, "'+=' accumulation", source)
        return findings


def _integral(expr: ast.expr) -> bool:
    """Conservatively true when the value is clearly an int."""
    if isinstance(expr, ast.Constant):
        return isinstance(expr.value, int) and not isinstance(expr.value, bool)
    if isinstance(expr, ast.Call):
        func = expr.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        return name in _INTEGRAL_CALLS
    if isinstance(expr, ast.BinOp):
        if isinstance(expr.op, ast.Div):
            return False
        return _integral(expr.left) and _integral(expr.right)
    if isinstance(expr, ast.UnaryOp):
        return _integral(expr.operand)
    return False
