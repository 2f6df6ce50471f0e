"""Thread-escape inference: which functions run on a callback thread.

A function is ``callback-shared`` when it is reachable from a callable
registered as a completion callback (``future.add_done_callback(f)``)
or handed to a coordinator-side thread (``threading.Thread(target=f)``,
``threading.Timer(_, f)``).  Such functions run concurrently with the
coordinator inside the same process, so every module-level or instance
attribute they mutate is shared state.  Everything else is
single-threaded coordinator code.

Seeds are inferred from the registration sites — no hand-configured
module lists.  Seed discovery leans on the call graph's
indirect-reference resolution, so ``self._on_done`` method references
and ``lambda f: handler(f)`` wrappers both seed correctly.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.callgraph import CallGraph
from repro.lint.config import CALLBACK_REGISTER_ATTRS, THREAD_FACTORIES
from repro.lint.scopes import FunctionInfo, dotted_name


@dataclass
class EscapeLattice:
    """The callback-shared functions and the seeds that share them."""

    #: fq -> predecessor fq on a path from a callback seed (BFS tree)
    callback_shared: dict[str, "str | None"] = field(default_factory=dict)
    #: seed fq -> human-readable registration site ("module:line")
    callback_seeds: dict[str, str] = field(default_factory=dict)

    def chain(self, graph: CallGraph, fq: str) -> "list[str]":
        """Root-first path from the callback seed that shares ``fq``."""
        return graph.chain(self.callback_shared, fq)


def build_escape_lattice(graph: CallGraph) -> EscapeLattice:
    """Infer callback seeds from registration sites and close over calls."""
    lattice = EscapeLattice()
    for fn in graph.functions.values():
        for target, node in _seed_sites(graph, fn):
            lattice.callback_seeds.setdefault(
                target.fq, f"{fn.module.name}:{node.lineno}"
            )
    lattice.callback_shared = graph.reachable_from(sorted(lattice.callback_seeds))
    return lattice


def _seed_sites(graph: CallGraph, fn: FunctionInfo):
    """(target function, registration node) pairs in ``fn``."""
    scope = graph.scopes.scope_of(fn.module)
    bindings = graph.local_bindings[fn.fq]
    for node in ast.walk(fn.node):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        candidates: "list[ast.expr]" = []
        if isinstance(func, ast.Attribute):
            if func.attr in CALLBACK_REGISTER_ATTRS and node.args:
                candidates.append(node.args[0])
        raw = dotted_name(func)
        if raw is not None:
            fq = graph.scopes.resolve_in_module(scope, raw, fn.local_imports)
            if fq in THREAD_FACTORIES:
                for kw in node.keywords:
                    if kw.arg in ("target", "function"):
                        candidates.append(kw.value)
                if len(node.args) >= 2:  # threading.Timer(interval, function)
                    candidates.append(node.args[1])
        for expr in candidates:
            target = _resolve_callable(graph, fn, scope, bindings, expr)
            if target is not None:
                yield target, node


def _resolve_callable(graph, fn, scope, bindings, expr) -> "FunctionInfo | None":
    """The project function a callback expression designates, if any."""
    if isinstance(expr, ast.Lambda):
        # `lambda f: handler(f)` — classify what the wrapper invokes
        body = expr.body
        if isinstance(body, ast.Call):
            return _resolve_callable(graph, fn, scope, bindings, body.func)
        return None
    if isinstance(expr, ast.Call):
        # functools.partial(handler, ...) freezes args around `handler`
        raw = dotted_name(expr.func)
        fq = (
            graph.scopes.resolve_in_module(scope, raw, fn.local_imports)
            if raw is not None
            else None
        )
        if fq == "functools.partial" and expr.args:
            return _resolve_callable(graph, fn, scope, bindings, expr.args[0])
        return None
    if not isinstance(expr, (ast.Name, ast.Attribute)):
        return None
    raw = dotted_name(expr)
    if raw is None:
        return None
    head, _, rest = raw.partition(".")
    if head == "self" and fn.class_name is not None and rest and "." not in rest:
        own = scope.classes.get(fn.class_name)
        if own is not None:
            return graph.scopes.resolve_method(own, rest)
        return None
    if head in bindings and rest and "." not in rest:
        return graph.scopes.resolve_method(bindings[head], rest)
    fq = graph.scopes.resolve_in_module(scope, raw, fn.local_imports)
    if fq is None:
        return None
    return graph.scopes.resolve_function(fq)
