"""Shared mutation/lock modelling for the concurrency rules.

REP-PURE-TASK and REP-THREAD-ESCAPE both need the same three facts
about code: which module-level names hold mutable containers, which
names hold locks, and whether a given statement mutates a watched name
while (not) holding a lock.  This module owns that logic so the rules
stay small and agree on what "a mutation" is.
"""

from __future__ import annotations

import ast

from repro.lint.config import LOCK_NAME_HINTS
from repro.lint.scopes import FunctionInfo, ModuleScope, ScopeTable, dotted_name

#: Container methods that mutate the receiver in place.
MUTATORS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "pop",
        "popitem",
        "clear",
        "setdefault",
        "remove",
        "discard",
    }
)

MUTABLE_FACTORIES = frozenset(
    {
        "builtins.dict",
        "builtins.list",
        "builtins.set",
        "collections.defaultdict",
        "collections.OrderedDict",
        "collections.Counter",
        "collections.deque",
    }
)

LOCK_FACTORIES = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
    }
)


def is_mutable_literal(expr: ast.expr) -> bool:
    return isinstance(
        expr,
        (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp),
    )


def lockish_name(name: str) -> bool:
    lowered = name.lower()
    return any(hint in lowered for hint in LOCK_NAME_HINTS)


class ModuleFacts:
    """Mutable globals and lock names declared at module level."""

    def __init__(self, scopes: ScopeTable, scope: ModuleScope) -> None:
        self.mutable_globals: set[str] = set()
        self.locks: set[str] = set()
        for name, value in scope.module_assigns.items():
            if name.startswith("__"):
                continue
            if is_mutable_literal(value):
                self.mutable_globals.add(name)
                continue
            if isinstance(value, ast.Call):
                raw = dotted_name(value.func)
                fq = (
                    scopes.resolve_in_module(scope, raw)
                    if raw is not None
                    else None
                )
                if fq in MUTABLE_FACTORIES:
                    self.mutable_globals.add(name)
                elif fq in LOCK_FACTORIES or (
                    raw is not None and lockish_name(raw.split(".")[-1])
                ):
                    self.locks.add(name)
                elif lockish_name(name):
                    self.locks.add(name)


def guarded(with_stack: "list[ast.expr]", locks: "set[str]") -> bool:
    """True when any enclosing ``with`` item looks like a lock."""
    for expr in with_stack:
        name = dotted_name(expr)
        if name is None:
            continue
        last = name.split(".")[-1]
        if last in locks or lockish_name(last):
            return True
    return False


def global_rebinds(fn: FunctionInfo) -> "set[str]":
    """Names the function declares ``global`` (rebinding mutates them)."""
    out: set[str] = set()
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Global):
            out.update(node.names)
    return out


def walk_mutations(
    fn: FunctionInfo,
    watched: "set[str]",
    *,
    locks: "set[str]",
    self_attrs: bool = False,
):
    """Yield ``(node, name, action, guarded)`` for mutations of watched state.

    ``watched`` holds module-global names; with ``self_attrs`` the walk
    also reports mutation of any ``self.<attr>`` container (the name is
    then reported as ``"self.<attr>"``).  ``guarded`` reflects whether a
    lock-looking ``with`` block encloses the mutation.
    """
    rebindable = global_rebinds(fn)

    def root_name(target: ast.expr) -> "str | None":
        if isinstance(target, ast.Subscript):
            inner = target.value
            if isinstance(inner, ast.Name) and inner.id in watched:
                return inner.id
            if (
                self_attrs
                and isinstance(inner, ast.Attribute)
                and isinstance(inner.value, ast.Name)
                and inner.value.id == "self"
            ):
                return f"self.{inner.attr}"
        return None

    def visit(node: ast.AST, with_stack: "list[ast.expr]"):
        if isinstance(node, ast.With):
            items = [item.context_expr for item in node.items]
            for child in node.body:
                yield from visit(child, with_stack + items)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
            node is not fn.node
        ):
            return  # nested defs are analyzed as their own functions
        held = guarded(with_stack, locks)
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                root = root_name(target)
                if root is not None:
                    yield node, root, "item assignment", held
                elif isinstance(target, ast.Name) and target.id in rebindable:
                    yield node, target.id, "rebinding", held
                elif (
                    self_attrs
                    and isinstance(node, ast.AugAssign)
                    and isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    yield node, f"self.{target.attr}", "augmented assignment", held
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                root = root_name(target)
                if root is not None:
                    yield node, root, "item deletion", held
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in MUTATORS:
                owner = func.value
                if isinstance(owner, ast.Name) and owner.id in watched:
                    yield node, owner.id, f".{func.attr}() mutation", held
                elif (
                    self_attrs
                    and isinstance(owner, ast.Attribute)
                    and isinstance(owner.value, ast.Name)
                    and owner.value.id == "self"
                ):
                    yield (
                        node,
                        f"self.{owner.attr}",
                        f".{func.attr}() mutation",
                        held,
                    )
        for child in ast.iter_child_nodes(node):
            yield from visit(child, with_stack)

    for stmt in fn.node.body:
        yield from visit(stmt, [])


def global_reads(fn: FunctionInfo, watched: "set[str]"):
    """Yield ``(node, name)`` for loads of watched module-global names."""
    for node in ast.walk(fn.node):
        if (
            isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)
            and node.id in watched
        ):
            yield node, node.id
