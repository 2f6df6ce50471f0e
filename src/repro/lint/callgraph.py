"""Best-effort call-graph construction and lightweight type inference.

Resolution is deliberately conservative: a call the analyzer cannot
attribute to a project function or a known external name is ignored
rather than guessed at.  That keeps findings precise (no speculative
noise) at the cost of missing exotic dispatch — acceptable for a linter
whose job is catching the boring, common ways determinism breaks.

What *is* modelled, because the runtime code actually uses it:

- plain calls and dotted calls through module imports (incl. aliases
  and imports that happen inside function bodies);
- ``self.method()`` through the project MRO, and ``super().method()``;
- ``obj.method()`` where ``obj`` is a local assigned from a project
  class constructor earlier in the function (``link = LinkSimulator(c);
  link.measure_ber(...)``);
- ``ClassName(args).method()`` chained constructor calls;
- constructor calls edge into ``__init__``;
- *indirect references*: a bare function or method passed as a call
  argument (``functools.partial(time.time)``, ``callback=self._on_done``,
  ``executor.submit(run_chunk, payload)``) records a call site — and a
  project edge — as if the reference were invoked, because callbacks
  eventually are.  Bare class references (``isinstance(x, LinkConfig)``)
  and locally-bound data names are excluded to keep the graph quiet.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass

from repro.lint.scopes import (
    ClassInfo,
    FunctionInfo,
    ModuleScope,
    ScopeTable,
    dotted_name,
)


@dataclass
class CallSite:
    """One call expression inside a function."""

    caller: FunctionInfo
    node: ast.Call
    raw: str  # the dotted text as written, best effort
    target_fq: "str | None"  # fully-qualified resolution, None if unknown
    target_fn: "FunctionInfo | None"  # set when it lands on project code
    #: True when the target was *referenced* (passed as an argument,
    #: e.g. a callback) rather than called directly at this site.
    indirect: bool = False

    @property
    def lineno(self) -> int:
        return self.node.lineno

    @property
    def col(self) -> int:
        return self.node.col_offset


def _locally_bound_names(
    node: "ast.FunctionDef | ast.AsyncFunctionDef",
) -> "set[str]":
    """Names bound inside the function: params, assignments, nested defs.

    Used to keep indirect-reference resolution quiet: a local variable
    that shadows a module-level name must not resolve as a reference to
    the module-level thing.
    """
    args = node.args
    names = {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]}
    for vararg in (args.vararg, args.kwarg):
        if vararg is not None:
            names.add(vararg.arg)
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store):
            names.add(child.id)
        elif isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ) and child is not node:
            names.add(child.name)
        elif isinstance(child, ast.ExceptHandler) and child.name:
            names.add(child.name)
    return names


def annotation_classes(
    scopes: ScopeTable,
    scope: ModuleScope,
    ann: "ast.expr | None",
    local_imports: "dict[str, str] | None" = None,
) -> list[ClassInfo]:
    """Project classes named in a (possibly string / optional) annotation."""
    if ann is None:
        return []
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        try:
            ann = ast.parse(ann.value, mode="eval").body
        except SyntaxError:
            return []
    out: list[ClassInfo] = []
    for node in ast.walk(ann):
        name = dotted_name(node)
        if name is None or name in ("None", "Optional", "Union"):
            continue
        fq = scopes.resolve_in_module(scope, name, local_imports)
        if fq is None:
            continue
        cls = scopes.resolve_class(fq)
        if cls is not None:
            out.append(cls)
    return out


def local_class_bindings(
    scopes: ScopeTable, fn: FunctionInfo
) -> dict[str, ClassInfo]:
    """Locals (and parameters) known to hold instances of project classes."""
    scope = scopes.scope_of(fn.module)
    bindings: dict[str, ClassInfo] = {}

    args = fn.node.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        classes = annotation_classes(scopes, scope, arg.annotation, fn.local_imports)
        if len(classes) == 1:
            bindings[arg.arg] = classes[0]

    for node in ast.walk(fn.node):
        value: "ast.expr | None" = None
        target_name: "str | None" = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            if isinstance(node.targets[0], ast.Name):
                target_name = node.targets[0].id
                value = node.value
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            target_name = node.target.id
            classes = annotation_classes(
                scopes, scope, node.annotation, fn.local_imports
            )
            if len(classes) == 1:
                bindings[target_name] = classes[0]
            value = node.value
        if target_name is None or value is None:
            continue
        cls = constructed_class(scopes, scope, fn, value)
        if cls is not None:
            bindings[target_name] = cls
    return bindings


def constructed_class(
    scopes: ScopeTable,
    scope: ModuleScope,
    fn: "FunctionInfo | None",
    value: ast.expr,
) -> "ClassInfo | None":
    """The project class ``value`` constructs, if it is a constructor call.

    Sees through ``X(...) if cond else None`` so optionally-held stores
    (`self.cache = ResultCache(root) if root else None`) still type.
    """
    if isinstance(value, ast.IfExp):
        return constructed_class(scopes, scope, fn, value.body) or constructed_class(
            scopes, scope, fn, value.orelse
        )
    if not isinstance(value, ast.Call):
        return None
    name = dotted_name(value.func)
    if name is None:
        return None
    local_imports = fn.local_imports if fn is not None else None
    fq = scopes.resolve_in_module(scope, name, local_imports)
    if fq is None:
        return None
    return scopes.resolve_class(fq)


class CallGraph:
    """Call sites, project edges, class bindings, and reachability."""

    def __init__(self, scopes: ScopeTable) -> None:
        self.scopes = scopes
        #: caller fq -> list of CallSite
        self.calls: dict[str, list[CallSite]] = {}
        #: caller fq -> set of callee fq (project functions only)
        self.edges: dict[str, set[str]] = {}
        self.functions: dict[str, FunctionInfo] = {}
        for scope in scopes.scopes.values():
            for fn in scope.functions.values():
                self.functions[fn.fq] = fn
        #: function fq -> locals and parameters holding project-class
        #: instances (:func:`local_class_bindings`)
        self.local_bindings: dict[str, dict[str, ClassInfo]] = {
            fq: local_class_bindings(scopes, fn)
            for fq, fn in self.functions.items()
        }
        #: class fq -> ``self.X`` attributes holding project-class instances
        self.attr_bindings: dict[str, dict[str, ClassInfo]] = {
            cls.fq: self._class_attr_bindings(cls)
            for scope in scopes.scopes.values()
            for cls in scope.classes.values()
        }
        for fn in self.functions.values():
            self._analyze(fn)

    # -- construction -------------------------------------------------------

    def _class_attr_bindings(self, cls: ClassInfo) -> dict[str, ClassInfo]:
        """``self.X`` assignments of project-class instances in ``cls``'s MRO."""
        bindings: dict[str, ClassInfo] = {}
        for klass in reversed(self.scopes.mro(cls)):
            klass_scope = self.scopes.scope_of(klass.module)
            for method in klass.methods.values():
                param_types = self.local_bindings[method.fq]
                for node in ast.walk(method.node):
                    if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                        continue
                    target = node.targets[0]
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    attr_cls = constructed_class(
                        self.scopes, klass_scope, method, node.value
                    )
                    if attr_cls is None and isinstance(node.value, ast.Name):
                        attr_cls = param_types.get(node.value.id)
                    if attr_cls is not None:
                        bindings[target.attr] = attr_cls
        return bindings

    def _analyze(self, fn: FunctionInfo) -> None:
        scope = self.scopes.scope_of(fn.module)
        bindings = self.local_bindings[fn.fq]
        attr_bindings = self.self_bindings(fn)
        local_names = _locally_bound_names(fn.node)
        sites: list[CallSite] = []
        edges: set[str] = set()
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            site = self._resolve_call(fn, scope, bindings, attr_bindings, node)
            if site is not None:
                sites.append(site)
                if site.target_fn is not None:
                    edges.add(site.target_fn.fq)
            for arg in [*node.args, *[kw.value for kw in node.keywords]]:
                ref = self._resolve_reference(
                    fn, scope, bindings, local_names, node, arg
                )
                if ref is None:
                    continue
                sites.append(ref)
                if ref.target_fn is not None:
                    edges.add(ref.target_fn.fq)
        self.calls[fn.fq] = sites
        self.edges[fn.fq] = edges

    def _resolve_reference(
        self,
        fn: FunctionInfo,
        scope: ModuleScope,
        bindings: dict[str, ClassInfo],
        local_names: "set[str]",
        call_node: ast.Call,
        expr: ast.expr,
    ) -> "CallSite | None":
        """A bare function/method reference passed as a call argument.

        Treated as an (indirect) call site: callbacks handed to
        executors, threads, or ``functools.partial`` eventually run.
        """
        if not isinstance(expr, (ast.Name, ast.Attribute)):
            return None
        raw = dotted_name(expr)
        if raw is None:
            return None
        head, _, rest = raw.partition(".")

        if head == "self" and fn.class_name is not None and rest and "." not in rest:
            own = scope.classes.get(fn.class_name)
            if own is not None:
                method = self.scopes.resolve_method(own, rest)
                if method is not None:
                    return CallSite(fn, call_node, raw, method.fq, method,
                                    indirect=True)
            return None
        if head in bindings and rest and "." not in rest:
            method = self.scopes.resolve_method(bindings[head], rest)
            if method is not None:
                return CallSite(fn, call_node, raw, method.fq, method,
                                indirect=True)
            return None
        if head in local_names:
            return None  # a local data variable, not a module-level name
        fq = self.scopes.resolve_in_module(scope, raw, fn.local_imports)
        if fq is None:
            return None
        if self.scopes.resolve_class(fq) is not None:
            return None  # bare class reference (isinstance, annotations, ...)
        target = self.scopes.resolve_function(fq)
        if target is not None:
            return CallSite(fn, call_node, raw, fq, target, indirect=True)
        imported = (
            head in fn.local_imports
            or head in scope.imports
            or fq.startswith("builtins.")
        )
        if imported:
            # external callable reference (time.time, np.random.rand, hash)
            return CallSite(fn, call_node, raw, fq, None, indirect=True)
        return None

    def _resolve_call(
        self,
        fn: FunctionInfo,
        scope: ModuleScope,
        bindings: dict[str, ClassInfo],
        attr_bindings: dict[str, ClassInfo],
        node: ast.Call,
    ) -> "CallSite | None":
        func = node.func
        raw = dotted_name(func)

        # ClassName(args).method(...) and super().method(...)
        if (
            raw is None
            and isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Call)
        ):
            inner_name = dotted_name(func.value.func)
            if inner_name == "super" and fn.class_name is not None:
                own = scope.classes.get(fn.class_name)
                if own is not None:
                    for base_fq in own.base_names:
                        base = self.scopes.resolve_class(base_fq)
                        if base is not None:
                            method = self.scopes.resolve_method(base, func.attr)
                            if method is not None:
                                return CallSite(
                                    fn, node, f"super().{func.attr}",
                                    method.fq, method,
                                )
                return None
            if inner_name is not None:
                inner_cls = self._class_for(scope, fn, inner_name)
                if inner_cls is not None:
                    method = self.scopes.resolve_method(inner_cls, func.attr)
                    if method is not None:
                        return CallSite(
                            fn, node, f"{inner_name}().{func.attr}",
                            method.fq, method,
                        )
            return None
        if raw is None:
            return None

        head, _, rest = raw.partition(".")

        # self.method(...) / self.attr.method(...)
        if head == "self" and fn.class_name is not None:
            own = scope.classes.get(fn.class_name)
            if own is None or not rest:
                return None
            first, _, trailing = rest.partition(".")
            if not trailing:
                method = self.scopes.resolve_method(own, first)
                if method is not None:
                    return CallSite(fn, node, raw, method.fq, method)
                return CallSite(fn, node, raw, None, None)
            attr_cls = attr_bindings.get(first)
            if attr_cls is not None and "." not in trailing:
                method = self.scopes.resolve_method(attr_cls, trailing)
                if method is not None:
                    return CallSite(fn, node, raw, method.fq, method)
            return CallSite(fn, node, raw, None, None)

        # local = ProjectClass(...); local.method(...)
        if head in bindings and rest and "." not in rest:
            method = self.scopes.resolve_method(bindings[head], rest)
            if method is not None:
                return CallSite(fn, node, raw, method.fq, method)
            return CallSite(fn, node, raw, None, None)

        fq = self.scopes.resolve_in_module(scope, raw, fn.local_imports)
        if fq is None:
            return CallSite(fn, node, raw, None, None)
        target = self.scopes.resolve_function(fq)
        if target is not None:
            return CallSite(fn, node, raw, fq, target)
        return CallSite(fn, node, raw, fq, None)

    def _class_for(
        self, scope: ModuleScope, fn: FunctionInfo, name: str
    ) -> "ClassInfo | None":
        fq = self.scopes.resolve_in_module(scope, name, fn.local_imports)
        if fq is None:
            return None
        return self.scopes.resolve_class(fq)

    # -- queries ------------------------------------------------------------

    def self_bindings(self, fn: FunctionInfo) -> dict[str, ClassInfo]:
        """``self.X`` bindings of the class that owns ``fn`` ({} if none)."""
        if fn.class_name is None:
            return {}
        return self.attr_bindings.get(f"{fn.module.name}.{fn.class_name}", {})

    def reachable_from(
        self, roots: "list[str]"
    ) -> "dict[str, str | None]":
        """BFS over project edges: reachable fq -> predecessor fq."""
        predecessor: dict[str, "str | None"] = {}
        queue: deque[str] = deque()
        for root in roots:
            if root in self.functions and root not in predecessor:
                predecessor[root] = None
                queue.append(root)
        while queue:
            current = queue.popleft()
            for callee in sorted(self.edges.get(current, ())):
                if callee not in predecessor:
                    predecessor[callee] = current
                    queue.append(callee)
        return predecessor

    def chain(
        self, predecessor: "dict[str, str | None]", fq: str
    ) -> list[str]:
        """Root-first path to ``fq`` recorded by :meth:`reachable_from`."""
        path = [fq]
        seen = {fq}
        while True:
            prev = predecessor.get(path[-1])
            if prev is None or prev in seen:
                break
            path.append(prev)
            seen.add(prev)
        return list(reversed(path))
