"""REP-KEY-COVERAGE: every field a task reads must feed its cache key.

The content-addressed cache serves a stored result whenever
``task_key(spec)`` matches — so a task that reads a spec field the key
builder never hashes will silently serve *stale* bytes after that field
changes.  This rule closes the loop mechanically:

1. **Binding inference.**  A function that calls a key function
   (``task_key(builder(spec), ...)``) and constructs a task object
   (``Task(fn="module:function", params=spec)``) over the *same* spec
   value binds that task root to that key-spec builder.  Aliases
   (``params = spec``, ``params = {**spec, ...}``) are followed.
   Explicit ``LintConfig.key_bindings`` entries supplement inference.

2. **Hashed-field model.**  The builder body is abstracted into
   *contributions* — source-field subtrees that flow into the returned
   spec.  Both builder shapes in the tree are modelled: inclusion
   (an explicit dict literal, ``zoo_builder.checkpoint_spec``) and
   exclusion (a dict comprehension filtering keys,
   ``planner.measurement_spec``); values routed through helper calls
   over-approximate to every field mentioned in their arguments.

3. **Read-set comparison.**  The task root's transitive read-set (see
   :mod:`repro.lint.readsets`) is checked path-by-path against the
   model.  A read field the key never hashes is an **error**; a field
   the builder deliberately excludes is an error unless the field is a
   registered cosmetic key (``label``, ``name``, ...); a
   hashed-but-never-read field and a whole-mapping read that is only
   partially hashed are **info** findings (advisory, exit code 0).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.callgraph import CallSite
from repro.lint.config import COSMETIC_KEYS
from repro.lint.dataflow import MAX_PATH_DEPTH
from repro.lint.findings import Finding, make_finding
from repro.lint.readsets import ReadSetAnalysis
from repro.lint.rules.base import LintContext, Rule, register
from repro.lint.scopes import FunctionInfo


@dataclass(frozen=True)
class Contribution:
    """One source-field subtree flowing into the hashed key spec.

    ``path`` is hashed in full **except** the subtrees in ``excluded``
    (exclusion-model builders drop specific keys).  ``path == ()`` with
    exclusions is the pure exclusion model: "everything but these".
    """

    path: tuple[str, ...]
    excluded: frozenset = frozenset()


@dataclass
class Binding:
    """One inferred (task root, key builder) pair and where it was made."""

    root: FunctionInfo
    builder: "FunctionInfo | None"  # None: the spec is hashed as-is
    site_fn: "FunctionInfo | None"
    line: int


def _prefix(shorter: tuple, longer: tuple) -> bool:
    return longer[: len(shorter)] == shorter


def _covered(path: tuple, contribs: "list[Contribution]") -> bool:
    for contribution in contribs:
        if _prefix(contribution.path, path) and not any(
            _prefix(excluded, path) for excluded in contribution.excluded
        ):
            return True
    return False


@register
class KeyCoverageRule(Rule):
    code = "REP-KEY-COVERAGE"
    summary = "task reads a spec field its cache key never hashes"

    def run(self, ctx: LintContext) -> "list[Finding]":
        findings: list[Finding] = []
        analysis = ReadSetAnalysis(ctx.callgraph)
        for binding in self._bindings(ctx):
            findings.extend(self._check(ctx, analysis, binding))
        return findings

    # -- binding discovery ---------------------------------------------------

    def _bindings(self, ctx: LintContext) -> "list[Binding]":
        out: list[Binding] = []
        seen: set[tuple[str, str]] = set()
        for root_fq, builder_fq in ctx.config.key_bindings:
            root = ctx.callgraph.functions.get(root_fq)
            if root is None:
                continue
            builder = (
                ctx.callgraph.functions.get(builder_fq) if builder_fq else None
            )
            out.append(Binding(root, builder, None, root.node.lineno))
            seen.add((root_fq, builder_fq or ""))
        for fn in sorted(ctx.callgraph.functions.values(), key=lambda f: f.fq):
            for binding in self._infer_in(ctx, fn):
                key = (binding.root.fq, binding.builder.fq if binding.builder else "")
                if key not in seen:
                    seen.add(key)
                    out.append(binding)
        return out

    def _infer_in(self, ctx: LintContext, fn: FunctionInfo) -> "list[Binding]":
        sites = [s for s in ctx.callgraph.calls.get(fn.fq, ()) if not s.indirect]
        site_by_node = {id(site.node): site for site in sites}
        key_sites = [
            s for s in sites if s.target_fq in ctx.config.key_functions
        ]
        task_sites = [
            s for s in sites if s.target_fq in ctx.config.task_constructors
        ]
        if not key_sites or not task_sites:
            return []
        aliases = _alias_sets(fn.node)
        out: list[Binding] = []
        for key_site in key_sites:
            if not key_site.node.args:
                continue
            spec_expr = key_site.node.args[0]
            builder: "FunctionInfo | None" = None
            if isinstance(spec_expr, ast.Call):
                inner = site_by_node.get(id(spec_expr))
                builder = inner.target_fn if inner is not None else None
                if builder is None or not spec_expr.args:
                    continue
                spec_expr = spec_expr.args[0]
            if not isinstance(spec_expr, ast.Name):
                continue
            spec_aliases = aliases.get(spec_expr.id, {spec_expr.id})
            for task_site in task_sites:
                root = self._task_root(ctx, fn, task_site)
                params = _keyword(task_site.node, "params")
                if root is None or not isinstance(params, ast.Name):
                    continue
                if params.id in spec_aliases:
                    out.append(
                        Binding(root, builder, fn, key_site.node.lineno)
                    )
        return out

    def _task_root(
        self, ctx: LintContext, fn: FunctionInfo, site: CallSite
    ) -> "FunctionInfo | None":
        value = _keyword(site.node, "fn")
        if isinstance(value, ast.Name):
            scope = ctx.scopes.scope_of(fn.module)
            value = scope.module_assigns.get(value.id)
        if not (isinstance(value, ast.Constant) and isinstance(value.value, str)):
            return None
        spec = value.value
        fq = spec.replace(":", ".") if ":" in spec else spec
        return ctx.callgraph.functions.get(fq)

    # -- the check -----------------------------------------------------------

    def _check(
        self, ctx: LintContext, analysis: ReadSetAnalysis, binding: Binding
    ) -> "list[Finding]":
        root = binding.root
        params = [
            name
            for name in _positional_params(root.node)
            if name not in ("self", "cls")
        ]
        if not params:
            return []
        summary = analysis.summary(root)
        if summary is None:
            return []
        reads = summary.events(params[0])
        contribs = self._key_model(ctx, binding.builder)
        if contribs is None:
            return []  # unanalyzable builder: claim nothing
        findings: list[Finding] = []
        predecessor = ctx.callgraph.reachable_from([root.fq])
        root_name = root.qualname.split(".")[-1]
        builder_name = (
            binding.builder.qualname if binding.builder else "<spec hashed as-is>"
        )
        reported: set[tuple] = set()

        def emit(event, path, text, severity="error"):
            if (tuple(path), severity) in reported:
                return
            reported.add((tuple(path), severity))
            module = ctx.project.get(event.module)
            if module is None:
                return
            chain = tuple(ctx.callgraph.chain(predecessor, event.fn_fq))
            findings.append(
                make_finding(
                    self.code, module, event.line, event.col, text,
                    chain=chain, severity=severity,
                )
            )

        all_excluded = sorted(
            {e for c in contribs for e in c.excluded}
        )
        for event in reads:
            dotted = ".".join(event.path) or "<whole mapping>"
            if _covered(event.path, contribs):
                for excluded in all_excluded:
                    if (
                        len(excluded) > len(event.path)
                        and _prefix(event.path, excluded)
                        and not _covered(excluded, contribs)
                        and excluded[-1] not in COSMETIC_KEYS
                    ):
                        emit(
                            event,
                            excluded,
                            f"task root {root_name!r} reads the whole "
                            f"{dotted!r} subtree, but key builder "
                            f"{builder_name!r} excludes "
                            f"{'.'.join(excluded)!r} from the hash; a change "
                            "to that field would serve stale cached results",
                        )
                continue
            partial = [
                c for c in contribs
                if len(c.path) > len(event.path) and _prefix(event.path, c.path)
            ]
            if partial:
                hashed = ", ".join(
                    sorted(".".join(c.path) for c in partial)
                )
                emit(
                    event,
                    event.path,
                    f"task root {root_name!r} may read any field under "
                    f"{dotted!r}, but key builder {builder_name!r} hashes "
                    f"only: {hashed}",
                    severity="info",
                )
                continue
            emit(
                event,
                event.path,
                f"task root {root_name!r} reads spec field {dotted!r}, "
                f"which key builder {builder_name!r} never hashes into the "
                "cache key; a change to that field would serve stale cached "
                "results",
            )

        # hashed-but-never-read: advisory, anchored at the binding site
        if binding.site_fn is not None:
            read_paths = [event.path for event in reads]
            for contribution in sorted(contribs, key=lambda c: c.path):
                if not contribution.path:
                    continue
                if any(
                    _prefix(r, contribution.path) or _prefix(contribution.path, r)
                    for r in read_paths
                ):
                    continue
                findings.append(
                    make_finding(
                        self.code,
                        binding.site_fn.module,
                        binding.line,
                        0,
                        f"key builder {builder_name!r} hashes field "
                        f"{'.'.join(contribution.path)!r}, but task root "
                        f"{root_name!r} never reads it; the field fragments "
                        "the cache without affecting results",
                        severity="info",
                    )
                )
        return findings

    # -- the hashed-field model ---------------------------------------------

    def _key_model(
        self, ctx: LintContext, builder: "FunctionInfo | None"
    ) -> "list[Contribution] | None":
        if builder is None:
            return [Contribution(())]  # spec hashed as-is: full coverage
        params = [
            name
            for name in _positional_params(builder.node)
            if name not in ("self", "cls")
        ]
        if not params:
            return None
        analyzer = _BuilderAnalyzer(params[0])
        for stmt in builder.node.body:
            analyzer.stmt(stmt)
        if not analyzer.result:
            return None
        return analyzer.result


def _keyword(node: ast.Call, name: str) -> "ast.expr | None":
    for kw in node.keywords:
        if kw.arg == name:
            return kw.value
    return None


def _positional_params(node) -> "list[str]":
    args = node.args
    return [a.arg for a in [*args.posonlyargs, *args.args]]


def _alias_sets(node) -> "dict[str, set[str]]":
    """name -> the set of names known to alias the same spec mapping.

    Follows ``a = b``, ``a = dict(b)``, and ``a = {**b, ...}`` — the
    shapes planners use to derive task params from the keyed spec.
    """
    edges: list[tuple[str, str]] = []
    for child in ast.walk(node):
        if not (isinstance(child, ast.Assign) and len(child.targets) == 1):
            continue
        target = child.targets[0]
        if not isinstance(target, ast.Name):
            continue
        sources: list[str] = []
        value = child.value
        if isinstance(value, ast.Name):
            sources.append(value.id)
        elif isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            if value.func.id == "dict" and value.args:
                if isinstance(value.args[0], ast.Name):
                    sources.append(value.args[0].id)
        elif isinstance(value, ast.Dict):
            for key, item in zip(value.keys, value.values):
                if key is None and isinstance(item, ast.Name):
                    sources.append(item.id)
        for source in sources:
            edges.append((target.id, source))
    groups: dict[str, set[str]] = {}
    for target, source in edges:
        group = groups.setdefault(source, {source})
        group.add(target)
        groups[target] = group
    return groups


class _BuilderAnalyzer:
    """Abstracts a key-builder body into hashed-field contributions."""

    def __init__(self, param: str) -> None:
        self.param = param
        #: local name -> _Ref | _DictModel | list[Contribution]
        self.env: dict[str, object] = {param: _Ref(())}
        self.result: list[Contribution] = []

    # -- statements ----------------------------------------------------------

    def stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                self.env[target.id] = self.model(stmt.value)
                return
            if (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and isinstance(target.slice, ast.Constant)
                and isinstance(target.slice.value, str)
            ):
                model = self.env.get(target.value.id)
                if isinstance(model, _DictModel):
                    model.setitem(target.slice.value, self.contribs(stmt.value))
                    return
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            self.result.extend(_to_contribs(self.model(stmt.value)))
            return
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                self.stmt(child)

    # -- value models --------------------------------------------------------

    def ref(self, expr: ast.expr) -> "_Ref | None":
        """Pure navigation from the spec parameter, or None."""
        if isinstance(expr, ast.Name):
            model = self.env.get(expr.id)
            return model if isinstance(model, _Ref) else None
        if isinstance(expr, ast.Subscript):
            base = self.ref(expr.value)
            key = expr.slice
            if (
                base is not None
                and isinstance(key, ast.Constant)
                and isinstance(key.value, str)
            ):
                return base.extend(key.value)
            return None
        if isinstance(expr, ast.Call):
            func = expr.func
            if (
                isinstance(func, ast.Name)
                and func.id == "dict"
                and expr.args
            ):
                return self.ref(expr.args[0])
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "get"
                and expr.args
                and isinstance(expr.args[0], ast.Constant)
                and isinstance(expr.args[0].value, str)
            ):
                base = self.ref(func.value)
                if base is not None:
                    return base.extend(expr.args[0].value)
        return None

    def model(self, expr: ast.expr) -> object:
        ref = self.ref(expr)
        if ref is not None:
            return ref
        if isinstance(expr, ast.Name) and expr.id in self.env:
            return self.env[expr.id]
        if isinstance(expr, ast.Dict):
            dm = _DictModel()
            for key, value in zip(expr.keys, expr.values):
                if key is None:  # {**spread}
                    dm.rest.extend(_to_contribs(self.model(value)))
                elif isinstance(key, ast.Constant) and isinstance(key.value, str):
                    dm.entries[key.value] = self.contribs(value)
                else:
                    dm.rest.extend(self.contribs(value))
            return dm
        if isinstance(expr, ast.DictComp):
            comp = self._exclusion_comp(expr)
            if comp is not None:
                dm = _DictModel()
                dm.rest.append(comp)
                return dm
        return self.contribs(expr)

    def _exclusion_comp(self, expr: ast.DictComp) -> "Contribution | None":
        """``{k: v for k, v in spec[...].items() if k != "lit"}``."""
        if len(expr.generators) != 1:
            return None
        gen = expr.generators[0]
        if not (
            isinstance(gen.iter, ast.Call)
            and isinstance(gen.iter.func, ast.Attribute)
            and gen.iter.func.attr == "items"
        ):
            return None
        base = self.ref(gen.iter.func.value)
        if base is None:
            return None
        key_var: "str | None" = None
        if isinstance(gen.target, ast.Tuple) and len(gen.target.elts) == 2:
            first = gen.target.elts[0]
            if isinstance(first, ast.Name):
                key_var = first.id
        excluded: set[tuple[str, ...]] = set()
        for cond in gen.ifs:
            for name in _excluded_names(cond, key_var):
                excluded.add(base.path + (name,))
        return Contribution(base.path, frozenset(excluded))

    def contribs(self, expr: "ast.expr | None") -> "list[Contribution]":
        """Every source-field subtree mentioned anywhere in ``expr``.

        Over-approximates fields routed through helper calls (a field
        handed to ``splitbeam_training_config`` counts as hashed), which
        errs toward fewer findings — the safe direction for a linter.
        """
        if expr is None:
            return []
        ref = self.ref(expr)
        if ref is not None:
            return [Contribution(ref.path)]
        model = self.model(expr) if isinstance(expr, (ast.Dict, ast.DictComp)) else None
        if model is not None:
            return _to_contribs(model)
        if isinstance(expr, ast.Name):
            return _to_contribs(self.env.get(expr.id))
        out: list[Contribution] = []
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                out.extend(self.contribs(child))
            elif isinstance(child, ast.comprehension):
                out.extend(self.contribs(child.iter))
            elif isinstance(child, ast.keyword):
                out.extend(self.contribs(child.value))
        return out


@dataclass(frozen=True)
class _Ref:
    path: tuple[str, ...]

    def extend(self, segment: str) -> "_Ref":
        if len(self.path) >= MAX_PATH_DEPTH:
            return self
        return _Ref(self.path + (segment,))


@dataclass
class _DictModel:
    entries: dict = field(default_factory=dict)
    rest: list = field(default_factory=list)  # list[Contribution]

    def setitem(self, key: str, contribs: "list[Contribution]") -> None:
        self.entries[key] = contribs
        # the identity-mapped source key is replaced, so exclude it from
        # every pass-through contribution
        self.rest = [
            Contribution(c.path, c.excluded | {c.path + (key,)})
            for c in self.rest
        ]


def _to_contribs(model: object) -> "list[Contribution]":
    if isinstance(model, _Ref):
        return [Contribution(model.path)]
    if isinstance(model, _DictModel):
        out = list(model.rest)
        for contribs in model.entries.values():
            out.extend(contribs)
        return out
    if isinstance(model, list):
        return model
    return []


def _excluded_names(cond: ast.expr, key_var: "str | None") -> "list[str]":
    """String literals a ``k != "x"`` / ``k not in (...)`` filter drops."""
    if key_var is None or not isinstance(cond, ast.Compare):
        return []
    if not (
        isinstance(cond.left, ast.Name)
        and cond.left.id == key_var
        and len(cond.ops) == 1
    ):
        return []
    comparator = cond.comparators[0]
    if isinstance(cond.ops[0], ast.NotEq):
        if isinstance(comparator, ast.Constant) and isinstance(
            comparator.value, str
        ):
            return [comparator.value]
    elif isinstance(cond.ops[0], ast.NotIn):
        if isinstance(comparator, (ast.Tuple, ast.List, ast.Set)):
            return [
                element.value
                for element in comparator.elts
                if isinstance(element, ast.Constant)
                and isinstance(element.value, str)
            ]
    return []
