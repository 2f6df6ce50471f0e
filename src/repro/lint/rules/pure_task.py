"""REP-PURE-TASK: task results must not depend on mutable shared state.

A cached task result is only replayable if the task is a pure function
of its parameter mapping.  A task (or any helper it reaches) that reads
a module-level mutable container which *some other function* mutates has
a hidden input: the result depends on whether the mutator ran first in
this process.  The cache cannot see that input, so a hit may replay a
result computed under different state.

Two shapes are flagged, both over the call graph from the task roots:

* a reachable function reads a module-level mutable global that another
  function in the same module mutates (memo registries cleared by a
  ``clear_memos()``-style helper are the canonical case);
* a reachable function defines a closure that rebinds enclosing state
  via ``nonlocal`` — per-process accumulator state the cache key never
  sees.

Process-safe memoization (read-through caches keyed purely on the spec)
is a deliberate pattern in this tree; such sites carry inline
``# repro: allow[REP-PURE-TASK]`` suppressions with a justification.
"""

from __future__ import annotations

import ast

from repro.lint.findings import Finding, make_finding
from repro.lint.mutations import ModuleFacts, global_reads, walk_mutations
from repro.lint.rules.base import LintContext, Rule, register, task_roots


@register
class PureTaskRule(Rule):
    code = "REP-PURE-TASK"
    summary = "task result depends on mutable module or closure state"

    def run(self, ctx: LintContext) -> "list[Finding]":
        roots = task_roots(ctx)
        if not roots:
            return []
        graph = ctx.callgraph
        predecessor = graph.reachable_from(roots)
        facts_cache: dict[str, ModuleFacts] = {}
        mutators_cache: dict[str, dict[str, set[str]]] = {}
        findings: list[Finding] = []
        for fq in sorted(predecessor):
            fn = graph.functions.get(fq)
            if fn is None:
                continue
            module_name = fn.module.name
            scope = ctx.scopes.scopes.get(module_name)
            if scope is None:
                continue
            if module_name not in facts_cache:
                facts = ModuleFacts(ctx.scopes, scope)
                facts_cache[module_name] = facts
                mutators: dict[str, set[str]] = {}
                for other in scope.functions.values():
                    for _node, name, _action, _held in walk_mutations(
                        other, facts.mutable_globals, locks=facts.locks
                    ):
                        if name in facts.mutable_globals:
                            mutators.setdefault(name, set()).add(other.qualname)
                mutators_cache[module_name] = mutators
            facts = facts_cache[module_name]
            mutators = mutators_cache[module_name]
            chain = tuple(graph.chain(predecessor, fq))
            root_name = chain[0].split(".")[-1] if chain else fn.qualname

            reported: set[str] = set()
            for node, name in global_reads(fn, facts.mutable_globals):
                others = mutators.get(name, set()) - {fn.qualname}
                if not others or name in reported:
                    continue
                reported.add(name)
                findings.append(
                    make_finding(
                        self.code,
                        fn.module,
                        node.lineno,
                        node.col_offset,
                        f"{fn.qualname!r} (reachable from task root "
                        f"{root_name!r}) reads module-level mutable "
                        f"{name!r}, which {_fmt(others)} mutates; the task "
                        "result depends on process state the cache key "
                        "never sees",
                        chain=chain,
                    )
                )
            findings.extend(self._closures(ctx, fn, chain, root_name))
        return findings

    def _closures(self, ctx, fn, chain, root_name) -> "list[Finding]":
        findings: list[Finding] = []
        for node in ast.walk(fn.node):
            if node is fn.node or not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            captured = sorted(
                name
                for inner in ast.walk(node)
                if isinstance(inner, ast.Nonlocal)
                for name in inner.names
            )
            if not captured:
                continue
            findings.append(
                make_finding(
                    self.code,
                    fn.module,
                    node.lineno,
                    node.col_offset,
                    f"closure {node.name!r} in {fn.qualname!r} (reachable "
                    f"from task root {root_name!r}) rebinds enclosing state "
                    f"via nonlocal ({', '.join(captured)}); accumulator "
                    "state is invisible to the cache key",
                    chain=chain,
                )
            )
        return findings


def _fmt(names: "set[str]") -> str:
    listed = sorted(names)
    if len(listed) == 1:
        return repr(listed[0])
    return ", ".join(repr(n) for n in listed[:-1]) + f" and {listed[-1]!r}"
