"""REP-NONDET: nondeterminism sources reachable from task functions.

The runtime's bit-identity contract says every task result is a pure
function of the task's parameter mapping.  This rule walks the project
call graph from the registered task functions (``runtime/tasks.py``'s
``__all__``) and flags any reachable call to a wall clock, an entropy
source, process identity, the *global* numpy/python RNGs, or the
``id()``/``hash()`` builtins (PYTHONHASHSEED makes ``hash(str)`` differ
across worker processes).  Seeded generators (``np.random.default_rng``,
``random.Random``) are explicitly allowed; so is ``time.perf_counter``,
which only feeds telemetry, never result bytes.
"""

from __future__ import annotations

from repro.lint.config import (
    NONDET_BUILTINS,
    NONDET_CALLS,
    NONDET_PREFIX_ALLOWED,
    NONDET_PREFIXES,
)
from repro.lint.findings import Finding, make_finding
from repro.lint.rules.base import LintContext, Rule, register, task_roots


@register
class NondetRule(Rule):
    code = "REP-NONDET"
    summary = "nondeterminism source reachable from a runtime task body"

    def _is_nondet(self, fq: str) -> bool:
        if fq in NONDET_CALLS:
            return True
        stripped = fq[len("builtins.") :] if fq.startswith("builtins.") else None
        if stripped is not None and stripped in NONDET_BUILTINS:
            return True
        for prefix in NONDET_PREFIXES:
            if fq.startswith(prefix) and fq not in NONDET_PREFIX_ALLOWED:
                return True
        return False

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
            for site in graph.calls.get(fq, ()):
                target = site.target_fq
                if target is None or not self._is_nondet(target):
                    continue
                chain = tuple(graph.chain(predecessor, fq))
                via = " -> ".join(part.split(".")[-1] for part in chain)
                findings.append(
                    make_finding(
                        self.code,
                        fn.module,
                        site.lineno,
                        site.col,
                        f"nondeterministic call {site.raw}() ({target}) is "
                        f"reachable from task root {chain[0].split('.')[-1]!r} "
                        f"(via {via}); task results must be pure functions of "
                        "their parameter mapping",
                        chain=chain,
                    )
                )
        return findings
