"""REP-UNLOCKED-GLOBAL: unguarded mutation of module-level shared state.

The executor's callback threads and worker-delta merges touch several
process-wide registries (``obs/metrics.py``'s ``_COUNTERS`` and
``_TIMERS``, the dataset memos).  A module that declares a lock — or is
configured as thread-exposed — is promising those registries are shared
across threads, so every mutation of module-level mutable state
(container mutation, or rebinding through ``global``) must happen under
a ``with <lock>:`` block.  A lightweight race detector, not a proof:
it catches the "forgot the lock on the second code path" bug class.

The mutation/lock modelling itself lives in
:mod:`repro.lint.mutations`, shared with REP-PURE-TASK and the
inference-driven REP-THREAD-ESCAPE (which needs no lock declaration or
module list to fire — see :mod:`repro.lint.escape`).
"""

from __future__ import annotations

from repro.lint.findings import Finding, make_finding
from repro.lint.mutations import ModuleFacts, walk_mutations
from repro.lint.rules.base import LintContext, Rule, register


@register
class UnlockedGlobalRule(Rule):
    code = "REP-UNLOCKED-GLOBAL"
    summary = "module-level mutable state mutated outside a lock"

    def run(self, ctx: LintContext) -> "list[Finding]":
        findings: list[Finding] = []
        for scope in ctx.scopes.scopes.values():
            facts = ModuleFacts(ctx.scopes, ctx.config, scope)
            exposed = bool(facts.locks) or (
                scope.module.name in ctx.config.concurrent_modules
            )
            if not exposed or not (facts.mutable_globals or facts.locks):
                continue
            for fn in scope.functions.values():
                for node, name, action, held in walk_mutations(
                    fn,
                    facts.mutable_globals,
                    locks=facts.locks,
                    hints=ctx.config.lock_name_hints,
                ):
                    if held:
                        continue
                    findings.append(
                        make_finding(
                            self.code,
                            fn.module,
                            node.lineno,
                            node.col_offset,
                            f"{action} of module-level {name!r} in "
                            f"{fn.qualname!r} without holding a lock; wrap "
                            "the mutation in 'with <lock>:' (shared across "
                            "executor callback threads)",
                        )
                    )
        return findings
