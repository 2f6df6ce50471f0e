"""REP-THREAD-ESCAPE: shared state mutated without holding a lock.

Two triggers feed one mutation walk:

* **A declared lock.**  A module that declares a lock
  (``threading.Lock()`` or a lock-named global) promises that its
  module-level containers are shared across threads, so every mutation
  of them (container mutation, or rebinding through ``global``) must
  happen under a ``with <lock>:`` block.  This is what guards
  ``obs/metrics.py``'s registry and ``runtime/cache.py``'s sweep set.
* **A callback path.**  A function reachable from a callable registered
  as a completion callback (``future.add_done_callback(f)``) or handed
  to a coordinator-side thread (``threading.Thread(target=f)``) runs
  concurrently with the coordinator, so its mutations of module-level
  containers and ``self.<attr>`` state race unless a lock is held —
  whether or not the module declares one.  See :mod:`repro.lint.escape`
  for the inference.

Each mutation is reported once, with the callback chain when there is
one.  A lightweight race detector, not a proof: it catches the "forgot
the lock on the second code path" bug class.
"""

from __future__ import annotations

from repro.lint.escape import build_escape_lattice
from repro.lint.findings import Finding, make_finding
from repro.lint.mutations import ModuleFacts, walk_mutations
from repro.lint.rules.base import LintContext, Rule, register


@register
class ThreadEscapeRule(Rule):
    code = "REP-THREAD-ESCAPE"
    summary = "shared state mutated without a lock (declared lock or callback path)"

    def run(self, ctx: LintContext) -> "list[Finding]":
        graph = ctx.callgraph
        lattice = build_escape_lattice(graph)
        findings: list[Finding] = []
        for scope in ctx.scopes.scopes.values():
            facts = ModuleFacts(ctx.scopes, scope)
            for fn in scope.functions.values():
                shared = fn.fq in lattice.callback_shared
                if not (shared or facts.locks):
                    continue
                chain = tuple(lattice.chain(graph, fn.fq)) if shared else ()
                for node, name, action, held in walk_mutations(
                    fn, facts.mutable_globals, locks=facts.locks, self_attrs=shared
                ):
                    if held:
                        continue
                    if shared:
                        seed = chain[0]
                        reason = (
                            f"{action} of {name!r} in {fn.qualname!r}, which "
                            "runs on a callback thread (registered as "
                            f"{seed.split('.')[-1]!r} at "
                            f"{lattice.callback_seeds.get(seed, '?')}) "
                            "concurrently with the coordinator; guard the "
                            "mutation with 'with <lock>:'"
                        )
                    else:
                        reason = (
                            f"{action} of module-level {name!r} in "
                            f"{fn.qualname!r} without holding a lock; wrap "
                            "the mutation in 'with <lock>:' (the module "
                            "declares a lock, so its state is shared across "
                            "threads)"
                        )
                    findings.append(
                        make_finding(
                            self.code,
                            fn.module,
                            node.lineno,
                            node.col_offset,
                            reason,
                            chain=chain,
                        )
                    )
        return findings
