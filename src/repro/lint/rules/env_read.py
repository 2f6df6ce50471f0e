"""REP-ENV-READ: ``os.environ`` access outside the sanctioned knobs module.

Scattered environment reads are how "works on my machine" enters a
deterministic runtime: a knob read at a random call site is invisible
to the cache key and impossible to audit.  All ``$REPRO_RUNTIME_*``
(and any other) environment access must route through
``repro.runtime.knobs`` so there is exactly one place that can observe
ambient process state.
"""

from __future__ import annotations

import ast

from repro.lint.findings import Finding, make_finding
from repro.lint.rules.base import LintContext, Rule, register
from repro.lint.scopes import dotted_name

#: os attributes that read or write the process environment.
_ENV_ATTRS = frozenset({"os.environ", "os.getenv", "os.putenv", "os.unsetenv"})


def _os_roots(scope) -> "frozenset[str]":
    """Names bound from ``os`` in ``scope``'s module.

    A chain resolves through its root name, so only a chain whose root
    is ``os`` or a name imported from it can reach ``os.environ``.
    """
    return frozenset(
        name
        for name, target in scope.imports.items()
        if target == "os" or target.startswith("os.")
    )


@register
class EnvReadRule(Rule):
    code = "REP-ENV-READ"
    summary = "os.environ access outside the sanctioned knobs module"

    def run(self, ctx: LintContext) -> "list[Finding]":
        findings: list[Finding] = []
        sanctioned = set(ctx.config.sanctioned_env_modules)
        for scope in ctx.scopes.scopes.values():
            if scope.module.name in sanctioned:
                continue
            roots = _os_roots(scope)
            if not roots:
                continue
            for node in ast.walk(scope.module.tree):
                if not isinstance(node, (ast.Attribute, ast.Name)):
                    continue
                root = node
                while isinstance(root, ast.Attribute):
                    root = root.value
                if not isinstance(root, ast.Name) or root.id not in roots:
                    continue
                raw = dotted_name(node)
                fq = ctx.scopes.resolve_in_module(scope, raw)
                # Exact match only: for `os.environ.get(...)` the inner
                # `os.environ` attribute node matches, so each access
                # yields exactly one finding.
                if fq not in _ENV_ATTRS:
                    continue
                findings.append(
                    make_finding(
                        self.code,
                        scope.module,
                        node.lineno,
                        node.col_offset,
                        f"environment access {raw!r}; route it through "
                        f"{' or '.join(sorted(sanctioned))} so ambient "
                        "process state has a single auditable entry point",
                    )
                )
        return findings
