"""Rule registry: importing this package registers every built-in rule."""

from repro.lint.rules.base import RULES, LintContext, Rule, register
from repro.lint.rules import (  # noqa: F401  (imported for registration side effect)
    env_read,
    falsy_store,
    getstate_cache,
    hash_input,
    key_coverage,
    nondet,
    pure_task,
    reduction_order,
    thread_escape,
)

__all__ = ["RULES", "LintContext", "Rule", "register"]
