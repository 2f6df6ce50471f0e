"""``repro.lint``: the determinism & concurrency linter.

An AST/call-graph static-analysis pass that mechanically enforces the
runtime's bit-identity contract (see ``docs/runtime.md`` "Determinism
guarantees" and ``docs/static-analysis.md`` for the rule catalog):

==================  ====================================================
``REP-NONDET``       nondeterminism sources (wall clocks, entropy,
                     global RNGs, ``id()``/``hash()``) reachable from
                     registered runtime task functions
``REP-FALSY-STORE``  truthiness tests on ``__len__``-bearing objects
                     where identity is meant (the PR 7 bug family)
``REP-ENV-READ``     ``os.environ`` access outside ``runtime/knobs.py``
``REP-GETSTATE-CACHE``  shipped classes whose ``__getstate__`` leaks
                     transient cache attributes
``REP-HASH-INPUT``   cosmetic/display fields feeding content addresses
``REP-KEY-COVERAGE``  spec fields a task reads but its ``task_key``
                     builder never hashes (stale-cache hazard), via
                     interprocedural read-set summaries
``REP-PURE-TASK``    task-reachable reads of module-level mutable
                     state that another function mutates
``REP-THREAD-ESCAPE``  unguarded mutation of shared state: module-level
                     containers in a module that declares a lock, and
                     any mutation on an inferred callback path
                     (``add_done_callback``/``Thread(target=)``)
``REP-REDUCTION-ORDER``  float accumulation over sets/``os.listdir``
                     orderings reachable from task roots
==================  ====================================================

Usage::

    python -m repro.lint src/                  # lint, exit 1 on findings
    python -m repro.lint src/ --format json
    python -m repro.lint src/ --write-baseline # grandfather current findings

Inline suppression: ``# repro: allow[REP-NONDET]`` on (or immediately
above) the flagged line.
"""

from repro.lint.config import LintConfig
from repro.lint.findings import Baseline, Finding
from repro.lint.loader import LintUsageError, Project, load_project
from repro.lint.report import LintResult, render_json, render_text
from repro.lint.rules import RULES
from repro.lint.runner import run_lint

__all__ = [
    "Baseline",
    "Finding",
    "LintConfig",
    "LintResult",
    "LintUsageError",
    "Project",
    "RULES",
    "load_project",
    "render_json",
    "render_text",
    "run_lint",
]
