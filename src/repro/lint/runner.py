"""Orchestration: load a project, run rules, filter, and report."""

from __future__ import annotations

from pathlib import Path

from repro.lint.config import LintConfig
from repro.lint.findings import (
    Baseline,
    Finding,
    apply_suppressions,
    assign_fingerprints,
)
from repro.lint.loader import LintUsageError, Project, load_project
from repro.lint.report import LintResult
from repro.lint.rules import RULES, LintContext


def run_lint(
    paths: "list[str | Path] | None" = None,
    *,
    project: "Project | None" = None,
    config: "LintConfig | None" = None,
    rules: "list[str] | None" = None,
    baseline: "Baseline | None" = None,
    jobs: int = 1,
) -> LintResult:
    """Lint ``paths`` (or a pre-loaded project) and return the result.

    ``rules`` selects a subset by code; ``baseline`` marks grandfathered
    fingerprints as non-failing.  Suppression comments are always
    honoured.  The analysis runs in this process: ``jobs`` is accepted
    only as 1, for callers that still pass it.
    """
    if jobs != 1:
        raise LintUsageError(f"jobs must be 1, got {jobs}")
    if project is None:
        if not paths:
            raise LintUsageError("no paths given")
        project = load_project(list(paths))
    config = config or LintConfig()
    selected = _select_rules(rules)
    ctx = LintContext(project=project, config=config)
    findings: list[Finding] = []
    for code in selected:
        findings.extend(RULES[code].run(ctx))
    assign_fingerprints(findings)
    apply_suppressions(findings, project.modules)
    if baseline is not None:
        baseline.apply(findings)
    return LintResult(
        findings=findings,
        n_modules=len(project),
        rules_run=tuple(selected),
    )


def _select_rules(rules: "list[str] | None") -> "list[str]":
    if rules is None:
        return sorted(RULES)
    unknown = [code for code in rules if code not in RULES]
    if unknown:
        raise LintUsageError(
            f"unknown rule(s): {', '.join(unknown)}; "
            f"known: {', '.join(sorted(RULES))}"
        )
    return sorted(dict.fromkeys(rules))
