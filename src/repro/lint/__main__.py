"""CLI entry point: ``python -m repro.lint [paths...]``.

Exit codes: 0 clean (or fully suppressed/baselined), 1 findings,
2 usage error.
"""

from __future__ import annotations

import argparse
import sys

from repro.lint.findings import DEFAULT_BASELINE, Baseline
from repro.lint.loader import LintUsageError
from repro.lint.report import render_json, render_text
from repro.lint.rules import RULES
from repro.lint.runner import run_lint


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "determinism & concurrency linter enforcing the runtime's "
            "bit-identity contract (docs/static-analysis.md)"
        ),
    )
    parser.add_argument(
        "paths", nargs="*", help="files, package dirs, or source roots (e.g. src/)"
    )
    parser.add_argument(
        "--rules",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE,
        help=f"baseline file of grandfathered findings (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline file (report everything)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write current findings to the baseline file and exit 0",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="also show suppressed and baselined findings",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list rule codes and exit"
    )
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for code in sorted(RULES):
            print(f"{code}: {RULES[code].summary}")
        return 0
    if not args.paths:
        print("error: no paths given (try: python -m repro.lint src/)", file=sys.stderr)
        return 2
    rules = None
    if args.rules:
        rules = [part.strip() for part in args.rules.split(",") if part.strip()]
    baseline = None if args.no_baseline else Baseline.load(args.baseline)
    try:
        result = run_lint(list(args.paths), rules=rules, baseline=baseline)
    except LintUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.write_baseline:
        Baseline.write(args.baseline, result.findings)
        print(
            f"wrote {len([f for f in result.findings if not f.suppressed])} "
            f"finding(s) to {args.baseline}"
        )
        return 0
    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result, verbose=args.verbose))
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
