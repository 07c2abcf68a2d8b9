"""CLI entry point: ``python -m tools.lint [paths...]``.

With no paths it lints ``src/repro``, ``paper`` and ``tools/lint`` of this checkout.
Exit code 0 when the tree is clean, 1 on any finding. Output is
deterministic: two consecutive runs over the same tree emit identical
bytes, which tier-1 asserts.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from tools.lint.engine import DEFAULT_PATHS, lint_paths
from tools.lint.registry import all_rules


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.lint",
        description="AST-based invariant checker for the GENIE reproduction.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src/repro, paper and tools/lint)",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        help="additionally write the report to FILE (CI artifact)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id}  {rule.title}: {rule.rationale}")
        return 0

    report = lint_paths(args.paths or DEFAULT_PATHS)
    text = report.render()
    print(text)
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
