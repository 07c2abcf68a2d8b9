"""tools.lint — AST-based static enforcement of this repo's invariants.

Every guarantee the reproduction ships — bit-identical results across
plan strategies, byte-identical traces across seeded runs, honest stage
accounting behind Table I's per-stage profile — is otherwise enforced
only dynamically, by tests that must think to exercise the violation.
This package makes the whole *class* of regressions checkable at commit
time: a rule registry with stable ids, AST visitors over ``src/repro``,
the paper's evaluation code under ``paper/`` and this tool itself, and a
deterministic report (byte-identical across runs) wired into tier-1 and
CI. Every finding fails; nothing is allowlisted.

It is a repository tool, not part of the installed ``repro`` package.
Run it from the repository root (it imports ``repro.errors`` for the
error taxonomy, so the package must be importable)::

    PYTHONPATH=src python -m tools.lint            # lint src/repro, paper and tools/lint
    PYTHONPATH=src python -m tools.lint --list-rules

Shipped rules:

======== ================== ==========================================
id       title              invariant
======== ================== ==========================================
REPRO001 determinism        no wall clocks, stdlib/global RNG, or
                            unseeded ``default_rng()`` in simulated paths
REPRO002 error-taxonomy     raise only ``ReproError`` subclasses; no
                            swallowing handlers; no runtime ``assert``
REPRO003 stage-accounting   every ``launch``/``charge_*``/transfer names
                            its profile stage
REPRO004 metrics-discipline metric names register once; snapshot keys
                            only grow
REPRO005 mutable-defaults   no mutable default arguments
REPRO006 seed-hygiene       an accepted ``seed=`` is threaded, never
                            ignored or re-derived
REPRO007 retry-hygiene      retry loops are bounded; retry jitter comes
                            from an explicitly seeded generator
======== ================== ==========================================
"""

from tools.lint.context import FileContext
from tools.lint.engine import Report, collect_files, display_path, lint_paths, lint_sources
from tools.lint.findings import Finding, PARSE_RULE_ID
from tools.lint.registry import Rule, all_rules, get_rule, register

__all__ = [
    "FileContext",
    "Finding",
    "PARSE_RULE_ID",
    "Report",
    "Rule",
    "all_rules",
    "collect_files",
    "display_path",
    "get_rule",
    "lint_paths",
    "lint_sources",
    "register",
]
