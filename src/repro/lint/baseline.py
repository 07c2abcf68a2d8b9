"""Per-file allowlist baseline for known, accepted findings.

A baseline entry names a file, a rule id, and a mandatory reason; every
finding it matches is *suppressed* (reported in the baselined section,
not counted against the exit code). This is how a new rule lands
without a flag-day rewrite: pre-existing violations are enumerated here
with their justification, and any **new** violation — a new file, or a
new rule broken in an already-baselined file under a different id —
still fails the run. Entries that stop matching anything are *stale*
and fail ``python -m repro.lint --strict`` so the allowlist can only
shrink over time.

``DEFAULT_BASELINE`` is the repo's shipped allowlist: the REPRO001 entry
of the report CLI, alone. The seed-era modules' builtin raises that once
filled it are on the ``ReproError`` taxonomy (whose classes also subclass
the builtin each module's tests pin), so REPRO002 holds everywhere.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.errors import ConfigError
from repro.lint.findings import Finding


class BaselineEntry(NamedTuple):
    """Allow every finding of ``rule_id`` in ``path``, for ``reason``."""

    path: str
    rule_id: str
    reason: str


class Baseline:
    """An immutable set of baseline entries keyed by (path, rule id)."""

    def __init__(self, entries: tuple = ()):
        by_key: dict = {}
        for entry in entries:
            if not entry.reason.strip():
                raise ConfigError(
                    f"baseline entry {entry.path}:{entry.rule_id} needs a reason string"
                )
            key = (entry.path, entry.rule_id)
            if key in by_key:
                raise ConfigError(f"duplicate baseline entry for {entry.path}:{entry.rule_id}")
            by_key[key] = entry
        self.entries = tuple(sorted(by_key.values()))
        self._by_key = by_key

    def match(self, finding: Finding) -> BaselineEntry | None:
        """The entry suppressing ``finding``, or ``None``."""
        return self._by_key.get((finding.path, finding.rule_id))

    def __len__(self) -> int:
        return len(self.entries)


#: No suppressions at all — what fixture tests and ``--no-baseline`` use.
EMPTY_BASELINE = Baseline()

DEFAULT_BASELINE = Baseline(
    (
        # -- REPRO001: the one human-facing CLI that *should* measure wall
        #    time. Nothing simulated imports it.
        BaselineEntry(
            "repro/experiments/report.py",
            "REPRO001",
            "the one-shot report CLI prints real wall-clock regeneration time "
            "for the human running it; no simulated path imports this module",
        ),
    )
)
