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

``DEFAULT_BASELINE`` is the repo's shipped allowlist. The bulk of it is
REPRO002: the seed-era modules (``gpu``, ``core`` primitives,
``datasets``, ``sa``, ``experiments``) validate arguments with builtin
``ValueError``/``KeyError``/``IndexError``, and their tests pin those
builtin types; migrating them onto the ``ReproError`` taxonomy is
tracked in ROADMAP, not something to smuggle through a lint PR (``lsh``
went first: ``ConfigError``/``QueryError`` are ``ValueError``s, so its
pinned tests kept passing). Everything added since PR 2 (api/serve/cluster/plan/
stream/obs) raises taxonomy errors only and is *not* baselined — the
rule holds the line there.
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

_SEED_ERA_RAISES = (
    "callers and tests pin the builtin exception type from the seed snapshot; "
    "migrating this module onto the ReproError taxonomy is a tracked breaking change"
)

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
        # -- REPRO002: seed-era builtin raises, per file.
        BaselineEntry("repro/core/bitmap_counter.py", "REPRO002", _SEED_ERA_RAISES),
        BaselineEntry("repro/datasets/documents.py", "REPRO002", _SEED_ERA_RAISES),
        BaselineEntry("repro/datasets/registry.py", "REPRO002", _SEED_ERA_RAISES),
        BaselineEntry("repro/datasets/sequences.py", "REPRO002", _SEED_ERA_RAISES),
        BaselineEntry("repro/experiments/metrics.py", "REPRO002", _SEED_ERA_RAISES),
        BaselineEntry("repro/experiments/suite.py", "REPRO002", _SEED_ERA_RAISES),
        BaselineEntry("repro/experiments/table.py", "REPRO002", _SEED_ERA_RAISES),
        BaselineEntry("repro/gpu/device.py", "REPRO002", _SEED_ERA_RAISES),
        BaselineEntry("repro/gpu/host.py", "REPRO002", _SEED_ERA_RAISES),
        BaselineEntry("repro/gpu/kernel.py", "REPRO002", _SEED_ERA_RAISES),
        BaselineEntry("repro/gpu/memory.py", "REPRO002", _SEED_ERA_RAISES),
        BaselineEntry("repro/gpu/stats.py", "REPRO002", _SEED_ERA_RAISES),
        BaselineEntry("repro/gpu/warp.py", "REPRO002", _SEED_ERA_RAISES),
        BaselineEntry("repro/sa/edit_distance.py", "REPRO002", _SEED_ERA_RAISES),
        BaselineEntry("repro/sa/ngram.py", "REPRO002", _SEED_ERA_RAISES),
    )
)
