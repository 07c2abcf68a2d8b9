"""Shared helpers for the tools.lint suites: lint in-memory fixtures."""

import textwrap

import pytest

from tools.lint import lint_sources


@pytest.fixture
def findings_for():
    """Lint one dedented fixture snippet, returning its findings."""

    def _run(code, path="repro/core/fixture.py"):
        report = lint_sources({path: textwrap.dedent(code)})
        return report.findings

    return _run


@pytest.fixture
def rule_ids_for(findings_for):
    """The sorted rule-id list a fixture snippet triggers."""

    def _run(code, path="repro/core/fixture.py"):
        return sorted(finding.rule_id for finding in findings_for(code, path))

    return _run
