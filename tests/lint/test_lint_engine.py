"""Engine and registry behavior for tools.lint."""

import textwrap
from pathlib import Path

import pytest

from repro.errors import ConfigError
from tools.lint import (
    Finding,
    PARSE_RULE_ID,
    all_rules,
    collect_files,
    display_path,
    get_rule,
    lint_sources,
)

BAD_ASSERT = textwrap.dedent(
    """
    def check(x):
        assert x > 0
    """
)

CLEAN = textwrap.dedent(
    """
    def double(x):
        return 2 * x
    """
)


class TestRegistry:
    def test_seven_rules_in_stable_id_order(self):
        ids = [rule.rule_id for rule in all_rules()]
        assert ids == [f"REPRO00{i}" for i in range(1, 8)]

    def test_every_rule_documents_itself(self):
        for rule in all_rules():
            assert rule.title
            assert rule.rationale

    def test_get_rule_round_trips(self):
        assert get_rule("REPRO005").rule_id == "REPRO005"

    def test_get_rule_rejects_unknown_id(self):
        with pytest.raises(ConfigError):
            get_rule("REPRO999")


class TestFindingOrder:
    def test_findings_sorted_by_path_then_position(self):
        report = lint_sources(
            {
                "repro/zz.py": BAD_ASSERT,
                "repro/aa.py": BAD_ASSERT + "\nassert True\n",
            }
        )
        keys = [finding.sort_key() for finding in report.findings]
        assert keys == sorted(keys)
        assert [f.path for f in report.findings] == ["repro/aa.py", "repro/aa.py", "repro/zz.py"]

    def test_render_is_stable_across_runs(self):
        sources = {"repro/aa.py": BAD_ASSERT, "repro/bb.py": CLEAN}
        first = lint_sources(sources).render()
        second = lint_sources(sources).render()
        assert first == second

    def test_finding_render_format(self):
        finding = Finding("repro/x.py", 3, 4, "REPRO002", "runtime assert")
        assert finding.render() == "repro/x.py:3:4: REPRO002 runtime assert"


class TestParseFailures:
    def test_syntax_error_becomes_repro000(self):
        report = lint_sources({"repro/broken.py": "def f(:\n"})
        assert [f.rule_id for f in report.findings] == [PARSE_RULE_ID]
        assert report.exit_code() == 1

    def test_broken_file_still_counts_as_checked(self):
        report = lint_sources({"repro/broken.py": "def f(:\n", "repro/ok.py": CLEAN})
        assert report.files == 2


class TestTaxonomyClosure:
    def test_subclass_chain_across_files(self):
        # mid.py subclasses the taxonomy; leaf.py subclasses mid.py's
        # class. Both raises are legitimate via the fixpoint closure.
        report = lint_sources(
            {
                "repro/mid.py": textwrap.dedent(
                    """
                    from repro.errors import QueryError

                    class MidError(QueryError):
                        pass
                    """
                ),
                "repro/leaf.py": textwrap.dedent(
                    """
                    from repro.mid import MidError

                    class LeafError(MidError):
                        pass

                    def boom():
                        raise LeafError("x")
                    """
                ),
            }
        )
        assert report.findings == []


class TestPaths:
    def test_display_path_anchors_on_repro_package(self, tmp_path):
        target = tmp_path / "src" / "repro" / "core" / "mod.py"
        target.parent.mkdir(parents=True)
        target.write_text(CLEAN, encoding="utf-8")
        assert display_path(target) == "repro/core/mod.py"

    def test_collect_files_dedupes_and_sorts(self, tmp_path):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        for name in ("b.py", "a.py"):
            (pkg / name).write_text(CLEAN, encoding="utf-8")
        files = collect_files([tmp_path / "src", pkg / "b.py"])
        assert [display_path(f) for f in files] == ["repro/a.py", "repro/b.py"]

    def test_display_path_of_the_linter_is_repo_relative(self):
        engine = Path(__file__).resolve().parents[2] / "tools" / "lint" / "engine.py"
        assert display_path(engine) == "tools/lint/engine.py"
