"""Tier-1 gate: src/repro and the linter lint clean, and the report is byte-deterministic.

These are the tests that make the checker *enforcing*: seeding a
violation anywhere under ``src/repro`` fails the suite (nothing is
allowlisted), and two CLI runs must emit identical bytes.
"""

import os
import subprocess
import sys
from pathlib import Path

from tools.lint import lint_paths
from tools.lint.engine import DEFAULT_PATHS

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"

BAD_SNIPPET = "import time\n\n\ndef elapsed():\n    return time.time()\n"


def _cli(*args, cwd=REPO_ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(REPO_ROOT), env.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, "-m", "tools.lint", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
    )


class TestCleanTree:
    def test_package_and_linter_are_clean(self):
        report = lint_paths(DEFAULT_PATHS)
        assert report.findings == [], "\n" + report.render()
        package = len(list((SRC / "repro").rglob("*.py")))
        linter = len(list((REPO_ROOT / "tools" / "lint").rglob("*.py")))
        assert report.files == package + linter
        assert [rule.rule_id for rule in report.rules] == [f"REPRO00{i}" for i in range(1, 8)]


class TestSeededViolation:
    def test_seeded_violation_fails_the_lint_gate(self, tmp_path):
        scratch = tmp_path / "scratch.py"
        scratch.write_text(BAD_SNIPPET, encoding="utf-8")
        report = lint_paths([SRC, scratch])
        assert report.exit_code() == 1
        assert any(
            f.rule_id == "REPRO001" and f.path.endswith("scratch.py") for f in report.findings
        )

    def test_cli_exits_nonzero_on_violation(self, tmp_path):
        # No allowlist: a wall clock in any repro module fails, the
        # experiments package included.
        scratch = tmp_path / "src" / "repro" / "experiments" / "clocked.py"
        scratch.parent.mkdir(parents=True)
        scratch.write_text(BAD_SNIPPET, encoding="utf-8")
        proc = _cli(str(scratch))
        assert proc.returncode == 1
        assert b"repro/experiments/clocked.py:5:11: REPRO001" in proc.stdout


class TestCli:
    def test_default_run_passes_and_is_byte_identical(self, tmp_path):
        first = _cli()
        second = _cli(cwd=tmp_path)  # the default paths do not depend on the working directory
        assert first.returncode == 0, first.stdout.decode()
        assert second.returncode == 0
        assert first.stdout == second.stdout
        assert b"findings (0): none" in first.stdout
        assert first.stdout.rstrip().endswith(b"result: PASS")

    def test_output_file_matches_stdout(self, tmp_path):
        out = tmp_path / "lint-report.txt"
        proc = _cli("--output", str(out))
        assert proc.returncode == 0
        assert out.read_bytes() == proc.stdout.rstrip(b"\n") + b"\n"

    def test_list_rules(self):
        proc = _cli("--list-rules")
        assert proc.returncode == 0
        for i in range(1, 8):
            assert f"REPRO00{i}".encode() in proc.stdout
