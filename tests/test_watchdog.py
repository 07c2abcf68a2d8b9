"""The root conftest's watchdog: a hung test dies with a stack dump, not a stalled run."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_a_sleeping_test_dies_with_a_stack_dump(tmp_path):
    (tmp_path / "test_sleeps.py").write_text("import time\n\n\ndef test_sleeps():\n    time.sleep(600)\n")
    # The root conftest loaded as a plugin, with its deadline cut to one second.
    (tmp_path / "short_deadline.py").write_text("import conftest\n\nconftest.HANG_TIMEOUT_S = 1.0\n")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-p", "conftest", "-p", "short_deadline", "test_sleeps.py"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": f"{ROOT}{os.pathsep}{tmp_path}"},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1
    assert "Timeout (0:00:01)!" in done.stderr
    assert 'test_sleeps.py", line 5 in test_sleeps' in done.stderr
    assert "passed" not in done.stdout and "failed" not in done.stdout  # the run ended at the hang
