"""Script entry point: ``python3 benchmarks/wallclock/bench.py ...``.

``BENCHMARK.json`` names this file, and every run's child process is
launched through it, because a script needs no ``PYTHONPATH``: it puts
the repository root (for ``benchmarks.wallclock``) and ``src`` (for
``repro``) on ``sys.path`` itself.  ``python -m benchmarks.wallclock``
with ``PYTHONPATH=src`` is the same command line.
"""

import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
_ROOT = _HERE.parent.parent
# Replace the script directory: left in place it would let ``trace.py``
# shadow the standard library's ``trace``.
sys.path[0] = str(_ROOT)
sys.path.insert(1, str(_ROOT / "src"))

from benchmarks.wallclock.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
