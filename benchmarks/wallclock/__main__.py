"""``python -m benchmarks.wallclock`` (needs ``PYTHONPATH=src``)."""

import sys

from .cli import main

sys.exit(main())
