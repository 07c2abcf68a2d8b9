"""Machine-speed probe: how fast is this box running right now?

The sandboxes this benchmark runs in change speed by 10 % from one
quarter-minute to the next and by 30-40 % for minutes at a time (a
neighbour's load on the shared memory system; process CPU time rises with
wall time, so it is not steal).  No statistic of a 15-second run survives
that: ten same-code runs spread 7-14 % on a good quarter-hour and 27-33 %
on a bad one, whatever the estimator and for run lengths up to 45 s.

So every run interleaves a fixed numpy kernel -- a strided gather, a
``bincount`` and a masked sum over 8 MB of integers, nothing from
``repro`` -- between its timed calls, once per 50 ms of timed wall, and
reports its wall-clock metrics *at reference speed*: times divided, rates
multiplied, by ``mean probe seconds / NOMINAL_S``.  Measured here, the
probe's 15-second means correlate 0.94-0.97 with the batch workloads' own
call times, and the scaling cuts the spread between 15-second windows of
one process from 18 % to 4 % (``ann_batch``) and from 6-11 % to 2-5 %
(``ocr_sharded``); ``serve_mix``, mostly interpreter-bound, gains less.

Each sample first evicts the probe's lines from the core's private cache
(untimed) and then times one *cold* pass: a cold pass waits on the shared
memory system, which is what the neighbours slow down, while a warm pass
under-reads a slowdown by half.  The price: what the program left in the
shared cache still shows a little -- after ``ann_batch``'s 250 MB scans
the probe reads up to ~10 % slower than after ``serve_mix``'s small ones --
so a change that shrinks a workload's memory traffic also speeds the
probe, and its normalised gain reads smaller than its raw gain.  Both the
raw values and the factor are reported beside the normalised ones
(``raw.*`` lines, ``bench.speed_factor``, the result file) for exactly
that reason.  The probe never calls the program, so a regression cannot
hide in it.
"""

from __future__ import annotations

from statistics import fmean
from time import perf_counter

import numpy as np

#: Probe seconds that count as speed 1.0 — this sandbox when it is quiet.
#: Any constant would do: only ratios between commits on one machine gate.
NOMINAL_S = 8.0e-3
#: Timed wall seconds between two samples of a run's timed phase.
INTERVAL_S = 0.05
#: Samples taken in one go where there is no timed phase to spread them
#: over (after set-up; after a run too short to have been sampled).  The
#: smoke test's tiny runs only need the arithmetic to happen.
BURST = {"full": 10, "tiny": 2}


class SpeedProbe:
    """Times the reference kernel; ``factor`` is how much slower than nominal."""

    def __init__(self):
        self._keys = np.random.default_rng(0).integers(0, 1 << 20, size=1 << 20)
        self._scratch = np.zeros(1 << 20)
        self._sink = 0
        self.samples: list[float] = []
        self.sample()  # the first pass pays page faults, not speed
        self.samples.clear()

    def sample(self) -> None:
        # Untimed: push the probe's own lines out of the core's private
        # cache, so every sample starts equally cold — after a 250 MB
        # batch scan, after a 60 us submit, or back to back in a burst.
        # A cold pass waits on the shared memory system, which is what
        # the neighbours slow down; a warm one barely notices them.
        self._scratch += 1.0
        start = perf_counter()
        counts = np.bincount(self._keys[::2], minlength=1 << 20)
        self._sink = int(self._keys[counts > 1].sum())
        self.samples.append(perf_counter() - start)

    def burst(self, count: int) -> float:
        """``count`` fresh samples now; their speed factor."""
        first = len(self.samples)
        for _ in range(count):
            self.sample()
        return self.factor(first)

    def factor(self, first: int = 0) -> float:
        """Mean of the samples from ``first`` on, over the nominal probe time."""
        return fmean(self.samples[first:]) / NOMINAL_S
