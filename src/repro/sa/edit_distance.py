"""Edit (Levenshtein) distance: full DP and banded variants.

The verification step of GENIE's sequence search (Algorithm 2) computes
exact edit distances between the query and the shortlisted candidates; the
banded variant (Ukkonen) prunes computation once a known bound is exceeded,
which is what the verifier's running upper bound enables.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError


def edit_distance(a: str, b: str) -> int:
    """Exact Levenshtein distance by row-vectorized dynamic programming."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):
        a, b = b, a  # iterate over the longer string, keep the row short
    b_arr = np.frombuffer(b.encode("utf-32-le"), dtype=np.uint32)
    row = np.arange(len(b) + 1, dtype=np.int64)
    for i, ch in enumerate(a, start=1):
        prev = row
        code = np.uint32(ord(ch))
        substitute = prev[:-1] + (b_arr != code)
        row = np.empty_like(prev)
        row[0] = i
        # delete from `a`: prev[1:] + 1; the insert term needs a serial
        # prefix pass, done with minimum.accumulate below.
        np.minimum(substitute, prev[1:] + 1, out=row[1:])
        # insert: row[j-1] + 1 propagated left-to-right.
        row[1:] = np.minimum.accumulate(
            row[1:] - np.arange(1, len(b) + 1)
        ) + np.arange(1, len(b) + 1)
        row[1:] = np.minimum(row[1:], row[:-1] + 1)
    return int(row[-1])


def edit_distance_bounded(a: str, b: str, bound: int) -> int:
    """Banded edit distance: exact if <= ``bound``, else ``bound + 1``.

    Args:
        a: First string.
        b: Second string.
        bound: Maximum distance of interest.

    Returns:
        ``ed(a, b)`` when it does not exceed ``bound``; any value larger
        than ``bound`` (specifically ``bound + 1``) otherwise.
    """
    if bound < 0:
        raise ConfigError("bound must be non-negative")
    if abs(len(a) - len(b)) > bound:
        return bound + 1
    if a == b:
        return 0
    if not a or not b:
        # One side empty: the distance is the other side's length, and the
        # band arithmetic below assumes at least one column.
        return max(len(a), len(b))
    if len(a) < len(b):
        a, b = b, a
    la, lb = len(a), len(b)
    big = bound + 1
    prev = np.minimum(np.arange(lb + 1, dtype=np.int64), big)
    for i in range(1, la + 1):
        row = np.full(lb + 1, big, dtype=np.int64)
        lo = max(1, i - bound)
        hi = min(lb, i + bound)
        if lo > hi:
            return bound + 1
        row[0] = i if i <= bound else big
        ai = a[i - 1]
        for j in range(lo, hi + 1):
            cost = 0 if ai == b[j - 1] else 1
            row[j] = min(prev[j - 1] + cost, prev[j] + 1, row[j - 1] + 1, big)
        if row[lo : hi + 1].min() > bound:
            return bound + 1
        prev = row
    return int(min(prev[-1], big))


def edit_distance_ops(len_a: int, len_b: int, bound: int | None = None) -> float:
    """Abstract CPU op count of an edit-distance computation (for timing).

    A full DP touches ``len_a * len_b`` cells; a banded run touches about
    ``min(len_a, len_b) * (2 * bound + 1)`` cells.
    """
    if bound is None:
        return float(len_a) * float(len_b)
    return float(min(len_a, len_b)) * float(2 * bound + 1)
