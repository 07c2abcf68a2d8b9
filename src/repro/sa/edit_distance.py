"""Edit (Levenshtein) distance by full dynamic programming.

The verification step of GENIE's sequence search (Algorithm 2) computes
exact edit distances between the query and the shortlisted candidates.
"""

from __future__ import annotations

import numpy as np


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


def edit_distance_ops(len_a: int, len_b: int) -> float:
    """Abstract CPU op count of an edit-distance computation (for timing): the DP's cells."""
    return float(len_a) * float(len_b)
