"""Top-k selection on relational tables (Sections II-A and V-C).

A tuple becomes the keyword set ``{(attribute, value)}`` — continuous
attributes are first discretized into equal-width intervals (the paper uses
1024 on Adult). A range-selection query turns each per-attribute range into
one query item containing every keyword in the range; GENIE then ranks
tuples by how many of their attributes fall inside the query's ranges.

This module holds the encoding primitives (:class:`AttributeSpec`,
:class:`Discretizer`) the ``"relational"`` match model encodes with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError

#: Discretization granularity the paper uses for Adult's numeric attributes.
PAPER_NUM_BINS = 1024


@dataclass(frozen=True)
class AttributeSpec:
    """Schema entry for one column.

    Attributes:
        name: Column name.
        kind: ``"categorical"`` (values are small non-negative ints) or
            ``"numeric"`` (values are floats, discretized at fit time).
        bins: Discretization granularity for numeric columns.
    """

    name: str
    kind: str = "numeric"
    bins: int = PAPER_NUM_BINS

    def __post_init__(self):
        if self.kind not in ("numeric", "categorical"):
            raise ConfigError(f"unknown attribute kind: {self.kind}")
        if self.bins < 1:
            raise ConfigError("bins must be >= 1")


class Discretizer:
    """Equal-width binning for one numeric column.

    A degenerate range (a constant column, ``lo == hi``) collapses to the
    single valid bin 0 — no division by the zero-width span ever happens,
    and every transformed value stays inside ``[0, bins)``.
    """

    def __init__(self, bins: int):
        self.bins = int(bins)
        self.lo = 0.0
        self.hi = 1.0

    def fit(self, values: np.ndarray) -> "Discretizer":
        """Learn the value range from data.

        Raises:
            ConfigError: If ``values`` is empty or contains non-finite
                entries (the range would be undefined).
        """
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            raise ConfigError("cannot fit a discretizer on an empty column")
        if not np.isfinite(values).all():
            raise ConfigError("numeric column contains non-finite values")
        self.lo = float(values.min())
        self.hi = float(values.max())
        return self

    def transform(self, values: np.ndarray) -> np.ndarray:
        """Bin ids in ``[0, bins)``; out-of-range values, ``±inf`` too, clamp to the edges as floats."""
        values = np.asarray(values, dtype=np.float64)
        span = self.hi - self.lo
        if not span > 0:  # constant column, or an unfitted degenerate range
            return np.zeros(values.shape, dtype=np.int64)
        raw = np.floor((values - self.lo) / span * self.bins)
        return np.minimum(np.maximum(raw, 0), self.bins - 1).astype(np.int64)


def bin_code(value: float, lo: float, span: float, bins: int) -> int:
    """:meth:`Discretizer.transform` of one float: the same float64 operations in the same order."""
    if not span > 0:
        return 0
    return int(min(max((value - lo) / span * bins, 0.0), bins - 1))  # on [0, bins - 1] truncation is the floor
