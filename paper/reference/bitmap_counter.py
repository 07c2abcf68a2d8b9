"""The Bitmap Counter (BC): c-PQ's lower level (Section III-C).

One small saturating counter per object, bit-packed so that a query costs
``n_objects * bits / 8`` bytes instead of the 4 bytes/object a plain Count
Table needs. The packing is real (counters share 32-bit words), because the
memory arithmetic of Table IV depends on it.
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import _ALLOWED_BITS, bits_for_bound
from repro.errors import ConfigError, ObjectIdError


class BitmapCounter:
    """Bit-packed saturating counters, one per object.

    Args:
        n_objects: Number of counters.
        count_bound: Largest value a counter must represent.
        bits: Explicit bit width; derived from ``count_bound`` when omitted.
    """

    def __init__(self, n_objects: int, count_bound: int, bits: int | None = None):
        if n_objects < 0:
            raise ConfigError("n_objects must be non-negative")
        self.n_objects = int(n_objects)
        self.count_bound = int(count_bound)
        self.bits = int(bits) if bits is not None else bits_for_bound(count_bound)
        if self.bits not in _ALLOWED_BITS:
            raise ConfigError(f"bits must be one of {_ALLOWED_BITS}")
        if (1 << self.bits) - 1 < self.count_bound:
            raise ConfigError(
                f"{self.bits}-bit counters cannot reach count bound {self.count_bound}"
            )
        self._per_word = 32 // self.bits
        self._mask = np.uint32((1 << self.bits) - 1)
        n_words = (self.n_objects + self._per_word - 1) // self._per_word
        self._words = np.zeros(max(n_words, 1), dtype=np.uint32)

    @property
    def max_value(self) -> int:
        """Saturation value of a counter."""
        return (1 << self.bits) - 1

    @property
    def nbytes(self) -> int:
        """Bytes of storage — the per-query BC footprint in Table IV."""
        return int(self._words.nbytes)

    def _locate(self, obj_id: int) -> tuple[int, np.uint32]:
        if not 0 <= obj_id < self.n_objects:
            raise ObjectIdError(f"object id {obj_id} out of range [0, {self.n_objects})")
        word, slot = divmod(obj_id, self._per_word)
        return word, np.uint32(slot * self.bits)

    def get(self, obj_id: int) -> int:
        """Current value of one counter."""
        word, shift = self._locate(obj_id)
        return int((self._words[word] >> shift) & self._mask)

    def increment(self, obj_id: int) -> int:
        """Atomically (in the simulated sense) add one; returns the new value.

        Saturates at :attr:`max_value` instead of wrapping.
        """
        word, shift = self._locate(obj_id)
        current = (self._words[word] >> shift) & self._mask
        if current >= self._mask:
            return int(current)
        self._words[word] = (self._words[word] & ~(self._mask << shift)) | (
            (current + np.uint32(1)) << shift
        )
        return int(current) + 1

    def get_many(self, obj_ids: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`get` over an id array."""
        ids = np.asarray(obj_ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.n_objects):
            raise ObjectIdError("object id out of range")
        words = self._words[ids // self._per_word]
        shifts = ((ids % self._per_word) * self.bits).astype(np.uint32)
        return ((words >> shifts) & self._mask).astype(np.int64)

    def load_counts(self, counts: np.ndarray) -> None:
        """Bulk-load final counts (the vectorized fast path's shortcut).

        Values above :attr:`max_value` saturate.
        """
        counts = np.minimum(np.asarray(counts, dtype=np.int64), self.max_value)
        if counts.shape != (self.n_objects,):
            raise ConfigError("counts must have one entry per object")
        self._words[:] = 0
        ids = np.arange(self.n_objects, dtype=np.int64)
        words = ids // self._per_word
        shifts = ((ids % self._per_word) * self.bits).astype(np.uint32)
        np.bitwise_or.at(self._words, words, counts.astype(np.uint32) << shifts)

    def to_array(self) -> np.ndarray:
        """All counter values as a plain ``int64`` array."""
        return self.get_many(np.arange(self.n_objects, dtype=np.int64))

    def reset(self) -> None:
        """Zero all counters."""
        self._words[:] = 0
