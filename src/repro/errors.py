"""Exception hierarchy for the GENIE reproduction.

Every error raised by this package derives from :class:`ReproError` so that
callers can catch one base class. Subclasses mirror the major subsystems:
the simulated GPU device, index construction, and query execution.

:class:`QueryError` and :class:`ConfigError` are also ``ValueError``s: a
malformed query or an inconsistent configuration *is* a bad value, and
code written against the seed-era modules (which raised the builtin)
keeps catching them; :class:`UnknownNameError` and :class:`ObjectIdError`
are a ``KeyError`` and an ``IndexError`` on the same grounds.
"""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class GpuError(ReproError):
    """Base class for simulated-GPU failures."""


class GpuOutOfMemoryError(GpuError):
    """Raised when an allocation would exceed the device's global memory."""

    def __init__(self, requested, used, capacity):
        self.requested = int(requested)
        self.used = int(used)
        self.capacity = int(capacity)
        super().__init__(
            f"cannot allocate {self.requested} bytes: "
            f"{self.used}/{self.capacity} bytes already in use"
        )


class GpuAllocationError(GpuError):
    """Raised on invalid allocation handling (double free, stale handle)."""


class MalformedIndexError(ReproError):
    """Raised when an inverted index's arrays do not describe a valid index."""


class QueryError(ReproError, ValueError):
    """Raised when a query is malformed for the index it is issued against."""


class ConfigError(ReproError, ValueError):
    """Raised when an engine or structure is configured inconsistently."""


class UnknownNameError(ReproError, KeyError):
    """Raised when a dataset or table column is looked up by an unknown name."""


class ObjectIdError(ReproError, IndexError):
    """Raised when an object id falls outside a structure's ``[0, n_objects)``."""


class InvariantError(ReproError):
    """Raised when a structure's internal invariant is found violated.

    Unlike ``assert`` (stripped under ``python -O``), this check always
    runs, and unlike a generic crash it is catchable as a
    :class:`ReproError` — a caller probing a structure's health gets a
    taxonomy error, not an interpreter artifact.
    """


class AvailabilityError(ReproError):
    """Raised when every copy of a scan source is unavailable.

    A scan that hits a failed device fails over to a surviving replica
    (see :mod:`repro.replica`); only when *every* copy of the source is
    down does the search fail — with this error, never a hang or a
    silently partial result. Carries the index name, the source's part
    position (the shard, on a sharded index), the pool positions of the
    devices that were tried, and — when the source was the delta run of
    a mutated index rather than a base part — ``segment`` 0 (``None`` otherwise).
    """

    def __init__(self, index, shard, devices, segment=None):
        self.index = str(index)
        self.shard = int(shard)
        self.devices = tuple(int(d) for d in devices)
        self.segment = None if segment is None else int(segment)
        source = f"shard {self.shard}" if segment is None else "delta run"
        super().__init__(
            f"{source} of index {self.index!r} has no live replica "
            f"(pool devices {list(self.devices)} are down)"
        )


class AdmissionError(ReproError):
    """Raised when a serving queue refuses a request (explicit backpressure).

    The online server never drops requests silently: when the bounded
    request queue is full, submission fails with this error so the caller
    can retry, shed load, or slow down.
    """

    def __init__(self, depth, limit):
        self.depth = int(depth)
        self.limit = int(limit)
        super().__init__(
            f"request queue is full ({self.depth}/{self.limit} pending); "
            f"retry later or raise max_queue_depth"
        )
