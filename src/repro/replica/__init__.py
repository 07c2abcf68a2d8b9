"""repro.replica: replicated, self-healing cluster serving.

Four pieces, wired through the existing layers:

* **Replica groups** — ``create_index(..., shards=N, replicas=R)``
  gives the handle a :class:`~repro.cluster.plan.Placement` with R
  copies of every shard slice on distinct pool devices (chained
  declustering: replica ``r`` of shard ``s`` starts on pool device
  ``(s + r) % max(N, R)``). Each copy is its own residency unit under
  the session's aggregate memory budget, and shard scans pick the
  least-loaded live replica per batch.
* **Deterministic fault injection** (:mod:`repro.replica.faults`) — a
  seeded :class:`FaultPlan` of device crash/slowdown/recovery events on
  the virtual clock; failure experiments are bit-reproducible.
* **Retry-on-replica failover** — the plan executor re-dispatches a
  scan that hits a failed device to a surviving replica, charging the
  retry on the batch critical path; results are property-tested
  bit-identical to a fault-free run, and only a fully-down group raises
  :class:`~repro.errors.AvailabilityError`.
* **Self-healing** (:mod:`repro.replica.rebalance`) — a
  :class:`RebalancePolicy` watches the serve layer's rolling shard
  imbalance and recuts hot range partitions online
  (:meth:`IndexHandle.rebalance
  <repro.api.handle.IndexHandle.rebalance>`), and permanently failed
  devices trigger re-replication of their groups
  (:meth:`IndexHandle.re_replicate
  <repro.api.handle.IndexHandle.re_replicate>`); the healed layout is
  recorded in ``handle.placement``, so later rebuilds keep it.

This package holds leaf modules only (the session imports them); the
handle-side logic lives on :class:`~repro.api.handle.IndexHandle`.
"""

from repro.replica.faults import (
    FAULT_KINDS,
    FailoverEvent,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    STATUS_DOWN,
    STATUS_SLOW,
    STATUS_UP,
)
from repro.replica.load import DeviceLoadTracker
from repro.replica.rebalance import RebalancePolicy, balanced_range_bounds

__all__ = [
    "FAULT_KINDS",
    "STATUS_DOWN",
    "STATUS_SLOW",
    "STATUS_UP",
    "DeviceLoadTracker",
    "FailoverEvent",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "RebalancePolicy",
    "balanced_range_bounds",
]

