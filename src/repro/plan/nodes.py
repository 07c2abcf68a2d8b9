"""The query-plan IR: small, explainable, stable to render.

Every search in the session layer lowers to one tree of plan nodes::

    Finalize                 (only for models with a verify/rerank hook)
      Merge                  (one-round | two-round-tput; absent for a
                              single-part serial scan)
        Scan | ShardScan     (the physical retrieval step)
          Encode             (raw queries -> keyword queries, with any
                              skip-empty / cache elision recorded)

Nodes are *logical descriptions* — frozen, hashable, safe to keep on a
:class:`~repro.api.session.SearchResult` — while the physical execution
annotations (active query positions, per-shard route arrays, the
first-round ``k``) live on the planner's
:class:`~repro.plan.planner.CompiledPlan`. ``render()`` produces a stable
text tree used by ``IndexHandle.explain()`` and snapshot-tested, so its
format is an API: change it deliberately.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Render at most this many explicit query positions per routing line.
_MAX_LISTED_QUERIES = 8


@dataclass(frozen=True)
class PlanNode:
    """Base plan node: a label, optional annotations, and input nodes."""

    inputs: tuple["PlanNode", ...] = field(default=(), kw_only=True)

    def label(self) -> str:
        """One-line description of this node (no newlines)."""
        return type(self).__name__

    def annotations(self) -> tuple[str, ...]:
        """Extra per-node detail lines rendered under the label."""
        return ()

    def render(self) -> str:
        """The whole subtree as a stable, indented text plan."""
        return "\n".join(self._render_lines(prefix="", connector=""))

    def _render_lines(self, prefix: str, connector: str) -> list[str]:
        lines = [f"{prefix}{connector}{self.label()}"]
        child_prefix = prefix if not connector else prefix + "   "
        for note in self.annotations():
            lines.append(f"{child_prefix}· {note}")
        for node in self.inputs:
            lines.extend(node._render_lines(child_prefix, "└─ "))
        return lines

    def walk(self):
        """Yield this node and every descendant, pre-order."""
        yield self
        for node in self.inputs:
            yield from node.walk()

    def find(self, node_type: type) -> "PlanNode | None":
        """First node of ``node_type`` in pre-order, or ``None``."""
        for node in self.walk():
            if isinstance(node, node_type):
                return node
        return None

    def __str__(self) -> str:
        return self.render()


def _positions(positions: tuple[int, ...]) -> str:
    if len(positions) > _MAX_LISTED_QUERIES:
        return f"{len(positions)} queries"
    return "queries [" + ", ".join(str(p) for p in positions) + "]"


@dataclass(frozen=True)
class EncodeNode(PlanNode):
    """Raw queries -> encoded keyword queries, with elision recorded.

    Attributes:
        model: Match-model name doing the encoding.
        n_queries: Raw queries entering the plan.
        elided: Query positions that drop out of the scan — skip-empty
            queries (no indexed keywords) here; cache hits are elided one
            layer up, at server admission, and never reach a plan.
    """

    model: str
    n_queries: int
    elided: tuple[int, ...] = ()

    def label(self) -> str:
        if not self.elided:
            note = ""
        elif len(self.elided) > _MAX_LISTED_QUERIES:
            note = f", elided={len(self.elided)} queries"
        else:
            note = f", elided={list(self.elided)}"
        return f"Encode(model={self.model!r}, queries={self.n_queries}{note})"


@dataclass(frozen=True)
class ScanNode(PlanNode):
    """Serial scan of one index's part(s) on the session device.

    Attributes:
        index: Index name.
        parts: Corpus parts swept (1 unless ``part_size=`` partitioned).
        swap_parts: Whether each part is evicted right after its scan
            (the paper's multi-loading protocol).
        n_queries: Queries scanned (after elision).
        k: Per-part retrieval width (the model's shortlist ``k``).
    """

    index: str
    parts: int
    swap_parts: bool
    n_queries: int
    k: int

    def label(self) -> str:
        swap = ", swap_parts" if self.swap_parts else ""
        return (
            f"Scan(index={self.index!r}, parts={self.parts}{swap}, "
            f"queries={self.n_queries}, k={self.k})"
        )


@dataclass(frozen=True)
class ShardScanNode(PlanNode):
    """Concurrent scan of a sharded index, possibly shard-pruned.

    Pruning is *batch-granular*: a shard with at least one eligible query
    scans the whole coalesced batch in one launch (the device cost model
    rewards thick launches — atomics amortize over the active SMs), and a
    shard with none is skipped entirely, so a scanned shard's launch is
    identical to its broadcast launch and the critical path can only
    shrink.

    Attributes:
        index: Index name.
        strategy: Partition strategy (``"range"`` / ``"hash"``).
        n_shards: Shards the corpus is partitioned into.
        n_queries: Queries scanned (after elision).
        k: Per-shard retrieval width for the scan round.
        eligible: Per shard, the (original) positions of the queries whose
            keyword bounds intersect the shard — why the shard is scanned.
            A shard with an empty tuple is pruned.
        broadcast: ``True`` when no shard was pruned.
    """

    index: str
    strategy: str
    n_shards: int
    n_queries: int
    k: int
    eligible: tuple[tuple[int, ...], ...]
    broadcast: bool

    def label(self) -> str:
        scanned = sum(1 for positions in self.eligible if positions)
        mode = "broadcast" if self.broadcast else f"routed shards={scanned}/{self.n_shards}"
        return (
            f"ShardScan(index={self.index!r}, strategy={self.strategy!r}, "
            f"shards={self.n_shards}, queries={self.n_queries}, k={self.k}, {mode})"
        )

    def annotations(self) -> tuple[str, ...]:
        if self.broadcast:
            return ()
        notes = []
        for shard, positions in enumerate(self.eligible):
            target = f"eligible {_positions(positions)}" if positions else "(pruned)"
            notes.append(f"shard {shard} ← {target}")
        return tuple(notes)


@dataclass(frozen=True)
class DeltaScanNode(PlanNode):
    """Scan of a mutated index's delta run (see :mod:`repro.stream`).

    Emitted next to the base ``Scan``/``ShardScan`` whenever the handle
    carries live mutations; the parent merge composes base and delta
    candidates exactly, with the base candidates filtered against the
    tombstone set first. The delta run lives on the session's primary
    device and always scans the whole active batch — its contents are
    arbitrary recent writes, so no keyword-bound routing applies.

    Attributes:
        index: Index name.
        n_objects: Live objects in the run.
        postings: Total delta (object, keyword) pairs — the extra scan
            work every query pays until the next compaction.
        tombstones: Dead base ids filtered out of the base candidates.
        n_queries: Queries scanned (after elision).
        k: The run's retrieval width.
    """

    index: str
    n_objects: int
    postings: int
    tombstones: int
    n_queries: int
    k: int

    def label(self) -> str:
        return (
            f"DeltaScan(index={self.index!r}, objects={self.n_objects}, postings={self.postings}, "
            f"tombstones={self.tombstones}, queries={self.n_queries}, k={self.k})"
        )


@dataclass(frozen=True)
class MergeNode(PlanNode):
    """Host-side candidate merge across parts or shards.

    Attributes:
        strategy: ``"one-round"`` (every source returns its full top-k)
            or ``"two-round-tput"`` (first round fetches
            ``first_round_k < k`` per shard, second round tops up only
            the shards whose round-one threshold proves it necessary).
        k: Final merged result width.
        first_round_k: Round-one per-shard fetch width (TPUT only).
    """

    strategy: str
    k: int
    first_round_k: int | None = None

    def label(self) -> str:
        extra = (
            f", first_round_k={self.first_round_k}"
            if self.first_round_k is not None
            else ""
        )
        return f"Merge({self.strategy}, k={self.k}{extra})"


@dataclass(frozen=True)
class FinalizeNode(PlanNode):
    """The model's verify/rerank hook over the merged shortlist."""

    model: str
    k: int

    def label(self) -> str:
        return f"Finalize(model={self.model!r}, k={self.k})"


@dataclass(frozen=True)
class RoutingSummary:
    """How much shard work a plan's routing avoided, for observability.

    One ``(query, shard)`` *pair* is one per-shard query scan; broadcast
    execution scans every pair. Pruning is batch-granular (see
    :class:`ShardScanNode`), so pruned pairs come in whole-shard units:
    ``pruned_pairs = pruned_shards * n_queries``.

    Attributes:
        n_shards: Shards in the scanned index.
        n_queries: Queries that reached the scan (after elision).
        scanned_pairs: Pairs actually executed.
        pruned_pairs: Pairs avoided by shard pruning.
    """

    n_shards: int
    n_queries: int
    scanned_pairs: int
    pruned_pairs: int

    @property
    def broadcast(self) -> bool:
        """Whether every (query, shard) pair was scanned."""
        return self.pruned_pairs == 0

    @property
    def pruned_fraction(self) -> float:
        """Fraction of pairs avoided (0.0 for broadcast or empty scans)."""
        total = self.scanned_pairs + self.pruned_pairs
        return self.pruned_pairs / total if total else 0.0
