"""Sequence similarity search under edit distance (Section V-A).

Pipeline: shred sequences into ordered n-grams, index them with GENIE,
retrieve the K candidates with the largest common-gram counts, then verify
with exact edit distance using Algorithm 2's filter bounds. Theorem 5.2
gives a *certificate*: when the K-th candidate's count falls below
``|Q| - n + 1 - tau_k' * n``, the returned top-k is provably the true
top-k; otherwise the search can be repeated with a larger K.

This module holds the result dataclasses of the ``"sequence"`` match model
(which owns the encoding and the verification hook) and
:func:`search_until_certified`, the grow-K-until-certified loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: The paper's defaults for DBLP: K = 32 shortlist, top-1 result.
PAPER_K_CANDIDATES = 32


@dataclass
class SequenceMatch:
    """One verified result: a sequence id with its exact edit distance."""

    sequence_id: int
    distance: int
    count: int


@dataclass
class SequenceSearchResult:
    """Outcome of one sequence query.

    Attributes:
        matches: Up to k verified matches, best (smallest distance) first.
        certified: ``True`` when Theorem 5.2's condition held, i.e. the
            matches are provably the true top-k under edit distance.
        candidates_verified: Edit-distance computations spent.
        shortlist_size: The K used for the GENIE retrieval.
    """

    matches: list[SequenceMatch] = field(default_factory=list)
    certified: bool = False
    candidates_verified: int = 0
    shortlist_size: int = 0

    @property
    def best(self) -> SequenceMatch | None:
        """The most similar verified sequence, if any."""
        return self.matches[0] if self.matches else None


def search_until_certified(
    handle,
    query: str,
    k: int = 1,
    schedule: tuple[int, ...] = (8, 16, 32, 64, 128, 256),
) -> SequenceSearchResult:
    """Repeat the search with growing K until Theorem 5.2 certifies it.

    ``handle`` is a fitted ``"sequence"`` index handle (anything whose
    ``search([query], k=, n_candidates=)`` returns a per-query
    :class:`SequenceSearchResult` payload). Returns the last round's result
    (certified or not — the schedule is finite, as the paper recommends
    balancing time against certainty).
    """
    result = SequenceSearchResult()
    for n_candidates in schedule:
        result = handle.search([query], k=k, n_candidates=n_candidates).payload[0]
        if result.certified:
            return result
    return result
