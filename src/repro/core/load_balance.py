"""Load balancing by splitting long postings lists (Section III-B1).

Some keywords (e.g. a categorical attribute with two values over millions of
rows) produce postings lists so long that the single block scanning them
dominates the kernel's makespan. GENIE's remedy is to split any list longer
than a limit into sublists and let the position map point one keyword at
many sublists; a block then takes at most a couple of sublists.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

#: The sublist length limit the paper uses (4K entries).
PAPER_MAX_SUBLIST = 4096

#: The paper limits each block to at most two (sub-)postings lists.
PAPER_LISTS_PER_BLOCK = 2


@dataclass(frozen=True)
class LoadBalanceConfig:
    """Configuration of the list-splitting load balancer.

    Attributes:
        max_sublist_len: Lists longer than this are split into sublists of
            at most this length.
        max_lists_per_block: How many (sub-)lists one block may scan.
    """

    max_sublist_len: int = PAPER_MAX_SUBLIST
    max_lists_per_block: int = PAPER_LISTS_PER_BLOCK

    def __post_init__(self):
        if self.max_sublist_len < 1:
            raise ConfigError("max_sublist_len must be >= 1")
        if self.max_lists_per_block < 1:
            raise ConfigError("max_lists_per_block must be >= 1")


def split_span(start: int, end: int, max_len: int) -> list[tuple[int, int]]:
    """Split the half-open span ``[start, end)`` into chunks of ``max_len``.

    Returns:
        Sub-spans covering the input exactly, each at most ``max_len`` long.
        A span within the limit is returned unchanged (as a single chunk).
    """
    if end < start:
        raise ConfigError("end must be >= start")
    if end - start <= max_len:
        return [(start, end)]
    return [(lo, min(lo + max_len, end)) for lo in range(start, end, max_len)]


def group_spans_into_blocks(spans: list[tuple[int, int]], lists_per_block: int) -> list[list[tuple[int, int]]]:
    """Group sublist spans into per-block work assignments.

    Args:
        spans: Sub-spans produced by :func:`split_span`.
        lists_per_block: Maximum spans any block may take.

    Returns:
        One list of spans per block.
    """
    if lists_per_block < 1:
        raise ConfigError("lists_per_block must be >= 1")
    return [spans[i : i + lists_per_block] for i in range(0, len(spans), lists_per_block)]
