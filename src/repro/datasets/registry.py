"""Named dataset registry mapping the paper's datasets to scaled generators.

Experiments refer to datasets by the paper's names (``ocr``, ``sift``,
``sift_large``, ``dblp``, ``tweets``, ``adult``); the registry owns the
default laptop-scale sizes and the seed discipline so every figure/table is
generated from the same data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.datasets.documents import make_tweets_like
from repro.datasets.relational import make_adult_like
from repro.datasets.sequences import make_dblp_like
from repro.datasets.synthetic import make_ocr_like, make_sift_like
from repro.errors import UnknownNameError


@dataclass(frozen=True)
class DatasetInfo:
    """Registry entry.

    Attributes:
        name: Paper dataset name.
        kind: ``points`` / ``sequences`` / ``documents`` / ``relational``.
        paper_size: The paper's dataset cardinality (for documentation).
        default_n: Scaled default cardinality used by experiments here.
        loader: Generator callable accepting ``n`` and ``seed``.
    """

    name: str
    kind: str
    paper_size: str
    default_n: int
    loader: Callable


REGISTRY: dict[str, DatasetInfo] = {
    "ocr": DatasetInfo(
        name="ocr",
        kind="points",
        paper_size="3.5M x 1156-d",
        default_n=8_000,
        loader=lambda n, seed=0: make_ocr_like(n=n, seed=seed),
    ),
    "sift": DatasetInfo(
        name="sift",
        kind="points",
        paper_size="4.5M x 128-d",
        default_n=8_000,
        loader=lambda n, seed=0: make_sift_like(n=n, seed=seed),
    ),
    "sift_large": DatasetInfo(
        name="sift_large",
        kind="points",
        paper_size="36M x 128-d",
        default_n=48_000,
        loader=lambda n, seed=0: make_sift_like(n=n, seed=seed),
    ),
    "dblp": DatasetInfo(
        name="dblp",
        kind="sequences",
        paper_size="5.0M titles",
        default_n=4_000,
        loader=lambda n, seed=0: make_dblp_like(n=n, seed=seed),
    ),
    "tweets": DatasetInfo(
        name="tweets",
        kind="documents",
        paper_size="6.8M tweets",
        default_n=8_000,
        loader=lambda n, seed=0: make_tweets_like(n=n, seed=seed),
    ),
    "adult": DatasetInfo(
        name="adult",
        kind="relational",
        paper_size="0.98M x 14",
        default_n=16_000,
        loader=lambda n, seed=0: make_adult_like(n=n, seed=seed),
    ),
}


def dataset_names() -> list[str]:
    """All registered dataset names, in the paper's presentation order."""
    return list(REGISTRY.keys())


def load(name: str, n: int | None = None, seed: int = 0):
    """Generate a registered dataset.

    Args:
        name: Registry key (e.g. ``"sift"``).
        n: Cardinality override; the registry default when omitted.
        seed: RNG seed.

    Returns:
        Whatever the dataset's generator produces (see each generator).
    """
    info = REGISTRY.get(name)
    if info is None:
        raise UnknownNameError(f"unknown dataset {name!r}; known: {dataset_names()}")
    return info.loader(n if n is not None else info.default_n, seed=seed)
