"""Shared setup helpers for the experiment runners.

Each helper builds one "system under test" on a fresh simulated device so
experiments compare like against like. GENIE systems are built through the
unified :mod:`repro.api` session layer. Default scales are laptop-sized;
every runner takes overrides (see EXPERIMENTS.md for the scale mapping to
the paper's setup).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api.models import AnnModel
from repro.api.session import GenieSession, IndexHandle
from repro.core.engine import GenieConfig
from repro.datasets.synthetic import PointDataset
from repro.lsh.e2lsh import E2Lsh
from repro.lsh.rbh import RandomBinningHash, estimate_kernel_width

#: Default number of LSH functions for experiments (scaled from the
#: paper's 237; the ratio m/domain is kept comparable).
DEFAULT_M = 64

#: Default re-hash domain for E2LSH (the paper's 67 buckets on SIFT).
DEFAULT_DOMAIN = 67

#: Default k (the paper uses 100; scaled with the dataset sizes).
DEFAULT_K = 10


@dataclass
class AnnSetup:
    """A fitted GENIE ANN index together with its session and dataset.

    Attributes:
        dataset: The point dataset the index was fitted on.
        session: The owning :class:`~repro.api.session.GenieSession`
            (its ``device`` / ``host`` are the simulated GPU and CPU).
        handle: The fitted index's uniform search surface.
    """

    dataset: PointDataset
    session: GenieSession
    handle: IndexHandle


def _ann_setup(dataset: PointDataset, family, domain: int, k: int,
               config: GenieConfig | None, seed: int) -> AnnSetup:
    session = GenieSession()  # a fresh simulated device and host per system
    handle = session.create_index(
        dataset.data,
        model=AnnModel(family, domain=domain, seed=seed),
        config=(config or GenieConfig()).with_(k=k),
    )
    return AnnSetup(dataset=dataset, session=session, handle=handle)


def fit_genie_sift(
    dataset: PointDataset,
    m: int = DEFAULT_M,
    domain: int = DEFAULT_DOMAIN,
    width: float = 4.0,
    k: int = DEFAULT_K,
    config: GenieConfig | None = None,
    seed: int = 0,
) -> AnnSetup:
    """GENIE over E2LSH signatures (the SIFT configuration)."""
    family = E2Lsh(m, dataset.dim, width, p=2, seed=seed)
    return _ann_setup(dataset, family, domain, k, config, seed)


def fit_genie_ocr(
    dataset: PointDataset,
    m: int = 32,
    domain: int = 1024,
    k: int = DEFAULT_K,
    config: GenieConfig | None = None,
    seed: int = 0,
) -> AnnSetup:
    """GENIE over Random Binning Hashing (the OCR / Laplacian-kernel setup).

    The kernel width follows the paper's heuristic: the mean pairwise l1
    distance of a data sample.
    """
    sigma = estimate_kernel_width(dataset.data, seed=seed)
    family = RandomBinningHash(m, dataset.dim, sigma, seed=seed)
    return _ann_setup(dataset, family, domain, k, config, seed)


def genie_batch_seconds(setup: AnnSetup, query_points: np.ndarray, k: int = DEFAULT_K) -> float:
    """Run one batch on a fitted GENIE setup; returns simulated seconds."""
    result = setup.handle.search(query_points, k=k)
    return result.profile.query_total()


def reported_distances(
    dataset: PointDataset, query_points: np.ndarray, results, p: int = 2
) -> np.ndarray:
    """True lp distances of each result's reported neighbour ids.

    Rows are padded with the worst reported distance when a result returned
    fewer than the maximum number of ids (so ratio metrics stay defined).
    """
    widths = [len(r.ids) for r in results]
    k = max(widths, default=0)
    out = np.zeros((len(results), k), dtype=np.float64)
    for i, (qp, result) in enumerate(zip(np.atleast_2d(query_points), results)):
        if len(result.ids) == 0:
            out[i, :] = np.inf
            continue
        d = np.linalg.norm(dataset.data[result.ids] - qp[None, :], ord=p, axis=1)
        d = np.sort(d)
        out[i, : d.size] = d
        if d.size < k:
            out[i, d.size :] = d[-1]
    return out


__all__ = [
    "DEFAULT_M",
    "DEFAULT_DOMAIN",
    "DEFAULT_K",
    "AnnSetup",
    "fit_genie_sift",
    "fit_genie_ocr",
    "genie_batch_seconds",
    "reported_distances",
]
