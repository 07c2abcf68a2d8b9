"""Tolerance-ANN theory: error bounds and hash-function counts (Section IV-B).

Implements the two ways the paper sizes ``m`` (the number of LSH functions):

* the Hoeffding bound of Theorem 4.1 — ``m = 2 ln(3/delta) / eps^2``
  (2174 functions at eps = delta = 0.06), and
* the much tighter data-independent binomial simulation of Eqn. 9 — the
  smallest ``m`` with ``Pr[|c/m - s| <= eps] >= 1 - delta`` under
  ``c ~ Binomial(m, s)`` (peaks at m = 237 for s = 0.5), which is Fig. 8.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigError

#: The paper's default tolerance parameters (Section VI-A3).
PAPER_EPS = 0.06
PAPER_DELTA = 0.06


def hoeffding_m(eps: float = PAPER_EPS, delta: float = PAPER_DELTA) -> int:
    """Theorem 4.1's function count: ``ceil(2 ln(3/delta) / eps^2)``."""
    if not 0 < eps < 1 or not 0 < delta < 1:
        raise ConfigError("eps and delta must lie in (0, 1)")
    return math.ceil(2.0 * math.log(3.0 / delta) / eps**2)


def success_probability(s: float, m: int, eps: float = PAPER_EPS) -> float:
    """``Pr[|c/m - s| <= eps]`` with ``c ~ Binomial(m, s)`` — Eqn. 9.

    The event ``|c/m - s| <= eps`` corresponds to integer counts ``c`` in
    ``[ceil((s - eps) m), floor((s + eps) m)]``. (Eqn. 9's display writes
    looser floor/ceil limits, but those would make m = 1 trivially succeed;
    the strict limits reproduce the Fig. 8 curve: peak 234 at s = 0.5
    versus the 237 the paper reads off its own simulation.)
    """
    if not 0 <= s <= 1:
        raise ConfigError("similarity s must lie in [0, 1]")
    if m < 1:
        raise ConfigError("m must be >= 1")
    lo = max(0, math.ceil((s - eps) * m))
    hi = min(m, math.floor((s + eps) * m))
    if hi < lo:
        return 0.0
    from scipy.stats import binom  # here, not at the top: most of ``import repro``'s time

    return float(binom.cdf(hi, m, s) - (binom.cdf(lo - 1, m, s) if lo > 0 else 0.0))


def required_m(
    s: float,
    eps: float = PAPER_EPS,
    delta: float = PAPER_DELTA,
    m_max: int = 4096,
) -> int:
    """Smallest ``m`` with ``success_probability(s, m, eps) >= 1 - delta``.

    The probability is not monotone in ``m`` (floor effects), so the search
    scans upward like the paper's simulation does.

    Raises:
        ConfigError: If no ``m <= m_max`` suffices.
    """
    target = 1.0 - delta
    for m in range(1, m_max + 1):
        if success_probability(s, m, eps) >= target:
            return m
    raise ConfigError(f"no m <= {m_max} achieves the ({eps}, {delta}) guarantee at s={s}")


def fig8_curve(
    eps: float = PAPER_EPS,
    delta: float = PAPER_DELTA,
    s_values: np.ndarray | None = None,
) -> list[tuple[float, int]]:
    """The (similarity, required m) series of Fig. 8.

    Args:
        eps: Tolerance.
        delta: Failure probability.
        s_values: Similarity grid; defaults to 0.05..0.95 in steps of 0.05.

    Returns:
        ``(s, m)`` pairs.
    """
    if s_values is None:
        s_values = np.round(np.arange(0.05, 0.96, 0.05), 2)
    return [(float(s), required_m(float(s), eps, delta)) for s in s_values]


def practical_m(eps: float = PAPER_EPS, delta: float = PAPER_DELTA) -> int:
    """The worst-case-over-s required ``m`` — what GENIE configures.

    The maximum of the Fig. 8 curve sits at s = 0.5; the paper reads off
    m = 237 for eps = delta = 0.06.
    """
    return required_m(0.5, eps, delta)


def similarity_estimate(count: int | np.ndarray, m: int):
    """The MLE similarity estimate ``s ≈ c/m`` (Eqn. 7)."""
    if m < 1:
        raise ConfigError("m must be >= 1")
    return np.asarray(count, dtype=np.float64) / float(m)


def tau_from_eps(eps: float) -> float:
    """The tau of tau-ANN achieved with per-point error eps (Theorem 4.2: 2*eps)."""
    return 2.0 * eps
