"""Statistics over repeated measurements.

The paper averages each reported value over 10 experiments and notes the
variation was negligible (Section 4).  ``summarize`` provides the same
treatment plus a confidence interval so the reproduction can *verify* the
negligibility claim rather than assume it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Summary:
    """Mean/std/CI of one repeated measurement."""

    n: int
    mean: float
    std: float
    ci95_half_width: float

    @property
    def ci95(self) -> tuple[float, float]:
        return (self.mean - self.ci95_half_width, self.mean + self.ci95_half_width)

    @property
    def relative_std(self) -> float:
        return self.std / abs(self.mean) if self.mean else 0.0


def summarize(values: Sequence[float]) -> Summary:
    """Mean, sample std, and 95% t-interval half-width.

    The Student-t quantile comes from :mod:`scipy.stats`, imported on the
    first call with two or more values; nothing else in the package needs
    scipy.
    """
    values = list(values)
    if not values:
        raise ValueError("cannot summarize an empty sequence")
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return Summary(n=1, mean=mean, std=0.0, ci95_half_width=0.0)
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    std = math.sqrt(var)
    from scipy import stats as _scipy_stats

    t_crit = float(_scipy_stats.t.ppf(0.975, df=n - 1))
    return Summary(n=n, mean=mean, std=std, ci95_half_width=t_crit * std / math.sqrt(n))


def mean_of(values: Sequence[float]) -> float:
    values = list(values)
    if not values:
        raise ValueError("cannot average an empty sequence")
    return sum(values) / len(values)


def spread(values: Sequence[float]) -> float:
    """max - min; the paper's board-to-board 'delta' statistic."""
    values = list(values)
    if not values:
        raise ValueError("cannot compute spread of an empty sequence")
    return max(values) - min(values)
