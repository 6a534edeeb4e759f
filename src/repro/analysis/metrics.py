"""Efficiency metrics and normalization helpers.

GOPs/J lives on :attr:`repro.core.session.Measurement.gops_per_joule`.
"""

from __future__ import annotations

from typing import Sequence


def gops_per_watt(gops: float, power_w: float) -> float:
    """The paper's headline power-efficiency metric."""
    if power_w <= 0:
        raise ValueError(f"power must be positive, got {power_w}")
    return gops / power_w


def normalize(values: Sequence[float], baseline: float) -> list[float]:
    """Divide every value by ``baseline`` (Table 2's normalization)."""
    if baseline == 0:
        raise ValueError("baseline must be non-zero")
    return [v / baseline for v in values]


def improvement_factor(new: float, old: float) -> float:
    """How many times better ``new`` is than ``old`` (paper's 'X' factors)."""
    if old == 0:
        raise ValueError("old value must be non-zero")
    return new / old


def percent_gain(new: float, old: float) -> float:
    """Percentage improvement (paper's '+43%'-style numbers)."""
    return (improvement_factor(new, old) - 1.0) * 100.0
