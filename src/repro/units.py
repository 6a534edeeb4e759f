"""Unit helpers.

The library uses SI base units internally (volts, hertz, watts, seconds,
degrees Celsius for temperature) and exposes small helpers for the
milli/mega-scaled units that the paper reports (mV, MHz, GOPs).
"""

from __future__ import annotations

MV_PER_V = 1000.0
MHZ_PER_HZ = 1e-6
GIGA = 1e9


def mv(millivolts: float) -> float:
    """Convert millivolts to volts: ``mv(850) == 0.850``."""
    return millivolts / MV_PER_V


def to_mv(volts: float) -> float:
    """Convert volts to millivolts: ``to_mv(0.85) == 850.0``."""
    return volts * MV_PER_V


def mhz(megahertz: float) -> float:
    """Convert MHz to Hz: ``mhz(333) == 333e6``."""
    return megahertz * 1e6


def to_mhz(hertz: float) -> float:
    """Convert Hz to MHz: ``to_mhz(333e6) == 333.0``."""
    return hertz * MHZ_PER_HZ


def gops(ops_per_second: float) -> float:
    """Convert raw ops/s to GOPs (giga-operations per second)."""
    return ops_per_second / GIGA


def ns(seconds: float) -> float:
    """Convert seconds to nanoseconds."""
    return seconds * 1e9


def clamp(value: float, low: float, high: float) -> float:
    """Clamp ``value`` into the inclusive range ``[low, high]``."""
    if low > high:
        raise ValueError(f"empty clamp range [{low}, {high}]")
    return max(low, min(high, value))
