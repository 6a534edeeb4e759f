"""Timing model: maximum safe frequency and timing slack vs voltage.

Reducing the supply voltage increases circuit latency; once the critical
path no longer fits in the clock period, timing faults appear (Section 2.2
of the paper).  We model this through a *maximum safe frequency* curve
``Fsafe(V, T)``:

* ``CalibratedDelayModel`` (default) — monotone PCHIP interpolation through
  anchors fitted to Table 2's measured Fmax staircase
  {333, 300, 250, 250, 250, 250, 200} MHz at 570..540 mV.
* ``AlphaPowerDelayModel`` — the classic alpha-power MOSFET law
  ``delay ~ V / (V - Vth)^alpha``; physically principled but it cannot bend
  sharply enough to match the measured staircase, so it is kept for the
  ablation study.

Temperature enters through Inverse Thermal Dependence (ITD, Section 7.2):
in contemporary nodes circuit latency *decreases* as temperature rises, so
``Fsafe`` grows by ``itd_coeff_per_degc`` per degree.

Slack at an operating point is ``1/F - 1/Fsafe(V, T)``; negative slack
drives the fault model in :mod:`repro.faults`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.fpga.calibration import Calibration, DEFAULT_CALIBRATION


def itd_factor(cal: Calibration, v: float, t_c: float | None) -> float:
    """Inverse Thermal Dependence multiplier on Fsafe.

    Circuit latency *decreases* with temperature in contemporary nodes
    (paper Section 7.2); the effect strengthens toward threshold voltage,
    so the coefficient scales as ``(Vnom / V) ** itd_v_exponent``.  The
    reference temperature is the ambient-run die temperature at which the
    Fsafe anchors were fitted.
    """
    if t_c is None:
        return 1.0
    coeff = cal.itd_coeff_per_degc * (cal.vnom / v) ** cal.itd_v_exponent
    return 1.0 + coeff * (t_c - cal.itd_ref_c)


class DelayModel:
    """Interface: continuous maximum safe frequency in MHz."""

    def fsafe_mhz(self, v: float, t_c: float | None = None) -> float:
        raise NotImplementedError

    # ---- derived quantities -------------------------------------------

    def slack_ns(self, v: float, f_mhz: float, t_c: float | None = None) -> float:
        """Timing slack (ns): positive = safe, negative = faulting.

        ``slack = T_clk - T_critical_path = 1000/F - 1000/Fsafe``.
        """
        if f_mhz <= 0:
            raise ValueError(f"frequency must be positive, got {f_mhz}")
        fsafe = self.fsafe_mhz(v, t_c)
        return 1000.0 / f_mhz - 1000.0 / fsafe

    def fmax_on_grid_mhz(
        self,
        v: float,
        grid_mhz: tuple[float, ...],
        t_c: float | None = None,
    ) -> float | None:
        """Largest grid frequency with non-negative slack, or ``None``.

        This mirrors the paper's procedure of stepping the DPU clock down a
        25 MHz grid until accuracy loss disappears (Section 5).
        """
        fsafe = self.fsafe_mhz(v, t_c)
        safe = [f for f in grid_mhz if f <= fsafe]
        return max(safe) if safe else None


def _pchip_edge_slope(h0, h1, m0, m1):
    """One-sided three-point end slope, limited to preserve shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


class _Pchip:
    """Monotone piecewise-cubic Hermite interpolant (Fritsch-Butland).

    Bit-identical to ``scipy.interpolate.PchipInterpolator(x, y,
    extrapolate=False)`` on ``[x[0], x[-1]]``: the knot slopes and the
    per-interval power-basis coefficients use scipy's float64 operations,
    and evaluation sums the terms in scipy's order.  ``x`` must be strictly
    increasing with at least two points.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        h = x[1:] - x[:-1]
        m = (y[1:] - y[:-1]) / h
        d = np.empty_like(y)
        if len(x) == 2:
            d[:] = m[0]
        else:
            flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
            w1 = 2 * h[1:] + h[:-1]
            w2 = h[1:] + 2 * h[:-1]
            with np.errstate(divide="ignore", invalid="ignore"):
                whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
                d[1:-1] = np.where(flat, 0.0, 1.0 / whmean)
            d[0] = _pchip_edge_slope(h[0], h[1], m[0], m[1])
            d[-1] = _pchip_edge_slope(h[-1], h[-2], m[-1], m[-2])
        t = (d[:-1] + d[1:] - 2 * m) / h
        coeffs = np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]), axis=1)
        self._x = x.tolist()
        self._coeffs = coeffs.tolist()

    def __call__(self, v: float) -> float:
        i = min(bisect_right(self._x, v) - 1, len(self._x) - 2)
        c0, c1, c2, c3 = self._coeffs[i]
        s = v - self._x[i]
        return ((c3 + c2 * s) + c1 * (s * s)) + c0 * ((s * s) * s)


class CalibratedDelayModel(DelayModel):
    """Monotone interpolation of the paper's measured Fsafe(V) anchors."""

    def __init__(self, cal: Calibration = DEFAULT_CALIBRATION, vmin_shift_v: float = 0.0):
        """``vmin_shift_v`` rigidly shifts the curve along the voltage axis;
        process variation uses it to move a board's fault onset without
        refitting anchors."""
        self.cal = cal
        self.vmin_shift_v = vmin_shift_v
        anchors = np.asarray(cal.fsafe_anchors_mhz, dtype=float)
        self._v_anchor = anchors[:, 0]
        self._f_anchor = anchors[:, 1]
        self._interp = _Pchip(self._v_anchor, self._f_anchor)
        # Linear extension slopes outside the anchor range.
        self._lo_slope = (self._f_anchor[1] - self._f_anchor[0]) / (
            self._v_anchor[1] - self._v_anchor[0]
        )
        self._hi_slope = (self._f_anchor[-1] - self._f_anchor[-2]) / (
            self._v_anchor[-1] - self._v_anchor[-2]
        )

    def fsafe_mhz(self, v: float, t_c: float | None = None) -> float:
        if v <= 0:
            raise ValueError(f"voltage must be positive, got {v}")
        v_eff = v - self.vmin_shift_v
        lo, hi = self._v_anchor[0], self._v_anchor[-1]
        if v_eff < lo:
            base = self._f_anchor[0] + self._lo_slope * (v_eff - lo)
        elif v_eff > hi:
            base = self._f_anchor[-1] + self._hi_slope * (v_eff - hi)
        else:
            base = float(self._interp(v_eff))
        base = max(base, 1.0)  # keep Fsafe positive; below Vcrash is moot
        return base * itd_factor(self.cal, v, t_c)


class AlphaPowerDelayModel(DelayModel):
    """Alpha-power-law delay: ``delay ~ V / (V - Vth)^alpha``.

    Normalized so ``Fsafe(vmin_anchor) = f_anchor`` — by default the
    fleet-mean (570 mV, 333.5 MHz) anchor, i.e. the board is *just* safe at
    the default clock at Vmin.
    """

    def __init__(
        self,
        cal: Calibration = DEFAULT_CALIBRATION,
        vmin_shift_v: float = 0.0,
        v_anchor: float | None = None,
        f_anchor_mhz: float | None = None,
    ):
        self.cal = cal
        self.vmin_shift_v = vmin_shift_v
        self.vth = cal.alpha_power_vth
        self.alpha = cal.alpha_power_alpha
        v_anchor = cal.vmin_mean if v_anchor is None else v_anchor
        f_anchor_mhz = 333.5 if f_anchor_mhz is None else f_anchor_mhz
        self._scale = f_anchor_mhz / self._unit_fsafe(v_anchor)

    def _unit_fsafe(self, v: float) -> float:
        if v <= self.vth:
            return 1e-9  # beyond deep sub-threshold: effectively zero
        return (v - self.vth) ** self.alpha / v

    def fsafe_mhz(self, v: float, t_c: float | None = None) -> float:
        if v <= 0:
            raise ValueError(f"voltage must be positive, got {v}")
        v_eff = v - self.vmin_shift_v
        base = max(self._scale * self._unit_fsafe(v_eff), 1.0)
        return base * itd_factor(self.cal, v, t_c)


@dataclass(frozen=True)
class OperatingPoint:
    """A (voltage, frequency, temperature) triple for the VCCINT domain."""

    vccint_v: float
    f_mhz: float
    t_c: float

    def __post_init__(self):
        if self.vccint_v <= 0:
            raise ValueError(f"voltage must be positive, got {self.vccint_v}")
        if self.f_mhz <= 0:
            raise ValueError(f"frequency must be positive, got {self.f_mhz}")

    @property
    def vccint_mv(self) -> float:
        return self.vccint_v * 1000.0

    def replace(self, **kwargs) -> "OperatingPoint":
        from dataclasses import replace as _replace

        return _replace(self, **kwargs)
