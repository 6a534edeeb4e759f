"""Thermal plant: fan control and die temperature.

The paper regulates the on-die temperature between 34 and 52 degC by driving
the board fan through PMBus and reading the temperature back over the same
bus (Section 7).  We model a first-order thermal plant:

    T_die = T_ambient + R_theta(fan_duty) * P_total

with a fan-speed-dependent thermal resistance.  Campaigns either set a fan
duty and let the plant settle, or ask for a *target* temperature and let the
controller solve for the duty that achieves it (mirroring the paper's
"control the fan speed to test different ambient temperatures").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fpga.calibration import Calibration, DEFAULT_CALIBRATION
from repro.units import clamp


@dataclass
class FanModel:
    """Thermal resistance (degC/W) as a function of fan duty (0..100%).

    ``r_theta`` interpolates between ``r_max`` at 0% duty and ``r_min`` at
    100% duty with a convex profile (most of the airflow benefit arrives at
    low duty, as with real axial fans).
    """

    #: Authority range: 0.55 degC/W at full airflow up to 8 degC/W with the
    #: fan off — wide enough to hold the paper's 34..52 degC window across
    #: every operating point of the study, including the ~3.3 W crash-edge
    #: points of Figures 9 and 10.
    r_min_c_per_w: float = 0.55
    r_max_c_per_w: float = 8.00
    convexity: float = 0.5

    def r_theta(self, duty_percent: float) -> float:
        duty = clamp(duty_percent, 0.0, 100.0) / 100.0
        span = self.r_max_c_per_w - self.r_min_c_per_w
        return self.r_max_c_per_w - span * duty ** self.convexity

    def duty_for_r_theta(self, r_target: float) -> float:
        """Invert :meth:`r_theta` (clamped to the achievable range)."""
        r_target = clamp(r_target, self.r_min_c_per_w, self.r_max_c_per_w)
        span = self.r_max_c_per_w - self.r_min_c_per_w
        frac = (self.r_max_c_per_w - r_target) / span
        return 100.0 * frac ** (1.0 / self.convexity)


class ThermalPlant:
    """Steady-state die-temperature model with fan actuation.

    The plant exposes the same two controls the paper used: a fan duty
    command and a temperature readback.  ``settle(power_w)`` must be called
    whenever rail power changes so the die temperature tracks it.
    """

    def __init__(
        self,
        cal: Calibration = DEFAULT_CALIBRATION,
        fan: FanModel | None = None,
        ambient_c: float = 26.0,
    ):
        self.cal = cal
        self.fan = fan or FanModel()
        self.ambient_c = ambient_c
        self._duty_percent = 100.0
        self._die_c = ambient_c
        self._last_power_w = 0.0

    # ---- controls -------------------------------------------------------

    @property
    def fan_duty_percent(self) -> float:
        return self._duty_percent

    def set_fan_duty(self, duty_percent: float) -> None:
        if not 0.0 <= duty_percent <= 100.0:
            raise ValueError(f"fan duty out of range: {duty_percent}")
        self._duty_percent = duty_percent
        self.settle(self._last_power_w)

    def set_target_temperature(self, target_c: float, power_w: float) -> float:
        """Solve for the fan duty that achieves ``target_c`` at ``power_w``.

        Returns the achieved temperature (clamped by the fan's authority,
        matching the paper's reachable [34, 52] degC window).
        """
        if power_w <= 0:
            raise ValueError("need positive power to regulate temperature")
        r_needed = (target_c - self.ambient_c) / power_w
        self._duty_percent = self.fan.duty_for_r_theta(r_needed)
        self.settle(power_w)
        return self._die_c

    # ---- plant ----------------------------------------------------------

    def settle(self, power_w: float) -> float:
        """Update the steady-state die temperature for ``power_w`` watts."""
        if power_w < 0:
            raise ValueError(f"power must be non-negative, got {power_w}")
        self._last_power_w = power_w
        r = self.fan.r_theta(self._duty_percent)
        self._die_c = self.ambient_c + r * power_w
        return self._die_c

    @property
    def die_temperature_c(self) -> float:
        return self._die_c
