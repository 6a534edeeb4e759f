"""Calibration constants anchored to the paper's measurements.

Every constant in :class:`Calibration` records, in its comment, the paper
anchor it reproduces (section / table / figure).  The defaults make the
simulated ZCU102 fleet reproduce the paper's headline numbers:

* ``Vnom = 850 mV``; mean ``Vmin = 570 mV`` (33% guardband); mean
  ``Vcrash = 540 mV`` (Sections 1, 4.2, Figure 3).
* Board-to-board spread ``dVmin = 31 mV``, ``dVcrash = 18 mV`` (Section 4.4).
* ``P(Vmin)/P(Vnom) = 1/2.6`` and ``P(Vcrash)/P(Vnom) = 1/(2.6*1.43)``
  (Section 4.3, Figure 5).
* Average on-chip power 12.59 W at Vnom; VCCINT carries > 99.9% of it
  (Section 4.1).
* ``Fmax(V)`` staircase of Table 2 and the GOPs(F) staircase implied by its
  normalized-GOPs column.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class Calibration:
    """Physical/empirical constants for the simulated platform fleet."""

    # ----- Voltage landmarks (V). Section 3.3.2, Section 4.2, Figure 3. ----
    vnom: float = 0.850
    #: Per-board minimum safe voltage (V): mean 570 mV, range 31 mV (S4.4).
    board_vmin: tuple[float, ...] = (0.5545, 0.5700, 0.5855)
    #: Per-board crash voltage (V): mean 540 mV, range 18 mV (S4.4).
    board_vcrash: tuple[float, ...] = (0.5310, 0.5400, 0.5490)
    #: Workload-to-workload fault-onset jitter bound (V).  The paper finds
    #: the variation "insignificant" (S1.1), so the default is zero: every
    #: workload shares the board's worst-case delay curve, and the residual
    #: per-workload Vmin differences in Figure 3 emerge from fault-exposure
    #: differences alone.  Set non-zero for sensitivity studies.
    workload_vmin_jitter: float = 0.0
    #: Regulator programmable output range for VCCINT-class rails (V).
    rail_v_low: float = 0.400
    rail_v_high: float = 1.000

    # ----- Power model. Section 4.1 and 4.3. ------------------------------
    #: Mean total on-chip power across benchmarks at Vnom/333 MHz (W), S4.1.
    p_total_vnom: float = 12.59
    #: Fraction of on-chip power on VCCINT at Vnom; ">99.9%" per S4.1.
    vccint_power_share: float = 0.9995
    #: Dynamic share of VCCINT power at Vnom.  Solved together with
    #: ``leak_v_decay`` so that P(570 mV)/P(850 mV) = 1/2.6 (S4.3).
    dynamic_fraction_vnom: float = 0.812
    #: Leakage voltage e-folding constant (V): static ~ V * exp((V-Vnom)/tau).
    leak_v_decay: float = 0.150
    #: Fraction of dynamic power that does not scale with the DPU clock
    #: (platform clocking, AXI interconnect, always-on control running on
    #: the fixed PS/platform clock).  Without it, GOPs/J would *improve*
    #: under frequency underscaling, contradicting Table 2's conclusion
    #: that the (Vmin, Fmax) baseline is the energy-efficiency optimum.
    f_fixed_dynamic_fraction: float = 0.14
    #: Leakage temperature e-folding constant (deg C): Fig. 9's ~0.46 W rise
    #: at 850 mV over 34->52 degC, shrinking to ~0.15 W at 650 mV.
    leak_t_decay: float = 102.0
    #: Reference die temperature for power calibration (deg C).
    t_ref: float = 34.0
    #: Max fractional dynamic-activity collapse in the critical region.
    #: Solved so P(540 mV)/P(850 mV) = 1/(2.6*1.43) (S4.3) -- timing faults
    #: mean latches miss transitions, cutting switching activity.
    activity_collapse_max: float = 0.225

    # ----- Timing model. Table 2 and Section 5. ---------------------------
    #: Default DPU clock (MHz); DSPs run at 2x internally (S3.1).
    f_default_mhz: float = 333.0
    #: Frequency search grid used by the paper: default plus 25 MHz steps.
    f_grid_mhz: tuple[float, ...] = (333.0, 300.0, 275.0, 250.0, 225.0, 200.0, 175.0, 150.0)
    #: Calibrated continuous max-safe-frequency anchors (V -> MHz) at the
    #: fleet-mean Vmin.  Flooring onto ``f_grid_mhz`` reproduces Table 2's
    #: Fmax column {333, 300, 250, 250, 250, 250, 200}.
    fsafe_anchors_mhz: tuple[tuple[float, float], ...] = (
        (0.540, 205.0),
        (0.545, 252.8),
        (0.550, 254.0),
        (0.555, 255.0),
        (0.560, 258.0),
        (0.565, 302.0),
        (0.570, 333.5),
        (0.600, 420.0),
        (0.700, 650.0),
        (0.850, 950.0),
    )
    #: Inverse Thermal Dependence coefficient (1/degC) at Vnom: higher
    #: temperature shortens path delay, raising Fsafe (S7.2, Fig. 10).
    itd_coeff_per_degc: float = 6.0e-4
    #: ITD strengthens toward threshold: coeff(V) = coeff * (Vnom/V)^exp.
    #: Near-threshold inverted temperature dependence dominates, which is
    #: what makes Fig. 10's accuracy recovery visible at 560 mV while the
    #: effect is negligible at nominal voltage.
    itd_v_exponent: float = 6.0
    #: Die temperature (degC) at which the Fsafe anchors were fitted — the
    #: fleet's ambient-run die temperature in the critical region.
    itd_ref_c: float = 28.5
    #: Alpha-power-law parameters for the physical delay model (ablation).
    alpha_power_vth: float = 0.330
    alpha_power_alpha: float = 1.3

    # ----- Fault model. Section 4.4, Figure 6. ----------------------------
    #: Per-op fault probability at slack = 0 (onset scale).  With gamma
    #: below, p spans ~2.5e-10 (fractional visible faults per inference
    #: just under Vmin) to ~1e-5 (thousands of faults, chance accuracy)
    #: at Vcrash.
    fault_p0: float = 2.5e-10
    #: Exponential slack sensitivity (1/ns): p = p0 * exp(gamma * |slack|).
    fault_gamma_per_ns: float = 5.0
    #: Ceiling on per-op fault probability.
    fault_p_max: float = 1.0e-3
    #: Architectural fault masking: the visible fault exposure of a model
    #: grows sublinearly with its op count, ``ops * (ops/ref)^(expo-1)``,
    #: because a larger fraction of upsets is logically masked in bigger
    #: networks.  Calibrated so Figure 6's vulnerability ordering holds
    #: (ResNet/Inception clearly worse than the Cifar nets) without a
    #: 50x cliff between them.
    fault_masking_exponent: float = 0.6
    fault_exposure_ref_ops: float = 1.0e9
    #: Control-logic collapse margin (V): within this margin above Vcrash
    #: *and* with the clock violating timing (negative slack), failure
    #: reaches the DPU's control FSMs and every datapath tensor is
    #: effectively noise — "the classifier behaves randomly" (S4.4).
    #: Datapath-only fault statistics cannot reproduce that floor for
    #: averaging-heavy networks (GoogleNet), so the collapse is modelled as
    #: its own mode.  Frequency-underscaled operation (Table 2's 540 mV /
    #: 200 MHz row) restores positive slack and therefore does not collapse.
    collapse_margin_v: float = 0.005

    # ----- Performance model. Table 2 GOPs column. ------------------------
    #: Fraction of inference latency that is compute-bound (scales with 1/F)
    #: at 333 MHz; the remainder is DDR-bound.  Solved from Table 2.
    compute_bound_fraction: float = 0.617

    # ----- Architectural-optimization interactions. Figures 7 and 8. ------
    #: Per-op dynamic energy scaling vs quantization bit-width k: (k/8)^exp.
    #: Linear (exp=1): sub-INT8 ops pack onto the same fixed-width DSP48s,
    #: so energy per op scales with operand width.
    quant_energy_exponent: float = 1.0
    #: Fault-vulnerability multiplier per bit removed below INT8 (Fig. 7a).
    quant_vulnerability_per_bit: float = 0.15
    #: Clean-accuracy penalty per bit below INT8 (Fig. 7a: reduced-precision
    #: models start slightly lower at Vnom; INT3 and below are unusable).
    quant_accuracy_penalty_per_bit: float = 0.01
    #: Clean-accuracy penalty of the pruned model at Vnom (Fig. 8a).
    prune_accuracy_penalty: float = 0.02
    #: Pruned models hang earlier: Vcrash offset (V), 555 vs 540 mV (Fig. 8).
    prune_vcrash_offset: float = 0.015
    #: Pruned-model fault-vulnerability multiplier (Fig. 8a).
    prune_vulnerability: float = 1.5
    #: Fraction of MAC ops removed by the DECENT-like pruner in Fig. 8.
    prune_ops_reduction: float = 0.45

    # ----- Thermal plant. Section 7. ---------------------------------------
    #: Achievable die temperature range via fan control (deg C), S7.
    t_min: float = 34.0
    t_max: float = 52.0

    # ----- Misc -------------------------------------------------------------
    #: Number of identical board samples in the fleet (S1, S3.3.1).
    n_boards: int = 3
    #: Voltage step used by the paper's sweeps (V), S5.
    v_step: float = 0.005

    def with_overrides(self, **kwargs) -> "Calibration":
        """Return a copy with selected constants replaced (for ablations)."""
        return replace(self, **kwargs)

    @property
    def vmin_mean(self) -> float:
        """Fleet-mean minimum safe voltage (V)."""
        return sum(self.board_vmin) / len(self.board_vmin)

    @property
    def vcrash_mean(self) -> float:
        """Fleet-mean crash voltage (V)."""
        return sum(self.board_vcrash) / len(self.board_vcrash)

    @property
    def guardband_v(self) -> float:
        """Fleet-mean guardband width (V); paper: 280 mV."""
        return self.vnom - self.vmin_mean

    @property
    def static_fraction_vnom(self) -> float:
        """Static share of VCCINT power at Vnom."""
        return 1.0 - self.dynamic_fraction_vnom

    def __post_init__(self):
        if len(self.board_vmin) != len(self.board_vcrash):
            raise ValueError("board_vmin and board_vcrash must be the same length")
        for vmin, vcrash in zip(self.board_vmin, self.board_vcrash):
            if not (self.rail_v_low < vcrash < vmin < self.vnom):
                raise ValueError(
                    f"require rail_low < vcrash < vmin < vnom, got "
                    f"{self.rail_v_low} / {vcrash} / {vmin} / {self.vnom}"
                )
        if not 0.0 < self.dynamic_fraction_vnom < 1.0:
            raise ValueError("dynamic_fraction_vnom must lie in (0, 1)")
        anchors = self.fsafe_anchors_mhz
        if len(anchors) < 2:
            raise ValueError(f"need at least two fsafe anchors, got {len(anchors)}")
        if any(a[0] >= b[0] for a, b in zip(anchors, anchors[1:])):
            raise ValueError("fsafe anchors must be strictly increasing in V")
        if any(a[1] >= b[1] for a, b in zip(anchors, anchors[1:])):
            raise ValueError("fsafe anchors must be strictly increasing in MHz")


#: The library-wide default calibration (the paper's fleet).
DEFAULT_CALIBRATION = Calibration()
