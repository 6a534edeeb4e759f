"""Timing model tests: Fsafe curves, slack, Fmax grid, ITD."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from repro.fpga.calibration import DEFAULT_CALIBRATION as CAL
from repro.fpga.timing import (
    AlphaPowerDelayModel,
    CalibratedDelayModel,
    OperatingPoint,
    _Pchip,
    itd_factor,
)


@pytest.fixture()
def model() -> CalibratedDelayModel:
    return CalibratedDelayModel(CAL)


class TestCalibratedModel:
    def test_default_clock_is_safe_at_vmin(self, model):
        assert model.slack_ns(CAL.vmin_mean, CAL.f_default_mhz) >= 0.0

    def test_default_clock_violates_below_vmin(self, model):
        assert model.slack_ns(CAL.vmin_mean - 0.005, CAL.f_default_mhz) < 0.0

    def test_fmax_staircase_matches_table2(self, model):
        """The grid-floored Fmax(V) reproduces Table 2's Fmax column."""
        expected = {
            0.570: 333.0,
            0.565: 300.0,
            0.560: 250.0,
            0.555: 250.0,
            0.550: 250.0,
            0.545: 250.0,
            0.540: 200.0,
        }
        for v, fmax in expected.items():
            assert model.fmax_on_grid_mhz(v, CAL.f_grid_mhz) == fmax, f"at {v}"

    # deadline=None on the @given properties below: each example is
    # microseconds of pure math, but hypothesis's per-example wall-clock
    # deadline flakes when the suite shares a loaded box (observed once
    # in CI under the bench job); wall time is not what these properties
    # assert.
    @given(st.floats(min_value=0.53, max_value=0.99))
    @settings(max_examples=100, deadline=None)
    def test_fsafe_monotonic_in_voltage(self, v):
        # Below ~0.52 V the extrapolated curve rests on its 1 MHz floor
        # (already deep in the hang region), so monotonicity is asserted
        # from just under the crash landmark upward.
        m = CalibratedDelayModel(CAL)
        assert m.fsafe_mhz(v + 0.005) > m.fsafe_mhz(v)

    def test_vmin_shift_moves_curve_rigidly(self):
        base = CalibratedDelayModel(CAL)
        shifted = CalibratedDelayModel(CAL, vmin_shift_v=0.010)
        assert shifted.fsafe_mhz(0.580) == pytest.approx(base.fsafe_mhz(0.570))

    def test_extrapolation_stays_positive(self, model):
        assert model.fsafe_mhz(0.45) >= 1.0
        assert model.fsafe_mhz(1.1) > model.fsafe_mhz(0.85)

    def test_rejects_nonpositive_voltage(self, model):
        with pytest.raises(ValueError):
            model.fsafe_mhz(0.0)

    def test_rejects_nonpositive_frequency(self, model):
        with pytest.raises(ValueError):
            model.slack_ns(0.7, 0.0)

    def test_no_grid_frequency_below_crash(self, model):
        # Fsafe deep below Vcrash drops under the lowest grid point.
        assert model.fmax_on_grid_mhz(0.47, CAL.f_grid_mhz) is None


def _scipy_fsafe(anchors) -> PchipInterpolator:
    a = np.asarray(anchors, dtype=float)
    return PchipInterpolator(a[:, 0], a[:, 1], extrapolate=False)


def _increasing(elements, n):
    return st.lists(elements, min_size=n, max_size=n, unique=True).map(sorted)


@st.composite
def anchor_sets(draw):
    """Strictly increasing (V, MHz) anchor sets of 2..12 points."""
    n = draw(st.integers(min_value=2, max_value=12))
    volts = draw(_increasing(st.floats(min_value=0.3, max_value=1.0), n))
    mhz = draw(_increasing(st.floats(min_value=10.0, max_value=2000.0), n))
    return tuple(zip(volts, mhz))


class TestPchipOracle:
    """Inside the anchor range Fsafe(V) equals scipy's PCHIP bit for bit."""

    def test_default_anchors_on_a_micro_volt_grid(self, model):
        volts = np.concatenate(
            [np.arange(540_000, 850_001) / 1e6, [v for v, _ in CAL.fsafe_anchors_mhz]]
        )
        expected = _scipy_fsafe(CAL.fsafe_anchors_mhz)(volts)
        got = np.array([model.fsafe_mhz(v) for v in volts.tolist()])
        mismatched = volts[got != expected]
        assert mismatched.size == 0, f"{mismatched.size} mismatches, first {mismatched[:5]}"

    @given(anchor_sets(), st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=20))
    # Two points: scipy's linear case.  Three with a steep second segment:
    # the one-sided end slope turns negative and is zeroed.
    @example(((0.5, 100.0), (0.6, 200.0)), [0.25])
    @example(((0.5, 100.0), (0.6, 101.0), (0.7, 500.0)), [0.1, 0.9])
    @settings(max_examples=200, deadline=None)
    def test_random_anchor_sets(self, anchors, fractions):
        model = CalibratedDelayModel(CAL.with_overrides(fsafe_anchors_mhz=anchors))
        lo, hi = anchors[0][0], anchors[-1][0]
        volts = [v for v, _ in anchors] + [min(lo + f * (hi - lo), hi) for f in fractions]
        expected = _scipy_fsafe(anchors)(volts).tolist()
        assert [model.fsafe_mhz(v) for v in volts] == expected

    @given(
        st.integers(min_value=2, max_value=12).flatmap(
            lambda n: st.tuples(
                _increasing(st.integers(min_value=-100, max_value=100), n),
                st.lists(st.integers(min_value=-5, max_value=5), min_size=n, max_size=n),
            )
        ),
        st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=20),
    )
    @settings(max_examples=200, deadline=None)
    def test_non_monotone_data(self, xy, fractions):
        """The port keeps scipy's shape-preserving branches that monotone
        anchors never reach: sign changes, flat segments, and the end
        slope clipped to three times the end secant."""
        x = np.asarray(xy[0], dtype=float) / 8
        y = np.asarray(xy[1], dtype=float)
        lo, hi = x[0], x[-1]
        volts = x.tolist() + [min(lo + f * (hi - lo), hi) for f in fractions]
        expected = PchipInterpolator(x, y, extrapolate=False)(volts).tolist()
        ours = _Pchip(x, y)
        assert [ours(v) for v in volts] == expected


class TestITD:
    def test_higher_temperature_raises_fsafe(self, model):
        cold = model.fsafe_mhz(0.560, 34.0)
        hot = model.fsafe_mhz(0.560, 52.0)
        assert hot > cold

    def test_itd_negligible_at_nominal_voltage(self):
        f_34 = itd_factor(CAL, CAL.vnom, 34.0)
        f_52 = itd_factor(CAL, CAL.vnom, 52.0)
        assert abs(f_52 - f_34) < 0.02

    def test_itd_strengthens_toward_threshold(self):
        gain_low = itd_factor(CAL, 0.560, 52.0) - 1.0
        gain_nom = itd_factor(CAL, CAL.vnom, 52.0) - 1.0
        assert gain_low > 5.0 * gain_nom

    def test_reference_temperature_is_identity(self):
        assert itd_factor(CAL, 0.56, CAL.itd_ref_c) == pytest.approx(1.0)

    def test_none_temperature_is_identity(self):
        assert itd_factor(CAL, 0.56, None) == 1.0


class TestAlphaPowerModel:
    def test_anchored_at_fleet_vmin(self):
        m = AlphaPowerDelayModel(CAL)
        assert m.fsafe_mhz(CAL.vmin_mean) == pytest.approx(333.5, rel=1e-6)

    @given(st.floats(min_value=0.45, max_value=0.95))
    @settings(max_examples=100, deadline=None)
    def test_monotonic_in_voltage(self, v):
        m = AlphaPowerDelayModel(CAL)
        assert m.fsafe_mhz(v + 0.005) > m.fsafe_mhz(v)

    def test_handles_sub_threshold_voltages(self):
        m = AlphaPowerDelayModel(CAL)
        assert m.fsafe_mhz(CAL.alpha_power_vth) >= 1.0

    def test_cannot_reproduce_table2_staircase(self):
        """The physical law is too smooth for the measured staircase —
        the reason the calibrated model is the default (ablation claim)."""
        m = AlphaPowerDelayModel(CAL)
        got = [
            m.fmax_on_grid_mhz(v, CAL.f_grid_mhz)
            for v in (0.570, 0.565, 0.560, 0.555, 0.550, 0.545, 0.540)
        ]
        expected = [333.0, 300.0, 250.0, 250.0, 250.0, 250.0, 200.0]
        assert got != expected


class TestOperatingPoint:
    def test_fields_and_mv(self):
        op = OperatingPoint(vccint_v=0.570, f_mhz=333.0, t_c=34.0)
        assert op.vccint_mv == pytest.approx(570.0)

    def test_replace(self):
        op = OperatingPoint(vccint_v=0.570, f_mhz=333.0, t_c=34.0)
        assert op.replace(f_mhz=250.0).f_mhz == 250.0

    def test_validation(self):
        with pytest.raises(ValueError):
            OperatingPoint(vccint_v=0.0, f_mhz=333.0, t_c=34.0)
        with pytest.raises(ValueError):
            OperatingPoint(vccint_v=0.7, f_mhz=0.0, t_c=34.0)
