"""Calibration invariants."""

import pytest

from repro.fpga.calibration import Calibration, DEFAULT_CALIBRATION as CAL


class TestDefaults:
    def test_vnom_is_850mv(self):
        assert CAL.vnom == pytest.approx(0.850)

    def test_vmin_mean_is_570mv(self):
        assert CAL.vmin_mean == pytest.approx(0.570, abs=1e-4)

    def test_vcrash_mean_is_540mv(self):
        assert CAL.vcrash_mean == pytest.approx(0.540, abs=1e-4)

    def test_guardband_is_280mv(self):
        assert CAL.guardband_v == pytest.approx(0.280, abs=1e-4)

    def test_guardband_fraction_is_33pct(self):
        assert CAL.guardband_v / CAL.vnom == pytest.approx(0.33, abs=0.005)

    def test_dynamic_static_split_sums_to_one(self):
        assert CAL.dynamic_fraction_vnom + CAL.static_fraction_vnom == 1.0

    def test_f_grid_contains_default_clock(self):
        assert CAL.f_default_mhz in CAL.f_grid_mhz

    def test_fsafe_anchors_strictly_monotone(self):
        anchors = CAL.fsafe_anchors_mhz
        assert all(a[0] < b[0] for a, b in zip(anchors, anchors[1:]))
        assert all(a[1] < b[1] for a, b in zip(anchors, anchors[1:]))


class TestValidation:
    def test_landmark_ordering_enforced(self):
        with pytest.raises(ValueError):
            Calibration(board_vmin=(0.5,), board_vcrash=(0.6,))

    def test_table_lengths_must_match(self):
        with pytest.raises(ValueError):
            Calibration(board_vmin=(0.57, 0.58), board_vcrash=(0.54,))

    def test_dynamic_fraction_bounds(self):
        with pytest.raises(ValueError):
            Calibration(dynamic_fraction_vnom=1.5)

    def test_non_monotone_anchors_rejected(self):
        with pytest.raises(ValueError):
            Calibration(
                fsafe_anchors_mhz=((0.55, 300.0), (0.54, 200.0), (0.57, 350.0))
            )

    @pytest.mark.parametrize("anchors", [(), ((0.57, 333.5),)])
    def test_fewer_than_two_anchors_rejected(self, anchors):
        with pytest.raises(ValueError, match="at least two fsafe anchors"):
            Calibration(fsafe_anchors_mhz=anchors)


class TestOverrides:
    def test_with_overrides_returns_new_instance(self):
        cal = CAL.with_overrides(fault_gamma_per_ns=9.0)
        assert cal.fault_gamma_per_ns == 9.0
        assert CAL.fault_gamma_per_ns != 9.0

    def test_overrides_are_validated(self):
        with pytest.raises(ValueError):
            CAL.with_overrides(dynamic_fraction_vnom=2.0)
