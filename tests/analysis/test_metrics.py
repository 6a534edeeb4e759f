"""Metric helper tests."""

import pytest

from repro.analysis.metrics import (
    gops_per_watt,
    improvement_factor,
    normalize,
    percent_gain,
)
from repro.core.session import Measurement


def _measurement(gops: float, power_w: float) -> Measurement:
    return Measurement(
        benchmark="vggnet",
        variant="INT8",
        board_sample=0,
        vccint_v=0.85,
        f_mhz=333.0,
        temperature_c=34.0,
        accuracy=0.9,
        accuracy_std=0.0,
        accuracy_min=0.9,
        clean_accuracy=0.9,
        power_w=power_w,
        bram_power_w=0.1,
        gops=gops,
        faults_per_run=0.0,
        repeats=1,
    )


class TestMetrics:
    def test_gops_per_watt(self):
        assert gops_per_watt(1200.0, 12.0) == pytest.approx(100.0)

    def test_gops_per_watt_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            gops_per_watt(100.0, 0.0)

    def test_gops_per_joule_ordering(self):
        # Halving GOPs at constant power quarters Table 2's GOPs/J metric.
        full = _measurement(1000.0, 10.0).gops_per_joule
        half = _measurement(500.0, 10.0).gops_per_joule
        assert half == pytest.approx(full / 4.0)

    def test_normalize(self):
        assert normalize([2.0, 4.0, 6.0], 2.0) == [1.0, 2.0, 3.0]

    def test_normalize_rejects_zero_baseline(self):
        with pytest.raises(ValueError):
            normalize([1.0], 0.0)

    def test_improvement_factor(self):
        assert improvement_factor(334.0, 128.0) == pytest.approx(2.61, abs=0.01)

    def test_percent_gain(self):
        assert percent_gain(1.43, 1.0) == pytest.approx(43.0)
