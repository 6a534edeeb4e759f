"""Sweep-strategy tests: adaptive == grid landmarks at a fraction of the cost."""

import pytest

from repro.core.experiment import ExperimentConfig
from repro.core.regions import detect_regions
from repro.core.undervolt import (
    AdaptiveStrategy,
    GridStrategy,
    VoltageSweep,
    drive_rounds,
    grid_voltage_mv,
    sweep_strategy,
)
from repro.errors import CampaignError


def run_sweep(session, config, **kwargs):
    return VoltageSweep(session, config).run(start_mv=620.0, **kwargs)


class TestStrategySelection:
    def test_default_is_grid_at_v_step(self):
        strategy = sweep_strategy(ExperimentConfig())
        assert isinstance(strategy, GridStrategy)
        assert strategy.resolution_mv == pytest.approx(5.0)

    def test_v_resolution_overrides_v_step(self):
        config = ExperimentConfig(v_resolution=0.001)
        assert sweep_strategy(config).resolution_mv == pytest.approx(1.0)

    def test_explicit_step_override_wins(self):
        config = ExperimentConfig(v_resolution=0.001)
        assert sweep_strategy(config, step_mv=10.0).resolution_mv == pytest.approx(10.0)

    def test_adaptive_carries_tolerance(self):
        config = ExperimentConfig(strategy="adaptive", accuracy_tolerance=0.02)
        strategy = sweep_strategy(config)
        assert isinstance(strategy, AdaptiveStrategy)
        assert strategy.accuracy_tolerance == 0.02

    def test_invalid_strategy_rejected_by_config(self):
        with pytest.raises(CampaignError):
            ExperimentConfig(strategy="dowsing")
        with pytest.raises(CampaignError):
            ExperimentConfig(v_resolution=-0.001)

    def test_grid_voltage_is_index_based(self):
        # Direct (not iterated) arithmetic: both strategies land on
        # bit-identical voltages, hence identical RNG streams.
        assert grid_voltage_mv(620.0, 3, 5.0) == 605.0
        assert grid_voltage_mv(620.0, 7, 0.25) == 618.25


class TestAdaptiveEquivalence:
    def test_same_landmarks_as_grid_with_fewer_points(
        self, vggnet_session, vggnet_workload, fast_config
    ):
        from repro.core.session import AcceleratorSession
        from repro.fpga.board import make_board

        grid = run_sweep(vggnet_session, fast_config)
        adaptive_session = AcceleratorSession(
            make_board(sample=1), vggnet_workload, fast_config
        )
        adaptive = run_sweep(
            adaptive_session, fast_config.with_overrides(strategy="adaptive")
        )
        grid_regions = detect_regions(grid)
        adaptive_regions = detect_regions(adaptive)
        assert adaptive_regions.vmin_mv == grid_regions.vmin_mv
        assert adaptive_regions.vcrash_mv == grid_regions.vcrash_mv
        assert adaptive.crash_mv == grid.crash_mv
        assert len(adaptive.points) < len(grid.points)

    def test_shared_voltages_measure_bit_identically(
        self, vggnet_session, vggnet_workload, fast_config
    ):
        from repro.core.session import AcceleratorSession
        from repro.fpga.board import make_board

        grid = run_sweep(vggnet_session, fast_config)
        adaptive_session = AcceleratorSession(
            make_board(sample=1), vggnet_workload, fast_config
        )
        adaptive = run_sweep(
            adaptive_session, fast_config.with_overrides(strategy="adaptive")
        )
        for point in adaptive.points:
            twin = grid.point_at(point.vccint_mv, tolerance_mv=1e-6)
            assert twin.measurement == point.measurement

    def test_adaptive_points_sorted_and_labelled(self, vggnet_session, fast_config):
        sweep = run_sweep(
            vggnet_session, fast_config.with_overrides(strategy="adaptive")
        )
        assert sweep.strategy == "adaptive"
        voltages = sweep.voltages_mv
        assert voltages == sorted(voltages, reverse=True)
        assert sweep.crash_mv is not None

    def test_floor_reached_alive_has_no_crash(self, vggnet_session, fast_config):
        sweep = VoltageSweep(
            vggnet_session, fast_config.with_overrides(strategy="adaptive")
        ).run(start_mv=700.0, floor_mv=650.0)
        assert sweep.crash_mv is None
        assert sweep.last_alive.vccint_mv >= 650.0

    def test_validation_matches_grid(self, vggnet_session, fast_config):
        adaptive_config = fast_config.with_overrides(strategy="adaptive")
        campaign = VoltageSweep(vggnet_session, adaptive_config)
        with pytest.raises(ValueError):
            campaign.run(start_mv=600.0, floor_mv=700.0)
        with pytest.raises(ValueError):
            campaign.run(step_mv=-5.0)


class TestAdaptiveOnSyntheticProbe:
    """Drive strategies with a scripted board to pin the search behaviour."""

    class M:
        clean_accuracy = 0.9

        def __init__(self, acc, v):
            self.accuracy = acc
            self.vccint_mv = v

    class FakeBoard:
        """Loss-free above vmin, lossy above vcrash, hang below.

        A round executor (:func:`drive_rounds` protocol) that answers
        ``"measure"`` plans with full measurements and ``"probe"`` plans
        with board-dance outcomes: fault-free at or above
        ``fault_free_mv`` — one step above vmin, as on a real board —
        alive-but-faulty in between, hang below vcrash.  Rounds stop at
        the first hang, as every real executor's do.  Only *paid*
        measurements are counted: a probe's fault-free measurement comes
        from the deterministic clean shortcut, i.e. for free.
        """

        def __init__(self, vmin_mv, vcrash_mv):
            self.vmin_mv = vmin_mv
            self.vcrash_mv = vcrash_mv
            self.fault_free_mv = vmin_mv + 1.0
            self.measured = []

        def outcome(self, point):
            v_mv = point.v_mv
            if v_mv < self.vcrash_mv:
                return ("hang", None)
            if point.mode == "probe":
                if v_mv >= self.fault_free_mv:
                    return ("measurement", TestAdaptiveOnSyntheticProbe.M(0.9, v_mv))
                return ("alive", None)
            self.measured.append(v_mv)
            accuracy = 0.9 if v_mv >= self.vmin_mv else 0.5
            return ("measurement", TestAdaptiveOnSyntheticProbe.M(accuracy, v_mv))

        def scripted_round_executor(self, points):
            outcomes = {}
            for point in points:
                outcomes[point.index] = self.outcome(point)
                if outcomes[point.index][0] == "hang":
                    break
            return outcomes

    def landmarks(self, strategy, start=620.0, floor=500.0):
        board = self.FakeBoard(vmin_mv=571.0, vcrash_mv=544.0)
        points, crash_mv, _rounds = drive_rounds(
            strategy.plan_rounds(start, floor, point_batch=1),
            board.scripted_round_executor,
        )
        free = [p.vccint_mv for p in points if p.accuracy >= 0.89]
        return min(free), min(p.vccint_mv for p in points), crash_mv, len(board.measured)

    def test_adaptive_matches_grid_on_synthetic_landmarks(self):
        grid = GridStrategy(resolution_mv=1.0)
        adaptive = AdaptiveStrategy(resolution_mv=1.0, accuracy_tolerance=0.01)
        g_vmin, g_last, g_crash, g_n = self.landmarks(grid)
        a_vmin, a_last, a_crash, a_n = self.landmarks(adaptive)
        assert (a_vmin, a_last, a_crash) == (g_vmin, g_last, g_crash)
        assert g_n / a_n >= 3.0

    def test_crash_mv_is_one_step_below_last_alive(self):
        adaptive = AdaptiveStrategy(resolution_mv=1.0, accuracy_tolerance=0.01)
        _, last_alive, crash_mv, _ = self.landmarks(adaptive)
        assert crash_mv == pytest.approx(last_alive - 1.0)
