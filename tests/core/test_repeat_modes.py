"""Batched repeats against the per-repeat loop oracle.

The contract: :meth:`AcceleratorSession.run_at` (copy-on-divergence
execution, :mod:`repro.nn.differential`) must produce Measurements
bit-identical to :func:`loop_oracle` — the plan, one
:meth:`DPUEngine.run` per repeat, finalize — for every seed, repeat
count, and fault regime, including the fault-free single-repeat shortcut
and the crash-edge control collapse.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.experiment import ExperimentConfig
from repro.core.session import AcceleratorSession, reduce_repeats
from repro.fpga.board import make_board

TEST_SAMPLES = 48

#: Operating points spanning the paper's regimes: deterministic guardband,
#: critical-region onset, mid-critical, deep-critical, and the crash-edge
#: collapse margin.
VOLTAGES_MV = (700.0, 565.0, 560.0, 555.0, 548.0, 542.0)


def loop_oracle(session, v_mv):
    """One engine pass per repeat, each on the repeat's own RNG stream."""
    plan = session.plan_point(v_mv)
    outcomes = [
        session.engine.run(plan.p_op, plan.f_mhz, rng=r, control_collapse=plan.collapse)
        for r in session._plan_rngs(plan)
    ]
    return session.finalize_point(plan, outcomes)


def run_batched(session, v_mv):
    return session.run_at(v_mv)


def _measure(workload, measure, seed, repeats, v_mv, batch_budget=4096):
    config = ExperimentConfig(
        seed=seed,
        repeats=repeats,
        samples=TEST_SAMPLES,
        batch_budget=batch_budget,
    )
    session = AcceleratorSession(make_board(sample=1), workload, config)
    return measure(session, v_mv)


class TestRepeatModeEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        repeats=st.integers(min_value=1, max_value=4),
        v_mv=st.sampled_from(VOLTAGES_MV),
    )
    def test_batched_equals_loop(self, vggnet_workload, seed, repeats, v_mv):
        """Every Measurement field matches exactly, across fault regimes."""
        loop = _measure(vggnet_workload, loop_oracle, seed, repeats, v_mv)
        batched = _measure(vggnet_workload, run_batched, seed, repeats, v_mv)
        assert loop == batched  # frozen dataclass: exact field-wise equality

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        batch_budget=st.sampled_from((48, 96, 144, 1000)),
    )
    def test_chunking_never_changes_results(self, vggnet_workload, seed, batch_budget):
        """Repeat-axis chunking is a memory knob, not a semantic one."""
        whole = _measure(vggnet_workload, run_batched, seed, 5, 555.0)
        chunked = _measure(vggnet_workload, run_batched, seed, 5, 555.0, batch_budget=batch_budget)
        assert whole == chunked

    def test_fault_free_shortcut_in_both_modes(self, vggnet_workload):
        """p_op == 0 points collapse to a single deterministic repeat."""
        for measure in (loop_oracle, run_batched):
            m = _measure(vggnet_workload, measure, 2020, 5, 700.0)
            assert m.repeats == 1
            assert m.accuracy == m.clean_accuracy
            assert m.faults_per_run == 0

    def test_collapse_region_equivalence(self, vggnet_workload):
        """Crash-edge control collapse randomizes identically in both paths."""
        loop = _measure(vggnet_workload, loop_oracle, 2020, 3, 542.0)
        batched = _measure(vggnet_workload, run_batched, 2020, 3, 542.0)
        assert loop == batched
        assert loop.accuracy < 0.5 * loop.clean_accuracy

    def test_gops_is_per_inference_in_both_modes(self, vggnet_workload):
        """Batching repeats must not inflate the reported throughput."""
        loop = _measure(vggnet_workload, loop_oracle, 2020, 3, 555.0)
        batched = _measure(vggnet_workload, run_batched, 2020, 3, 555.0)
        assert batched.gops == loop.gops
        single = _measure(vggnet_workload, run_batched, 2020, 1, 555.0)
        assert batched.gops == single.gops

    def test_second_measurement_reuses_clean_pass(self, vggnet_workload):
        """The cached fault-free pass must not leak state across points."""
        config = ExperimentConfig(seed=2020, repeats=3, samples=TEST_SAMPLES)
        session = AcceleratorSession(make_board(sample=1), vggnet_workload, config)
        first = session.run_at(555.0)
        again = session.run_at(555.0)
        assert first == again
        other = session.run_at(560.0)
        assert other != first  # different operating point, fresh faults


class TestAccuracyStdRegression:
    """Pin the loop oracle's reduction so the batched path cannot drift.

    ``accuracy_std`` is computed by the shared :func:`reduce_repeats`
    (population std over the repeat accuracies) for both paths; these
    constants were recorded from the per-repeat loop at this exact config.
    """

    PINNED = {
        "accuracy": 0.6319444444444445,
        "accuracy_std": 0.009820927516479843,
        "accuracy_min": 0.625,
        "faults_per_run": 408.0,
    }

    @pytest.mark.parametrize("measure", [loop_oracle, run_batched], ids=["loop", "batched"])
    def test_pinned_reduction_values(self, vggnet_workload, measure):
        m = _measure(vggnet_workload, measure, 2020, 3, 555.0)
        for field, value in self.PINNED.items():
            assert getattr(m, field) == value, field

    def test_reduce_repeats_is_population_std(self):
        stats = reduce_repeats([0.5, 0.7, 0.6], [1, 2, 3])
        assert stats["accuracy"] == pytest.approx(0.6)
        # Population (pstdev-style) std, not the sample estimator.
        assert stats["accuracy_std"] == pytest.approx(0.0816496580927726)
        assert stats["accuracy_min"] == 0.5
        assert stats["faults_per_run"] == 2.0

    def test_single_repeat_has_zero_std(self):
        stats = reduce_repeats([0.9], [0])
        assert stats["accuracy_std"] == 0.0
