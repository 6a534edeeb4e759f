"""Copy-on-divergence executor and the batch invariance it relies on."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.injector import BatchedFaultInjector, FaultInjector
from repro.nn.differential import capture_clean_pass, forward_points, forward_repeats
from repro.rng import child_rng


def _serial_probs(workload, rng, p_per_op, control_collapse=False):
    injector = FaultInjector(
        exposure_ops=workload.exposure,
        p_per_op=p_per_op,
        rng=rng,
        vulnerability=workload.vulnerability,
        batch_size=workload.dataset.n,
        control_collapse=control_collapse,
    )
    return workload.graph.forward(
        workload.dataset.images,
        activation_bits=workload.quantization.activation_bits,
        activation_hook=injector,
    )


def _planner(workload, rngs, p_per_op, control_collapse=False):
    return BatchedFaultInjector(
        exposure_ops=workload.exposure,
        p_per_op=p_per_op,
        rngs=rngs,
        vulnerability=workload.vulnerability,
        batch_size=workload.dataset.n,
        control_collapse=control_collapse,
    )


class TestBatchInvariance:
    """Any sub-batch reproduces the full batch's rows bit-for-bit."""

    @pytest.mark.parametrize("fixture", ["vggnet_workload", "googlenet_workload"])
    def test_sub_batch_rows_match_full_batch(self, fixture, request):
        workload = request.getfixturevalue(fixture)
        graph = workload.graph
        images = workload.dataset.images
        full = graph.forward(images, activation_bits=None)
        idx = np.array([0, 3, 17, 31])
        sub = graph.forward(images[idx], activation_bits=None)
        assert np.array_equal(sub, full[idx])

    def test_single_sample_matches(self, vggnet_workload):
        # activation_bits=None: quantization calibrates per *tensor*, so
        # raw invariance holds pre-quantization; the differential executor
        # reapplies the full-batch format itself when recomputing cones.
        graph = vggnet_workload.graph
        images = vggnet_workload.dataset.images
        full = graph.forward(images, activation_bits=None)
        one = graph.forward(images[5:6], activation_bits=None)
        assert np.array_equal(one[0], full[5])


class TestForwardRepeats:
    """forward_repeats == R serial injected passes, stream for stream."""

    P_MID = 2.7e-9  # mid-critical per-op fault rate (555 mV territory)

    def _assert_matches_serial(self, workload, p, collapse=False, clean=None):
        rngs = [child_rng(1234, f"repeat/{r}") for r in range(3)]
        probs = forward_repeats(
            workload.graph,
            workload.dataset.images,
            workload.quantization.activation_bits,
            _planner(workload, rngs, p, collapse),
            clean=clean,
        )
        for r in range(3):
            serial = _serial_probs(
                workload, child_rng(1234, f"repeat/{r}"), p, collapse
            )
            assert np.array_equal(probs[r], serial), f"realization {r}"

    def test_matches_serial_injected_passes(self, vggnet_workload):
        self._assert_matches_serial(vggnet_workload, self.P_MID)

    def test_matches_with_retained_clean_pass(self, vggnet_workload):
        clean = capture_clean_pass(
            vggnet_workload.graph,
            vggnet_workload.dataset.images,
            vggnet_workload.quantization.activation_bits,
        )
        self._assert_matches_serial(vggnet_workload, self.P_MID, clean=clean)

    def test_matches_serial_on_branchy_graph(self, googlenet_workload):
        self._assert_matches_serial(googlenet_workload, self.P_MID)

    def test_control_collapse_matches_serial(self, vggnet_workload):
        self._assert_matches_serial(vggnet_workload, self.P_MID, collapse=True)

    def test_zero_rate_returns_clean_pass(self, vggnet_workload):
        rngs = [child_rng(7, "r0")]
        probs = forward_repeats(
            vggnet_workload.graph,
            vggnet_workload.dataset.images,
            vggnet_workload.quantization.activation_bits,
            _planner(vggnet_workload, rngs, 0.0),
        )
        clean = vggnet_workload.graph.forward(
            vggnet_workload.dataset.images,
            activation_bits=vggnet_workload.quantization.activation_bits,
        )
        assert np.array_equal(probs[0], clean)

    def test_per_realization_fault_counts_match_serial(self, vggnet_workload):
        rngs = [child_rng(42, f"repeat/{r}") for r in range(3)]
        planner = _planner(vggnet_workload, rngs, self.P_MID)
        forward_repeats(
            vggnet_workload.graph,
            vggnet_workload.dataset.images,
            vggnet_workload.quantization.activation_bits,
            planner,
        )
        for r in range(3):
            injector = FaultInjector(
                exposure_ops=vggnet_workload.exposure,
                p_per_op=self.P_MID,
                rng=child_rng(42, f"repeat/{r}"),
                vulnerability=vggnet_workload.vulnerability,
                batch_size=vggnet_workload.dataset.n,
            )
            vggnet_workload.graph.forward(
                vggnet_workload.dataset.images,
                activation_bits=vggnet_workload.quantization.activation_bits,
                activation_hook=injector,
            )
            assert planner.faults_per_repeat[r] == injector.stats.faults_injected


#: Per-op fault-rate menu for the voltage-axis properties: fault-free,
#: sub-critical, mid-critical, and deep-critical points (555-545 mV
#: territory), so drawn point sets mix free shortcuts with real cones.
P_MENU = (0.0, 1.1e-9, 2.7e-9, 8.4e-9)

_ENGINE_MEMO = {}


def _engine_for(workload):
    from repro.dpu.engine import DPUEngine

    key = id(workload)
    if key not in _ENGINE_MEMO:
        _ENGINE_MEMO[key] = DPUEngine(workload)
    return _ENGINE_MEMO[key]


class TestForwardPointsProperty:
    """Voltage-axis stacking == the serial per-point loop, bit for bit.

    Mirrors the repeat-axis batched==loop property one level up: for
    arbitrary point sets (fault rates, collapse flags, repeat counts) and
    arbitrary round shapes (``max_stacked`` chunking), executing all
    points' realizations through one stacked pass must reproduce every
    realization of every point exactly as its own serial engine run —
    each lane consumes only its own named RNG stream.
    """

    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_run_points_matches_serial_engine_runs(self, vggnet_workload, data):
        engine = _engine_for(vggnet_workload)
        n_points = data.draw(st.integers(1, 4), label="n_points")
        specs = []
        names = []
        for i in range(n_points):
            p = data.draw(st.sampled_from(P_MENU), label=f"p[{i}]")
            collapse = (
                data.draw(st.booleans(), label=f"collapse[{i}]") if p > 0 else False
            )
            repeats = data.draw(st.integers(1, 3), label=f"repeats[{i}]")
            names.append([f"faults/v{600 - 5 * i}/r{r}" for r in range(repeats)])
            specs.append(
                (p, 333.0, [child_rng(2020, n) for n in names[i]], collapse)
            )
        max_stacked = data.draw(
            st.sampled_from([None, 16, 48, 96, 4096]), label="max_stacked"
        )
        batched = engine.run_points(specs, max_stacked=max_stacked)
        assert len(batched) == n_points
        for i, (p, f, _rngs, collapse) in enumerate(specs):
            assert len(batched[i]) == len(names[i])
            for r, name in enumerate(names[i]):
                serial = engine.run(
                    p, f, rng=child_rng(2020, name), control_collapse=collapse
                )
                assert batched[i][r].accuracy == serial.accuracy, (i, r)
                assert batched[i][r].faults_injected == serial.faults_injected

    def test_forward_points_splits_match_forward_repeats(self, vggnet_workload):
        """Stacked planner groups return exactly their own realizations."""
        graph = vggnet_workload.graph
        images = vggnet_workload.dataset.images
        bits = vggnet_workload.quantization.activation_bits
        groups = [
            _planner(vggnet_workload, [child_rng(9, "a0"), child_rng(9, "a1")], 2.7e-9),
            _planner(vggnet_workload, [child_rng(9, "b0")], 8.4e-9),
        ]
        stacked = forward_points(graph, images, bits, groups)
        solo = [
            forward_repeats(
                graph,
                images,
                bits,
                _planner(vggnet_workload, [child_rng(9, "a0"), child_rng(9, "a1")], 2.7e-9),
            ),
            forward_repeats(
                graph,
                images,
                bits,
                _planner(vggnet_workload, [child_rng(9, "b0")], 8.4e-9),
            ),
        ]
        for got, want in zip(stacked, solo):
            assert np.array_equal(got, want)

    def test_forward_points_empty_is_empty(self, vggnet_workload):
        assert forward_points(
            vggnet_workload.graph,
            vggnet_workload.dataset.images,
            vggnet_workload.quantization.activation_bits,
            [],
        ) == []


def _fresh_sweep(config, point_root, *, point_batch=None, benchmark="vggnet", sample=1):
    """One cached sweep on a fresh board/session; returns the SweepResult."""
    from repro.core.session import make_session
    from repro.core.undervolt import VoltageSweep
    from repro.fpga.board import make_board
    from repro.runtime.points import PointCache, point_scope

    board = make_board(sample=sample, cal=config.cal)
    session = make_session(board, benchmark, config)
    with point_scope(PointCache(Path(point_root))):
        return VoltageSweep(session, config).run(
            start_mv=620.0, point_batch=point_batch
        )


def _assert_sweeps_identical(a, b, root_a, root_b):
    """The bit-identity harness: Measurements AND point-store bytes."""
    assert [p.measurement for p in a.points] == [p.measurement for p in b.points]
    assert a.crash_mv == b.crash_mv
    files_a = sorted(p.name for p in Path(root_a).glob("*.json"))
    files_b = sorted(p.name for p in Path(root_b).glob("*.json"))
    assert files_a == files_b  # identical per-point fingerprints
    for name in files_a:
        assert (Path(root_a) / name).read_bytes() == (Path(root_b) / name).read_bytes()


class TestVoltageBatchedSweepProperty:
    """Round-batched sweeps == the one-point-per-round serial loop.

    ``point_batch=1`` makes every execution round a single point — the
    serial per-point loop — so for arbitrary strategies, grid pitches,
    and round shapes the batched sweep must reproduce its Measurements
    *and* its point-store entries (names and bytes: the per-point
    fingerprints must not move) exactly.
    """

    @settings(max_examples=6, deadline=None)
    @given(
        point_batch=st.integers(2, 12),
        strategy=st.sampled_from(["grid", "adaptive"]),
        step=st.sampled_from([5.0, 8.0]),
    )
    def test_batched_sweep_bit_identical_to_serial_loop(
        self, point_batch, strategy, step
    ):
        from repro.core.experiment import ExperimentConfig

        config = ExperimentConfig(
            seed=2020, repeats=2, samples=16, v_step=step / 1000.0, strategy=strategy
        )
        with tempfile.TemporaryDirectory() as tmp:
            root_loop = Path(tmp) / "loop"
            root_batched = Path(tmp) / "batched"
            loop = _fresh_sweep(config, root_loop, point_batch=1)
            batched = _fresh_sweep(config, root_batched, point_batch=point_batch)
            _assert_sweeps_identical(loop, batched, root_loop, root_batched)
            # Batching really did coalesce rounds (cost model, not values).
            assert batched.rounds_executed <= loop.rounds_executed

    def test_adversarial_rng_perturbation_fails_the_harness(self, monkeypatch):
        """Guard against the property suite going vacuous: perturbing the
        voltage-named stream derivation for the batched run MUST trip the
        bit-identity harness — if it doesn't, the harness proves nothing.
        """
        from repro.core.experiment import ExperimentConfig
        from repro.core.session import AcceleratorSession

        config = ExperimentConfig(seed=2020, repeats=2, samples=16)
        with tempfile.TemporaryDirectory() as tmp:
            root_ref = Path(tmp) / "ref"
            root_bad = Path(tmp) / "bad"
            reference = _fresh_sweep(config, root_ref, point_batch=1)

            original = AcceleratorSession._plan_rngs

            def perturbed(self, plan):
                rngs = original(self, plan)
                if rngs and plan.p_op > 0:
                    # Shift one point's realization streams by one index —
                    # exactly the bug the voltage-named contract forbids.
                    rngs = rngs[1:] + [
                        self._seeds.rng(
                            f"faults/v{plan.vccint_mv:.1f}/f{plan.f_mhz:.0f}"
                            f"/r{plan.repeats}"
                        )
                    ]
                return rngs

            monkeypatch.setattr(AcceleratorSession, "_plan_rngs", perturbed)
            batched = _fresh_sweep(config, root_bad, point_batch=8)
            with pytest.raises(AssertionError):
                _assert_sweeps_identical(reference, batched, root_ref, root_bad)
