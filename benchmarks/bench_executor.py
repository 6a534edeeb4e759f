"""Execution-fabric benchmarks: warm leased pools vs a pool per round.

The workload is the paper's characterization shape made adversarial for
the executor: a **repeats-heavy adaptive fig3 fleet** — every
(benchmark, board) pair swept from 620 mV to crash with the adaptive
strategy at 10 fault realizations per point — where *every sweep round
is dispatched to a worker process* as one
:func:`~repro.runtime.campaign.measure_round_task`, exactly how the
warm-worker fabric runs sweeps (``run_sweep_campaign`` under
``ExecutionPlan(dispatch="point")``, via
:func:`~repro.runtime.campaign.run_sweep_unit_remote`).  The parent
drives the sweep over a model-free
:class:`~repro.runtime.campaign.RemoteSweepSession`: models live in the
workers, which is where the two execution modes differ.

Two executions of the identical round sequence are timed:

* **cold** — every round gets a fresh pool, closed when the round
  returns: each round pays pool spawn plus a cold worker's model build
  and clean-pass capture, and the worker's warm state dies before the
  next round can use it;
* **warm** — one :class:`~repro.runtime.fabric.WorkerFabric` leased
  across the whole fleet (workers pre-warmed on one fault-free point
  per pair), so rounds reach workers whose memoized models and
  fabric-scope clean passes persist across every bisection round.

The acceptance contract, gated by ``benchmarks/baselines/ci.json`` via
``scripts/check_bench_regression.py``:

* warm and cold execute the **same points** and detect the **same
  landmarks** (asserted in the test body — the fabric is an
  acceleration, not a semantic);
* the warm fabric is **>=2x faster wall-clock** (a ci.json speedup gate
  — a ratio within one run, so it holds on any hardware);
* loading a spilled workload from the model plane beats building it
  from scratch **>=5x** (``test_workload_build_*``, ci.json-gated);
* dispatch overhead through a warm fabric is near zero per task
  (``test_dispatch_overhead_warm_fabric``, asserted in-body and
  recorded as ``extra_info`` for trend tracking).

Run with ``pytest benchmarks/bench_executor.py`` (same environment
overrides as the other benches; see conftest).
"""

import time

import pytest

from repro.core.regions import detect_regions
from repro.core.undervolt import PlannedPoint, VoltageSweep
from repro.models.zoo import _build_cached, build
from repro.runtime.blobs import BlobStore, blob_plane
from repro.runtime.campaign import measure_round_task, remote_sweep_session
from repro.runtime.executor import run_tasks
from repro.runtime.fabric import WorkerFabric

from conftest import run_once

#: Fleet under test: two benchmarks x all boards keeps the cold run's
#: per-probe setup cost representative without doubling CI bench time.
BENCHMARKS = ("vggnet", "googlenet")
#: fig3's sweep start (mV); all boards are fault-free above it.
START_MV = 620.0
#: Worker processes per pool, both paths.
JOBS = 2

#: Cross-test record: mode -> (landmarks, points_executed).
_RECORD: dict = {}


def _bench_config(config):
    """Repeats-heavy adaptive sweep config (the paper's 10 realizations).

    The evaluation set is halved relative to the bench default: this
    bench stresses what the fabric amortizes — pool spawn, model build,
    clean-pass capture per round — and the per-realization cone math is
    identical on both paths by construction (asserted via landmark and
    point-count equality), so keeping it dominant would only dilute the
    executor signal with simulator arithmetic.
    """
    return config.with_overrides(
        repeats=10, strategy="adaptive", samples=max(16, config.samples // 2)
    )


def _dispatching_round_measure(benchmark, board, config, fabric_for_round):
    """A round executor shipping every round to a worker, like point dispatch.

    The same task and wire form :func:`run_sweep_unit_remote` uses.
    ``fabric_for_round()`` returns ``(fabric, owned)`` per round: the
    warm path returns the leased fabric, the cold path a fresh one that
    is closed after the round.
    """

    def measure_round(points):
        fabric, owned = fabric_for_round()
        wire = tuple((p.index, p.v_mv, p.mode) for p in points)
        task_args = (benchmark, board, wire, None, config, None, None)
        try:
            outcomes = run_tasks([(measure_round_task, task_args)], fabric=fabric)
        finally:
            if owned:
                fabric.close()
        return {index: (kind, m) for index, kind, m in outcomes[0].value}

    return measure_round


def fleet_point_sweeps(config, fabric_for_round):
    """fig3's landmark search with every round dispatched to a pool."""
    landmarks = {}
    points_executed = 0
    for name in BENCHMARKS:
        for board in range(config.cal.n_boards):
            session = remote_sweep_session(name, board, config)
            measure_round = _dispatching_round_measure(name, board, config, fabric_for_round)
            sweep = VoltageSweep(session, config).run(
                start_mv=START_MV, measure_round=measure_round
            )
            regions = detect_regions(sweep, accuracy_tolerance=config.accuracy_tolerance)
            landmarks[(name, board)] = (
                regions.vmin_mv,
                regions.vcrash_mv,
                sweep.crash_mv,
            )
            points_executed += sweep.points_executed
    return landmarks, points_executed


@pytest.mark.benchmark(group="executor")
def test_fig3_fleet_point_probes_cold_pools(benchmark, config):
    """Baseline: a fresh pool per sweep round."""
    cfg = _bench_config(config)

    def cold_fabric():
        return WorkerFabric(JOBS), True

    landmarks, points = run_once(benchmark, lambda: fleet_point_sweeps(cfg, cold_fabric))
    benchmark.extra_info["points_executed"] = points
    _RECORD["cold"] = (landmarks, points)
    assert len(landmarks) == len(BENCHMARKS) * cfg.cal.n_boards
    assert points > 0


@pytest.mark.benchmark(group="executor")
def test_fig3_fleet_point_probes_warm_fabric(benchmark, config):
    """One leased fabric across the fleet: warm workers for every round."""
    cfg = _bench_config(config)
    with WorkerFabric(JOBS) as fabric:

        def warm_fabric():
            return fabric, False

        # Warm-up: one fault-free point per (benchmark, board) builds the
        # workers' models before the timer — the one-time cost leasing
        # amortizes over the campaign.
        for name in BENCHMARKS:
            for board in range(cfg.cal.n_boards):
                warm_round = _dispatching_round_measure(name, board, cfg, warm_fabric)
                warm_round([PlannedPoint(0, START_MV)])

        landmarks, points = run_once(benchmark, lambda: fleet_point_sweeps(cfg, warm_fabric))
        assert fabric.pools_spawned == 1, "the lease must never respawn"
    benchmark.extra_info["points_executed"] = points
    _RECORD["warm"] = (landmarks, points)
    if "cold" not in _RECORD:  # running this bench alone: build the reference

        def cold_fabric():
            return WorkerFabric(JOBS), True

        _RECORD["cold"] = fleet_point_sweeps(cfg, cold_fabric)
    cold_landmarks, cold_points = _RECORD["cold"]
    # The fabric is an acceleration, never a semantic: identical point
    # counts and identical landmarks on every (benchmark, board) pair.
    assert landmarks == cold_landmarks
    assert points == cold_points


#: Workload-build micro-bench target (the fleet's deepest model).
_PLANE_BENCHMARK = "googlenet"


def _build_kwargs(config):
    return dict(samples=config.samples, width_scale=config.width_scale, seed=config.seed)


@pytest.mark.benchmark(group="model-plane")
def test_workload_build_cold(benchmark, config):
    """Baseline: build a workload from scratch (weights + calibration)."""

    def build_fresh():
        _build_cached.cache_clear()
        return build(_PLANE_BENCHMARK, **_build_kwargs(config))

    workload = run_once(benchmark, build_fresh)
    _RECORD["built"] = workload


@pytest.mark.benchmark(group="model-plane")
def test_workload_build_from_plane(benchmark, config, tmp_path):
    """The model plane: load the spilled workload memory-mapped."""
    store = BlobStore(tmp_path / "blobs")
    _build_cached.cache_clear()
    with blob_plane(store):
        reference = build(_PLANE_BENCHMARK, **_build_kwargs(config))  # spills

    def build_from_plane():
        _build_cached.cache_clear()
        with blob_plane(store):
            return build(_PLANE_BENCHMARK, **_build_kwargs(config))

    workload = run_once(benchmark, build_from_plane)
    _build_cached.cache_clear()
    assert store.stats.hits > 0, "the plane must have served the build"
    assert workload.clean_accuracy == reference.clean_accuracy
    assert workload.variant_label == reference.variant_label


@pytest.mark.benchmark(group="executor")
def test_dispatch_overhead_warm_fabric(benchmark, config):
    """Per-task overhead of a warm fabric round (chunked dispatch).

    256 trivial tasks through an already-spawned pool: the recorded
    per-task cost is pure dispatch — pickle, queue, wakeup — and must
    stay in the low milliseconds (asserted loosely for CI jitter; the
    ``extra_info`` number is the one to watch over time).
    """
    n_tasks = 256
    with WorkerFabric(JOBS) as fabric:
        run_tasks([(int, ("7",)) for _ in range(8)], fabric=fabric)  # spawn + warm

        def dispatch_round():
            started = time.perf_counter()
            outcomes = run_tasks([(int, ("7",)) for _ in range(n_tasks)], fabric=fabric)
            elapsed = time.perf_counter() - started
            assert [o.value for o in outcomes] == [7] * n_tasks
            return elapsed

        elapsed = run_once(benchmark, dispatch_round)
        assert fabric.pools_spawned == 1
    per_task_ms = elapsed * 1000.0 / n_tasks
    benchmark.extra_info["per_task_dispatch_ms"] = per_task_ms
    assert per_task_ms < 25.0, f"warm dispatch cost {per_task_ms:.2f} ms/task"
