"""Campaign orchestrator tests.

Covers the acceptance contract of the runtime: parallel == serial at a
fixed seed, warm-cache re-runs perform zero experiment recomputations
(asserted via runner-call counts), and corrupted cache entries recover.
"""

import pytest

from repro.core.experiment import ExperimentConfig
from repro.experiments import registry
from repro.experiments.registry import ExperimentResult, ShardPlan
from repro.runtime.cache import ResultCache
from repro.runtime.campaign import (
    DEFAULT_ORDER,
    NAMED_CAMPAIGNS,
    resolve_campaign,
    run_campaign,
    run_sweep_campaign,
)
from repro.runtime.executor import run_tasks
from repro.runtime.fabric import WorkerFabric
from repro.runtime.plan import ExecutionPlan
from repro.runtime.shards import merge_unit_results, plan_units

CFG = ExperimentConfig(repeats=1, samples=16)

CALLS = {"runner": 0, "shard": 0}


def _register(experiment_id, *, shards=None):
    """Register a runner and return an undo callable."""

    def _undo():
        registry.SPECS.pop(experiment_id, None)

    def _decorate(func):
        registry.register(experiment_id, shards=shards)(func)
        return func

    return _decorate, _undo


@pytest.fixture()
def counted_experiment():
    """A cheap registered experiment that counts its invocations."""
    CALLS["runner"] = 0

    def runner(config):
        CALLS["runner"] += 1
        return ExperimentResult(
            experiment_id="zz_counted",
            title="counted",
            rows=[{"samples": config.samples}],
            summary={"seed": config.seed},
        )

    decorate, undo = _register("zz_counted")
    decorate(runner)
    yield CALLS
    undo()


@pytest.fixture()
def sharded_experiment():
    """A registered experiment with a 4-way shard plan."""
    CALLS["shard"] = 0

    def _keys(config):
        return [(i,) for i in range(4)]

    def _run_shard(key, config):
        CALLS["shard"] += 1
        (i,) = key
        return ExperimentResult(
            experiment_id="zz_sharded",
            title="sharded",
            rows=[{"shard": i, "samples": config.samples}],
            merge_state={"weight": float(i)},
        )

    def _merge(config, shards):
        merged = ExperimentResult(experiment_id="zz_sharded", title="sharded")
        for shard in shards:
            merged.rows.extend(shard.rows)
        merged.summary = {"total_weight": sum(s.merge_state["weight"] for s in shards)}
        return merged

    def runner(config):
        return _merge(config, [_run_shard((i,), config) for i in range(4)])

    decorate, undo = _register(
        "zz_sharded", shards=ShardPlan(keys=_keys, run=_run_shard, merge=_merge)
    )
    decorate(runner)
    yield CALLS
    undo()


def _die_in_pool_worker(value):
    """Kills the hosting process when run in a pool worker; benign in-process."""
    import multiprocessing
    import os

    if multiprocessing.current_process().name != "MainProcess":
        os._exit(1)
    return value


class TestExecutor:
    def test_serial_preserves_order_and_times(self):
        outcomes = run_tasks([(len, (("a", "b"),)), (len, (("c",),))])
        assert [o.value for o in outcomes] == [2, 1]
        assert all(o.worker == "serial" for o in outcomes)
        assert all(o.wall_s >= 0.0 for o in outcomes)

    def test_pool_preserves_input_order(self):
        tasks = [(pow, (2, i)) for i in range(8)]
        with WorkerFabric(4) as fabric:
            outcomes = run_tasks(tasks, fabric=fabric)
        assert [o.value for o in outcomes] == [2**i for i in range(8)]
        assert {o.worker for o in outcomes} == {"pool"}

    def test_task_exception_propagates(self):
        with pytest.raises(ZeroDivisionError):
            run_tasks([(divmod, (1, 0))])

    def test_on_complete_fires_once_per_task_serially(self):
        seen = []
        outcomes = run_tasks(
            [(pow, (2, i)) for i in range(4)],
            on_complete=lambda i, o: seen.append((i, o.value)),
        )
        assert seen == [(0, 1), (1, 2), (2, 4), (3, 8)]
        assert [o.value for o in outcomes] == [1, 2, 4, 8]

    def test_broken_pool_replays_only_unfinished_tasks(self):
        """A dead pool falls back serially without duplicating callbacks.

        One task kills its worker process, breaking the pool; the
        executor must keep any outcomes already collected, replay the
        rest in-process, fire ``on_complete`` exactly once per index, and
        still return values in input order.
        """
        seen: dict[int, int] = {}

        def on_complete(index, outcome):
            assert index not in seen, "duplicate completion callback"
            seen[index] = outcome.value

        tasks = [(pow, (2, 3)), (_die_in_pool_worker, (7,)), (pow, (2, 4))]
        with WorkerFabric(2) as fabric:
            outcomes = run_tasks(tasks, fabric=fabric, on_complete=on_complete)
        assert [o.value for o in outcomes] == [8, 7, 16]
        assert seen == {0: 8, 1: 7, 2: 16}
        # The killer task can only have finished via the serial fallback.
        assert outcomes[1].worker == "serial-fallback"


class TestPlanning:
    def test_fig3_shards_by_benchmark(self):
        units = plan_units("fig3", CFG)
        assert [u.shard_key for u in units] == [
            ("vggnet",), ("googlenet",), ("alexnet",), ("resnet50",),
            ("inception",),
        ]

    def test_fig6_shards_by_benchmark_board(self):
        units = plan_units("fig6", CFG)
        assert len(units) == 5 * CFG.cal.n_boards
        assert units[0].shard_key == ("vggnet", 0)
        assert units[-1].shard_key == ("inception", 2)
        assert units[1].label == "fig6[vggnet/1]"

    def test_unsharded_experiment_is_one_unit(self):
        units = plan_units("table1", CFG)
        assert len(units) == 1 and units[0].shard_key is None

    def test_shard_disabled_is_one_unit(self):
        assert len(plan_units("fig3", CFG, shard=False)) == 1

    def test_unknown_experiment_raises_keyerror(self):
        with pytest.raises(KeyError):
            plan_units("fig99", CFG)
        with pytest.raises(KeyError):
            run_campaign(["fig99"], CFG)

    def test_merge_requires_matching_lengths(self):
        units = plan_units("fig3", CFG)
        with pytest.raises(ValueError):
            merge_unit_results("fig3", CFG, units, [])


class TestNamedCampaigns:
    def test_resolve_named_set(self):
        assert resolve_campaign(["paper"]) == DEFAULT_ORDER
        assert resolve_campaign(["tables"]) == ("table1", "table2")

    def test_resolve_all_in_report_order(self):
        resolved = resolve_campaign(["all"])
        assert set(resolved) == set(registry.list_experiments())
        assert resolved[: len(DEFAULT_ORDER)] == DEFAULT_ORDER

    def test_resolve_explicit_ids(self):
        assert resolve_campaign(["fig3", "fig6"]) == ("fig3", "fig6")

    def test_resolve_mixed_names_and_ids(self):
        assert resolve_campaign(["tables", "extensions"]) == (
            "table1", "table2", "ablations", "ext_mitigation", "ext_bram",
        )
        # overlap collapses, explicit ids mix in
        assert resolve_campaign(["tables", "table1", "fig3"]) == (
            "table1", "table2", "fig3",
        )

    def test_named_sets_reference_registered_experiments(self):
        known = set(registry.list_experiments())
        for name, ids in NAMED_CAMPAIGNS.items():
            assert set(ids) <= known, f"campaign {name} names unknown ids"


class TestParallelEquivalence:
    def test_sharded_fake_parallel_matches_serial(self, sharded_experiment):
        serial = run_campaign(["zz_sharded"], CFG, ExecutionPlan(jobs=1))
        parallel = run_campaign(["zz_sharded"], CFG, ExecutionPlan(jobs=4))
        assert serial.entries[0].n_shards == 1  # whole-experiment unit
        assert parallel.entries[0].n_shards == 4
        assert serial.entries[0].result.rows == parallel.entries[0].result.rows
        assert serial.entries[0].result.summary == parallel.entries[0].result.summary

    def test_fig3_parallel_bit_identical_to_serial(self):
        serial = run_campaign(["fig3"], CFG, ExecutionPlan(jobs=1))
        parallel = run_campaign(["fig3"], CFG, ExecutionPlan(jobs=5))
        a, b = serial.entries[0].result, parallel.entries[0].result
        assert a.render() == b.render()
        assert a.rows == b.rows
        assert a.summary == b.summary


class TestCaching:
    def test_warm_cache_recomputes_nothing(self, counted_experiment, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cold = run_campaign(["zz_counted"], CFG, cache=cache)
        assert counted_experiment["runner"] == 1
        assert not cold.entries[0].cache_hit

        warm = run_campaign(["zz_counted"], CFG, cache=cache)
        assert counted_experiment["runner"] == 1  # zero recomputations
        assert warm.entries[0].cache_hit
        assert warm.entries[0].worker == "cache"
        assert warm.entries[0].result.rows == cold.entries[0].result.rows
        assert warm.cache_hits == 1 and warm.computed == 0

    def test_config_change_invalidates(self, counted_experiment, tmp_path):
        cache = ResultCache(tmp_path / "c")
        run_campaign(["zz_counted"], CFG, cache=cache)
        run_campaign(["zz_counted"], CFG.with_overrides(samples=32), cache=cache)
        assert counted_experiment["runner"] == 2

    def test_version_change_invalidates(self, counted_experiment, tmp_path, monkeypatch):
        import repro.version

        cache = ResultCache(tmp_path / "c")
        run_campaign(["zz_counted"], CFG, cache=cache)
        monkeypatch.setattr(repro.version, "__version__", "999.0.0")
        run_campaign(["zz_counted"], CFG, cache=cache)
        assert counted_experiment["runner"] == 2

    def test_corrupt_entry_recovers(self, counted_experiment, tmp_path):
        cache = ResultCache(tmp_path / "c")
        outcome = run_campaign(["zz_counted"], CFG, cache=cache)
        cache.path_for(outcome.entries[0].fingerprint).write_text("garbage")
        again = run_campaign(["zz_counted"], CFG, cache=cache)
        assert counted_experiment["runner"] == 2  # recomputed once
        assert not again.entries[0].cache_hit
        # entry was rewritten; a third run hits cleanly
        third = run_campaign(["zz_counted"], CFG, cache=cache)
        assert counted_experiment["runner"] == 2
        assert third.entries[0].cache_hit

    def test_duplicate_ids_computed_once(self, counted_experiment):
        outcome = run_campaign(["zz_counted", "zz_counted"], CFG)
        assert counted_experiment["runner"] == 1
        assert len(outcome.entries) == 1

    def test_cached_wall_time_is_the_compute_time(self, counted_experiment, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cold = run_campaign(["zz_counted"], CFG, cache=cache)
        warm = run_campaign(["zz_counted"], CFG, cache=cache)
        assert warm.entries[0].wall_s == pytest.approx(cold.entries[0].wall_s, abs=1e-5)


class TestSweepCampaign:
    def test_sweep_campaign_populates_point_store(self, tmp_path):
        from repro.runtime.points import PointCache

        cache = ResultCache(tmp_path / "c")
        cfg = ExperimentConfig(repeats=1, samples=16)
        cold = run_sweep_campaign("vggnet", [1], cfg, cache=cache)
        points = PointCache(cache.point_root)
        n_points = len(points.entries())
        # One entry per measured row plus the recorded hang.
        assert n_points == len(cold.entries[0].result.rows) + 1

        # Losing the experiment-level entry is now cheap: the rebuild
        # replays every point from the store and re-renders identically.
        assert cache.invalidate(cold.entries[0].fingerprint)
        rebuilt = run_sweep_campaign("vggnet", [1], cfg, cache=cache)
        assert not rebuilt.entries[0].cache_hit
        assert rebuilt.entries[0].result.rows == cold.entries[0].result.rows
        assert rebuilt.entries[0].result.summary == cold.entries[0].result.summary
        assert len(PointCache(cache.point_root).entries()) == n_points

    def test_finer_step_extends_the_point_store(self, tmp_path):
        from repro.runtime.points import PointCache

        cache = ResultCache(tmp_path / "c")
        coarse_cfg = ExperimentConfig(repeats=1, samples=16, v_step=0.010)
        coarse = run_sweep_campaign("vggnet", [1], coarse_cfg, cache=cache)
        n_coarse = len(PointCache(cache.point_root).entries())

        fine_cfg = coarse_cfg.with_overrides(v_step=0.005)
        fine = run_sweep_campaign("vggnet", [1], fine_cfg, cache=cache)
        n_fine = len(PointCache(cache.point_root).entries())
        # The fine sweep recomputed nothing it already knew: stores grew
        # by exactly the count of new-to-the-store voltages (plus the
        # finer crash probe when it lands on a new grid point).
        new_rows = len(fine.entries[0].result.rows) - len(coarse.entries[0].result.rows)
        new_hangs = int(fine.entries[0].result.summary["crash_mv"]
                        != coarse.entries[0].result.summary["crash_mv"])
        assert n_fine - n_coarse == new_rows + new_hangs
        # Shared voltages render identically from the cached points.
        coarse_by_mv = {r["vccint_mv"]: r for r in coarse.entries[0].result.rows}
        for row in fine.entries[0].result.rows:
            if row["vccint_mv"] in coarse_by_mv:
                assert row == coarse_by_mv[row["vccint_mv"]]

    def test_sweep_all_boards_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cfg = ExperimentConfig(repeats=1, samples=16)
        cold = run_sweep_campaign("vggnet", [0, 1], cfg, cache=cache)
        warm = run_sweep_campaign("vggnet", [0, 1], cfg, cache=cache)
        assert [e.cache_hit for e in cold.entries] == [False, False]
        assert [e.cache_hit for e in warm.entries] == [True, True]
        for a, b in zip(cold.entries, warm.entries):
            assert a.result.rows == b.result.rows
        # distinct boards produce distinct landmarks -> distinct keys
        assert cold.entries[0].fingerprint != cold.entries[1].fingerprint
        assert cold.entries[0].result.summary["crash_mv"] is not None


class TestEntryPoints:
    """``CampaignEntry.points`` names exactly the point files a cold run
    writes: the set a remote worker ships for the unit."""

    CFG = ExperimentConfig(repeats=1, samples=8)

    @staticmethod
    def _files(cache: ResultCache) -> tuple[str, ...]:
        return tuple(sorted(p.stem for p in cache.point_root.glob("*.json")))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fig3_points_are_the_files_a_cold_run_writes(self, tmp_path, jobs):
        cache = ResultCache(tmp_path / "c")
        cold = run_campaign(["fig3"], self.CFG, ExecutionPlan(jobs=jobs), cache=cache)
        (entry,) = cold.entries
        assert entry.points and entry.points == self._files(cache)

        assert cache.invalidate(entry.fingerprint)
        rerun = run_campaign(["fig3"], self.CFG, ExecutionPlan(jobs=jobs), cache=cache)
        assert rerun.entries[0].points == entry.points
        warm = run_campaign(["fig3"], self.CFG, ExecutionPlan(jobs=jobs), cache=cache)
        assert warm.entries[0].cache_hit and warm.entries[0].points == ()

    def test_unit_dispatched_sweep_points_are_its_files(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        (entry,) = run_sweep_campaign("vggnet", [0], self.CFG, cache=cache).entries
        assert entry.points and entry.points == self._files(cache)

        # A second board's unit names its own points, not the first's.
        (other,) = run_sweep_campaign("vggnet", [1], self.CFG, cache=cache).entries
        assert set(other.points) == set(self._files(cache)) - set(entry.points)

        assert cache.invalidate(entry.fingerprint)
        (rerun,) = run_sweep_campaign("vggnet", [0], self.CFG, cache=cache).entries
        assert rerun.points == entry.points

    def test_point_dispatched_sweep_names_no_points(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        plan = ExecutionPlan(jobs=1, dispatch="point")
        (entry,) = run_sweep_campaign("vggnet", [0], self.CFG, plan, cache=cache).entries
        assert self._files(cache) and entry.points == ()
