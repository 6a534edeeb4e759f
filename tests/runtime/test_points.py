"""Per-point cache tests: key semantics, invalidation, resume, corruption."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.experiment import ExperimentConfig
from repro.core.session import AcceleratorSession
from repro.core.undervolt import PlannedPoint, VoltageSweep
from repro.fpga.board import make_board
from repro.models.zoo import build as build_workload
from repro.runtime.hashing import point_fingerprint
from repro.runtime.points import (
    PointCache,
    cached_round_measure,
    measurement_from_payload,
    measurement_to_payload,
    point_context,
    point_scope,
    read_point_entry,
)

CFG = ExperimentConfig(repeats=2, samples=16)


@pytest.fixture(scope="module")
def workload():
    return build_workload("vggnet", samples=CFG.samples, seed=CFG.seed)


@pytest.fixture()
def session(workload):
    return AcceleratorSession(make_board(sample=1), workload, CFG)


def fresh_session(workload, config=CFG):
    return AcceleratorSession(make_board(sample=1), workload, config)


def sweep(session, config, cache, start_mv=575.0, floor_mv=530.0):
    with point_scope(cache):
        return VoltageSweep(session, config).run(start_mv=start_mv, floor_mv=floor_mv)


class TestPointKey:
    def test_execution_and_sweep_plan_fields_do_not_move_the_key(self, session):
        context = point_context(session, 570.0, None)
        base = point_fingerprint(context, CFG)
        for overrides in (
            {"point_batch": 1},
            {"batch_budget": 7},
            {"v_step": 0.001},
            {"strategy": "adaptive"},
            {"v_resolution": 0.0005},
            {"accuracy_tolerance": 0.05},
        ):
            assert point_fingerprint(context, CFG.with_overrides(**overrides)) == base

    def test_semantic_fields_move_the_key(self, session):
        context = point_context(session, 570.0, None)
        base = point_fingerprint(context, CFG)
        for overrides in ({"seed": 7}, {"repeats": 5}, {"samples": 32}, {"width_scale": 0.5}):
            assert point_fingerprint(context, CFG.with_overrides(**overrides)) != base

    def test_version_moves_the_key(self, session):
        context = point_context(session, 570.0, None)
        assert point_fingerprint(context, CFG, version="1.0.0") != point_fingerprint(
            context, CFG, version="2.0.0"
        )

    def test_voltage_and_clock_move_the_key(self, session):
        context = point_context(session, 570.0, None)
        base = point_fingerprint(context, CFG)
        assert point_fingerprint(point_context(session, 565.0, None), CFG) != base
        assert point_fingerprint(point_context(session, 570.0, 200.0), CFG) != base


class TestMeasurementCodec:
    def test_round_trip_is_exact(self, session):
        measurement = session.run_at(570.0)
        payload = json.loads(json.dumps(measurement_to_payload(measurement)))
        assert measurement_from_payload(payload) == measurement

    def test_field_drift_rejected(self, session):
        payload = measurement_to_payload(session.run_at(570.0))
        payload.pop("accuracy")
        with pytest.raises(ValueError):
            measurement_from_payload(payload)

    def test_payload_is_exactly_asdict(self, session):
        live = session.run_at(570.0)
        numpy_fields = dataclasses.replace(
            live,
            **{
                f.name: np.float64(getattr(live, f.name))
                for f in dataclasses.fields(live)
                if f.type in (float, "float")
            },
        )
        assert isinstance(numpy_fields.accuracy, np.float64)
        for measurement in (live, numpy_fields):
            payload = measurement_to_payload(measurement)
            reference = dataclasses.asdict(measurement)
            assert list(payload) == list(reference)
            assert payload == reference
            assert json.dumps(payload) == json.dumps(reference)


class TestCachedSweeps:
    def test_warm_sweep_replays_every_point(self, workload, tmp_path):
        cache = PointCache(tmp_path / "points")
        cold = sweep(fresh_session(workload), CFG, cache)
        computed = cache.stats.stores
        assert computed == len(cold.points) + 1  # + the recorded hang
        warm_cache = PointCache(tmp_path / "points")
        warm = sweep(fresh_session(workload), CFG, warm_cache)
        assert warm_cache.stats.misses == 0
        assert warm_cache.stats.stores == 0
        assert warm_cache.stats.hits == len(cold.points) + 1
        assert warm.crash_mv == cold.crash_mv
        assert [p.measurement for p in warm.points] == [p.measurement for p in cold.points]

    def test_finer_step_pays_only_for_new_points(self, workload, tmp_path):
        cache = PointCache(tmp_path / "points")
        sweep(fresh_session(workload), CFG, cache)
        coarse_stores = cache.stats.stores
        fine_config = CFG.with_overrides(v_step=0.0025)
        fine = sweep(fresh_session(workload, fine_config), fine_config, cache)
        # Every coarse point (and the hang) was replayed, not recomputed.
        new_points = cache.stats.stores - coarse_stores
        assert cache.stats.hits >= coarse_stores - 1
        assert new_points < len(fine.points)

    def test_grid_warms_adaptive(self, workload, tmp_path):
        cache = PointCache(tmp_path / "points")
        sweep(fresh_session(workload), CFG, cache)
        adaptive_config = CFG.with_overrides(strategy="adaptive")
        before = cache.stats.stores
        adaptive = sweep(fresh_session(workload, adaptive_config), adaptive_config, cache)
        assert cache.stats.stores == before  # bisection replayed grid points
        assert adaptive.crash_mv is not None

    def test_version_bump_retires_points(self, workload, tmp_path, monkeypatch):
        import repro.version

        cache = PointCache(tmp_path / "points")
        sweep(fresh_session(workload), CFG, cache)
        stores = cache.stats.stores
        monkeypatch.setattr(repro.version, "__version__", "999.0.0")
        sweep(fresh_session(workload), CFG, cache)
        assert cache.stats.stores == 2 * stores  # everything recomputed

    def test_execution_knob_flip_keeps_points_warm(self, workload, tmp_path):
        cache = PointCache(tmp_path / "points")
        cold = sweep(fresh_session(workload), CFG, cache)
        flipped = CFG.with_overrides(batch_budget=64, point_batch=1)
        before = cache.stats.stores
        warm = sweep(fresh_session(workload, flipped), flipped, cache)
        assert cache.stats.stores == before
        assert [p.measurement for p in warm.points] == [p.measurement for p in cold.points]

    def test_hang_is_cached_and_replayed(self, workload, tmp_path):
        cache = PointCache(tmp_path / "points")
        cold = sweep(fresh_session(workload), CFG, cache)
        assert cold.crash_mv is not None
        session = fresh_session(workload)
        with point_scope(cache):
            execute = cached_round_measure(session, CFG)
            outcomes = execute([PlannedPoint(0, cold.crash_mv)])
        assert outcomes == {0: ("hang", None)}
        # The cached hang never touched the live board.
        assert session.board.crash_count == 0

    def test_point_scope_is_jobs_invariant(self, tmp_path):
        """A sharded (jobs>1) run's points are replayed by a serial run.

        Regression: keying a point on the work unit's shard key would
        give the same voltage point different fingerprints depending on
        ``--jobs``, silently recomputing whole fleets on a serial rerun of
        a parallel campaign.
        """
        from repro.experiments.common import fleet_sessions, sweep_to_crash
        from repro.experiments.registry import run_unit

        cfg = ExperimentConfig(repeats=1, samples=16)
        root = tmp_path / "points"
        # As a jobs>1 worker would: one per-benchmark shard of fig3.
        run_unit("fig3", ("vggnet",), cfg, str(root))
        cache = PointCache(root)
        assert len(cache.entries()) > 0
        # As the serial whole-experiment path runs it: no shard key.
        # Every vggnet fleet point must replay.
        with point_scope(cache):
            for session in fleet_sessions("vggnet", cfg):
                sweep_to_crash(session, cfg, start_mv=620.0)
        assert cache.stats.misses == 0
        assert cache.stats.stores == 0
        assert cache.stats.hits > 0

    def test_interrupted_sweep_resumes_from_frontier(self, workload, tmp_path):
        cache = PointCache(tmp_path / "points")
        session = fresh_session(workload)
        with point_scope(cache):
            execute = cached_round_measure(session, CFG)
            for index, v_mv in enumerate((575.0, 570.0, 565.0)):
                # Partial progress, one round per point, then "crash".
                execute([PlannedPoint(index, v_mv)])
        partial = cache.stats.stores
        assert partial == 3
        resumed = sweep(fresh_session(workload), CFG, cache)
        assert cache.stats.stores == partial + len(resumed.points) + 1 - 3
        reference = sweep(fresh_session(workload), CFG, PointCache(tmp_path / "ref"))
        assert [p.measurement for p in resumed.points] == [p.measurement for p in reference.points]


class TestRoundFingerprinting:
    def test_config_encoded_once_per_round(self, workload, tmp_path, monkeypatch):
        """A round binds one fingerprinter; its points never re-encode the config."""
        calls = []
        encode = ExperimentConfig.point_semantic_dict

        def counted(self):
            calls.append(1)
            return encode(self)

        monkeypatch.setattr(ExperimentConfig, "point_semantic_dict", counted)
        config = CFG.with_overrides(point_batch=8)
        result = sweep(fresh_session(workload, config), config, PointCache(tmp_path / "points"))
        assert result.points_executed > 2 * result.rounds_executed
        assert len(calls) == result.rounds_executed


class TestCrossExperimentReuse:
    """fig3-fig6 read one campaign: each voltage point is measured once."""

    def test_figures_share_one_measurement_per_context(self, tmp_path, monkeypatch):
        from repro.runtime import campaign
        from repro.runtime.cache import ResultCache
        from repro.runtime.hashing import canonical_json
        from repro.runtime.plan import ExecutionPlan

        config = ExperimentConfig(repeats=1, samples=8)
        ids = ["fig3", "fig4", "fig5", "fig6"]
        shared = ResultCache(tmp_path / "shared")
        points = PointCache(shared.point_root)
        new_points = {}

        def counted(experiment_id, *args):
            before = len(points.entries())
            result = run_unit(experiment_id, *args)
            new_points[experiment_id] = len(points.entries()) - before
            return result

        run_unit = campaign.run_unit
        monkeypatch.setattr(campaign, "run_unit", counted)
        together = campaign.run_campaign(ids, config, ExecutionPlan(jobs=1), cache=shared)
        monkeypatch.undo()

        contexts = {canonical_json(read_point_entry(p).context) for p in points.entries()}
        assert len(points.entries()) == len(contexts) == 311
        assert new_points["fig5"] == new_points["fig6"] == 0
        for experiment_id in ids:
            alone = campaign.run_campaign(
                [experiment_id],
                config,
                ExecutionPlan(jobs=1),
                cache=ResultCache(tmp_path / experiment_id),
            )
            assert together.entry(experiment_id).result.rows == alone.entries[0].result.rows
            assert together.entry(experiment_id).result.summary == alone.entries[0].result.summary


class TestEntries:
    def test_listing_matches_the_glob_formula(self, tmp_path):
        root = tmp_path / "points"
        root.mkdir()
        for name in "b.json a.json A.json .x.json notes.txt .gitignore c.json.tmp".split():
            (root / name).write_text("{}")
        (root / "d.json").mkdir()
        listed = PointCache(root).entries()
        assert listed == sorted(p for p in root.glob("*.json") if p.is_file())
        assert [p.name for p in listed] == [".x.json", "A.json", "a.json", "b.json"]

    def test_missing_root_lists_nothing(self, tmp_path):
        assert PointCache(tmp_path / "absent").entries() == []


class TestCorruption:
    def test_corrupt_point_recomputed(self, workload, tmp_path):
        cache = PointCache(tmp_path / "points")
        sweep(fresh_session(workload), CFG, cache)
        victim = cache.entries()[0]
        victim.write_text("{corrupt")
        warm = PointCache(tmp_path / "points")
        sweep(fresh_session(workload), CFG, warm)
        assert warm.stats.corrupt == 1
        assert warm.stats.stores == 1  # only the victim was recomputed

    def test_wrong_fingerprint_treated_as_corrupt(self, tmp_path, workload):
        cache = PointCache(tmp_path / "points")
        sweep(fresh_session(workload), CFG, cache)
        entries = cache.entries()
        payload = json.loads(entries[0].read_text())
        payload["fingerprint"] = "0" * 16
        entries[0].write_text(json.dumps(payload))
        fresh = PointCache(tmp_path / "points")
        assert fresh.load(entries[0].stem) is None
        assert fresh.stats.corrupt == 1

    def test_non_dict_context_treated_as_corrupt(self, tmp_path, workload):
        """``load`` and the read-only scan share one parser, so a file
        either reader rejects is corrupt to both."""
        cache = PointCache(tmp_path / "points")
        sweep(fresh_session(workload), CFG, cache)
        victim = cache.entries()[0]
        payload = json.loads(victim.read_text())
        payload["context"] = ["not", "a", "dict"]
        victim.write_text(json.dumps(payload))
        assert read_point_entry(victim) is None
        fresh = PointCache(tmp_path / "points")
        assert fresh.load(victim.stem) is None
        assert fresh.stats.corrupt == 1
        assert not victim.exists()

    def test_non_finite_numbers_treated_as_corrupt(self, tmp_path, workload):
        """``json.loads`` accepts ``NaN``/``Infinity`` and reads ``1e400``
        as ``inf``; the point format does not, since no reader could serve
        such a measurement as JSON."""
        cache = PointCache(tmp_path / "points")
        sweep(fresh_session(workload), CFG, cache)
        victim = next(p for p in cache.entries() if '"hang": false' in p.read_text())
        payload = json.loads(victim.read_text())
        payload["measurement"]["accuracy"] = "@accuracy"
        for literal in ("NaN", "Infinity", "-Infinity", "1e400", "-1e400"):
            victim.write_text(json.dumps(payload).replace('"@accuracy"', literal))
            assert read_point_entry(victim) is None
        fresh = PointCache(tmp_path / "points")
        assert fresh.load(victim.stem) is None
        assert fresh.stats.corrupt == 1
        assert not victim.exists()


class TestGridAdaptiveProperty:
    @settings(max_examples=12, deadline=None)
    @given(
        index=st.integers(min_value=0, max_value=9),
        plan=st.sampled_from(
            [
                {"strategy": "grid", "v_step": 0.005},
                {"strategy": "adaptive", "v_step": 0.005},
                {"strategy": "adaptive", "v_resolution": 0.0025},
                {"strategy": "grid", "v_resolution": 0.0025, "batch_budget": 64},
            ]
        ),
    )
    def test_same_voltage_same_measurement_under_any_plan(self, workload, index, plan):
        """The sweep plan never leaks into a point's measured value.

        Any strategy/step/resolution combination that lands on voltage
        ``v`` must produce the bit-identical Measurement the default plan
        produces there — the invariant that makes sharing per-point cache
        entries across strategies sound.
        """
        v_mv = 575.0 - index * 2.5  # spans guardband into the critical region
        baseline = fresh_session(workload).run_at(v_mv)
        other_config = CFG.with_overrides(**plan)
        other = fresh_session(workload, other_config).run_at(v_mv)
        assert other == baseline


class TestScanFastPath:
    def _warm_store(self, workload, tmp_path):
        cache = PointCache(tmp_path / "points")
        session = fresh_session(workload)
        sweep(session, CFG, cache)
        return cache

    def test_warm_scan_skips_unchanged_files(self, workload, tmp_path):
        cache = self._warm_store(workload, tmp_path)
        first = list(cache.scan())
        n = len(first)
        assert n > 0
        assert cache.scan_rereads == n and cache.scan_fast_hits == 0
        second = list(cache.scan())
        assert cache.scan_fast_hits == n  # one stat each, zero re-parses
        assert [p.name for p, _ in first] == [p.name for p, _ in second]
        # Memo-served entries are the full parse, payload included: a
        # warm refresh gets every measurement without reading a file.
        assert cache.scan_rereads == n
        for path, warm in second:
            assert warm == read_point_entry(path)
            assert warm.record.hang or warm.record.measurement is not None

    def test_rewritten_file_is_reparsed(self, workload, tmp_path):
        cache = self._warm_store(workload, tmp_path)
        list(cache.scan())
        victim = cache.entries()[0]
        payload = json.loads(victim.read_text())
        victim.write_text(json.dumps(payload))  # rewrite moves the mtime
        list(cache.scan())
        assert cache.scan_rereads > len(cache.entries())  # victim re-read

    def test_corrupt_verdict_memoized_and_still_counted(self, workload, tmp_path):
        cache = self._warm_store(workload, tmp_path)
        victim = cache.entries()[0]
        victim.write_text("garbage")
        for _ in range(2):  # fresh parse, then memo-served verdict
            entries = dict(cache.scan())
            assert entries[victim] is None

    def test_deleted_file_pruned_from_memo(self, workload, tmp_path):
        cache = self._warm_store(workload, tmp_path)
        list(cache.scan())
        victim = cache.entries()[0]
        victim.unlink()
        names = [p.name for p, _ in cache.scan()]
        assert victim.name not in names
        assert victim.name not in cache._scan_memo
