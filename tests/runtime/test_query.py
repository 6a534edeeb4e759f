"""Characterization query service: index, read-through, coalescing."""

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import repro.runtime.campaign as campaign_mod
import repro.runtime.points as points_mod
from repro.core.experiment import ExperimentConfig
from repro.core.regions import detect_regions
from repro.core.session import make_session
from repro.core.undervolt import SweepResult, VoltageSweep
from repro.fpga.board import make_board
from repro.query import (
    CharacterizationIndex,
    RequestCoalescer,
    open_index,
    to_json,
)
from repro.runtime.cache import ResultCache
from repro.runtime.campaign import run_sweep_campaign
from repro.runtime.hashing import point_fingerprint
from repro.runtime.points import PointCache, read_point_entry

CONFIG = ExperimentConfig(repeats=1, samples=8)
BOARDS = (0, 1)


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    """A cache dir whose point store holds full vggnet sweeps on two boards."""
    root = tmp_path_factory.mktemp("query-cache")
    run_sweep_campaign("vggnet", list(BOARDS), CONFIG, cache=ResultCache(root))
    return root


@pytest.fixture()
def index(warm_cache):
    return open_index(warm_cache, config=CONFIG)


def reference_sweep(board: int) -> "SweepResult":
    """An uncached live sweep to compare the index's answers against."""
    session = make_session(make_board(sample=board, cal=CONFIG.cal), "vggnet", CONFIG)
    return VoltageSweep(session, CONFIG).run()


class TestIndexBuild:
    def test_indexes_every_point(self, index):
        stats = index.stats()
        assert stats["datasets"] == len(BOARDS)
        assert stats["points"]["alive"] > 0
        assert stats["points"]["hangs"] >= len(BOARDS)
        assert stats["points"]["corrupt_skipped"] == 0
        assert stats["points"]["excluded_other_config"] == 0

    def test_other_config_points_are_excluded(self, warm_cache):
        other = open_index(warm_cache, config=CONFIG.with_overrides(repeats=2))
        stats = other.stats()
        assert stats["points"]["indexed"] == 0
        assert stats["points"]["excluded_other_config"] > 0

    def test_corrupt_point_files_are_skipped_not_fatal(self, warm_cache, index):
        store = PointCache(warm_cache / "points")
        bad = store.root / f"{'0' * 16}.json"
        bad.write_text("{not json")
        try:
            rebuilt = open_index(warm_cache, config=CONFIG)
            assert rebuilt.stats()["points"]["corrupt_skipped"] == 1
            assert rebuilt.stats()["points"]["alive"] == index.stats()["points"]["alive"]
        finally:
            bad.unlink()

    def test_open_encodes_the_config_once(self, warm_cache, monkeypatch):
        """The scan binds one fingerprinter, not one config encoding per point."""
        calls = []
        encode = ExperimentConfig.point_semantic_dict

        def counted(self):
            calls.append(1)
            return encode(self)

        monkeypatch.setattr(ExperimentConfig, "point_semantic_dict", counted)
        idx = open_index(warm_cache, config=CONFIG)
        assert idx.stats()["points"]["indexed"] >= 50
        assert len(calls) == 1

    def test_context_copied_under_another_name_is_excluded(self, tmp_path):
        """A context has one file name: a copy under any other is not indexed."""
        run_sweep_campaign("vggnet", [0], CONFIG, cache=ResultCache(tmp_path))
        single = open_index(tmp_path, config=CONFIG).points("vggnet", board=0)
        store = PointCache(tmp_path / "points")
        for path in store.entries():
            payload = json.loads(path.read_text())
            assert payload["fingerprint"] == point_fingerprint(payload["context"], CONFIG)
            payload["fingerprint"] = point_fingerprint({**payload["context"], "copy": 1}, CONFIG)
            store.path_for(payload["fingerprint"]).write_text(json.dumps(payload))
        idx = open_index(tmp_path, config=CONFIG)
        points = idx.stats()["points"]
        assert points["indexed"] == points["excluded_other_config"]
        assert points["indexed"] * 2 == len(store.entries())
        assert idx.points("vggnet", board=0) == single

    def test_dataset_keys_sorted_and_filtered(self, index):
        keys = index.dataset_keys(benchmark="vggnet")
        assert [k.board for k in keys] == sorted(BOARDS)
        assert index.dataset_keys(benchmark="nope") == []


class TestPointQueries:
    def test_exact_lookup_is_bit_identical_to_a_live_sweep(self, index):
        sweep = reference_sweep(0)
        probe = sweep.points[len(sweep.points) // 2].measurement
        row = index.point("vggnet", probe.vccint_mv, board=0)
        assert row["hang"] is False
        assert row["accuracy"] == probe.accuracy
        assert row["power_w"] == probe.power_w
        assert row["gops"] == probe.gops

    def test_exact_lookup_serves_recorded_hangs(self, index):
        sweep = reference_sweep(0)
        assert sweep.crash_mv is not None
        row = index.point("vggnet", sweep.crash_mv, board=0)
        assert row == {
            "benchmark": "vggnet",
            "variant": "vggnet-int8",
            "board": 0,
            "f_mhz": 333.0,
            "t_setpoint_c": None,
            "mode": "exact",
            "vccint_mv": sweep.crash_mv,
            "hang": True,
        }

    def test_exact_miss_raises(self, index):
        with pytest.raises(KeyError):
            index.point("vggnet", 847.3, board=0)

    def test_nearest_returns_closest_measured_point(self, index):
        row = index.point("vggnet", 848.9, board=0, mode="nearest")
        assert row["vccint_mv"] == 850.0
        assert row["distance_mv"] == pytest.approx(1.1)

    def test_interpolation_blends_the_bracketing_points(self, index):
        hi = index.point("vggnet", 850.0, board=0)
        lo = index.point("vggnet", 845.0, board=0)
        mid = index.point("vggnet", 847.5, board=0, mode="interpolate")
        assert mid["interpolated"] is True
        assert mid["bracket_mv"] == [850.0, 845.0]
        assert mid["power_w"] == pytest.approx((hi["power_w"] + lo["power_w"]) / 2)

    def test_interpolation_clamps_outside_the_measured_range(self, index):
        row = index.point("vggnet", 900.0, board=0, mode="interpolate")
        assert row["interpolated"] is False
        assert row["vccint_mv"] == 850.0

    def test_unknown_dataset_raises_keyerror(self, index):
        with pytest.raises(KeyError):
            index.point("vggnet", 850.0, board=7)

    def test_unknown_mode_rejected(self, index):
        with pytest.raises(ValueError):
            index.point("vggnet", 850.0, board=0, mode="psychic")

    def test_points_dump_is_sorted_high_to_low(self, index):
        payload = index.points("vggnet", board=0)
        voltages = [p["vccint_mv"] for p in payload["points"]]
        assert voltages == sorted(voltages, reverse=True)
        assert payload["n_hangs"] == 1


class TestLandmarks:
    def test_landmarks_match_detect_regions_on_a_live_sweep(self, index):
        for board in BOARDS:
            sweep = reference_sweep(board)
            regions = detect_regions(
                sweep,
                accuracy_tolerance=CONFIG.accuracy_tolerance,
                vnom_mv=CONFIG.cal.vnom * 1000.0,
            )
            (row,) = index.landmarks("vggnet", board=board)
            assert row["complete"] is True
            assert row["vmin_mv"] == regions.vmin_mv
            assert row["vcrash_mv"] == regions.vcrash_mv
            assert row["guardband_mv"] == regions.guardband_mv

    def test_landmark_rows_are_memoized_per_refresh(self, index):
        first = index.landmarks("vggnet", board=0)
        second = index.landmarks("vggnet", board=0)
        assert first[0] is second[0]
        index.refresh()
        third = index.landmarks("vggnet", board=0)
        assert third[0] is not first[0]
        assert third == first

    def test_guardband_map_reshapes_landmarks(self, index):
        (entry,) = index.guardband("vggnet")
        assert [b["board"] for b in entry["boards"]] == sorted(BOARDS)
        assert entry["worst_case_vmin_mv"] == max(b["vmin_mv"] for b in entry["boards"])
        assert entry["fleet_guardband_mv"] == min(b["guardband_mv"] for b in entry["boards"])
        assert entry["incomplete_boards"] == []

    def test_incomplete_dataset_reports_reason(self, tmp_path):
        # A store holding only the nominal point: no hang, no landmarks.
        cache = ResultCache(tmp_path)
        idx = CharacterizationIndex(tmp_path, config=CONFIG)
        idx.ensure_point("vggnet", 850.0, board=0)
        (row,) = idx.landmarks("vggnet", board=0)
        assert row["complete"] is False
        assert "crash" in row["reason"]
        assert cache.point_root.is_dir()


class TestServedFromMemory:
    def test_every_query_answers_with_no_file_read(self, warm_cache, monkeypatch):
        idx = open_index(warm_cache, config=CONFIG)
        idx.precompute_landmarks()
        (row,) = idx.landmarks("vggnet", board=0)
        vmin_mv = row["vmin_mv"]

        def no_read(path):
            raise AssertionError(f"a query re-read point file {path}")

        monkeypatch.setattr(points_mod, "read_point_entry", no_read)
        monkeypatch.setattr(Path, "read_text", no_read)
        for board in BOARDS:
            assert idx.points("vggnet", board=board)["n_points"] > 0
        assert idx.point("vggnet", vmin_mv, board=0)["hang"] is False
        assert "distance_mv" in idx.point("vggnet", vmin_mv - 0.3, board=0, mode="nearest")
        assert idx.point("vggnet", vmin_mv - 2.5, board=1, mode="interpolate")["hang"] is False
        assert len(idx.landmarks("vggnet")) == len(BOARDS)
        (entry,) = idx.guardband("vggnet")
        assert len(entry["boards"]) == len(BOARDS)
        monkeypatch.undo()  # stats() reads the campaign journal
        lru = idx.stats()["lru"]
        assert lru["hits"] > 0
        assert (lru["misses"], lru["evictions"]) == (0, 0)


class TestReadThrough:
    def test_miss_schedules_one_sweep_then_serves_from_cache(self, tmp_path, monkeypatch):
        runs = []
        real = campaign_mod.run_sweep_unit

        def counting(*args, **kwargs):
            runs.append(args[:2])
            return real(*args, **kwargs)

        monkeypatch.setattr(campaign_mod, "run_sweep_unit", counting)
        idx = CharacterizationIndex(tmp_path, config=CONFIG)
        assert idx.landmarks("vggnet", board=0) == []

        (row,) = idx.landmarks("vggnet", board=0, compute=True)
        assert row["complete"] is True
        assert runs == [("vggnet", 0)]
        assert idx.computed_sweeps == 1

        served_before = idx.served_from_cache
        (again,) = idx.landmarks("vggnet", board=0, compute=True)
        assert again == row
        assert runs == [("vggnet", 0)]  # no re-sweep: served from the store
        assert idx.served_from_cache == served_before + 1

    def test_point_read_through_is_shared_with_sweeps(self, tmp_path, warm_cache):
        idx = CharacterizationIndex(tmp_path, config=CONFIG)
        assert idx.ensure_point("vggnet", 850.0, board=0) is True
        (path,) = PointCache(idx.cache_dir / "points").entries()
        assert path.read_bytes() == (warm_cache / "points" / path.name).read_bytes()
        row = idx.point("vggnet", 850.0, board=0)
        assert row["hang"] is False

    def test_ensure_point_stores_the_live_measurement(self, tmp_path):
        idx = CharacterizationIndex(tmp_path, config=CONFIG)
        v_mv = reference_sweep(0).last_alive.vccint_mv  # deepest faulty point
        assert idx.ensure_point("vggnet", v_mv, board=0) is True
        (entry,) = [read_point_entry(p) for p in PointCache(idx.cache_dir / "points").entries()]
        session = make_session(make_board(sample=0, cal=CONFIG.cal), "vggnet", CONFIG)
        assert entry.record.measurement == session.run_at(v_mv)

    def test_ensure_point_below_crash_records_one_hang(self, tmp_path, warm_cache):
        idx = CharacterizationIndex(tmp_path, config=CONFIG)
        crash_mv = reference_sweep(0).crash_mv
        assert crash_mv is not None
        assert idx.ensure_point("vggnet", crash_mv, board=0) is False
        entries = [read_point_entry(p) for p in PointCache(idx.cache_dir / "points").entries()]
        assert [e.record.hang for e in entries] == [True]
        assert (warm_cache / "points" / f"{entries[0].fingerprint}.json").exists()

    def test_point_compute_flag_fills_exact_misses(self, tmp_path):
        idx = CharacterizationIndex(tmp_path, config=CONFIG)
        with pytest.raises(KeyError):
            idx.point("vggnet", 850.0, board=0)
        row = idx.point("vggnet", 850.0, board=0, compute=True)
        assert row["hang"] is False
        assert idx.computed_points == 1

    def test_compute_runs_in_the_calling_thread(self, tmp_path, monkeypatch):
        from repro.runtime.fabric import WorkerFabric

        def no_fabric(*args, **kwargs):
            raise AssertionError("a read-through compute built a worker fabric")

        monkeypatch.setattr(WorkerFabric, "__init__", no_fabric)
        idx = CharacterizationIndex(tmp_path, config=CONFIG)
        row = idx.point("vggnet", 850.0, variant="vggnet-int8", board=0, compute=True)
        assert row["hang"] is False and row["variant"] == "vggnet-int8"


class TestComputeRefusesWhatItCannotFill:
    """Compute measures the default variant at a free-running fan, nothing else.

    Computing any of these queries would measure the wrong dataset, store
    it, and still miss.
    """

    @pytest.mark.parametrize(
        "query",
        [
            lambda idx: idx.point("vggnet", 850.0, variant="vggnet-int4", compute=True),
            lambda idx: idx.point("vggnet", 850.0, t_setpoint_c=60.0, compute=True),
            lambda idx: idx.landmarks("vggnet", variant="vggnet-int4", board=1, compute=True),
        ],
        ids=["point-variant", "point-setpoint", "landmarks-variant"],
    )
    def test_refused_before_anything_runs(self, tmp_path, monkeypatch, query):
        runs = []
        for name in ("run_sweep_unit", "measure_round_task"):
            real = getattr(campaign_mod, name)

            def counting(*args, _real=real, **kwargs):
                runs.append(args[:2])
                return _real(*args, **kwargs)

            monkeypatch.setattr(campaign_mod, name, counting)
        idx = CharacterizationIndex(tmp_path, config=CONFIG)
        with pytest.raises(ValueError, match="compute fills only"):
            query(idx)
        assert runs == []
        assert PointCache(idx.cache_dir / "points").entries() == []
        assert idx.computed_points == idx.computed_sweeps == 0


class TestCoalescing:
    def test_coalescer_runs_one_computation_for_n_waiters(self):
        coalescer = RequestCoalescer()
        release = threading.Event()
        calls = []

        def compute():
            calls.append(1)
            release.wait(5.0)
            return 42

        results = []

        def worker():
            results.append(coalescer.run("key", compute))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 5.0
        while coalescer.coalesced_waits < 5 and time.monotonic() < deadline:
            time.sleep(0.01)
        release.set()
        for t in threads:
            t.join(timeout=5.0)
        assert calls == [1]
        assert sorted(led for _, led in results) == [False] * 5 + [True]
        assert all(value == 42 for value, _ in results)

    def test_coalescer_propagates_the_leaders_exception(self):
        coalescer = RequestCoalescer()

        def compute():
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            coalescer.run("key", compute)
        # The key is released afterwards: a retry computes afresh.
        value, led = coalescer.run("key", lambda: 7)
        assert (value, led) == (7, True)

    def test_concurrent_misses_compute_each_point_exactly_once(self, tmp_path, monkeypatch):
        """N concurrent queries for one missing sweep -> one sweep run."""
        idx = CharacterizationIndex(tmp_path, config=CONFIG)
        n_threads = 6
        runs = []
        real = campaign_mod.run_sweep_unit

        def gated(*args, **kwargs):
            runs.append(args[:2])
            # Hold the leader until every other request has coalesced
            # behind it, so the single-flight assertion is deterministic.
            deadline = time.monotonic() + 5.0
            while idx._coalescer.coalesced_waits < n_threads - 1 and time.monotonic() < deadline:
                time.sleep(0.005)
            return real(*args, **kwargs)

        monkeypatch.setattr(campaign_mod, "run_sweep_unit", gated)
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            futures = [
                pool.submit(idx.landmarks, "vggnet", board=0, compute=True)
                for _ in range(n_threads)
            ]
            rows = [f.result(timeout=60) for f in futures]
        assert runs == [("vggnet", 0)]
        assert idx.computed_sweeps == 1
        assert all(r == rows[0] for r in rows)


class TestByteIdentity:
    def test_parallel_queries_render_byte_identical_json(self, index):
        def query():
            return (
                to_json(index.landmarks("vggnet")),
                to_json(index.guardband("vggnet")),
                to_json(index.point("vggnet", 850.0, board=0)),
            )

        with ThreadPoolExecutor(max_workers=8) as pool:
            outputs = [f.result() for f in [pool.submit(query) for _ in range(16)]]
        assert all(o == outputs[0] for o in outputs)
        # And the canonical codec is stable JSON.
        for blob in outputs[0]:
            json.loads(blob)


class TestStats:
    def test_served_from_cache_counts_pure_cache_answers(self, warm_cache):
        idx = open_index(warm_cache, config=CONFIG)
        assert idx.stats()["queries"]["served_from_cache"] == 0
        idx.landmarks("vggnet")
        idx.point("vggnet", 850.0, board=0)
        idx.points("vggnet", board=0)
        counters = idx.stats()["queries"]
        assert counters["served_from_cache"] == 3
        assert counters["computed_sweeps"] == 0
        assert counters["computed_points"] == 0

    def test_journal_summary_reflects_campaigns(self, tmp_path):
        from repro.runtime.journal import JOURNAL_NAME, CampaignJournal

        cache = ResultCache(tmp_path)
        journal = CampaignJournal(tmp_path / JOURNAL_NAME)
        campaign_mod.run_campaign(["table1"], CONFIG, cache=cache, journal=journal)
        idx = open_index(tmp_path, config=CONFIG)
        summary = idx.stats()["journal"]
        assert summary["campaigns"] == 1
        assert summary["completed_units"] == 1


class TestReviewRegressions:
    """Pins for the PR-4 review findings."""

    def test_ambiguous_filters_raise_valueerror_not_keyerror(self, tmp_path):
        # Two datasets for one (benchmark, board): different clocks.
        idx = CharacterizationIndex(tmp_path, config=CONFIG)
        idx.ensure_point("vggnet", 850.0, board=0)
        idx.ensure_point("vggnet", 850.0, board=0, f_mhz=250.0)
        with pytest.raises(ValueError, match="add variant/f_mhz/temp"):
            idx.point("vggnet", 850.0, board=0)
        # Disambiguated, both answer.
        assert idx.point("vggnet", 850.0, board=0, f_mhz=333.0)["hang"] is False
        assert idx.point("vggnet", 850.0, board=0, f_mhz=250.0)["hang"] is False

    def test_ambiguity_with_compute_never_schedules_work(self, tmp_path):
        idx = CharacterizationIndex(tmp_path, config=CONFIG)
        idx.ensure_point("vggnet", 850.0, board=0)
        idx.ensure_point("vggnet", 850.0, board=0, f_mhz=250.0)
        computed_before = idx.computed_points
        with pytest.raises(ValueError):
            idx.point("vggnet", 850.0, board=0, compute=True)
        assert idx.computed_points == computed_before

    def test_refresh_drops_stale_payloads(self, tmp_path):
        """A point file rewritten in place is re-served after refresh()."""
        idx = CharacterizationIndex(tmp_path, config=CONFIG)
        idx.ensure_point("vggnet", 850.0, board=0)
        original = idx.point("vggnet", 850.0, board=0)
        store = PointCache(idx.cache_dir / "points")
        (path,) = store.entries()
        payload = json.loads(path.read_text())
        payload["measurement"]["power_w"] = 123.456
        path.write_text(json.dumps(payload))
        idx.refresh()
        assert idx.point("vggnet", 850.0, board=0)["power_w"] == 123.456
        assert original["power_w"] != 123.456

    def test_deleted_point_is_served_until_refresh(self, tmp_path):
        """Queries read a snapshot: a deleted file leaves on the next refresh()."""
        idx = CharacterizationIndex(tmp_path, config=CONFIG)
        idx.ensure_point("vggnet", 850.0, board=0)
        original = idx.point("vggnet", 850.0, board=0)
        (path,) = PointCache(idx.cache_dir / "points").entries()
        path.unlink()
        assert idx.point("vggnet", 850.0, board=0) == original
        assert idx.stats()["points"]["indexed"] == 1
        idx.refresh()
        assert idx.stats()["points"]["indexed"] == 0
        with pytest.raises(KeyError):
            idx.point("vggnet", 850.0, board=0)
