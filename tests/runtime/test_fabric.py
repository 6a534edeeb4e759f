"""WorkerFabric tests: pool leasing, warm state, failure modes, identity.

The fabric's contract, in order of importance:

1. results (and on-disk stores) are bit-identical to the serial and
   per-call-pool paths it replaces;
2. one campaign leases exactly one pool, however many rounds it
   dispatches (the regression the old ``min(jobs, len(tasks))`` per-call
   sizing caused);
3. a broken pool costs the in-flight work and the workers' warm caches,
   nothing else — unfinished tasks replay serially, the next round
   respawns.
"""

import json
import os

import pytest

from repro.core.experiment import ExperimentConfig
from repro.models.zoo import build
from repro.nn.differential import CleanPassCache
from repro.runtime.cache import ResultCache, normalize_result
from repro.runtime.campaign import (
    run_campaign,
    run_sweep_campaign,
)
from repro.runtime.executor import auto_chunksize, run_tasks, run_tasks_threaded
from repro.runtime.fabric import WorkerFabric, active_fabric, resolve_jobs
from repro.runtime.journal import JOURNAL_NAME, CampaignJournal
from repro.runtime.plan import ExecutionPlan

CFG = ExperimentConfig(repeats=1, samples=16)
#: Two-worker point dispatch: each sweep round is one fabric task.
POINT = ExecutionPlan(jobs=2, dispatch="point")


def _worker_pid(_round: int) -> int:
    return os.getpid()


def _die_in_pool_worker(value):
    """Kills the hosting process when run in a pool worker; benign in-process."""
    import multiprocessing

    if multiprocessing.current_process().name != "MainProcess":
        os._exit(1)
    return value


class TestLease:
    def test_one_pool_spawn_across_many_rounds(self):
        """The satellite regression: rounds must not shrink/recreate pools.

        Five consecutive rounds — sized both below and above ``jobs``,
        like the adaptive strategy's bisection rounds — must share one
        spawned pool and therefore one stable set of worker PIDs.
        """
        with WorkerFabric(2) as fabric:
            pids: set[int] = set()
            for round_no, n_tasks in enumerate((1, 3, 1, 2, 1)):
                outcomes = run_tasks(
                    [(_worker_pid, (round_no,)) for _ in range(n_tasks)],
                    fabric=fabric,
                )
                pids.update(o.value for o in outcomes)
            assert fabric.pools_spawned == 1
            assert fabric.tasks_dispatched == 8
            assert len(pids) <= 2
            assert os.getpid() not in pids

    def test_run_tasks_without_fabric_is_serial_inside_a_lease(self):
        """``run_tasks`` never adopts the active lease: only the fabric
        it is given runs tasks on a pool."""
        with WorkerFabric(2) as fabric:
            assert active_fabric() is fabric
            outcomes = run_tasks([(_worker_pid, (i,)) for i in range(3)])
            assert [o.worker for o in outcomes] == ["serial"] * 3
            assert {o.value for o in outcomes} == {os.getpid()}
            assert fabric.pools_spawned == 0
            outcomes = run_tasks([(_worker_pid, (0,))], fabric=fabric)
            assert outcomes[0].worker == "pool"
            assert outcomes[0].value != os.getpid()
            assert fabric.pools_spawned == 1
        assert active_fabric() is None

    def test_jobs_one_fabric_is_serial(self):
        with WorkerFabric(1) as fabric:
            outcomes = run_tasks([(_worker_pid, (0,))], fabric=fabric)
            assert outcomes[0].worker == "serial"
            assert fabric.pools_spawned == 0

    def test_lease_is_not_reentrant(self):
        with WorkerFabric(2) as fabric:
            with pytest.raises(RuntimeError):
                fabric.__enter__()

    def test_resolve_jobs(self):
        assert resolve_jobs("auto") >= 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) == 1

    def test_auto_respects_container_cpu_affinity(self, monkeypatch):
        """Under a CPU-limited cgroup ``os.cpu_count()`` still reports the
        whole machine; ``"auto"`` must size to the schedulable set."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert resolve_jobs("auto") == 3

    def test_auto_falls_back_to_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert resolve_jobs("auto") == (os.cpu_count() or 1)


class TestChunking:
    def test_auto_chunksize_bounds(self):
        assert auto_chunksize(4, 4) == 1
        assert auto_chunksize(32, 4) == 1
        assert auto_chunksize(64, 4) == 2
        assert auto_chunksize(10_000, 4) == 16

    def test_chunked_rounds_preserve_order_and_callbacks(self):
        seen: dict[int, int] = {}

        def on_complete(index, outcome):
            assert index not in seen, "duplicate completion callback"
            seen[index] = outcome.value

        n_tasks = 40
        assert auto_chunksize(n_tasks, 2) > 1  # the round below ships in chunks
        with WorkerFabric(2) as fabric:
            outcomes = run_tasks(
                [(pow, (2, i)) for i in range(n_tasks)],
                fabric=fabric,
                on_complete=on_complete,
            )
            assert fabric.pools_spawned == 1
        assert [o.value for o in outcomes] == [2**i for i in range(n_tasks)]
        assert seen == {i: 2**i for i in range(n_tasks)}
        assert all(o.worker == "pool" for o in outcomes)


class TestThreadedFanout:
    def test_order_and_single_callbacks(self):
        seen: dict[int, int] = {}

        def on_complete(index, outcome):
            assert index not in seen, "duplicate completion callback"
            seen[index] = outcome.value

        outcomes = run_tasks_threaded(
            [(pow, (2, i)) for i in range(9)], threads=3, on_complete=on_complete
        )
        assert [o.value for o in outcomes] == [2**i for i in range(9)]
        assert seen == {i: 2**i for i in range(9)}
        assert all(o.worker == "thread" for o in outcomes)

    def test_single_thread_is_the_serial_path(self):
        outcomes = run_tasks_threaded([(pow, (2, 3)), (pow, (2, 4))], threads=1)
        assert [o.worker for o in outcomes] == ["serial", "serial"]

    def test_task_exception_propagates(self):
        with pytest.raises(ZeroDivisionError):
            run_tasks_threaded([(divmod, (1, 0)), (pow, (2, 2))], threads=2)

    def test_point_dispatch_drives_boards_concurrently(self):
        """With jobs >= boards, each board's driver runs on its own
        thread and the shared fabric serves probes from both."""
        with WorkerFabric(2) as fabric:
            outcome = run_sweep_campaign("vggnet", [0, 1], CFG, POINT, fabric=fabric)
            assert fabric.pools_spawned == 1
        assert [e.worker for e in outcome.entries] == ["thread", "thread"]


class TestBrokenPool:
    def test_broken_pool_replays_unfinished_and_respawns(self):
        seen: dict[int, int] = {}

        def on_complete(index, outcome):
            assert index not in seen, "duplicate completion callback"
            seen[index] = outcome.value

        with WorkerFabric(2) as fabric:
            tasks = [(pow, (2, 3)), (_die_in_pool_worker, (7,)), (pow, (2, 4))]
            outcomes = run_tasks(tasks, fabric=fabric, on_complete=on_complete)
            assert [o.value for o in outcomes] == [8, 7, 16]
            assert seen == {0: 8, 1: 7, 2: 16}
            assert outcomes[1].worker == "serial-fallback"
            assert fabric.broken_pools == 1
            # Warm caches died with the workers; the next round gets a
            # fresh pool rather than a dead one.
            outcomes = run_tasks([(pow, (2, 5))], fabric=fabric)
            assert outcomes[0].value == 32 and outcomes[0].worker == "pool"
            assert fabric.pools_spawned == 2

    def test_broken_pool_mid_sweep_replays_only_unfinished_points(self, tmp_path):
        """A pool dying mid-campaign costs the in-flight sweep only.

        Board 0's sweep completes on the pool before the killer task
        breaks it; only the unfinished work replays serially, and the
        point store ends up exactly as a clean run would leave it.
        """
        cache = ResultCache(tmp_path / "c")
        reference = run_sweep_campaign("vggnet", [0, 1], CFG, cache=None)

        from repro.runtime.campaign import run_sweep_unit

        seen: dict[int, str] = {}

        def on_complete(index, outcome):
            assert index not in seen, "duplicate completion callback"
            seen[index] = outcome.worker

        point_root = str(cache.point_root)
        with WorkerFabric(2) as fabric:
            tasks = [
                (run_sweep_unit, ("vggnet", 0, CFG, point_root, None)),
                (_die_in_pool_worker, (7,)),
                (run_sweep_unit, ("vggnet", 1, CFG, point_root, None)),
            ]
            outcomes = run_tasks(tasks, fabric=fabric, on_complete=on_complete)
            assert fabric.broken_pools == 1
        results = [outcomes[0].value, outcomes[2].value]
        for entry, result in zip(reference.entries, results):
            assert normalize_result(result).rows == entry.result.rows
            assert normalize_result(result).summary == entry.result.summary
        assert len(seen) == 3

    def test_crash_mid_batched_round_resumes_byte_identical(self, tmp_path):
        """Kill the pool mid-batched-round: replay-only-unfinished must
        leave the point store byte-identical to an uninterrupted run.

        Point writes are per-point atomic, so a worker dying partway
        through a round leaves a durable *prefix* of that round's
        entries.  The resumed campaign replays those from disk, computes
        only what never landed, and its journal counts zero recomputed
        units — the crashed unit never completed, so finishing it is
        fresh work, not a recompute.
        """
        from repro.core.undervolt import sweep_strategy
        from repro.runtime.campaign import measure_round_task, sweep_unit_id
        from repro.runtime.hashing import config_fingerprint
        from repro.runtime.journal import campaign_fingerprint
        from repro.runtime.points import PointCache

        cache_a = ResultCache(tmp_path / "a")
        cache_b = ResultCache(tmp_path / "b")
        with WorkerFabric(2) as fabric:
            reference = run_sweep_campaign("vggnet", [0], CFG, POINT, cache=cache_a, fabric=fabric)

        # The crash: the first dispatched round's worker stores a prefix
        # of its points, then the pool dies mid-round.
        unit_id = sweep_unit_id("vggnet", 0)
        gen = sweep_strategy(CFG).plan_rounds(850.0, 500.0, point_batch=CFG.point_batch)
        first_round = next(gen)
        gen.close()
        prefix = tuple((p.index, p.v_mv, p.mode) for p in first_round[:3])
        journal = CampaignJournal(cache_b.root / JOURNAL_NAME)
        journal.begin(
            campaign_fingerprint([unit_id], CFG),
            [(unit_id, config_fingerprint(unit_id, CFG))],
        )
        round_args = (
            "vggnet", 0, prefix, None, CFG, str(cache_b.point_root), None,
        )
        with WorkerFabric(2) as fabric:
            tasks = [
                (measure_round_task, round_args),
                (_die_in_pool_worker, (1,)),
            ]
            run_tasks(tasks, fabric=fabric)
            assert fabric.broken_pools == 1
        assert len(PointCache(cache_b.point_root).entries()) == 3  # the prefix

        with WorkerFabric(2) as fabric:
            resumed = run_sweep_campaign(
                "vggnet", [0], CFG, POINT, cache=cache_b,
                fabric=fabric, journal=journal, resume=True,
            )
        assert resumed.journal_stats["recomputed"] == 0
        assert resumed.journal_stats["fresh"] == 1
        assert resumed.entries[0].result.rows == reference.entries[0].result.rows

        names_a = sorted(p.name for p in PointCache(cache_a.point_root).entries())
        names_b = sorted(p.name for p in PointCache(cache_b.point_root).entries())
        assert names_a == names_b and names_a
        for name in names_a:
            bytes_a = (cache_a.point_root / name).read_bytes()
            bytes_b = (cache_b.point_root / name).read_bytes()
            assert bytes_a == bytes_b, name


class TestCampaignsOnFabric:
    def test_campaign_owns_and_closes_a_fabric(self):
        outcome = run_campaign(("table1",), CFG, ExecutionPlan(jobs=2))
        serial = run_campaign(("table1",), CFG, ExecutionPlan(jobs=1))
        assert outcome.entries[0].result.rows == serial.entries[0].result.rows

    def test_leased_fabric_spans_campaign_rounds(self, tmp_path):
        """Several campaign calls under one lease: one pool, same answers."""
        cache = ResultCache(tmp_path / "c")
        serial_a = run_campaign(("table1",), CFG, ExecutionPlan(jobs=1))
        serial_b = run_campaign(("sec41",), CFG, ExecutionPlan(jobs=1))
        with WorkerFabric(2, blob_root=cache.blob_root) as fabric:
            warm_a = run_campaign(("table1",), CFG, ExecutionPlan(jobs=2))
            warm_b = run_campaign(("sec41",), CFG, ExecutionPlan(jobs=2))
            assert fabric.pools_spawned <= 1  # sec41 may shard to one unit
        assert warm_a.entries[0].result.rows == serial_a.entries[0].result.rows
        assert warm_b.entries[0].result.rows == serial_b.entries[0].result.rows

    def test_point_dispatch_bit_identical_to_unit_dispatch(self, tmp_path):
        """Acceptance: a warm-fabric point-dispatched adaptive sweep must
        render byte-identically to the historical whole-unit sweep."""
        cfg = CFG.with_overrides(strategy="adaptive")
        unit = run_sweep_campaign("vggnet", [0, 1], cfg, ExecutionPlan(jobs=1), cache=None)
        with WorkerFabric(2) as fabric:
            point = run_sweep_campaign("vggnet", [0, 1], cfg, POINT, cache=None, fabric=fabric)
            assert fabric.pools_spawned == 1  # every probe, one pool
            assert fabric.tasks_dispatched > len(point.entries)
        for a, b in zip(unit.entries, point.entries):
            assert json.dumps(a.result.rows) == json.dumps(b.result.rows)
            assert a.result.summary == b.result.summary

    def test_point_dispatch_shares_the_point_store(self, tmp_path):
        """Dispatched probes write the same point entries a local sweep
        writes — same fingerprints, so either mode replays the other."""
        from repro.runtime.points import PointCache

        cache_a = ResultCache(tmp_path / "a")
        cache_b = ResultCache(tmp_path / "b")
        run_sweep_campaign("vggnet", [1], CFG, cache=cache_a)
        with WorkerFabric(2) as fabric:
            run_sweep_campaign(
                "vggnet", [1], CFG, ExecutionPlan(dispatch="point"), cache=cache_b, fabric=fabric
            )
        names_a = sorted(p.name for p in PointCache(cache_a.point_root).entries())
        names_b = sorted(p.name for p in PointCache(cache_b.point_root).entries())
        assert names_a == names_b and names_a

    def test_resume_accounting_unchanged_under_fabric(self, tmp_path):
        """The journal's resume math must not notice the fabric."""
        cache = ResultCache(tmp_path / "c")
        journal = CampaignJournal(cache.root / JOURNAL_NAME)
        ids = ("table1", "sec41")
        with WorkerFabric(2, blob_root=cache.blob_root):
            first = run_campaign(ids, CFG, ExecutionPlan(jobs=2), cache=cache, journal=journal)
        assert first.journal_stats["fresh"] == 2
        with WorkerFabric(2, blob_root=cache.blob_root):
            again = run_campaign(
                ids, CFG, ExecutionPlan(jobs=2), cache=cache, journal=journal, resume=True
            )
        stats = again.journal_stats
        assert stats["resumed"] == 2
        assert stats["recomputed"] == 0
        assert stats["fresh"] == 0


class TestCleanPassCache:
    def _capture(self, workload):
        from repro.nn.differential import capture_clean_pass

        return capture_clean_pass(
            workload.graph,
            workload.dataset.images,
            workload.quantization.activation_bits,
        )

    def test_identity_keyed_no_leak_across_configs(self):
        cache = CleanPassCache(max_bytes=1 << 30)
        w16 = build("vggnet", samples=16, width_scale=0.25, seed=2020)
        w24 = build("vggnet", samples=24, width_scale=0.25, seed=2020)
        cache.put(w16.graph, w16.dataset.images, 8, self._capture(w16))
        assert cache.get(w16.graph, w16.dataset.images, 8) is not None
        # A different config's workload is a different object: miss.
        assert cache.get(w24.graph, w24.dataset.images, 8) is None
        # Different activation bits under the same objects: miss.
        assert cache.get(w16.graph, w16.dataset.images, 7) is None
        # A deep copy (the BRAM-corruption pattern) can never hit.
        import copy

        clone = copy.deepcopy(w16.graph)
        assert cache.get(clone, w16.dataset.images, 8) is None

    def test_eviction_respects_byte_budget(self):
        w = build("vggnet", samples=16, width_scale=0.25, seed=2020)
        clean = self._capture(w)
        cache = CleanPassCache(max_bytes=clean.nbytes - 1)
        assert cache.put(w.graph, w.dataset.images, 8, clean) is False
        assert cache.get(w.graph, w.dataset.images, 8) is None

        roomy = CleanPassCache(max_bytes=clean.nbytes * 2)
        assert roomy.put(w.graph, w.dataset.images, 8, clean) is True
        assert roomy.get(w.graph, w.dataset.images, 8) is clean

    def test_engines_share_one_capture_per_workload(self):
        """Two engines over the same zoo workload capture one clean pass."""
        from repro.nn import differential
        from repro.core.session import AcceleratorSession
        from repro.fpga.board import make_board

        cfg = CFG.with_overrides(repeats=3)  # repeats=1 short-circuits batching
        w = build("vggnet", samples=16, width_scale=0.25, seed=2020)
        fresh = CleanPassCache()
        with pytest_monkey(differential, "_FABRIC_CLEAN_CACHE", fresh):
            m_a = AcceleratorSession(make_board(sample=0, cal=cfg.cal), w, cfg).run_at(545)
            hits_after_first = fresh.hits
            m_b = AcceleratorSession(make_board(sample=0, cal=cfg.cal), w, cfg).run_at(545)
        assert m_a == m_b
        assert fresh.hits > hits_after_first  # the second engine reused it
        assert fresh.stats()["entries"] == 1


class pytest_monkey:
    """Tiny attribute patcher (monkeypatch fixture is per-test; this is
    scoped to a with-block inside one test)."""

    def __init__(self, obj, name, value):
        self.obj, self.name, self.value = obj, name, value

    def __enter__(self):
        self.prior = getattr(self.obj, self.name)
        setattr(self.obj, self.name, self.value)
        return self.value

    def __exit__(self, *exc):
        setattr(self.obj, self.name, self.prior)
