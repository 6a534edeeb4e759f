"""Fleet campaign integration: caching, fabric sharding, resume."""

from __future__ import annotations

import shutil

import pytest

from repro.fleet.boards import FleetSpec
from repro.fleet.policy import POLICY_NAMES
from repro.fleet.report import fleet_payload, render_fleet_markdown
from repro.runtime.cache import ResultCache
from repro.runtime.campaign import (
    ExecutionPlan,
    fleet_chunks,
    fleet_policy_rows,
    fleet_unit_id,
    run_fleet_campaign,
)
from repro.runtime.journal import CampaignJournal
from repro.runtime.query import to_json

SPEC = FleetSpec(benchmark="vggnet", n_boards=12, fleet_seed=11)
POLICIES = ("nominal", "static-guardband", "per-board-vmin")


def _payload_json(cache, config, jobs: int, policies=POLICIES) -> str:
    outcome = run_fleet_campaign(
        SPEC,
        policies,
        config,
        plan=ExecutionPlan(jobs=jobs),
        cache=cache,
    )
    rows = fleet_policy_rows(outcome, SPEC, policies)
    return to_json(fleet_payload(SPEC, rows))


class TestCampaign:
    def test_requires_cache(self, fleet_config):
        with pytest.raises(ValueError, match="result cache"):
            run_fleet_campaign(SPEC, POLICIES, fleet_config, cache=None)

    def test_unit_ids_are_spec_scoped(self):
        uid = fleet_unit_id(SPEC, "nominal", 0, 12)
        assert uid.startswith("fleet:vggnet:")
        assert SPEC.digest() in uid
        assert uid.endswith(":nominal:boards0-12")
        other = fleet_unit_id(
            FleetSpec(benchmark="vggnet", n_boards=12, fleet_seed=12),
            "nominal",
            0,
            12,
        )
        assert uid != other

    def test_chunking_covers_fleet(self):
        assert fleet_chunks(12) == [(0, 12)]
        chunks = fleet_chunks(600)
        assert chunks[0][0] == 0 and chunks[-1][1] == 600
        assert all(a < b for a, b in chunks)
        assert all(
            chunks[i][1] == chunks[i + 1][0] for i in range(len(chunks) - 1)
        )

    def test_second_run_is_fully_cached_and_identical(
        self, fleet_store, fleet_config
    ):
        first = _payload_json(fleet_store, fleet_config, jobs=1)
        outcome = run_fleet_campaign(
            SPEC,
            POLICIES,
            fleet_config,
            plan=ExecutionPlan(jobs=1),
            cache=fleet_store,
        )
        rows = fleet_policy_rows(outcome, SPEC, POLICIES)
        second = to_json(fleet_payload(SPEC, rows))
        assert first == second
        assert outcome.cache_hits == len(outcome.entries)
        assert outcome.computed == 0

    def test_fabric_sharded_run_is_byte_identical_to_serial(
        self, fleet_store, fleet_config, tmp_path
    ):
        serial_dir = tmp_path / "serial"
        sharded_dir = tmp_path / "sharded"
        shutil.copytree(fleet_store.root, serial_dir)
        shutil.copytree(fleet_store.root, sharded_dir)
        serial = _payload_json(ResultCache(serial_dir), fleet_config, jobs=1)
        sharded = _payload_json(ResultCache(sharded_dir), fleet_config, jobs=2)
        assert serial == sharded

    def test_resume_reuses_journal_and_stays_identical(
        self, fleet_store, fleet_config, tmp_path
    ):
        cache_dir = tmp_path / "resume-store"
        shutil.copytree(fleet_store.root, cache_dir)
        cache = ResultCache(cache_dir)
        journal = CampaignJournal(cache_dir / "journal")
        outcome1 = run_fleet_campaign(
            SPEC,
            POLICIES,
            fleet_config,
            plan=ExecutionPlan(jobs=1),
            cache=cache,
            journal=journal,
        )
        first = to_json(
            fleet_payload(SPEC, fleet_policy_rows(outcome1, SPEC, POLICIES))
        )
        outcome2 = run_fleet_campaign(
            SPEC,
            POLICIES,
            fleet_config,
            plan=ExecutionPlan(jobs=1),
            cache=cache,
            journal=journal,
            resume=True,
        )
        second = to_json(
            fleet_payload(SPEC, fleet_policy_rows(outcome2, SPEC, POLICIES))
        )
        assert first == second
        assert outcome2.computed == 0

    def test_all_policies_render(self, fleet_store, fleet_config):
        outcome = run_fleet_campaign(
            SPEC,
            POLICY_NAMES,
            fleet_config,
            plan=ExecutionPlan(jobs=1),
            cache=fleet_store,
        )
        rows = fleet_policy_rows(outcome, SPEC, POLICY_NAMES)
        payload = fleet_payload(SPEC, rows)
        assert payload["policies"] == list(POLICY_NAMES)
        md = render_fleet_markdown(payload)
        for name in POLICY_NAMES:
            assert name in md


class _CountingPool:
    """Counts ``ProcessPoolExecutor`` constructions in the fabric module."""

    def __init__(self, monkeypatch):
        import repro.runtime.fabric as fabric_module

        self.created = 0
        base = fabric_module.ProcessPoolExecutor
        counter = self

        class Counted(base):
            def __init__(self, *args, **kwargs):
                counter.created += 1
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(fabric_module, "ProcessPoolExecutor", Counted)


class TestOnePool:
    """A fleet campaign's reference sweeps run on the campaign's own pool."""

    SPEC = FleetSpec(benchmark="vggnet", n_boards=12, fleet_seed=11, ref_boards=(0, 1))
    POLICIES = ("nominal", "per-board-vmin")

    def _run(self, cache, config):
        return run_fleet_campaign(
            self.SPEC, self.POLICIES, config, plan=ExecutionPlan(jobs=2), cache=cache
        )

    def test_owned_fabric_spawns_one_pool(self, fleet_config, tmp_path, monkeypatch):
        pools = _CountingPool(monkeypatch)
        outcome = self._run(ResultCache(tmp_path / "cold"), fleet_config)
        assert outcome.computed == len(outcome.entries)
        assert pools.created == 1

    def test_leased_fabric_runs_the_reference_sweeps(self, fleet_config, tmp_path, monkeypatch):
        from repro.runtime.fabric import WorkerFabric

        pools = _CountingPool(monkeypatch)
        cache = ResultCache(tmp_path / "cold")
        with WorkerFabric(2, blob_root=cache.blob_root) as lease:
            outcome = self._run(cache, fleet_config)
            # One task per reference sweep, then one per fleet unit.
            assert lease.tasks_dispatched == len(self.SPEC.ref_boards) + len(outcome.entries)
            assert pools.created == 1 and lease.pools_spawned == 1


class TestUnitsNeedNoStore:
    """A fleet unit computes from its arguments alone: no store, no index."""

    def test_unit_rows_match_the_campaign_without_a_store(
        self, fleet_store, fleet_config, ref_curves, tmp_path, monkeypatch
    ):
        import repro.runtime.query as query_module
        from repro.fleet.boards import mint_fleet
        from repro.fleet.policy import prepare_policies
        from repro.runtime.campaign import run_fleet_unit

        cache_dir = tmp_path / "store"
        shutil.copytree(fleet_store.root, cache_dir)
        outcome = run_fleet_campaign(SPEC, POLICIES, fleet_config, cache=ResultCache(cache_dir))
        shutil.rmtree(cache_dir)

        def no_index(*args, **kwargs):
            raise AssertionError("a fleet unit opened the characterization index")

        monkeypatch.setattr(query_module, "CharacterizationIndex", no_index)
        boards = mint_fleet(SPEC, cal=fleet_config.cal)
        prep = prepare_policies(SPEC, boards, ref_curves, POLICIES, fleet_config)
        for policy in POLICIES:
            for lo, hi in fleet_chunks(SPEC.n_boards):
                unit = run_fleet_unit(SPEC, policy, lo, hi, fleet_config, ref_curves, prep)
                expected = outcome.entry(fleet_unit_id(SPEC, policy, lo, hi)).result
                assert to_json(unit.rows) == to_json(expected.rows)
