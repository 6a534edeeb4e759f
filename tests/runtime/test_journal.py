"""Campaign journal tests: planning, completion accounting, and resume."""

import json

import pytest

from repro.core.experiment import ExperimentConfig
from repro.experiments import registry
from repro.experiments.registry import ExperimentResult
from repro.runtime.cache import ResultCache
from repro.runtime.campaign import run_campaign
from repro.runtime.journal import CampaignJournal, campaign_fingerprint

CFG = ExperimentConfig(repeats=1, samples=16)

CALLS = {"a": 0, "b": 0}


@pytest.fixture()
def two_experiments():
    """Two cheap registered experiments counting their invocations."""

    def make_runner(name):
        def runner(config):
            CALLS[name] += 1
            return ExperimentResult(
                experiment_id=f"zz_{name}",
                title=name,
                rows=[{"name": name, "samples": config.samples}],
            )

        return runner

    for name in CALLS:
        CALLS[name] = 0
        registry.register(f"zz_{name}")(make_runner(name))
    yield CALLS
    for name in CALLS:
        registry.SPECS.pop(f"zz_{name}", None)


class TestCampaignFingerprint:
    def test_stable_and_sensitive(self):
        base = campaign_fingerprint(["fig3", "fig6"], CFG, version="1.0")
        assert base == campaign_fingerprint(["fig3", "fig6"], CFG, version="1.0")
        assert base != campaign_fingerprint(["fig6", "fig3"], CFG, version="1.0")
        assert base != campaign_fingerprint(["fig3"], CFG, version="1.0")
        assert base != campaign_fingerprint(["fig3", "fig6"], CFG, version="2.0")
        assert base != campaign_fingerprint(
            ["fig3", "fig6"], CFG.with_overrides(samples=32), version="1.0"
        )

    def test_execution_knobs_do_not_move_it(self):
        assert campaign_fingerprint(["fig3"], CFG, version="1.0") == campaign_fingerprint(
            ["fig3"], CFG.with_overrides(batch_budget=64, point_batch=1), version="1.0"
        )


class TestJournalFile:
    def test_begin_then_record(self, tmp_path):
        journal = CampaignJournal(tmp_path / "journal.json")
        prior = journal.begin("camp", [("a", "f1"), ("b", "f2")])
        assert prior == set()
        journal.record_unit("camp", "f1", cache_hit=False, wall_s=1.5)
        record = journal.campaign("camp")
        assert record["units"]["f1"]["status"] == "completed"
        assert record["units"]["f2"]["status"] == "planned"
        run = journal.last_run("camp")
        assert run["planned"] == 2 and run["completed"] == 1 and run["fresh"] == 1

    def test_resume_keeps_history_fresh_wipes_it(self, tmp_path):
        journal = CampaignJournal(tmp_path / "journal.json")
        journal.begin("camp", [("a", "f1")])
        journal.record_unit("camp", "f1", cache_hit=False)
        assert journal.begin("camp", [("a", "f1")], resume=True) == {"f1"}
        assert journal.begin("camp", [("a", "f1")], resume=False) == set()
        assert journal.completed_fingerprints("camp") == set()

    @pytest.mark.parametrize("wall_s", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_record_is_refused_before_writing(self, tmp_path, wall_s):
        """The journal is strict JSON: a record holding a non-finite
        number raises and leaves the file exactly as it was, instead of
        writing a ``NaN``/``Infinity`` token no strict reader accepts."""
        path = tmp_path / "journal.json"
        journal = CampaignJournal(path)
        journal.begin("camp", [("a", "f1")])
        before = path.read_bytes()
        with pytest.raises(ValueError):
            journal.record_unit("camp", "f1", cache_hit=False, wall_s=wall_s)
        assert path.read_bytes() == before
        assert journal.campaign("camp")["units"]["f1"]["status"] == "planned"

    def test_corrupt_journal_reads_as_empty(self, tmp_path):
        path = tmp_path / "journal.json"
        path.write_text("{not json")
        journal = CampaignJournal(path)
        assert journal.begin("camp", [("a", "f1")]) == set()
        assert json.loads(path.read_text())["campaigns"]["camp"]["units"]

    @pytest.mark.parametrize(
        "resume, cache_hit, outcome",
        [
            (True, True, "resumed"),
            (True, False, "recomputed"),
            (False, True, "cached"),
            (False, False, "fresh"),
        ],
    )
    def test_outcome_follows_recorded_status(self, tmp_path, resume, cache_hit, outcome):
        """A unit completed before this run's ``begin`` survives only a
        resume; that status alone decides the outcome a record counts."""
        journal = CampaignJournal(tmp_path / "journal.json")
        journal.begin("camp", [("a", "f1")])
        journal.record_unit("camp", "f1", cache_hit=False)
        journal.begin("camp", [("a", "f1")], resume=resume)
        journal.record_unit("camp", "f1", cache_hit=cache_hit, wall_s=0.5)
        assert journal.campaign("camp")["units"]["f1"]["outcome"] == outcome
        run = journal.last_run("camp")
        assert run[outcome] == 1 and run["completed"] == 1

    def test_concurrent_campaigns_do_not_lose_updates(self, tmp_path):
        """Two writers on one journal: the lock serializes whole RMWs.

        Two campaigns sharing a cache dir record units concurrently; the
        advisory lock around each read-modify-write means neither
        campaign's completions vanish under the other's whole-file
        rewrite.
        """
        from concurrent.futures import ThreadPoolExecutor

        path = tmp_path / "journal.json"
        per_campaign = 25

        def hammer(campaign_id):
            journal = CampaignJournal(path)
            journal.begin(
                campaign_id, [(f"u{i}", f"{campaign_id}-f{i}") for i in range(per_campaign)]
            )
            for i in range(per_campaign):
                journal.record_unit(campaign_id, f"{campaign_id}-f{i}", cache_hit=False)

        with ThreadPoolExecutor(max_workers=2) as pool:
            for future in [pool.submit(hammer, c) for c in ("camp_a", "camp_b")]:
                future.result()

        reader = CampaignJournal(path)
        for campaign_id in ("camp_a", "camp_b"):
            assert len(reader.completed_fingerprints(campaign_id)) == per_campaign
            assert reader.last_run(campaign_id)["completed"] == per_campaign


class TestResumableCampaigns:
    def run(self, ids, tmp_path, resume=False, config=CFG):
        cache = ResultCache(tmp_path / "cache")
        journal = CampaignJournal(cache.root / "journal.json")
        return run_campaign(ids, config, cache=cache, journal=journal, resume=resume)

    def test_fresh_run_records_plan_and_completions(self, two_experiments, tmp_path):
        outcome = self.run(["zz_a", "zz_b"], tmp_path)
        assert outcome.campaign_id is not None
        stats = outcome.journal_stats
        assert stats["planned"] == 2
        assert stats["completed"] == 2
        assert stats["fresh"] == 2
        assert stats["resumed"] == stats["recomputed"] == 0

    def test_interrupted_campaign_resumes_without_recompute(self, two_experiments, tmp_path):
        # "Interrupt": run only the first experiment, as if the campaign
        # died before reaching the second.
        self.run(["zz_a"], tmp_path)
        assert two_experiments["a"] == 1

        # The resumed full campaign recomputes only the frontier...
        cache = ResultCache(tmp_path / "cache")
        journal = CampaignJournal(cache.root / "journal.json")
        outcome = run_campaign(["zz_a", "zz_b"], CFG, cache=cache, journal=journal, resume=True)
        assert two_experiments["a"] == 1  # zz_a came from the cache
        assert two_experiments["b"] == 1
        stats = outcome.journal_stats
        # zz_a completed under a *different* campaign id (different unit
        # list), so it counts as a cache hit, not a journal resume...
        assert stats["cached"] == 1 and stats["fresh"] == 1

        # ...while re-running the identical campaign is a pure resume.
        again = run_campaign(["zz_a", "zz_b"], CFG, cache=cache, journal=journal, resume=True)
        assert two_experiments["a"] == 1 and two_experiments["b"] == 1
        stats = again.journal_stats
        assert stats["resumed"] == 2
        assert stats["recomputed"] == 0 and stats["fresh"] == 0

    def test_lost_cache_shows_up_as_recomputed(self, two_experiments, tmp_path):
        first = self.run(["zz_a"], tmp_path)
        cache = ResultCache(tmp_path / "cache")
        cache.invalidate(first.entries[0].fingerprint)
        journal = CampaignJournal(cache.root / "journal.json")
        outcome = run_campaign(["zz_a"], CFG, cache=cache, journal=journal, resume=True)
        assert two_experiments["a"] == 2
        assert outcome.journal_stats["recomputed"] == 1
        assert outcome.journal_stats["resumed"] == 0

    def test_campaign_without_journal_has_no_stats(self, two_experiments, tmp_path):
        outcome = run_campaign(["zz_a"], CFG, cache=ResultCache(tmp_path / "c"))
        assert outcome.campaign_id is None
        assert outcome.journal_stats is None

    def test_journal_written_through_per_unit(self, two_experiments, tmp_path):
        """Each unit's completion is durable the moment it merges."""
        cache = ResultCache(tmp_path / "cache")
        journal = CampaignJournal(cache.root / "journal.json")
        seen = []
        original = journal.record_unit

        def spy(campaign_id, fingerprint, *, cache_hit, wall_s=0.0):
            original(campaign_id, fingerprint, cache_hit=cache_hit, wall_s=wall_s)
            on_disk = CampaignJournal(journal.path).campaign(campaign_id)
            seen.append(
                sum(1 for unit in on_disk["units"].values() if unit.get("status") == "completed")
            )

        journal.record_unit = spy
        run_campaign(["zz_a", "zz_b"], CFG, cache=cache, journal=journal)
        assert seen == [1, 2]
