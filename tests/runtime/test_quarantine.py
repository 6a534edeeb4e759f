"""Quarantine tests: strikes, terminal exclusion, status and journal.

The contract under test: every lapsed lease and every worker-reported
failure counts exactly one strike against its unit (at most one strike
per granted lease), the Kth strike quarantines the unit terminally, and
a drained-with-quarantine campaign is still *drained* — exit 0, with
the quarantine surfaced on ``/status``, in the journal, and by the CLI.
"""

import json

from repro.core.experiment import ExperimentConfig
from repro.runtime.coordinator import (
    CampaignCoordinator,
    LeaseBoard,
)
from repro.runtime.journal import CampaignJournal, ResumeStats

CFG = ExperimentConfig(repeats=1, samples=8, v_step=0.02)


def _units(n=2):
    return [
        {"kind": "sweep", "unit_id": f"u{i}", "benchmark": "b", "board": i, "fingerprint": f"f{i}"}
        for i in range(n)
    ]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestLeaseBoardQuarantine:
    def test_k_reported_failures_quarantine(self):
        board = LeaseBoard(_units(1), ttl_s=10.0, clock=FakeClock(), quarantine_strikes=3)
        for expected in ("failed", "failed", "quarantined"):
            _, lease_id = board.lease("w")
            assert board.fail("u0", lease_id, error="boom") == expected
        assert board.lease("w") is None  # never re-leased
        assert board.done() and not board.fully_completed()
        assert board.quarantined() == {"u0": {"strikes": 3, "error": "boom"}}

    def test_lapsed_leases_strike_too(self):
        clock = FakeClock()
        board = LeaseBoard(_units(1), ttl_s=5.0, clock=clock, quarantine_strikes=2)
        board.lease("w1")
        clock.advance(5.1)
        board.lease("w2")  # reclaim = strike 1, re-lease
        clock.advance(5.1)
        assert board.lease("w3") is None  # strike 2 quarantined it
        assert board.counts()["quarantined"] == 1
        assert board.leases_expired == 2

    def test_one_strike_per_granted_lease(self):
        """A /fail for a lease that already lapsed must not double-strike."""
        clock = FakeClock()
        board = LeaseBoard(_units(1), ttl_s=5.0, clock=clock, quarantine_strikes=3)
        _, stale = board.lease("w1")
        clock.advance(5.1)
        board.lease("w2")  # the lapse already struck lease 1
        assert board.fail("u0", stale, error="late report") == "stale"
        assert board.quarantined() == {}

    def test_completion_after_quarantine_merges_nothing(self):
        board = LeaseBoard(_units(1), ttl_s=10.0, clock=FakeClock(), quarantine_strikes=1)
        _, lease_id = board.lease("w")
        assert board.fail("u0", lease_id, error="boom") == "quarantined"
        assert board.complete("u0", lease_id) == "quarantined"
        assert board.completions == 0

    def test_renew_extends_only_the_active_lease(self):
        clock = FakeClock()
        board = LeaseBoard(_units(1), ttl_s=5.0, clock=clock)
        _, lease_id = board.lease("w")
        clock.advance(4.0)
        assert board.renew("u0", lease_id) == "renewed"
        clock.advance(4.0)  # past the original expiry, inside the renewed one
        assert board.lease("other") is None
        assert board.renew("u0", "L999") == "stale"
        assert board.renew("ghost", lease_id) == "unknown"
        assert board.leases_renewed == 1

    def test_status_counts_reach_the_snapshot(self):
        board = LeaseBoard(_units(2), ttl_s=10.0, clock=FakeClock(), quarantine_strikes=1)
        _, lease_id = board.lease("w")
        board.fail("u0", lease_id, error="boom")
        snap = board.snapshot()
        assert snap["units"]["quarantined"] == 1
        assert snap["failures_reported"] == 1
        assert "u0" in snap["quarantined"]

    def test_error_text_is_bounded(self):
        board = LeaseBoard(_units(1), ttl_s=10.0, clock=FakeClock(), quarantine_strikes=1)
        _, lease_id = board.lease("w")
        board.fail("u0", lease_id, error="x" * 100_000)
        assert len(board.quarantined()["u0"]["error"]) <= 2000


class TestCoordinatorQuarantine:
    def _coordinator(self, tmp_path, strikes=2):
        from repro.runtime.cache import ResultCache

        return CampaignCoordinator(
            ("127.0.0.1", 0),
            _units(2),
            CFG,
            cache=ResultCache(tmp_path / "coord"),
            lease_ttl_s=10.0,
            linger_s=0.1,
            quarantine_strikes=strikes,
        )

    def test_fail_endpoint_quarantines_and_journals(self, tmp_path):
        from repro.runtime.remote_worker import CoordinatorClient

        coordinator = self._coordinator(tmp_path, strikes=2)
        thread = coordinator.start_in_thread()
        try:
            url = "http://%s:%s" % coordinator.server_address
            client = CoordinatorClient(url)
            for expected in ("failed", "quarantined"):
                lease = client.lease("w")
                assert lease["status"] == "lease"
                unit_id = lease["unit"]["unit_id"]
                verdict = client.fail(unit_id, lease["lease_id"], "Traceback: boom")
                assert verdict["status"] == expected
            status = json.loads(client._request("GET", "/status").decode("utf-8"))
            assert status["board"]["units"]["quarantined"] == 1
        finally:
            coordinator.shutdown()
            thread.join(timeout=5.0)
        record = coordinator.journal.campaign(coordinator.campaign_id)
        quarantined = [u for u in record["units"].values() if u.get("status") == "quarantined"]
        assert len(quarantined) == 1
        assert "boom" in quarantined[0]["error"]
        assert record["runs"][-1]["quarantined"] == 1

    def test_renew_endpoint_round_trip(self, tmp_path):
        from repro.runtime.remote_worker import CoordinatorClient

        coordinator = self._coordinator(tmp_path)
        thread = coordinator.start_in_thread()
        try:
            url = "http://%s:%s" % coordinator.server_address
            client = CoordinatorClient(url)
            lease = client.lease("w")
            verdict = client.renew(lease["unit"]["unit_id"], lease["lease_id"])
            assert verdict["status"] == "renewed"
            assert client.renew(lease["unit"]["unit_id"], "L999")["status"] == "stale"
        finally:
            coordinator.shutdown()
            thread.join(timeout=5.0)

    def test_drained_with_quarantine_counts_as_drained(self, tmp_path):
        board = LeaseBoard(_units(2), ttl_s=10.0, clock=FakeClock(), quarantine_strikes=1)
        _, lease_a = board.lease("w")
        board.fail("u0", lease_a, error="boom")
        _, lease_b = board.lease("w")
        assert board.complete("u1", lease_b) == "accepted"
        assert board.done()


class TestJournalQuarantine:
    def test_record_quarantine_is_terminal_and_counted(self, tmp_path):
        journal = CampaignJournal(tmp_path / "journal.json")
        journal.begin("c1", [("u0", "f0"), ("u1", "f1")])
        journal.record_unit("c1", "f1", cache_hit=False)
        journal.record_quarantine("c1", "f0", unit_id="u0", error="Traceback: boom")
        record = journal.campaign("c1")
        assert record["units"]["f0"]["status"] == "quarantined"
        assert record["units"]["f0"]["error"] == "Traceback: boom"
        assert record["runs"][-1]["quarantined"] == 1
        # Quarantined units are not completed: a later resume replans them.
        assert "f0" not in journal.completed_fingerprints("c1")

    def test_resume_stats_round_trip_includes_quarantined(self):
        stats = ResumeStats(planned=3, completed=2, fresh=2, quarantined=1)
        assert stats.as_dict()["quarantined"] == 1
