"""Distributed campaign fabric tests: leases, merges, byte-identity.

Three layers, cheapest first:

1. :class:`LeaseBoard` as a pure state machine under an injected clock —
   expiry, re-lease, duplicate and late completions, no wall-clock
   sleeps;
2. journal-merge races through a real coordinator's HTTP surface, with
   scripted workers standing in for processes that die at awkward
   moments;
3. the acceptance drain: two concurrent workers against one coordinator
   must leave a point store byte-identical to a single-host serial cold
   run, and rendering from the merged cache must be byte-identical too.
"""

import http.client
import json
import threading
import time
from pathlib import Path

import pytest

from repro.core.experiment import ExperimentConfig
from repro.runtime.cache import ResultCache, normalize_result, result_to_payload
from repro.runtime.campaign import (
    run_campaign,
    run_sweep_campaign,
    run_sweep_unit,
    sweep_unit_id,
)
from repro.runtime.coordinator import (
    LeaseBoard,
    make_coordinator,
    resolve_work_units,
)
from repro.runtime.plan import config_from_wire, config_to_wire
from repro.runtime.remote_worker import (
    CoordinatorClient,
    CoordinatorUnreachable,
    TransientProtocolError,
    WorkerError,
    run_worker,
    sync_blobs,
)
from repro.runtime.resilience import RetryPolicy

CFG = ExperimentConfig(repeats=1, samples=8, v_step=0.02)


def _units(n=2):
    return [
        {"kind": "sweep", "unit_id": f"u{i}", "benchmark": "b", "board": i, "fingerprint": f"f{i}"}
        for i in range(n)
    ]


class FakeClock:
    """A monotonic clock the tests advance by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestLeaseBoard:
    def test_leases_in_order_and_drains(self):
        board = LeaseBoard(_units(2), ttl_s=10.0, clock=FakeClock())
        unit_a, lease_a = board.lease("w1")
        unit_b, lease_b = board.lease("w2")
        assert (unit_a["unit_id"], unit_b["unit_id"]) == ("u0", "u1")
        assert lease_a != lease_b
        assert board.lease("w3") is None  # everything is out
        assert board.complete("u0", lease_a) == "accepted"
        assert board.complete("u1", lease_b) == "accepted"
        assert board.done()
        assert board.counts() == {"pending": 0, "leased": 0, "completed": 2, "quarantined": 0}

    def test_expired_lease_is_handed_to_the_next_worker(self):
        """A dead worker degrades to 'that unit runs elsewhere'."""
        clock = FakeClock()
        board = LeaseBoard(_units(1), ttl_s=5.0, clock=clock)
        _, first = board.lease("doomed")
        assert board.lease("other") is None  # still exclusive
        clock.advance(5.1)
        leased = board.lease("other")
        assert leased is not None and leased[1] != first
        assert board.leases_expired == 1

    def test_duplicate_completion_changes_nothing(self):
        board = LeaseBoard(_units(1), ttl_s=10.0, clock=FakeClock())
        _, lease_id = board.lease("w1")
        assert board.complete("u0", lease_id) == "accepted"
        assert board.complete("u0", lease_id) == "duplicate"
        assert board.completions == 1 and board.duplicates == 1

    def test_late_completion_under_stale_lease_still_lands(self):
        """Expired-but-alive worker: its unit is open again, and results
        are deterministic, so first-to-post wins either way."""
        clock = FakeClock()
        board = LeaseBoard(_units(1), ttl_s=1.0, clock=clock)
        _, stale = board.lease("slow")
        clock.advance(1.5)
        _, fresh = board.lease("fast")
        # The slow worker posts first under its expired lease: accepted.
        assert board.complete("u0", stale) == "accepted"
        assert board.late_completions == 1
        # The re-leased worker posts second: pure duplicate.
        assert board.complete("u0", fresh) == "duplicate"
        assert board.completions == 1

    def test_unknown_unit_is_rejected(self):
        board = LeaseBoard(_units(1), ttl_s=1.0, clock=FakeClock())
        assert board.complete("nope", "L1") == "unknown"

    def test_mark_completed_precompletes_cache_hits(self):
        board = LeaseBoard(_units(2), ttl_s=1.0, clock=FakeClock())
        board.mark_completed("u0")
        leased = board.lease("w")
        assert leased is not None and leased[0]["unit_id"] == "u1"


class TestResolveWorkUnits:
    def test_sweep_specs_and_experiments_mix(self):
        units = resolve_work_units(["sweep:vggnet:board1", "table1", "sweep:vggnet"])
        assert [u["unit_id"] for u in units] == [
            "sweep:vggnet:board1",
            "table1",
            "sweep:vggnet:board0",
        ]
        assert units[0]["kind"] == "sweep" and units[0]["board"] == 1
        assert units[1]["kind"] == "experiment"
        # Fingerprints are the coordinator's ledger's to stamp.
        assert not any("fingerprint" in u for u in units)

    def test_duplicates_collapse(self):
        units = resolve_work_units(["table1", "table1", "sweep:vggnet", "sweep:vggnet:board0"])
        assert [u["unit_id"] for u in units] == ["table1", "sweep:vggnet:board0"]

    def test_unknown_experiment_fails_fast(self):
        with pytest.raises(KeyError):
            resolve_work_units(["not-an-experiment"])

    def test_malformed_sweep_spec_fails_fast(self):
        with pytest.raises(ValueError):
            resolve_work_units(["sweep:vggnet:b0rd0"])


def _start_coordinator(tmp_path, targets, **kwargs):
    kwargs.setdefault("linger_s", 0.4)
    coordinator = make_coordinator(targets, tmp_path / "coord-cache", config=CFG, **kwargs)
    thread = coordinator.start_in_thread()
    url = "http://%s:%s" % coordinator.server_address
    return coordinator, thread, url


def _scripted_complete(client: CoordinatorClient, response: dict, workdir: Path) -> dict:
    """Act out one worker completion by hand (so tests control the timing)."""
    return client.complete(_completion_payload(response, workdir))


def _completion_payload(response: dict, workdir: Path) -> dict:
    """Execute a leased sweep unit locally; the ``/complete`` body a worker posts."""
    unit = response["unit"]
    config = config_from_wire(response["config"])
    cache = ResultCache(workdir)
    result = normalize_result(
        run_sweep_unit(
            unit["benchmark"],
            unit["board"],
            config,
            str(cache.point_root),
            str(cache.blob_root),
        )
    )
    points = {
        json.loads(p.read_text())["fingerprint"]: p.read_text()
        for p in sorted(cache.point_root.glob("*.json"))
    }
    return {
        "lease_id": response["lease_id"],
        "unit_id": unit["unit_id"],
        "fingerprint": unit["fingerprint"],
        "wall_s": 0.1,
        "result": result_to_payload(result),
        "points": points,
    }


class TestCoordinatorHTTP:
    def test_surface_and_single_worker_drain(self, tmp_path):
        coordinator, thread, url = _start_coordinator(tmp_path, ["sweep:vggnet:board0"])
        client = CoordinatorClient(url)
        assert client.healthz()["status"] == "ok"
        status = coordinator._status_payload()
        assert status["campaign_id"] == coordinator.campaign_id
        stats = run_worker(url, tmp_path / "w0", worker_id="w0")
        thread.join(timeout=30)
        assert stats.stopped == "drained" and stats.units_completed == 1
        assert coordinator.drained
        run = coordinator.journal.last_run(coordinator.campaign_id)
        assert run["planned"] == 1 and run["fresh"] == 1 and run["recomputed"] == 0

    def test_fingerprint_mismatch_is_rejected_not_merged(self, tmp_path):
        coordinator, thread, url = _start_coordinator(tmp_path, ["sweep:vggnet:board0"])
        client = CoordinatorClient(url)
        response = client.lease("skewed")
        verdict = client.complete(
            {
                "lease_id": response["lease_id"],
                "unit_id": response["unit"]["unit_id"],
                "fingerprint": "0" * 16,
                "wall_s": 0.0,
                "result": {},
                "points": {},
            }
        )
        assert verdict["status"] == "rejected"
        assert not coordinator.drained
        coordinator.shutdown()
        thread.join(timeout=10)

    def test_duplicate_completion_from_two_workers(self, tmp_path):
        """Journal-race satellite: the second completion is discarded and
        the journal counts the unit exactly once."""
        coordinator, thread, url = _start_coordinator(tmp_path, ["sweep:vggnet:board0"])
        client = CoordinatorClient(url)
        response = client.lease("w1")
        first = _scripted_complete(client, response, tmp_path / "w1")
        second = _scripted_complete(client, {**response, "lease_id": "L999"}, tmp_path / "w2")
        thread.join(timeout=30)
        assert first["status"] == "accepted"
        assert second["status"] == "duplicate"
        run = coordinator.journal.last_run(coordinator.campaign_id)
        assert run["completed"] == 1 and run["fresh"] == 1
        assert coordinator.board.duplicates == 1

    def test_dead_worker_lease_expires_and_unit_runs_elsewhere(self, tmp_path):
        """Lease a unit and never complete it; after the TTL the next
        worker drains the campaign, and nothing is double-journaled."""
        coordinator, thread, url = _start_coordinator(
            tmp_path,
            ["sweep:vggnet:board0", "sweep:vggnet:board1"],
            lease_ttl_s=0.3,
        )
        client = CoordinatorClient(url)
        doomed = client.lease("doomed")
        assert doomed["status"] == "lease"
        time.sleep(0.35)  # let the doomed worker's lease lapse
        stats = run_worker(url, tmp_path / "rescuer", worker_id="rescuer")
        thread.join(timeout=60)
        assert coordinator.drained
        assert stats.units_completed == 2
        assert coordinator.board.leases_expired >= 1
        run = coordinator.journal.last_run(coordinator.campaign_id)
        assert run["completed"] == 2 and run["recomputed"] == 0

    def test_late_completion_after_rellease_is_discarded(self, tmp_path):
        """The presumed-dead worker finishes anyway, after its unit was
        re-leased and completed: pure duplicate, stores unchanged."""
        coordinator, thread, url = _start_coordinator(
            tmp_path, ["sweep:vggnet:board0"], lease_ttl_s=0.2
        )
        client = CoordinatorClient(url)
        stale = client.lease("slow")
        time.sleep(0.25)
        fresh = client.lease("fast")
        assert fresh["status"] == "lease" and fresh["lease_id"] != stale["lease_id"]
        assert _scripted_complete(client, fresh, tmp_path / "fast")["status"] == "accepted"
        entry_bytes = {p.name: p.read_bytes() for p in coordinator.cache.point_root.glob("*.json")}
        late = _scripted_complete(client, stale, tmp_path / "slow")
        assert late["status"] == "duplicate"
        after = {p.name: p.read_bytes() for p in coordinator.cache.point_root.glob("*.json")}
        assert after == entry_bytes  # idempotent: first writer's bytes kept
        thread.join(timeout=30)
        run = coordinator.journal.last_run(coordinator.campaign_id)
        assert run["completed"] == 1

    @pytest.mark.parametrize(
        "tamper",
        [
            "wrong-context",
            "drifted-measurement",
            "nan-accuracy",
            "overflow-accuracy",
            "no-result",
            "nan-wall-time",
        ],
    )
    def test_invalid_completion_is_refused_before_the_board_completes(self, tmp_path, tamper):
        """A completion the stores would refuse answers 400 and changes
        nothing: the unit stays leased, no point or result lands, and a
        valid completion under the same lease is then accepted."""
        coordinator, thread, url = _start_coordinator(tmp_path, ["sweep:vggnet:board0"])
        client = CoordinatorClient(url)
        response = client.lease("w1")
        good = _completion_payload(response, tmp_path / "w1")
        bad = json.loads(json.dumps(good))
        if tamper == "no-result":
            del bad["result"]
        elif tamper == "nan-wall-time":
            bad["wall_s"] = "nan"
        else:
            # Tamper with the last shipped entry, so every entry before it
            # is valid and would land if points were written one by one.
            fp, text = [(fp, t) for fp, t in bad["points"].items() if '"hang": false' in t][-1]
            entry = json.loads(text)
            if tamper == "wrong-context":
                # Parses and keeps its name, but no longer hashes to it.
                entry["context"]["board"] = 1
            elif tamper in ("nan-accuracy", "overflow-accuracy"):
                # Hashes to its name (the fingerprint covers only the
                # context), but no reader could serve it as JSON.
                entry["measurement"]["accuracy"] = "@accuracy"
            else:
                entry["measurement"]["drifted_field"] = 0.0
            literal = "1e400" if tamper == "overflow-accuracy" else "NaN"
            del bad["points"][fp]
            bad["points"][fp] = json.dumps(entry).replace('"@accuracy"', literal)
        conn = http.client.HTTPConnection(*coordinator.server_address, timeout=30)
        status, answer = _exchange(conn, "POST", "/complete", body=json.dumps(bad).encode())
        conn.close()
        assert status == 400, answer
        assert coordinator.board.counts() == {
            "pending": 0,
            "leased": 1,
            "completed": 0,
            "quarantined": 0,
        }
        assert not list(coordinator.cache.point_root.glob("*.json"))
        assert coordinator.cache.entries() == []

        assert client.complete(good)["status"] == "accepted"
        thread.join(timeout=30)
        merged = {p.stem: p.read_text() for p in coordinator.cache.point_root.glob("*.json")}
        assert merged == good["points"]
        assert coordinator.cache.load(response["unit"]["fingerprint"], response["unit"]["unit_id"])
        run = coordinator.journal.last_run(coordinator.campaign_id)
        assert run["completed"] == 1 and run["fresh"] == 1

    def test_resume_serves_cached_units_without_recompute(self, tmp_path):
        """Re-journaled units come back as resumed, never recomputed."""
        coordinator, thread, url = _start_coordinator(tmp_path, ["sweep:vggnet:board0"])
        run_worker(url, tmp_path / "w", worker_id="w")
        thread.join(timeout=30)
        second = make_coordinator(
            ["sweep:vggnet:board0"],
            tmp_path / "coord-cache",
            config=CFG,
            linger_s=0.2,
            resume=True,
        )
        thread2 = second.start_in_thread()
        stats = run_worker("http://%s:%s" % second.server_address, tmp_path / "w2", worker_id="w2")
        thread2.join(timeout=30)
        assert stats.units_completed == 0 and stats.stopped == "drained"
        run = second.journal.last_run(second.campaign_id)
        assert run["resumed"] == 1 and run["recomputed"] == 0 and run["fresh"] == 0


def _exchange(conn: http.client.HTTPConnection, method: str, path: str, body=None):
    """One request on an open connection: ``(status, decoded JSON body)``."""
    conn.request(method, path, body=body)
    response = conn.getresponse()
    return response.status, json.loads(response.read())


class TestCoordinatorProtocolEdges:
    """Routing and body-validation answers the route table must keep."""

    @pytest.fixture()
    def conn(self, tmp_path):
        coordinator, thread, _ = _start_coordinator(tmp_path, ["sweep:vggnet:board0"])
        conn = http.client.HTTPConnection(*coordinator.server_address, timeout=10)
        yield conn
        conn.close()
        coordinator.shutdown()
        thread.join(timeout=10)
        assert not thread.is_alive()

    def test_unknown_path_is_404(self, conn):
        status, payload = _exchange(conn, "GET", "/nope")
        assert status == 404 and "/nope" in payload["error"]

    def test_wrong_method_is_405(self, conn):
        status, payload = _exchange(conn, "GET", "/lease")
        assert status == 405 and "GET" in payload["error"]

    @pytest.mark.parametrize(
        "body, message",
        [(b"{not json", "not valid JSON"), (b"[1, 2]", "must be a JSON object")],
    )
    def test_malformed_json_body_is_400(self, conn, body, message):
        status, payload = _exchange(conn, "POST", "/lease", body=body)
        assert status == 400 and message in payload["error"]

    @pytest.mark.parametrize("path", ["/renew", "/fail"])
    def test_missing_unit_id_is_400(self, conn, path):
        status, payload = _exchange(conn, "POST", path, body=b'{"lease_id": "L1"}')
        assert status == 400 and "unit_id" in payload["error"]

    @pytest.mark.parametrize("unit_id", [["x"], 7, None], ids=["list", "int", "null"])
    @pytest.mark.parametrize("path", ["/renew", "/fail", "/complete"])
    def test_non_string_unit_id_is_400_and_changes_nothing(self, conn, path, unit_id):
        """Every endpoint that names a unit checks ``unit_id`` the same way."""
        assert _exchange(conn, "POST", "/lease", body=b'{"worker": "w"}')[1]["status"] == "lease"
        before = _exchange(conn, "GET", "/status")[1]["board"]
        body = json.dumps({"unit_id": unit_id, "lease_id": "L1", "fingerprint": "f"})
        status, payload = _exchange(conn, "POST", path, body=body.encode())
        assert status == 400 and "unit_id" in payload["error"]
        assert _exchange(conn, "GET", "/status")[1]["board"] == before

    def test_two_requests_share_one_keepalive_connection(self, conn):
        assert _exchange(conn, "GET", "/healthz")[0] == 200
        sock = conn.sock
        status, payload = _exchange(conn, "GET", "/status")
        assert status == 200 and payload["board"]["units"]["pending"] == 1
        assert conn.sock is sock  # no reconnect between the two requests


class TestBlobSync:
    def test_missing_blobs_sync_byte_identical(self, tmp_path):
        coordinator, thread, url = _start_coordinator(tmp_path, ["sweep:vggnet:board0"])
        blob_root = coordinator.cache.blob_root
        blob_root.mkdir(parents=True, exist_ok=True)
        (blob_root / "aa11.npy").write_bytes(b"\x93NUMPY-fake-bytes")
        (blob_root / "m-model.json").write_text('{"arrays": []}')
        client = CoordinatorClient(url)
        local = tmp_path / "worker-blobs"
        assert sync_blobs(client, local) == 2
        assert (local / "aa11.npy").read_bytes() == b"\x93NUMPY-fake-bytes"
        assert sync_blobs(client, local) == 0  # already in sync: no refetch
        coordinator.shutdown()
        thread.join(timeout=10)

    @pytest.mark.parametrize("bad", ["../escape.npy", "absolute"])
    def test_worker_refuses_a_listed_name_outside_its_store(self, tmp_path, bad):
        """A coordinator listing a traversing or absolute name cannot make
        the worker fetch it or write anything, inside its blob root or out."""
        if bad == "absolute":
            bad = str(tmp_path / "abs.npy")

        class ListingClient:
            def __init__(self):
                self.fetched = []

            def list_blobs(self):
                return ["aa11.npy", bad]

            def fetch_blob(self, name):
                self.fetched.append(name)
                return b"\x93NUMPY-fake-bytes"

        client = ListingClient()
        blob_root = tmp_path / "store" / "blobs"
        with pytest.raises(WorkerError, match="invalid blob name"):
            sync_blobs(client, blob_root)
        assert client.fetched == []  # the listing is refused before any fetch
        assert list(tmp_path.rglob("*")) == []

    def test_blob_names_are_validated(self, tmp_path):
        coordinator, thread, url = _start_coordinator(tmp_path, ["sweep:vggnet:board0"])
        client = CoordinatorClient(url)
        body = json.loads(client.fetch_blob("..%2Fjournal.json").decode("utf-8"))
        assert "error" in body
        coordinator.shutdown()
        thread.join(timeout=10)


class TestTwoWorkerByteIdentity:
    def test_concurrent_drain_matches_serial_cold_run(self, tmp_path):
        """The acceptance drain: 2 workers, one coordinator, byte-identical
        point store and byte-identical rendered report vs a single-host
        serial cold run."""
        serial_cache = ResultCache(tmp_path / "serial-cache")
        serial = run_sweep_campaign("vggnet", [0, 1], CFG, cache=serial_cache)

        coordinator, thread, url = _start_coordinator(
            tmp_path, ["sweep:vggnet:board0", "sweep:vggnet:board1"], linger_s=2.0
        )
        stats = [None, None]

        def drain(i):
            stats[i] = run_worker(url, tmp_path / f"worker{i}", worker_id=f"w{i}")

        threads = [threading.Thread(target=drain, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        thread.join(timeout=60)

        assert coordinator.drained
        # A worker idling on "wait" while its peer posts the last unit can
        # outlive the coordinator's linger; "unreachable" after completed
        # work is that worker's documented success path.
        assert all(s is not None and s.stopped in ("drained", "unreachable") for s in stats)
        completed = sorted(uid for s in stats for uid in s.unit_ids)
        assert completed == [sweep_unit_id("vggnet", 0), sweep_unit_id("vggnet", 1)]

        # Point store: same file names, same bytes.
        serial_points = {p.name: p.read_bytes() for p in serial_cache.point_root.glob("*.json")}
        merged_points = {
            p.name: p.read_bytes() for p in coordinator.cache.point_root.glob("*.json")
        }
        assert serial_points and merged_points == serial_points

        # Rendered results from the merged cache are byte-identical to
        # the serial run's (wall times are provenance, not results).
        merged = run_sweep_campaign("vggnet", [0, 1], CFG, cache=coordinator.cache)
        assert all(e.cache_hit for e in merged.entries)
        assert [e.result for e in merged.entries] == [e.result for e in serial.entries]
        assert [e.fingerprint for e in merged.entries] == [e.fingerprint for e in serial.entries]

        run = coordinator.journal.last_run(coordinator.campaign_id)
        assert run["completed"] == 2 and run["recomputed"] == 0


class TestLedgerParity:
    """A coordinated campaign commits through the local runner's ledger,
    so it journals exactly like the same campaign run on one host."""

    TARGETS = ["sweep:vggnet:board0", "sweep:vggnet:board1"]

    @staticmethod
    def _local(tmp_path):
        from repro.runtime.journal import JOURNAL_NAME, CampaignJournal

        cache = ResultCache(tmp_path / "local")
        journal = CampaignJournal(cache.root / JOURNAL_NAME)
        return run_sweep_campaign("vggnet", [0, 1], CFG, cache=cache, journal=journal), journal

    @staticmethod
    def _units(journal, campaign_id):
        units = journal.campaign(campaign_id)["units"]
        return {fp: (u["unit"], u["status"], u["outcome"]) for fp, u in units.items()}

    def test_coordinated_campaign_journals_like_a_local_one(self, tmp_path):
        local, local_journal = self._local(tmp_path)
        coordinator, thread, url = _start_coordinator(tmp_path, self.TARGETS)
        run_worker(url, tmp_path / "w", worker_id="w")
        thread.join(timeout=60)
        assert coordinator.drained

        assert coordinator.campaign_id == local.campaign_id
        remote_units = self._units(coordinator.journal, coordinator.campaign_id)
        assert remote_units == self._units(local_journal, local.campaign_id)
        assert [status for _, status, _ in remote_units.values()] == ["completed"] * 2
        assert coordinator.journal.last_run(coordinator.campaign_id) == local.journal_stats

    def test_quarantine_is_journaled_under_the_ledger_fingerprint(self, tmp_path):
        from repro.runtime.hashing import config_fingerprint

        coordinator, thread, url = _start_coordinator(
            tmp_path, self.TARGETS, quarantine_strikes=1
        )
        client = CoordinatorClient(url)
        try:
            lease = client.lease("doomed")
            unit_id = lease["unit"]["unit_id"]
            assert client.fail(unit_id, lease["lease_id"], "boom")["status"] == "quarantined"
        finally:
            coordinator.shutdown()
            thread.join(timeout=10)
        fingerprint = coordinator.ledger.fingerprints[unit_id]
        # The fingerprint a local run caches and journals the unit under.
        assert fingerprint == lease["unit"]["fingerprint"] == config_fingerprint(unit_id, CFG)
        unit = coordinator.journal.campaign(coordinator.campaign_id)["units"][fingerprint]
        assert unit["status"] == "quarantined" and unit["unit"] == unit_id


class TestWorkerShipsOnlyTheLeasedConfig:
    def test_points_of_another_seed_stay_home(self, tmp_path):
        """A worker cache that once swept the same unit under another seed
        ships only the leased config's points, so the merged store stays
        byte-identical to a single-host run."""
        worker_cache = ResultCache(tmp_path / "worker")
        run_sweep_campaign("vggnet", [0], CFG.with_overrides(seed=1), cache=worker_cache)
        serial_cache = ResultCache(tmp_path / "serial-cache")
        run_sweep_campaign("vggnet", [0], CFG, cache=serial_cache)

        coordinator, thread, url = _start_coordinator(tmp_path, ["sweep:vggnet:board0"])
        stats = run_worker(url, worker_cache.root, worker_id="w0")
        thread.join(timeout=30)
        assert stats.stopped == "drained" and coordinator.drained

        serial_points = {p.name: p.read_bytes() for p in serial_cache.point_root.glob("*.json")}
        merged_points = {
            p.name: p.read_bytes() for p in coordinator.cache.point_root.glob("*.json")
        }
        assert serial_points and merged_points == serial_points


class TestPooledWorker:
    def test_jobs_2_worker_runs_units_as_campaigns(self, tmp_path, monkeypatch):
        """A leased unit is a one-unit campaign on the worker's fabric:
        fig3's five per-benchmark shards go to the worker's pool, and the
        merged point store is byte-identical to a single-host serial run."""
        from repro.runtime import fabric as fabric_module

        serial_cache = ResultCache(tmp_path / "serial-cache")
        run_campaign(["fig3"], CFG, cache=serial_cache)
        run_sweep_campaign("vggnet", [1], CFG, cache=serial_cache)

        fabrics = []

        class RecordingFabric(fabric_module.WorkerFabric):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.rounds = []
                fabrics.append(self)

            def note_dispatched(self, n):
                self.rounds.append(n)
                super().note_dispatched(n)

        monkeypatch.setattr(fabric_module, "WorkerFabric", RecordingFabric)
        coordinator, thread, url = _start_coordinator(tmp_path, ["fig3", "sweep:vggnet:board1"])
        stats = run_worker(url, tmp_path / "worker", worker_id="w0", jobs=2)
        thread.join(timeout=60)
        assert stats.stopped == "drained" and stats.units_completed == 2
        assert coordinator.drained

        (fabric,) = fabrics
        assert fabric.pools_spawned == 1
        assert fabric.rounds[0] == 5  # fig3, leased first, in one round of shards

        serial_points = {p.name: p.read_bytes() for p in serial_cache.point_root.glob("*.json")}
        merged_points = {
            p.name: p.read_bytes() for p in coordinator.cache.point_root.glob("*.json")
        }
        assert serial_points and merged_points == serial_points
        run = coordinator.journal.last_run(coordinator.campaign_id)
        assert run["completed"] == 2 and run["recomputed"] == 0


def _spy_on_completions(monkeypatch) -> list[dict]:
    """Record every ``/complete`` payload a worker posts."""
    posted = []
    complete = CoordinatorClient.complete

    def spy(self, payload):
        posted.append(payload)
        return complete(self, payload)

    monkeypatch.setattr(CoordinatorClient, "complete", spy)
    return posted


def _point_files(cache: ResultCache) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in cache.point_root.glob("*.json")}


class TestWorkerShipsWhatItsUnitTouched:
    def test_points_of_an_unrelated_sweep_stay_home(self, tmp_path, monkeypatch):
        """A worker whose store holds another benchmark's sweep under the
        same config ships only the leased unit's points."""
        worker_cache = ResultCache(tmp_path / "worker")
        run_sweep_campaign("alexnet", [2], CFG, cache=worker_cache)
        alexnet = {p.stem for p in worker_cache.point_root.glob("*.json")}
        serial_cache = ResultCache(tmp_path / "serial-cache")
        run_sweep_campaign("vggnet", [0], CFG, cache=serial_cache)

        posted = _spy_on_completions(monkeypatch)
        coordinator, thread, url = _start_coordinator(tmp_path, ["sweep:vggnet:board0"])
        stats = run_worker(url, worker_cache.root, worker_id="w0")
        thread.join(timeout=30)
        assert stats.stopped == "drained" and coordinator.drained

        assert alexnet and not alexnet & {fp for p in posted for fp in p["points"]}
        serial_points = _point_files(serial_cache)
        assert serial_points and _point_files(coordinator.cache) == serial_points

    def test_one_worker_ships_each_point_once(self, tmp_path, monkeypatch):
        """Draining three boards, every posted entry is new to the
        coordinator: nothing an earlier completion shipped is re-posted."""
        targets = [sweep_unit_id("vggnet", board) for board in range(3)]
        posted = _spy_on_completions(monkeypatch)
        coordinator, thread, url = _start_coordinator(tmp_path, targets)
        stats = run_worker(url, tmp_path / "worker", worker_id="w0")
        thread.join(timeout=60)
        assert stats.stopped == "drained" and stats.units_completed == 3

        status = coordinator._status_payload()
        assert [p["unit_id"] for p in posted] == targets
        assert sum(len(p["points"]) for p in posted) == status["points_written"] > 0
        assert status["points_skipped"] == 0
        assert status["points_written"] == len(_point_files(coordinator.cache))

    def test_cached_result_is_executed_again_and_ships_its_points(self, tmp_path, monkeypatch):
        """A worker whose store already holds the leased result re-runs
        the unit (its points replay from the store) and ships them."""
        worker_cache = ResultCache(tmp_path / "worker")
        run_campaign(["fig3"], CFG, cache=worker_cache)
        serial_points = _point_files(worker_cache)

        posted = _spy_on_completions(monkeypatch)
        coordinator, thread, url = _start_coordinator(tmp_path, ["fig3"])
        stats = run_worker(url, worker_cache.root, worker_id="w0")
        thread.join(timeout=60)
        assert stats.stopped == "drained" and stats.units_completed == 1

        (payload,) = posted
        assert {f"{fp}.json" for fp in payload["points"]} == set(serial_points)
        assert serial_points and _point_files(coordinator.cache) == serial_points
        assert _point_files(worker_cache) == serial_points


class _ScriptedClient:
    """A coordinator whose ``/lease`` and ``/complete`` answers are scripted.

    Each script entry is an answer or an exception to raise; the last
    entry repeats.  ``/complete`` takes ``complete_s`` to answer, blob
    sync finds nothing to fetch, and every renewal lands.
    """

    def __init__(self, leases, completes=({"status": "accepted"},), complete_s=0.0):
        self._leases = list(leases)
        self._completes = list(completes)
        self.complete_s = complete_s

    @staticmethod
    def _next(script):
        answer = script.pop(0) if len(script) > 1 else script[0]
        if isinstance(answer, Exception):
            raise answer
        return answer

    def lease(self, worker_id):
        return self._next(self._leases)

    def complete(self, payload):
        time.sleep(self.complete_s)
        return self._next(self._completes)

    def renew(self, unit_id, lease_id):
        return {"status": "renewed"}

    def list_blobs(self):
        return []


def _table1_lease() -> dict:
    from repro.runtime.hashing import config_fingerprint, current_version

    return {
        "status": "lease",
        "version": current_version(),
        "lease_id": "L1",
        "unit": {
            "kind": "experiment",
            "unit_id": "table1",
            "experiment_id": "table1",
            "fingerprint": config_fingerprint("table1", CFG),
        },
        "config": config_to_wire(CFG),
    }


class TestWorkerRetries:
    """Every request to the coordinator retries through one loop, whose
    budget starts with the request and whose retries all count."""

    POLICY = RetryPolicy(base_s=0.01, max_s=0.01)

    def test_lease_budget_does_not_count_the_unit_before_it(self, tmp_path):
        """A unit and its ``/complete`` outlasting the retry budget leave
        the next ``/lease`` its whole budget: one dropped connection is
        retried, and the worker drains."""
        budget = 0.2
        client = _ScriptedClient(
            [_table1_lease(), CoordinatorUnreachable("reset"), {"status": "done"}],
            complete_s=2 * budget,
        )
        stats = run_worker(
            "http://unused",
            tmp_path / "w",
            client=client,
            retry_budget_s=budget,
            retry_policy=self.POLICY,
            sleep=lambda s: None,
        )
        assert stats.stopped == "drained" and stats.units_completed == 1
        assert stats.retries >= 1

    def test_complete_retry_is_counted(self, tmp_path):
        client = _ScriptedClient(
            [_table1_lease(), {"status": "done"}],
            completes=[
                TransientProtocolError("POST /complete answered 503"),
                {"status": "accepted"},
            ],
        )
        stats = run_worker(
            "http://unused",
            tmp_path / "w",
            client=client,
            retry_policy=self.POLICY,
            sleep=lambda s: None,
        )
        assert stats.stopped == "drained" and stats.units_completed == 1
        assert stats.retries == 1

    @pytest.mark.parametrize("retry_after_s", ["soon", [1]])
    def test_malformed_wait_delay_falls_back_to_the_backoff(self, tmp_path, retry_after_s):
        """A ``wait`` answer whose ``retry_after_s`` is no number is slept
        through on the policy's own backoff, and the worker drains."""
        sleeps = []
        client = _ScriptedClient(
            [{"status": "wait", "retry_after_s": retry_after_s}, {"status": "done"}]
        )
        stats = run_worker(
            "http://unused",
            tmp_path / "w",
            client=client,
            retry_policy=self.POLICY,
            sleep=sleeps.append,
        )
        assert stats.stopped == "drained" and stats.retries == 1
        assert len(sleeps) == 1 and 0.0 < sleeps[0] <= self.POLICY.max_s


def _lease_from_older_peer() -> dict:
    """A lease from an older coordinator: its config still carries a knob
    this worker does not know, and it still ships an execution plan."""
    from repro.runtime.hashing import current_version

    return {
        "status": "lease",
        "version": current_version(),
        "unit": _units(1)[0],
        "lease_id": "lease-1",
        "config": {**config_to_wire(CFG), "repeat_mode": "batched"},
        "plan": {"jobs": 1, "dispatch": "unit"},
    }


class TestMalformedLease:
    def test_unknown_config_key_is_a_worker_error(self, tmp_path):
        from repro.runtime.remote_worker import WorkerError

        client = _ScriptedClient([_lease_from_older_peer()])
        with pytest.raises(WorkerError, match="malformed lease.*repeat_mode"):
            run_worker("http://unused", tmp_path / "w", client=client)

    @pytest.mark.parametrize("field", ["unit", "lease_id", "config"])
    def test_missing_field_is_a_worker_error(self, tmp_path, field):
        from repro.runtime.remote_worker import WorkerError

        lease = _lease_from_older_peer()
        lease["config"] = config_to_wire(CFG)
        del lease["plan"]
        del lease[field]
        with pytest.raises(WorkerError, match="malformed lease"):
            run_worker("http://unused", tmp_path / "w", client=_ScriptedClient([lease]))

    @pytest.mark.parametrize("ttl_s", ["x", None, 0, -1])
    def test_bad_ttl_is_a_malformed_lease(self, tmp_path, monkeypatch, capsys, ttl_s):
        """A lease TTL that is not a finite number > 0 is refused before
        anything runs, in the library and on the CLI (``error:``, exit 2)."""
        from repro.cli import main
        from repro.runtime import remote_worker

        lease = {**_table1_lease(), "ttl_s": ttl_s}
        script = [lease, {"status": "done"}]
        with pytest.raises(WorkerError, match="malformed lease.*ttl_s"):
            run_worker("http://unused", tmp_path / "w", client=_ScriptedClient(script))
        monkeypatch.setattr(
            remote_worker, "CoordinatorClient", lambda *a, **k: _ScriptedClient(script)
        )
        code = main(["worker", "--connect", "http://unused", "--cache-dir", str(tmp_path / "w")])
        assert code == 2
        assert capsys.readouterr().out.startswith("error: malformed lease")

    def test_lease_carrying_a_plan_is_refused(self, tmp_path, monkeypatch, capsys):
        """A worker runs on its own settings, so a lease that still ships
        a plan comes from an older coordinator and is refused, in the
        library and on the CLI, before anything is synced or computed."""
        from repro.cli import main
        from repro.runtime import remote_worker

        lease = _lease_from_older_peer()
        lease["config"] = config_to_wire(CFG)
        with pytest.raises(WorkerError, match="lease carries an execution plan"):
            run_worker("http://unused", tmp_path / "w", client=_ScriptedClient([lease]))
        monkeypatch.setattr(
            remote_worker, "CoordinatorClient", lambda *a, **k: _ScriptedClient([lease])
        )
        code = main(["worker", "--connect", "http://unused", "--cache-dir", str(tmp_path / "w")])
        assert code == 2
        assert capsys.readouterr().out.startswith("error: lease carries an execution plan")

    def test_cli_worker_prints_error_and_exits_2(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main
        from repro.runtime import remote_worker

        lease = _lease_from_older_peer()
        monkeypatch.setattr(
            remote_worker, "CoordinatorClient", lambda *a, **k: _ScriptedClient([lease])
        )
        code = main(["worker", "--connect", "http://unused", "--cache-dir", str(tmp_path / "w")])
        assert code == 2
        assert capsys.readouterr().out.startswith("error: malformed lease")
