"""The async serving plane: endpoints, byte-identity, admission, coalescing.

Covers the production-plane contract on top of the original endpoint
behavior: N simultaneous identical cold queries cost exactly one index
computation and return byte-identical bodies with matching ETags;
admission control sheds request N+1 with 503 + ``Retry-After`` while N
are parked; ``/healthz`` and ``/metrics`` stay live while the data plane
sheds; ETag revalidation answers 304; the ``/metrics`` counter names are
pinned to :data:`repro.serve.METRIC_COUNTER_NAMES` (the CI bench gates
key off them); and graceful shutdown drains in-flight requests and
flushes the structured access log — including the real-process
SIGTERM path the CI smoke step relies on.  The lifecycle both HTTP
services share (connection cap, stop from another thread, access-log
records) is checked against the serving plane and the campaign
coordinator alike.
"""

import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.runtime.campaign as campaign_mod
from repro.core.experiment import ExperimentConfig
from repro.runtime.cache import ResultCache
from repro.runtime.campaign import run_sweep_campaign
from repro.runtime.coordinator import make_coordinator
from repro.serve import (
    LATENCY_BUCKETS_MS,
    METRIC_COUNTER_NAMES,
    METRIC_GAUGE_NAMES,
    etag_matches,
    make_server,
    strong_etag,
)

CONFIG = ExperimentConfig(repeats=1, samples=8)

#: The fields of every access-log record, from either service.
ACCESS_LOG_FIELDS = {"ts", "client", "method", "path", "status", "bytes", "dur_ms", "source"}


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve-cache")
    run_sweep_campaign("vggnet", [0], CONFIG, cache=ResultCache(root))
    return root


@pytest.fixture()
def server(warm_cache):
    server = make_server(warm_cache, port=0, config=CONFIG, quiet=True)
    server.start_in_thread()
    yield server
    server.shutdown()
    server.server_close()


def get(server, path: str) -> tuple[int, bytes]:
    port = server.server_address[1]
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=30) as r:
        return r.status, r.read()


class TestEndpoints:
    def test_healthz(self, server):
        status, body = get(server, "/healthz")
        payload = json.loads(body)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["points_indexed"] > 0

    def test_landmarks_served_from_warm_store_without_resweeping(
        self, server, monkeypatch
    ):
        """The acceptance gate: /landmarks answers from cache, counted."""

        def forbidden(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("a warm /landmarks query re-ran a sweep")

        monkeypatch.setattr(campaign_mod, "run_sweep_unit", forbidden)
        served_before = server.index.stats()["queries"]["served_from_cache"]
        status, body = get(server, "/landmarks?benchmark=vggnet&board=0")
        payload = json.loads(body)
        assert status == 200
        assert payload["landmarks"][0]["complete"] is True
        assert payload["landmarks"][0]["vcrash_mv"] < payload["landmarks"][0]["vmin_mv"]
        counters = server.index.stats()["queries"]
        assert counters["served_from_cache"] == served_before + 1
        assert counters["computed_sweeps"] == 0

    def test_point_lookup_modes(self, server):
        _, body = get(server, "/points?benchmark=vggnet&board=0&v_mv=850")
        assert json.loads(body)["hang"] is False
        _, body = get(
            server, "/points?benchmark=vggnet&board=0&v_mv=848.7&mode=nearest"
        )
        assert json.loads(body)["vccint_mv"] == 850.0
        _, body = get(
            server, "/points?benchmark=vggnet&board=0&v_mv=847.5&mode=interpolate"
        )
        assert json.loads(body)["interpolated"] is True

    def test_points_dump_and_guardband(self, server):
        _, body = get(server, "/points?benchmark=vggnet&board=0")
        payload = json.loads(body)
        assert payload["n_points"] == len(
            [p for p in payload["points"] if not p["hang"]]
        )
        _, body = get(server, "/guardband?benchmark=vggnet")
        (entry,) = json.loads(body)["guardband"]
        assert entry["boards"][0]["board"] == 0

    def test_stats_counts_lru_and_queries(self, server):
        get(server, "/landmarks?benchmark=vggnet")
        _, body = get(server, "/stats")
        payload = json.loads(body)
        assert set(payload) == {
            "version", "cache_dir", "datasets", "points", "lru", "queries", "journal",
        }
        # benchmarks/e2e/run.py::_serve_layers reads exactly these keys.
        assert set(payload["lru"]) == {"hits", "misses", "evictions"}
        assert payload["points"]["indexed"] > 0
        assert payload["queries"]["served_from_cache"] >= 1


class TestErrors:
    def expect_error(self, server, path: str, code: int) -> dict:
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(server, path)
        assert excinfo.value.code == code
        return json.loads(excinfo.value.read())

    def test_unknown_endpoint_404(self, server):
        self.expect_error(server, "/nope", 404)

    def test_unknown_dataset_404(self, server):
        payload = self.expect_error(server, "/points?benchmark=missingnet", 404)
        assert "missingnet" in payload["error"]

    def test_missing_required_param_400(self, server):
        self.expect_error(server, "/points", 400)

    def test_bad_param_type_400(self, server):
        self.expect_error(server, "/points?benchmark=vggnet&board=zero", 400)

    @pytest.mark.parametrize("v_mv", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_voltage_400(self, server, v_mv):
        payload = self.expect_error(
            server, f"/points?benchmark=vggnet&v_mv={v_mv}&mode=nearest", 400
        )
        assert "v_mv" in payload["error"]

    def test_compute_disabled_403(self, server):
        payload = self.expect_error(
            server, "/landmarks?benchmark=vggnet&board=1&compute=1", 403
        )
        assert "--compute" in payload["error"]


class TestParallelByteIdentity:
    def test_concurrent_identical_queries_return_identical_bytes(self, server):
        paths = [
            "/landmarks?benchmark=vggnet",
            "/guardband?benchmark=vggnet",
            "/points?benchmark=vggnet&board=0&v_mv=850",
        ]
        with ThreadPoolExecutor(max_workers=8) as pool:
            for path in paths:
                bodies = [
                    f.result()[1]
                    for f in [pool.submit(get, server, path) for _ in range(12)]
                ]
                assert all(b == bodies[0] for b in bodies)


class TestComputeEnabled:
    def test_read_through_fills_a_cold_store_once(self, tmp_path, monkeypatch):
        runs = []
        real = campaign_mod.run_sweep_unit

        def counting(*args, **kwargs):
            runs.append(args[:2])
            return real(*args, **kwargs)

        monkeypatch.setattr(campaign_mod, "run_sweep_unit", counting)
        server = make_server(
            tmp_path, port=0, config=CONFIG, allow_compute=True, quiet=True
        )
        server.start_in_thread()
        try:
            _, body = get(server, "/landmarks?benchmark=vggnet&board=0&compute=1")
            (row,) = json.loads(body)["landmarks"]
            assert row["complete"] is True
            assert runs == [("vggnet", 0)]
            # Second identical query: served from the now-warm store.
            _, again = get(server, "/landmarks?benchmark=vggnet&board=0&compute=1")
            assert json.loads(again)["landmarks"] == [row]
            assert runs == [("vggnet", 0)]
        finally:
            server.shutdown()
            server.server_close()


def get_with_headers(server, path: str, headers: dict | None = None):
    """GET returning ``(status, body, response_headers)``."""
    port = server.server_address[1]
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", headers=headers or {}
    )
    with urllib.request.urlopen(request, timeout=30) as r:
        return r.status, r.read(), dict(r.headers)


class _BlockingLandmarks:
    """Wrap ``index.landmarks`` so calls park on an event (and are counted)."""

    def __init__(self, index):
        self.calls = 0
        self.release = threading.Event()
        self._real = index.landmarks

    def __call__(self, *args, **kwargs):
        self.calls += 1
        assert self.release.wait(timeout=30), "test never released the landmark gate"
        return self._real(*args, **kwargs)


def _spawn_gets(server, paths):
    """Fire one GET per path on its own thread; results land in a list."""
    results = [None] * len(paths)

    def fetch(i, path):
        try:
            results[i] = get_with_headers(server, path)
        except urllib.error.HTTPError as exc:
            results[i] = (exc.code, exc.read(), dict(exc.headers))

    threads = [
        threading.Thread(target=fetch, args=(i, path), daemon=True)
        for i, path in enumerate(paths)
    ]
    for t in threads:
        t.start()
    return threads, results


def _wait_for(predicate, timeout_s: float = 10.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.005)


class TestCoalescing:
    def test_n_identical_cold_queries_cost_one_computation(self, server, monkeypatch):
        """The tentpole gate: N concurrent duplicates -> one computation,

        byte-identical bodies, matching strong ETags."""
        blocker = _BlockingLandmarks(server.index)
        monkeypatch.setattr(server.index, "landmarks", blocker)
        n = 6
        path = "/landmarks?benchmark=vggnet&board=0"
        threads, results = _spawn_gets(server, [path] * n)
        # All N admitted and parked on the single shared future.
        _wait_for(lambda: server.metrics()["counters"]["dedupe_requests_total"] == n)
        assert blocker.calls == 1
        blocker.release.set()
        for t in threads:
            t.join(timeout=30)
        statuses = {r[0] for r in results}
        bodies = {r[1] for r in results}
        etags = {r[2]["ETag"] for r in results}
        assert statuses == {200}
        assert len(bodies) == 1 and len(etags) == 1
        counters = server.metrics()["counters"]
        assert blocker.calls == 1
        assert counters["computations_total"] == 1
        assert counters["coalesced_total"] == n - 1

    def test_coalesce_window_serves_held_bytes(self, warm_cache):
        server = make_server(
            warm_cache, port=0, config=CONFIG, quiet=True, coalesce_window_s=5.0
        )
        server.start_in_thread()
        try:
            path = "/landmarks?benchmark=vggnet"
            _, first, _ = get_with_headers(server, path)
            _, second, _ = get_with_headers(server, path)
            assert first == second
            counters = server.metrics()["counters"]
            assert counters["computations_total"] == 1
            assert counters["window_hits_total"] == 1
        finally:
            server.shutdown()
            server.server_close()


class TestAdmission:
    def test_sheds_request_n_plus_1_while_n_parked(self, warm_cache, monkeypatch):
        """With max_inflight=2 and both slots parked, request 3 gets

        503 + Retry-After while /healthz and /metrics stay live."""
        server = make_server(
            warm_cache, port=0, config=CONFIG, quiet=True, max_inflight=2
        )
        server.start_in_thread()
        blocker = _BlockingLandmarks(server.index)
        monkeypatch.setattr(server.index, "landmarks", blocker)
        try:
            parked = [
                "/landmarks?benchmark=vggnet&board=0",
                "/landmarks?benchmark=vggnet",  # distinct key: second slot
            ]
            threads, results = _spawn_gets(server, parked)
            _wait_for(lambda: server.metrics()["gauges"]["in_flight"] == 2)
            try:
                get_with_headers(server, "/guardband?benchmark=vggnet")
                raise AssertionError("request N+1 was not shed")
            except urllib.error.HTTPError as exc:
                assert exc.code == 503
                assert exc.headers["Retry-After"] == "1"
                assert "in-flight" in json.loads(exc.read())["error"]
            status, _, _ = get_with_headers(server, "/healthz")
            assert status == 200
            status, metrics_body, _ = get_with_headers(server, "/metrics")
            assert status == 200
            assert json.loads(metrics_body)["counters"]["shed_total"] >= 1
            blocker.release.set()
            for t in threads:
                t.join(timeout=30)
            assert {r[0] for r in results} == {200}
            # Capacity freed: the same query now succeeds.
            status, _, _ = get_with_headers(server, "/guardband?benchmark=vggnet")
            assert status == 200
        finally:
            blocker.release.set()
            server.shutdown()
            server.server_close()

    def test_max_inflight_zero_sheds_data_plane_only(self, warm_cache):
        server = make_server(
            warm_cache, port=0, config=CONFIG, quiet=True, max_inflight=0
        )
        server.start_in_thread()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get_with_headers(server, "/landmarks?benchmark=vggnet")
            assert excinfo.value.code == 503
            status, _, _ = get_with_headers(server, "/healthz")
            assert status == 200
        finally:
            server.shutdown()
            server.server_close()


class TestConditionalAndKeepAlive:
    def test_keepalive_etag_304_roundtrip_on_one_connection(self, server):
        host, port = server.server_address
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request("GET", "/landmarks?benchmark=vggnet")
            resp = conn.getresponse()
            body = resp.read()
            etag = resp.headers["ETag"]
            assert resp.status == 200
            assert resp.headers["Connection"] == "keep-alive"
            assert etag == strong_etag(body)
            conn.request(
                "GET", "/landmarks?benchmark=vggnet", headers={"If-None-Match": etag}
            )
            revalidated = conn.getresponse()
            assert revalidated.status == 304
            assert revalidated.read() == b""
            assert revalidated.headers["ETag"] == etag
            conn.request("GET", "/metrics")
            metrics = json.loads(conn.getresponse().read())
            assert metrics["counters"]["connections_total"] == 1
            assert metrics["counters"]["not_modified_total"] == 1
        finally:
            conn.close()

    def test_etag_matches_semantics(self):
        etag = strong_etag(b"{}")
        assert etag_matches(etag, etag)
        assert etag_matches("*", etag)
        assert etag_matches(f'"nope", {etag}', etag)
        assert etag_matches(f"W/{etag}", etag)
        assert not etag_matches(None, etag)
        assert not etag_matches('"nope"', etag)

    def test_method_not_allowed_405(self, server):
        host, port = server.server_address
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request("POST", "/landmarks?benchmark=vggnet", body=b"{}")
            resp = conn.getresponse()
            assert resp.status == 405
            assert resp.headers["Allow"] == "GET, HEAD"
            resp.read()
        finally:
            conn.close()


class TestMetrics:
    def test_counter_and_gauge_names_are_pinned(self, server):
        """The CI bench gates key off these names; they must not drift."""
        _, body, _ = get_with_headers(server, "/metrics")
        payload = json.loads(body)
        assert tuple(sorted(payload["counters"])) == METRIC_COUNTER_NAMES
        assert tuple(sorted(payload["gauges"])) == METRIC_GAUGE_NAMES
        buckets = payload["latency_ms"]["buckets_le_ms"]
        assert len(buckets) == len(LATENCY_BUCKETS_MS) + 1
        assert "inf" in buckets
        assert payload["gauges"]["precomputed_landmarks"] >= 1

    def test_latency_histogram_counts_requests(self, server):
        for _ in range(3):
            get(server, "/healthz")
        _, body, _ = get_with_headers(server, "/metrics")
        latency = json.loads(body)["latency_ms"]
        assert latency["count"] >= 3
        assert latency["buckets_le_ms"]["inf"] == latency["count"]


class TestGracefulShutdown:
    def test_shutdown_drains_inflight_and_flushes_access_log(
        self, warm_cache, tmp_path, monkeypatch
    ):
        log_path = tmp_path / "access.jsonl"
        server = make_server(
            warm_cache, port=0, config=CONFIG, quiet=True, access_log=str(log_path)
        )
        server.start_in_thread()
        blocker = _BlockingLandmarks(server.index)
        monkeypatch.setattr(server.index, "landmarks", blocker)
        try:
            threads, results = _spawn_gets(server, ["/landmarks?benchmark=vggnet"])
            _wait_for(lambda: server.metrics()["gauges"]["in_flight"] == 1)
            threading.Timer(0.3, blocker.release.set).start()
            server.shutdown()  # blocks through the drain
            for t in threads:
                t.join(timeout=30)
            status, body, _ = results[0]
            assert status == 200
            assert json.loads(body)["landmarks"]
            records = [
                json.loads(line) for line in log_path.read_text().splitlines()
            ]
            (record,) = [r for r in records if r["path"].startswith("/landmarks")]
            assert record["status"] == 200
            assert record["source"] == "computed"
            assert set(record) >= ACCESS_LOG_FIELDS
        finally:
            blocker.release.set()
            server.server_close()

    def test_sigterm_drains_and_exits_zero(self, warm_cache):
        """The CI smoke contract: SIGTERM -> graceful drain -> exit 0."""
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(repo_root, "src"), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--cache-dir", str(warm_cache), "--port", "0",
                "--repeats", "1", "--samples", "8",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            banner = proc.stdout.readline()
            match = re.search(r"http://127\.0\.0\.1:(\d+)", banner)
            assert match, f"no address banner in {banner!r}"
            port = int(match.group(1))
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=30
            ) as r:
                assert r.status == 200
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
            assert proc.returncode == 0
            assert "shutting down" in out
        finally:
            if proc.poll() is None:
                proc.kill()


@pytest.fixture(params=["serve", "coordinator"])
def make_service(request, warm_cache, tmp_path):
    """Build either HTTP service (unstarted); both run on one core."""
    built = []

    def build(**kwargs):
        if request.param == "serve":
            service = make_server(warm_cache, port=0, config=CONFIG, quiet=True, **kwargs)
        else:
            service = make_coordinator(
                ["sweep:vggnet:board0"], tmp_path / "coord", config=CONFIG, **kwargs
            )
        built.append(service)
        return service

    yield build
    for service in built:
        service.shutdown()
        if hasattr(service, "server_close"):
            service.server_close()


def _keepalive_get(conn: http.client.HTTPConnection, path: str) -> int:
    conn.request("GET", path)
    response = conn.getresponse()
    response.read()
    assert response.headers["Connection"] == "keep-alive"
    return response.status


class TestServiceLifecycle:
    def test_connection_past_the_cap_gets_503_retry_after(self, make_service):
        service = make_service()
        service.max_connections = 2  # the coordinator has no constructor knob for it
        service.start_in_thread()
        host, port = service.server_address
        held = [http.client.HTTPConnection(host, port, timeout=10) for _ in range(2)]
        try:
            assert [_keepalive_get(conn, "/healthz") for conn in held] == [200, 200]
            with socket.create_connection((host, port), timeout=10) as sock:
                reply = b""
                while chunk := sock.recv(65536):
                    reply += chunk
            head, _, body = reply.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 503 ")
            assert b"Retry-After: 1" in head and b"Connection: close" in head
            assert json.loads(body) == {"error": "connection limit reached"}
            assert service.counters["connections_rejected_total"] == 1
            if hasattr(service, "metrics"):
                counters = service.metrics()["counters"]
                assert counters["connections_rejected_total"] == 1
                assert counters["connections_total"] == 3
        finally:
            for conn in held:
                conn.close()

    def test_shutdown_from_another_thread_closes_idle_keepalive(self, make_service):
        service = make_service()
        thread = service.start_in_thread()
        conn = http.client.HTTPConnection(*service.server_address, timeout=10)
        try:
            assert _keepalive_get(conn, "/healthz") == 200
            stopper = threading.Thread(target=service.shutdown)
            started = time.monotonic()
            stopper.start()
            stopper.join(timeout=service.drain_timeout_s + 5.0)
            assert not stopper.is_alive()
            assert time.monotonic() - started < service.drain_timeout_s
            thread.join(timeout=5.0)
            assert not thread.is_alive()
            assert conn.sock.recv(1) == b""  # the server closed the idle connection
        finally:
            conn.close()

    def test_access_log_has_one_record_per_request(self, make_service, tmp_path):
        log_path = tmp_path / "access.jsonl"
        service = make_service(access_log=str(log_path))
        service.start_in_thread()
        conn = http.client.HTTPConnection(*service.server_address, timeout=10)
        try:
            assert _keepalive_get(conn, "/healthz") == 200
            assert _keepalive_get(conn, "/nope") == 404
        finally:
            conn.close()
        service.shutdown()
        records = [json.loads(line) for line in log_path.read_text().splitlines()]
        assert [(r["method"], r["path"], r["status"]) for r in records] == [
            ("GET", "/healthz", 200),
            ("GET", "/nope", 404),
        ]
        assert all(set(record) == ACCESS_LOG_FIELDS for record in records)
