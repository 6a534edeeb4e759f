"""Serving-plane benchmark: tail latency and coalescing under load.

Warms one point store (vggnet across two boards), starts the async
serving plane on an ephemeral port with a 50 ms coalescing window, and
drives a high-concurrency mixed read workload from 8 persistent
keep-alive connections: exact / nearest / interpolated point lookups,
landmark and guardband queries, dataset dumps, and liveness probes —
with every burst barrier-synchronized so all 8 clients issue the *same*
query simultaneously (the repeated-identical-query pattern a fleet of
monitoring dashboards produces).

The acceptance contract, gated by ``benchmarks/baselines/ci.json`` via
``scripts/check_bench_regression.py``:

* **p99 latency under load** stays under an absolute cap
  (``extra_info_max_gates``: generous enough to hold on any CI box,
  tight enough to catch an event-loop stall or an accidental
  per-request index rebuild);
* **coalescing ratio**: the server must answer >=3x more data-plane
  requests than it runs computations (``dedupe_requests_total`` /
  ``computations_total`` from ``/metrics`` deltas — every burst of 8
  identical queries should collapse to ~1);
* byte-identity and revalidation are asserted in the bench body: every
  response in a burst is byte-identical, and an ``If-None-Match``
  round-trip answers 304.

Run with ``pytest benchmarks/bench_serve.py`` (same environment
overrides as the other benches; see conftest).
"""

import hashlib
import http.client
import threading
import time
import urllib.error
import urllib.request

import pytest

from conftest import run_once
from repro.runtime.cache import ResultCache
from repro.runtime.campaign import run_sweep_campaign
from repro.serve import make_server

#: Serving-path fidelity: the plane's cost is HTTP + dedupe + index
#: reads, not simulator fidelity, so the store is warmed at a light
#: config (matches bench_query.py).
REPEATS = 1
SAMPLES = 16
BOARDS = (0, 1)

#: Load shape: CLIENTS persistent connections x CYCLES passes over the
#: mixed URL set, every burst barrier-aligned.
CLIENTS = 8
CYCLES = 12


@pytest.fixture(scope="module")
def served(tmp_path_factory, config):
    """One warm store behind a running async server (ephemeral port)."""
    serve_config = config.with_overrides(repeats=REPEATS, samples=SAMPLES)
    root = tmp_path_factory.mktemp("bench-serve-cache")
    run_sweep_campaign("vggnet", list(BOARDS), serve_config, cache=ResultCache(root))
    server = make_server(root, port=0, config=serve_config, quiet=True, coalesce_window_s=0.05)
    server.start_in_thread()
    yield server
    server.shutdown()
    server.server_close()


def mixed_urls(vmin_mv: float) -> list[str]:
    """The burst set: hot repeated queries plus the long tail."""
    return [
        "/landmarks?benchmark=vggnet",
        f"/points?benchmark=vggnet&board=0&v_mv={vmin_mv}",
        "/guardband?benchmark=vggnet",
        f"/points?benchmark=vggnet&board=1&v_mv={vmin_mv - 2.5}&mode=nearest",
        "/landmarks?benchmark=vggnet&board=0",
        f"/points?benchmark=vggnet&board=1&v_mv={vmin_mv - 2.5}&mode=interpolate",
        "/points?benchmark=vggnet&board=0",
        "/healthz",
    ]


def run_workload(port: int, urls: list[str]) -> tuple[list[float], list[list[str]], list]:
    """Drive CLIENTS threads through CYCLES barrier-aligned burst passes.

    Returns ``(latencies_ms, per_client_digests, errors)``; each client's
    digest list is position-aligned, so row i across clients is one burst.
    """
    barrier = threading.Barrier(CLIENTS)
    latencies: list[float] = []
    digests: list[list[str]] = [[] for _ in range(CLIENTS)]
    errors: list = []
    lock = threading.Lock()

    def client(i: int) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            for _ in range(CYCLES):
                for url in urls:
                    barrier.wait(timeout=60)
                    start = time.perf_counter()
                    conn.request("GET", url)
                    response = conn.getresponse()
                    body = response.read()
                    elapsed_ms = (time.perf_counter() - start) * 1000.0
                    with lock:
                        latencies.append(elapsed_ms)
                    if response.status != 200:
                        with lock:
                            errors.append((url, response.status))
                    digests[i].append(hashlib.sha256(body).hexdigest())
        except Exception as exc:
            barrier.abort()  # unblock the other clients
            with lock:
                errors.append((f"client {i}", repr(exc)))
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(i,)) for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    return latencies, digests, errors


def percentile(sorted_ms: list[float], q: float) -> float:
    return sorted_ms[min(len(sorted_ms) - 1, int(q * (len(sorted_ms) - 1) + 0.5))]


@pytest.mark.benchmark(group="serve")
def test_serve_mixed_load_p99(benchmark, served):
    server = served
    host, port = server.server_address
    (landmark_row,) = server.index.landmarks("vggnet", board=0)
    urls = mixed_urls(landmark_row["vmin_mv"])
    before = server.metrics()["counters"]

    result = run_once(benchmark, lambda: run_workload(port, urls))
    latencies, digests, errors = result

    assert not errors, errors[:5]
    assert len(latencies) == CLIENTS * CYCLES * len(urls)
    # Byte-identity: within every barrier-aligned burst, all 8 clients
    # received the same bytes for the same query.
    for burst in zip(*digests):
        assert len(set(burst)) == 1
    # Conditional revalidation still works under/after load.
    with urllib.request.urlopen(f"http://{host}:{port}{urls[0]}", timeout=30) as r:
        etag = r.headers["ETag"]
    request = urllib.request.Request(
        f"http://{host}:{port}{urls[0]}", headers={"If-None-Match": etag}
    )
    try:
        urllib.request.urlopen(request, timeout=30)
        raise AssertionError("expected 304 on If-None-Match revalidation")
    except urllib.error.HTTPError as exc:
        assert exc.code == 304

    after = server.metrics()["counters"]
    dedupe_requests = after["dedupe_requests_total"] - before["dedupe_requests_total"]
    computations = after["computations_total"] - before["computations_total"]
    collapsed = (
        after["coalesced_total"]
        + after["window_hits_total"]
        - before["coalesced_total"]
        - before["window_hits_total"]
    )
    assert computations >= 1
    assert dedupe_requests == computations + collapsed

    ordered = sorted(latencies)
    benchmark.extra_info["requests"] = len(latencies)
    benchmark.extra_info["p50_ms"] = round(percentile(ordered, 0.50), 3)
    benchmark.extra_info["p99_ms"] = round(percentile(ordered, 0.99), 3)
    benchmark.extra_info["dedupe_requests"] = dedupe_requests
    benchmark.extra_info["computations"] = computations
    benchmark.extra_info["coalesced_or_window"] = collapsed
