"""Chaos-layer tests: schedule determinism, proxy faults, client taxonomy.

The fault injector is test support (``scripts/chaos_proxy.py``), reached
through a ``sys.path`` insert as ``scripts/chaos_smoke.py`` reaches it.
The proxy tests run a minimal in-process HTTP upstream and drive it
through :class:`ChaosProxy` with :class:`FixedSchedule` plans, then
assert the worker-side :class:`CoordinatorClient` classifies each fault
the way the resilience layer expects: injected 5xx and truncated bodies
are :class:`TransientProtocolError` (with ``Retry-After`` surfaced),
resets and delays are :class:`CoordinatorUnreachable`.
"""

import json
import pathlib
import socket
import sys
import threading

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "scripts"))

from chaos_proxy import (  # noqa: E402
    FAULT_KINDS,
    ChaosProxy,
    FaultPlan,
    FaultSchedule,
    FixedSchedule,
)
from repro.runtime.remote_worker import (  # noqa: E402
    CoordinatorClient,
    CoordinatorUnreachable,
    TransientProtocolError,
)


class TestFaultSchedule:
    def test_plans_are_deterministic_per_seed(self):
        schedule = FaultSchedule(seed=20, reset_rate=0.1, delay_rate=0.1, error_rate=0.1)
        again = FaultSchedule(seed=20, reset_rate=0.1, delay_rate=0.1, error_rate=0.1)
        assert schedule.plans(64) == again.plans(64)

    def test_different_seeds_differ(self):
        a = FaultSchedule(seed=1, reset_rate=0.2, error_rate=0.2).plans(64)
        b = FaultSchedule(seed=2, reset_rate=0.2, error_rate=0.2).plans(64)
        assert a != b

    def test_all_kinds_appear_at_heavy_rates(self):
        schedule = FaultSchedule(
            seed=20, reset_rate=0.15, delay_rate=0.1, truncate_rate=0.15, error_rate=0.1
        )
        kinds = {plan.kind for plan in schedule.plans(200)}
        assert kinds == set(FAULT_KINDS)

    def test_error_bursts_are_contiguous_runs(self):
        schedule = FaultSchedule(seed=3, error_rate=0.05, burst_len=3)
        plans = schedule.plans(400)
        runs = []
        run = 0
        for plan in plans:
            if plan.kind == "error":
                run += 1
            elif run:
                runs.append(run)
                run = 0
        assert runs, "expected at least one completed 5xx burst at this seed"
        assert all(length >= 3 for length in runs)

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            FaultSchedule(reset_rate=0.6, error_rate=0.5)
        with pytest.raises(ValueError):
            FaultSchedule(burst_len=0)
        with pytest.raises(ValueError):
            FaultSchedule().plan(-1)

    def test_fixed_schedule_cycles(self):
        schedule = FixedSchedule(["pass", FaultPlan(kind="reset")])
        assert schedule.plan(0).kind == "pass"
        assert schedule.plan(1).kind == "reset"
        assert schedule.plan(2).kind == "pass"


class _Upstream:
    """Minimal Content-Length HTTP upstream answering canned JSON."""

    def __init__(self):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(0.2)
        self.address = self.listener.getsockname()[:2]
        self.requests = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while not self._stop.is_set():
            try:
                conn, _ = self.listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            with conn:
                file = conn.makefile("rb")
                if not file.readline():
                    continue
                while True:
                    line = file.readline()
                    if not line or line in (b"\r\n", b"\n"):
                        break
                self.requests += 1
                body = json.dumps({"status": "ok", "n": self.requests}).encode()
                head = (
                    f"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
                ).encode()
                conn.sendall(head + body)

    def close(self):
        self._stop.set()
        self._thread.join(timeout=5.0)
        self.listener.close()


@pytest.fixture()
def upstream():
    server = _Upstream()
    yield server
    server.close()


class TestChaosProxy:
    def test_pass_relays_verbatim(self, upstream):
        with ChaosProxy(upstream.address, FixedSchedule(["pass"])) as proxy:
            client = CoordinatorClient(proxy.url, timeout_s=5.0)
            assert client.healthz()["status"] == "ok"
            assert proxy.snapshot()["pass"] == 1

    def test_error_is_transient_with_retry_after(self, upstream):
        with ChaosProxy(upstream.address, FixedSchedule(["error"])) as proxy:
            client = CoordinatorClient(proxy.url, timeout_s=5.0)
            with pytest.raises(TransientProtocolError) as exc_info:
                client.healthz()
            assert exc_info.value.retry_after_s == pytest.approx(0.1)
            assert upstream.requests == 0  # the 503 never touched upstream

    def test_truncated_body_is_transient(self, upstream):
        with ChaosProxy(upstream.address, FixedSchedule(["truncate"])) as proxy:
            client = CoordinatorClient(proxy.url, timeout_s=5.0)
            with pytest.raises(TransientProtocolError):
                client.healthz()

    def test_reset_is_unreachable(self, upstream):
        with ChaosProxy(upstream.address, FixedSchedule(["reset"])) as proxy:
            client = CoordinatorClient(proxy.url, timeout_s=5.0)
            with pytest.raises((CoordinatorUnreachable, TransientProtocolError)):
                client.healthz()

    def test_delay_past_timeout_is_unreachable(self, upstream):
        plan = FaultPlan(kind="delay", delay_s=1.0)
        with ChaosProxy(upstream.address, FixedSchedule([plan])) as proxy:
            client = CoordinatorClient(proxy.url, timeout_s=0.2)
            with pytest.raises(CoordinatorUnreachable):
                client.healthz()
            assert upstream.requests == 0  # the delayed request was dropped

    def test_faults_then_recovery_through_one_proxy(self, upstream):
        schedule = FixedSchedule(["error", "truncate", "pass"])
        with ChaosProxy(upstream.address, schedule) as proxy:
            client = CoordinatorClient(proxy.url, timeout_s=5.0)
            for _ in range(2):
                with pytest.raises(TransientProtocolError):
                    client.healthz()
            assert client.healthz()["status"] == "ok"
            snapshot = proxy.snapshot()
            assert snapshot["total"] == 3
            assert snapshot["error"] == snapshot["truncate"] == snapshot["pass"] == 1


class TestClientTaxonomy:
    def test_connection_refused_is_unreachable(self):
        client = CoordinatorClient("http://127.0.0.1:1", timeout_s=0.5)
        with pytest.raises(CoordinatorUnreachable):
            client.healthz()

    def test_infinite_retry_after_falls_back_to_the_backoff(self, upstream):
        """A ``Retry-After: inf`` is no usable delay: the retry loop backs
        off by its own policy and retries, instead of giving up at once
        because the advertised wait outlasts the budget."""
        from repro.runtime.remote_worker import RETRYABLE
        from repro.runtime.resilience import RetryPolicy, call_with_retries

        plan = FaultPlan(kind="error", retry_after_s=float("inf"))
        with ChaosProxy(upstream.address, FixedSchedule([plan, "pass"])) as proxy:
            client = CoordinatorClient(proxy.url, timeout_s=5.0)
            sleeps = []
            answer = call_with_retries(
                client.healthz,
                RetryPolicy(base_s=0.01, max_s=0.01, jitter=0.0),
                retryable=RETRYABLE,
                budget_s=5.0,
                sleep=sleeps.append,
            )
            assert answer["status"] == "ok"
            assert sleeps == [0.01]
