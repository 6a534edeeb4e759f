"""Deterministic fault injection for the distributed campaign fabric.

Test support, not product: ``scripts/chaos_smoke.py`` and
``tests/runtime/test_chaos.py`` import it; nothing under ``src/`` does.

The paper operates hardware past its guardband, where faults are the
expected case to be characterized — not an anomaly to be assumed away.
This module applies the same discipline to the fabric's transport: a
seeded, reproducible fault injector that sits *between* a worker and
the coordinator and breaks the connection in the ways real networks do,
so the resilience layer (:mod:`repro.runtime.resilience`) can be proven
against a known fault schedule instead of hoped correct.

Two pieces:

* :class:`FaultSchedule` — maps a connection sequence number to a
  :class:`FaultPlan` using the named RNG stream ``<name>/conn<i>``
  (:func:`repro.rng.child_rng`).  The schedule is a pure function of
  ``(seed, index)``: no hidden state, no arrival-time dependence, so a
  chaos run's fault sequence is reproducible run-to-run even though the
  *assignment* of worker requests to connection indices races.  5xx
  faults arrive in bursts: a connection whose draw lands in the error
  band starts a burst that also covers the next ``burst_len - 1``
  connections (computed statelessly by scanning the window).
* :class:`ChaosProxy` — a threaded TCP proxy applying one plan per
  accepted connection: ``reset`` closes immediately, ``delay`` holds
  the request past the client's timeout and never forwards it,
  ``truncate`` forwards but cuts the response body mid-way (breaking
  the ``Content-Length`` contract), ``error`` answers a canned 503 with
  a ``Retry-After`` header without touching the upstream, and ``pass``
  relays verbatim.  Per-kind counters let the chaos smoke assert every
  fault kind actually fired.

Run as a script, the module is the *poison worker* launcher:
``python scripts/chaos_proxy.py <unit_id> worker --connect <url> ...``
runs ``repro-undervolt`` with the given arguments, but every sweep unit
named ``<unit_id>`` raises when executed.  That is the deterministic
stand-in for a unit that reliably crashes whatever worker leases it —
the scenario the coordinator's quarantine exists for — and its failure
takes the worker's real ``/fail`` path.
"""

from __future__ import annotations

import pathlib
import socket
import struct
import sys
import threading
import time
from dataclasses import dataclass

if __name__ == "__main__":
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.rng import child_rng  # noqa: E402

#: The fault kinds a schedule can plan (``pass`` = relay verbatim).
FAULT_KINDS = ("pass", "reset", "delay", "truncate", "error")

#: Canned 5xx the proxy answers with under an ``error`` plan.
_ERROR_BODY = b'{"error": "chaos: injected 503"}'


@dataclass(frozen=True)
class FaultPlan:
    """What to do to one proxied connection."""

    #: One of :data:`FAULT_KINDS`.
    kind: str
    #: Seconds to hold the request under a ``delay`` plan.
    delay_s: float = 0.0
    #: Fraction of the response body delivered under a ``truncate`` plan.
    keep_fraction: float = 0.5
    #: Status code answered under an ``error`` plan.
    status: int = 503
    #: ``Retry-After`` seconds advertised by an ``error`` response.
    retry_after_s: float = 0.1


class FaultSchedule:
    """Seeded per-connection fault plans, reproducible by construction.

    ``plan(i)`` depends only on ``(seed, name, i)`` — each connection
    index draws one uniform from its own named stream, and the rate
    bands partition ``[0, 1)`` as ``[error | reset | delay | truncate |
    pass]``.  An error draw starts a 5xx *burst* covering ``burst_len``
    consecutive connections, so runs of failures that outlast several
    retries occur at realistic correlation, not just independently.
    """

    def __init__(
        self,
        seed: int = 0,
        reset_rate: float = 0.0,
        delay_rate: float = 0.0,
        truncate_rate: float = 0.0,
        error_rate: float = 0.0,
        burst_len: int = 3,
        delay_s: float = 2.0,
        keep_fraction: float = 0.5,
        name: str = "chaos",
    ):
        rates = (reset_rate, delay_rate, truncate_rate, error_rate)
        if any(r < 0 for r in rates) or sum(rates) > 1.0:
            raise ValueError(f"fault rates must be >= 0 and sum to <= 1, got {rates}")
        if burst_len < 1:
            raise ValueError(f"burst_len must be >= 1, got {burst_len}")
        if not 0.0 < keep_fraction < 1.0:
            raise ValueError(f"keep_fraction must be in (0, 1), got {keep_fraction}")
        self.seed = int(seed)
        self.reset_rate = float(reset_rate)
        self.delay_rate = float(delay_rate)
        self.truncate_rate = float(truncate_rate)
        self.error_rate = float(error_rate)
        self.burst_len = int(burst_len)
        self.delay_s = float(delay_s)
        self.keep_fraction = float(keep_fraction)
        self.name = name

    def _draw(self, index: int) -> float:
        return float(child_rng(self.seed, f"{self.name}/conn{index}").random())

    def _starts_burst(self, index: int) -> bool:
        return self._draw(index) < self.error_rate

    def plan(self, index: int) -> FaultPlan:
        """The fault plan for connection ``index`` (0-based)."""
        if index < 0:
            raise ValueError(f"connection index must be >= 0, got {index}")
        # Burst membership first: any error draw in the trailing window
        # covers this connection, keeping 5xx runs contiguous.
        for j in range(max(0, index - self.burst_len + 1), index + 1):
            if self._starts_burst(j):
                return FaultPlan(kind="error")
        draw = self._draw(index)
        threshold = self.error_rate
        for kind, rate in (
            ("reset", self.reset_rate),
            ("delay", self.delay_rate),
            ("truncate", self.truncate_rate),
        ):
            threshold += rate
            if draw < threshold:
                return FaultPlan(
                    kind=kind, delay_s=self.delay_s, keep_fraction=self.keep_fraction
                )
        return FaultPlan(kind="pass")

    def plans(self, count: int) -> list[FaultPlan]:
        """The first ``count`` plans (tests pin these)."""
        return [self.plan(i) for i in range(count)]


class FixedSchedule:
    """An explicit plan list (cycled) — the unit tests' schedule."""

    def __init__(self, plans):
        self._plans = [p if isinstance(p, FaultPlan) else FaultPlan(kind=p) for p in plans]
        if not self._plans:
            raise ValueError("FixedSchedule needs at least one plan")

    def plan(self, index: int) -> FaultPlan:
        """The plan for connection ``index``, cycling the fixed list."""
        return self._plans[index % len(self._plans)]


def _read_http_message(sock_file) -> bytes | None:
    """Read one HTTP message (head + ``Content-Length`` body) verbatim.

    Returns the raw bytes to relay, or ``None`` on a clean EOF before
    any byte.  Both fabric services frame every message with
    ``Content-Length``, so this is all the parsing a faithful relay
    needs.
    """
    head = bytearray()
    line = sock_file.readline()
    if not line:
        return None
    head += line
    length = 0
    while True:
        line = sock_file.readline()
        if not line:
            return None
        head += line
        if line in (b"\r\n", b"\n"):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length" and value.strip().isdigit():
            length = int(value.strip())
    body = sock_file.read(length) if length else b""
    if length and len(body) < length:
        return None
    return bytes(head) + body


def _split_body(message: bytes) -> tuple[bytes, bytes]:
    """Split one raw HTTP message into (head incl. blank line, body)."""
    for sep in (b"\r\n\r\n", b"\n\n"):
        idx = message.find(sep)
        if idx != -1:
            cut = idx + len(sep)
            return message[:cut], message[cut:]
    return message, b""


class ChaosProxy:
    """Fault-injecting TCP proxy in front of one upstream service.

    Start it between a worker and the coordinator, point the worker at
    :attr:`address`, and every accepted connection is assigned the next
    sequence number and suffers that index's scheduled fault.  The
    proxy is deliberately request-oriented (one exchange per
    connection): the worker's client opens a fresh connection per
    request, so per-connection faults are per-request faults.

    Counters in :attr:`counters` record how many connections suffered
    each fault kind; :meth:`snapshot` returns them with the total.
    """

    def __init__(
        self,
        upstream: tuple,
        schedule,
        host: str = "127.0.0.1",
        port: int = 0,
        quiet: bool = True,
    ):
        self.upstream = (upstream[0], int(upstream[1]))
        self.schedule = schedule
        self.quiet = quiet
        self._lock = threading.Lock()
        self._seq = 0
        self.counters = {kind: 0 for kind in FAULT_KINDS}
        self._listener = socket.create_server((host, port))
        self._listener.settimeout(0.2)
        self.address = self._listener.getsockname()[:2]
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._accept_thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        """The proxy's base URL (point workers here)."""
        return "http://%s:%s" % self.address

    def start(self) -> "ChaosProxy":
        """Begin accepting connections on a daemon thread."""
        if self._accept_thread is None:
            self._accept_thread = threading.Thread(
                target=self._accept_loop, daemon=True, name="repro-chaos-proxy"
            )
            self._accept_thread.start()
        return self

    def close(self) -> None:
        """Stop accepting, close the listener, and join worker threads."""
        self._stop.set()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            self._accept_thread = None
        self._listener.close()
        for thread in self._threads:
            thread.join(timeout=5.0)

    def __enter__(self) -> "ChaosProxy":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def snapshot(self) -> dict:
        """Per-kind fault counts plus the total connection count."""
        with self._lock:
            counts = dict(self.counters)
        counts["total"] = sum(counts.values())
        return counts

    def _next_plan(self) -> tuple[int, FaultPlan]:
        with self._lock:
            index = self._seq
            self._seq += 1
        plan = self.schedule.plan(index)
        with self._lock:
            self.counters[plan.kind] += 1
        return index, plan

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            index, plan = self._next_plan()
            if not self.quiet:
                print(f"[chaos] conn {index}: {plan.kind}", flush=True)
            thread = threading.Thread(
                target=self._handle, args=(conn, plan), daemon=True, name=f"chaos-conn-{index}"
            )
            thread.start()
            self._threads.append(thread)

    def _handle(self, conn: socket.socket, plan: FaultPlan) -> None:
        try:
            if plan.kind == "reset":
                # Close with pending data discarded: the client sees a
                # connection reset (or an empty response) immediately.
                conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
                return
            conn.settimeout(10.0)
            request = _read_http_message(conn.makefile("rb"))
            if request is None:
                return
            if plan.kind == "error":
                head = (
                    f"HTTP/1.1 {plan.status} Service Unavailable\r\n"
                    f"Server: repro-chaos\r\n"
                    f"Content-Type: application/json\r\n"
                    f"Content-Length: {len(_ERROR_BODY)}\r\n"
                    f"Retry-After: {plan.retry_after_s}\r\n"
                    f"Connection: close\r\n\r\n"
                ).encode("latin-1")
                conn.sendall(head + _ERROR_BODY)
                return
            if plan.kind == "delay":
                # Hold the request past the client's timeout and drop it:
                # the upstream never sees it, the client gives up first.
                time.sleep(plan.delay_s)
                return
            response = self._forward(request)
            if response is None:
                return
            if plan.kind == "truncate":
                head, body = _split_body(response)
                conn.sendall(head + body[: int(len(body) * plan.keep_fraction)])
                return
            conn.sendall(response)
        except OSError:
            pass  # client or upstream went away; the retry layer covers it
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _forward(self, request: bytes) -> bytes | None:
        with socket.create_connection(self.upstream, timeout=10.0) as upstream:
            upstream.sendall(request)
            return _read_http_message(upstream.makefile("rb"))


def poison_worker_command(unit_id: str) -> list[str]:
    """The argv prefix that launches ``repro-undervolt`` with ``unit_id`` poisoned.

    Append the usual CLI arguments (``worker --connect <url> ...``).
    """
    return [sys.executable, str(pathlib.Path(__file__).resolve()), unit_id]


def run_poisoned(unit_id: str, cli_args: list[str]) -> int:
    """Run the CLI with every execution of sweep unit ``unit_id`` raising.

    Wraps the worker's ``run_sweep_campaign`` (matched by
    :func:`repro.runtime.campaign.sweep_unit_id`), so the failure goes
    through the worker's own ``/fail`` report and the coordinator's
    strikes, exactly as a unit that crashes for real would.
    """
    from repro import cli
    from repro.runtime import remote_worker
    from repro.runtime.campaign import sweep_unit_id

    real = remote_worker.run_sweep_campaign

    def poisoned(benchmark, boards, *args, **kwargs):
        if any(sweep_unit_id(benchmark, board) == unit_id for board in boards):
            raise RuntimeError(f"unit {unit_id!r} is poisoned for this run")
        return real(benchmark, boards, *args, **kwargs)

    remote_worker.run_sweep_campaign = poisoned
    return cli.main(cli_args)


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit(f"usage: {sys.argv[0]} <unit_id> <repro-undervolt arguments...>")
    sys.exit(run_poisoned(sys.argv[1], sys.argv[2:]))
