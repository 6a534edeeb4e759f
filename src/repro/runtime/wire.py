"""Shared HTTP dialect and service core for the serving plane and the coordinator.

Both stdlib-asyncio HTTP services in this repository — the
characterization server (:mod:`repro.serve`) and the campaign
coordinator (:mod:`repro.runtime.coordinator`) — speak the same
dialect: canonical-JSON bodies (:func:`repro.runtime.query.to_json`,
sorted keys, fixed separators, byte-identical for identical payloads),
strong content-hash ETags, structured one-object-per-line JSON access
logs, and plain HTTP/1.1 keep-alive framing.  Both run on
:class:`HttpService`, so they fail the same way under overload,
shutdown and malformed input.

:func:`read_request` / :func:`write_response` own the byte-level
framing; a body that cannot be framed safely is refused, never guessed
at.  The small helpers keep every endpoint's edge handling identical
across services.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import itertools
import math
import signal
import sys
import threading
import time
from dataclasses import dataclass
from typing import NamedTuple

from repro.runtime.query import to_json

#: Reason phrases for every status either service emits.
REASONS = {
    200: "OK",
    304: "Not Modified",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Content Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}

#: Default cap on request bodies read into memory (bytes).
DEFAULT_MAX_BODY = 1 << 20

#: Default bound on simultaneously open client connections.
DEFAULT_MAX_CONNECTIONS = 128

#: Default deadline (seconds) for draining busy connections on shutdown.
DEFAULT_DRAIN_TIMEOUT_S = 5.0

#: Idle keep-alive connections are closed after this many seconds.
DEFAULT_KEEPALIVE_TIMEOUT_S = 30.0

#: Upper bounds of the latency histogram buckets (ms, cumulative ``le``
#: semantics; an implicit ``inf`` bucket ends the list).
LATENCY_BUCKETS_MS = (0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0)


def json_bytes(payload) -> bytes:
    """Canonical-JSON response body: one encoder for every endpoint.

    Identical payloads yield byte-identical bodies (sorted keys, fixed
    separators), which is what makes coalesced responses shareable and
    strong ETags trivial.  A non-finite number raises ``ValueError``
    (:func:`~repro.runtime.query.to_json` passes ``allow_nan=False``).
    """
    return to_json(payload).encode("utf-8")


def error_bytes(message: str) -> bytes:
    """The canonical error body both services answer failures with."""
    return json_bytes({"error": str(message)})


def strong_etag(body: bytes) -> str:
    """The strong ETag for one response body.

    Bodies are canonical JSON — identical queries yield byte-identical
    bodies — so a content hash is a *strong* validator for free.
    """
    return '"' + hashlib.sha256(body).hexdigest()[:32] + '"'


def etag_matches(if_none_match: str | None, etag: str) -> bool:
    """Whether an ``If-None-Match`` header revalidates ``etag``."""
    if if_none_match is None:
        return False
    if if_none_match.strip() == "*":
        return True
    candidates = [c.strip() for c in if_none_match.split(",")]
    # Weak-comparison tolerance: a W/ prefix still names the same bytes.
    return any(c == etag or c == f"W/{etag}" for c in candidates)


def first_param(params: dict, name: str) -> str | None:
    """The first value of one ``parse_qs`` query parameter, if any."""
    values = params.get(name)
    return values[0] if values else None


def as_int(value: str | None, name: str) -> int | None:
    """Coerce an optional query parameter to int (ValueError names it)."""
    if value is None:
        return None
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"query parameter {name!r} must be an integer") from None


def as_float(value: str | float | None, name: str) -> float | None:
    """Coerce an optional query parameter or body field to a finite float.

    ``nan`` and ``inf`` are refused like any other non-number: no
    service computes with them or writes them out (ValueError names it).
    """
    if value is None:
        return None
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number):
        raise ValueError(f"{name!r} must be a finite number")
    return number


def as_bool(value: str | None) -> bool:
    """Truthiness of a query parameter (absent/empty/0/false/no = False)."""
    return value is not None and value.lower() not in ("", "0", "false", "no")


class AccessLog:
    """Structured access log: one canonical-JSON object per line.

    ``target`` is a file path, ``"-"`` (stdout), or None (no log); the
    log closes only a file it opened.  Lines are flushed as written — an
    operator tailing the file sees requests live, and a killed process
    loses nothing that was logged.
    """

    def __init__(self, target: str | None):
        self._owns = target not in (None, "-")
        self._stream = sys.stdout if target == "-" else None
        if self._owns:
            self._stream = open(target, "a", encoding="utf-8")

    @property
    def enabled(self) -> bool:
        """Whether records are being written anywhere."""
        return self._stream is not None

    def log(self, record: dict) -> None:
        """Write one request record (no-op when disabled)."""
        if self._stream is None:
            return
        self._stream.write(to_json(record) + "\n")
        self._stream.flush()

    def close(self) -> None:
        """Flush, and close the stream if this log opened it."""
        if self._stream is None:
            return
        self._stream.flush()
        if self._owns:
            self._stream.close()
            self._stream = None


@dataclass(slots=True)
class Request:
    """One parsed HTTP request: request line, headers, bounded body.

    ``error`` is ``(status, message)`` when the body could not be framed
    (see :func:`read_request`): answer it, never dispatch it.
    """

    method: str
    target: str
    version: str
    headers: dict
    body: bytes = b""
    error: tuple[int, str] | None = None

    @property
    def keep_alive(self) -> bool:
        """HTTP/1.1 defaults to keep-alive; ``Connection`` overrides."""
        if self.error is not None:
            return False
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"


async def read_request(
    reader: asyncio.StreamReader,
    timeout_s: float,
    max_body: int = DEFAULT_MAX_BODY,
) -> Request | None:
    """Parse one request; ``None`` on EOF, idle timeout or a garbled head.

    The body is framed by ``Content-Length`` alone.  Otherwise it is left
    unread and :attr:`Request.error` is set — ``413`` above ``max_body``,
    ``400`` for a length that is not plain digits, ``501`` for any
    ``Transfer-Encoding`` — and the caller answers and closes, so a
    refused body is never parsed as a second request.
    """
    try:
        line = await asyncio.wait_for(reader.readline(), timeout_s)
    except (asyncio.TimeoutError, ConnectionError):
        return None
    if not line or not line.strip():
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3:
        return None
    method, target, version = parts
    headers: dict[str, str] = {}
    for _ in range(100):
        try:
            raw = await asyncio.wait_for(reader.readline(), timeout_s)
        except (asyncio.TimeoutError, ConnectionError):
            return None
        if not raw or raw in (b"\r\n", b"\n"):
            break
        name, _, value = raw.decode("latin-1").partition(":")
        name, value = name.strip().lower(), value.strip()
        # A repeated field combines into one list value (RFC 9110 5.3),
        # so two disagreeing Content-Lengths fail the digit check below.
        headers[name] = f"{headers[name]}, {value}" if name in headers else value
    else:
        return None  # a head that never ends is garbage, not a request
    length = headers.get("content-length", "0")
    if "transfer-encoding" in headers:
        error = 501, "Transfer-Encoding is not supported; send a Content-Length body"
    elif not (length.isascii() and length.isdigit()):
        error = 400, f"invalid Content-Length {length!r}"
    elif int(length) > max_body:
        error = 413, f"request body of {int(length)} bytes exceeds the {max_body}-byte limit"
    else:
        try:
            body = await reader.readexactly(int(length))
        except (asyncio.IncompleteReadError, ConnectionError):
            return None
        return Request(method, target, version, headers, body)
    return Request(method, target, version, headers, error=error)


async def write_response(
    writer: asyncio.StreamWriter,
    status: int,
    body: bytes,
    server: str,
    content_type: str = "application/json",
    extra_headers: dict | None = None,
    keep_alive: bool = True,
    send_body: bool = True,
) -> None:
    """Write one framed HTTP/1.1 response (``send_body=False`` for HEAD)."""
    reason = REASONS.get(status, "Unknown")
    head = [
        f"HTTP/1.1 {status} {reason}",
        f"Server: {server}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        head.append(f"{name}: {value}")
    payload = ("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
    if send_body:
        payload += body
    writer.write(payload)
    await writer.drain()


class Response(NamedTuple):
    """One handler answer; ``source`` is its access-log provenance word."""

    status: int
    body: bytes
    content_type: str = "application/json"
    headers: dict | None = None
    source: str = "inline"


class LatencyHistogram:
    """Fixed-bucket request-latency histogram (cumulative ``le`` counts).

    Mutated only from the event loop, so it needs no lock; the bucket
    bounds are :data:`LATENCY_BUCKETS_MS` plus an implicit ``inf``.
    """

    def __init__(self, bounds_ms: tuple[float, ...] = LATENCY_BUCKETS_MS):
        self.bounds_ms = bounds_ms
        self._counts = [0] * (len(bounds_ms) + 1)
        self.count = 0
        self.sum_ms = 0.0

    def observe(self, duration_ms: float) -> None:
        """Record one request's wall-clock duration."""
        self.count += 1
        self.sum_ms += duration_ms
        # The first bucket whose bound is >= the duration; past the last: inf.
        self._counts[bisect.bisect_left(self.bounds_ms, duration_ms)] += 1

    def as_dict(self) -> dict:
        """JSON-able payload: cumulative ``le`` buckets, count, sum."""
        cumulative = list(itertools.accumulate(self._counts))
        buckets = {f"{bound:g}": n for bound, n in zip(self.bounds_ms, cumulative)}
        buckets["inf"] = cumulative[-1]
        return {
            "buckets_le_ms": buckets,
            "count": self.count,
            "sum_ms": round(self.sum_ms, 3),
        }


class HttpService:
    """The asyncio HTTP/1.1 server lifecycle both services run on.

    A service subclasses this, answers requests in :meth:`handle`, and
    may override the hooks.  The core owns bind, SIGTERM/SIGINT,
    the ``max_connections`` cap (503 + ``Retry-After``), the keep-alive
    loop, refusing requests that cannot be framed, the graceful stop
    (close idle connections, drain busy ones under ``drain_timeout_s``),
    the ``connections_*``, ``requests_total`` and ``errors_total``
    counters, the latency histogram, and one access-log record per
    request: ``ts client method path status bytes dur_ms source``.
    """

    def __init__(
        self,
        address: tuple[str, int],
        server_name: str,
        quiet: bool = False,
        access_log=None,
        max_connections: int = DEFAULT_MAX_CONNECTIONS,
        keepalive_timeout_s: float = DEFAULT_KEEPALIVE_TIMEOUT_S,
        drain_timeout_s: float = DEFAULT_DRAIN_TIMEOUT_S,
        max_body: int = DEFAULT_MAX_BODY,
    ):
        self.server_address: tuple[str, int] = address
        self.server_name = server_name
        self.quiet = quiet
        self.access_log = AccessLog(access_log)
        self.max_connections = int(max_connections)
        self.keepalive_timeout_s = float(keepalive_timeout_s)
        self.drain_timeout_s = float(drain_timeout_s)
        self.max_body = int(max_body)
        self.counters = dict.fromkeys(
            ("connections_rejected_total", "connections_total", "errors_total", "requests_total"), 0
        )
        self.latency = LatencyHistogram()
        #: Open connections: writer -> whether a request is in progress.
        self._conns: dict[asyncio.StreamWriter, bool] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._ready = threading.Event()
        self._done = threading.Event()

    async def handle(self, request: Request) -> Response:
        """Answer one request; an escaping exception is answered 500."""
        raise NotImplementedError

    async def on_start(self) -> None:
        """Prepare service state; runs on the loop before the bind."""

    def on_close(self) -> None:
        """Release service resources; runs however the service stops."""

    def banner(self) -> str:
        """The startup line, printed once bound unless ``quiet``."""
        return "serving on http://%s:%s" % self.server_address

    def stop_report(self) -> str:
        """The line(s) printed after a graceful stop unless ``quiet``."""
        return "shutting down"

    async def run_async(self, install_signal_handlers: bool = False) -> None:
        """Start, bind, and serve until :meth:`shutdown` (or a signal)."""
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        if install_signal_handlers:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    self._loop.add_signal_handler(signum, self._stop.set)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass
        try:
            await self.on_start()
            server = await asyncio.start_server(self._on_connect, *self.server_address)
            self.server_address = server.sockets[0].getsockname()[:2]
            if not self.quiet:
                print(self.banner(), flush=True)  # operators tail piped logs
            self._ready.set()
            await self._stop.wait()
            await self._drain(server)
            if not self.quiet:
                print(self.stop_report(), flush=True)
        finally:
            self.on_close()
            self.access_log.close()
            self._ready.set()
            self._done.set()

    async def _drain(self, server: asyncio.AbstractServer) -> None:
        """Stop accepting, drain busy connections, close every connection."""
        server.close()
        for writer in [w for w, busy in self._conns.items() if not busy]:
            writer.close()
        deadline = self._loop.time() + self.drain_timeout_s
        while any(self._conns.values()) and self._loop.time() < deadline:
            await asyncio.sleep(0.01)
        for writer in list(self._conns):
            writer.close()
        # Not before the closes: from Python 3.12 on, wait_closed() also
        # waits for open connections, idle keep-alive ones included.
        await server.wait_closed()
        await asyncio.sleep(0)  # one tick for handlers to unwind

    def shutdown(self, timeout: float | None = None) -> None:
        """Request a graceful stop from any thread; waits for the drain."""
        if self._loop is None or self._stop is None:
            return
        try:
            self._loop.call_soon_threadsafe(self._stop.set)
        except RuntimeError:  # loop already closed
            return
        self._done.wait(timeout if timeout is not None else self.drain_timeout_s + 10.0)

    def start_in_thread(self) -> threading.Thread:
        """Run the service on a daemon thread; returns once it is bound."""
        thread = threading.Thread(
            target=lambda: asyncio.run(self.run_async()), daemon=True, name=self.server_name
        )
        thread.start()
        self._ready.wait()
        return thread

    async def _on_connect(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.counters["connections_total"] += 1
        if len(self._conns) >= self.max_connections:
            self.counters["connections_rejected_total"] += 1
            body = error_bytes("connection limit reached")
            headers = {"Retry-After": "1"}
            try:
                await write_response(
                    writer, 503, body, self.server_name, extra_headers=headers, keep_alive=False
                )
            except ConnectionError:
                pass  # the client already gave up
            writer.close()
            return
        self._conns[writer] = False
        try:
            while not self._stop.is_set():
                request = await read_request(reader, self.keepalive_timeout_s, self.max_body)
                if request is None:
                    break
                self._conns[writer] = True
                try:
                    keep_alive = await self._exchange(request, writer)
                finally:
                    self._conns[writer] = False
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to answer
        finally:
            del self._conns[writer]
            try:
                writer.close()
            except RuntimeError:  # pragma: no cover - loop tear-down race
                pass

    async def _exchange(self, request: Request, writer: asyncio.StreamWriter) -> bool:
        """Answer one request, time it, and log it; returns keep-alive."""
        start = time.perf_counter()
        self.counters["requests_total"] += 1
        keep_alive = request.keep_alive and not self._stop.is_set()
        if request.error is not None:
            response = Response(request.error[0], error_bytes(request.error[1]))
        else:
            try:
                response = await self.handle(request)
            except Exception as exc:  # one bad request must not stop the service
                message = f"{type(exc).__name__}: {exc}"
                response = Response(500, error_bytes(message), source="error")
        if response.status >= 500:
            self.counters["errors_total"] += 1
        try:
            await write_response(
                writer,
                response.status,
                response.body,
                self.server_name,
                content_type=response.content_type,
                extra_headers=response.headers,
                keep_alive=keep_alive,
                send_body=request.method != "HEAD",
            )
        except ConnectionError:
            keep_alive = False
        duration_ms = (time.perf_counter() - start) * 1000.0
        self.latency.observe(duration_ms)
        if self.access_log.enabled:
            peer = writer.get_extra_info("peername")
            self.access_log.log(
                {
                    "ts": round(time.time(), 6),
                    "client": f"{peer[0]}:{peer[1]}" if peer else "?",
                    "method": request.method,
                    "path": request.target,
                    "status": response.status,
                    "bytes": len(response.body),
                    "dur_ms": round(duration_ms, 3),
                    "source": response.source,
                }
            )
        return keep_alive


__all__ = [
    "DEFAULT_DRAIN_TIMEOUT_S",
    "DEFAULT_KEEPALIVE_TIMEOUT_S",
    "DEFAULT_MAX_BODY",
    "DEFAULT_MAX_CONNECTIONS",
    "LATENCY_BUCKETS_MS",
    "REASONS",
    "AccessLog",
    "HttpService",
    "LatencyHistogram",
    "Request",
    "Response",
    "as_bool",
    "as_float",
    "as_int",
    "error_bytes",
    "etag_matches",
    "first_param",
    "json_bytes",
    "read_request",
    "strong_etag",
    "write_response",
]
