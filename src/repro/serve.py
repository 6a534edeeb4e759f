"""Async production serving plane for the characterization database.

``repro-undervolt serve`` exposes one
:class:`~repro.runtime.query.CharacterizationIndex` over HTTP.  The
server is a pure-stdlib :mod:`asyncio` service (no web framework, no new
dependencies) built so that the *server* — not the ~50 µs warm index —
is never the bottleneck, and so that overload degrades predictably
instead of queueing unboundedly:

========================  =====================================================
endpoint                  answers
========================  =====================================================
``/healthz``              liveness + library version + indexed-point count
``/stats``                the index's full counter set (points, payload
                          reads, coalescing, ``served_from_cache``,
                          journal summary)
``/metrics``              the *server's* counters, gauges and latency
                          histogram (see :data:`METRIC_COUNTER_NAMES`)
``/points``               one dataset's measured points
                          (``?benchmark=&board=&variant=&f_mhz=&temp=``), or —
                          with ``&v_mv=`` — one operating point
                          (``&mode=exact|nearest|interpolate``)
``/landmarks``            Vmin/Vcrash landmark rows per matching dataset
                          (all filters optional)
``/guardband``            per-board guardband maps (+ fleet worst case)
========================  =====================================================

Every request runs the pipeline **admission → coalesce → compute →
conditional response**:

1. **Admission control.**  Requests beyond ``max_inflight`` are shed
   immediately with ``503`` + ``Retry-After`` — overload never grows an
   unbounded queue (the core caps connections the same way).
   ``/healthz`` and ``/metrics`` are exempt, so probes stay live while
   the data plane sheds.
2. **Coalescing.**  Identical concurrent queries collapse through an
   :class:`AsyncDedupeMap` (the asyncio generalization of
   :class:`~repro.runtime.query.RequestCoalescer`): one leader computes,
   every concurrent duplicate awaits the same future and receives the
   same bytes.  With a ``coalesce_window_s`` hold, completed results
   additionally serve identical requests for a short window — classic
   request collapsing, safe because data-plane responses are pure
   functions of the index state (``/stats`` is never held).
3. **Compute off the loop.**  Handlers run on a bounded worker-thread
   pool sized from ``max_inflight``; the event loop only parses, routes,
   and writes.  At startup the index's landmark rows are precomputed
   (:meth:`~repro.runtime.query.CharacterizationIndex.precompute_landmarks`),
   so the hot queries never pay a cold memo in production.
4. **Conditional responses.**  Bodies are canonical JSON
   (:func:`repro.runtime.query.to_json`) — byte-identical for identical
   queries — which makes strong ``ETag`` s trivial: revalidation via
   ``If-None-Match`` answers ``304`` with an empty body.

The ``/metrics`` counter names are pinned by
:data:`METRIC_COUNTER_NAMES` (asserted by the tests so the CI bench
gates can never silently diverge from the server).  The connection cap,
keep-alive, access log, latency histogram and graceful SIGTERM/SIGINT
drain are the shared :class:`~repro.runtime.wire.HttpService` core.

Misses are 404s by default: a serving instance must never silently turn
a read into a multi-minute sweep.  Start the server with
``compute=True`` (CLI: ``--compute``) to allow clients to opt in per
request via ``&compute=1``; coalescing — here *and* in the index —
guarantees N concurrent requests for one missing sweep trigger exactly
one computation, which runs on the request's worker thread.
"""

from __future__ import annotations

import asyncio
import functools
from concurrent.futures import ThreadPoolExecutor
from urllib.parse import parse_qs, urlparse

from repro.core.experiment import ExperimentConfig
from repro.errors import CampaignError
from repro.runtime.query import CharacterizationIndex, to_json
from repro.runtime.wire import (
    DEFAULT_DRAIN_TIMEOUT_S,
    DEFAULT_KEEPALIVE_TIMEOUT_S,
    DEFAULT_MAX_CONNECTIONS,
    LATENCY_BUCKETS_MS,
    HttpService,
    Request,
    Response,
    as_bool,
    as_float,
    as_int,
    error_bytes,
    etag_matches,
    first_param,
    strong_etag,
)
from repro.version import __version__

#: Default bound on simultaneously in-flight data-plane requests.
DEFAULT_MAX_INFLIGHT = 64

#: Default hold (seconds) a completed response stays in the dedupe map.
#: ``0`` = pure single-flight (only concurrent duplicates collapse).
DEFAULT_COALESCE_WINDOW_S = 0.0

#: The ``/metrics`` counter names, pinned: the CI bench gates key off
#: these, and ``tests/test_serve.py`` asserts the endpoint serves exactly
#: this set, so server and gates cannot silently diverge.
METRIC_COUNTER_NAMES = (
    "coalesced_total",
    "computations_total",
    "connections_rejected_total",
    "connections_total",
    "dedupe_requests_total",
    "errors_total",
    "not_modified_total",
    "requests_total",
    "shed_total",
    "window_hits_total",
)

#: The ``/metrics`` gauge names (see :data:`METRIC_COUNTER_NAMES`).
METRIC_GAUGE_NAMES = (
    "connections_active",
    "in_flight",
    "in_flight_peak",
    "precomputed_landmarks",
)

#: Paths served inline on the event loop and exempt from admission
#: control: liveness and observability must answer while the data plane
#: sheds.  (``/healthz`` still computes off-loop; it is only *admission*
#: exempt.)
ADMISSION_EXEMPT_PATHS = frozenset({"/healthz", "/metrics"})

#: Data-plane paths whose completed responses may be held in the dedupe
#: window.  ``/stats`` is deliberately absent: its body embeds live
#: counters, and a held copy would serve stale observability.
WINDOW_CACHEABLE_PATHS = frozenset({"/points", "/landmarks", "/guardband"})

# ----------------------------------------------------------------------
# Endpoint handlers (run on worker threads, never on the event loop)
# ----------------------------------------------------------------------


def _compute_allowed(allow_compute: bool, params: dict) -> bool:
    """Whether this request may schedule computation on a miss."""
    wants = as_bool(first_param(params, "compute"))
    if wants and not allow_compute:
        raise PermissionError("read-through compute is disabled; start the server with --compute")
    return wants


def _ep_healthz(index: CharacterizationIndex, allow_compute: bool, params: dict) -> dict:
    """Liveness probe: version + how many points are indexed."""
    stats = index.stats()
    return {
        "status": "ok",
        "version": stats["version"],
        "points_indexed": stats["points"]["indexed"],
        "datasets": stats["datasets"],
    }


def _ep_stats(index: CharacterizationIndex, allow_compute: bool, params: dict) -> dict:
    """The index's full stats payload."""
    return index.stats()


def _ep_points(index: CharacterizationIndex, allow_compute: bool, params: dict) -> dict:
    """Dataset dump, or single-point lookup when ``v_mv`` is given."""
    benchmark = first_param(params, "benchmark")
    if benchmark is None:
        raise ValueError("query parameter 'benchmark' is required")
    common = dict(
        variant=first_param(params, "variant"),
        board=as_int(first_param(params, "board"), "board") or 0,
        f_mhz=as_float(first_param(params, "f_mhz"), "f_mhz"),
        t_setpoint_c=as_float(first_param(params, "temp"), "temp"),
    )
    v_mv = as_float(first_param(params, "v_mv"), "v_mv")
    if v_mv is None:
        return index.points(benchmark, **common)
    return index.point(
        benchmark,
        v_mv,
        mode=first_param(params, "mode") or "exact",
        compute=_compute_allowed(allow_compute, params),
        **common,
    )


def _ep_landmarks(index: CharacterizationIndex, allow_compute: bool, params: dict) -> dict:
    """Landmark rows for every dataset matching the filters."""
    return {
        "landmarks": index.landmarks(
            benchmark=first_param(params, "benchmark"),
            variant=first_param(params, "variant"),
            board=as_int(first_param(params, "board"), "board"),
            compute=_compute_allowed(allow_compute, params),
        )
    }


def _ep_guardband(index: CharacterizationIndex, allow_compute: bool, params: dict) -> dict:
    """Per-board guardband maps for the matching datasets."""
    return {
        "guardband": index.guardband(
            benchmark=first_param(params, "benchmark"),
            variant=first_param(params, "variant"),
        )
    }


_ROUTES = {
    "/healthz": _ep_healthz,
    "/stats": _ep_stats,
    "/points": _ep_points,
    "/landmarks": _ep_landmarks,
    "/guardband": _ep_guardband,
}


def answer_query(index: CharacterizationIndex, allow_compute: bool, path: str, params: dict):
    """One endpoint's payload (shared with CLI ``query``); a miss raises ``KeyError``."""
    if path not in _ROUTES:
        raise KeyError(f"unknown endpoint {path!r}")
    return _ROUTES[path](index, allow_compute, params)


def render_response(
    index: CharacterizationIndex, allow_compute: bool, path: str, params: dict
) -> tuple[int, bytes]:
    """Route one parsed request to the index; returns ``(status, body)``.

    Runs on a worker thread.  Expected errors are rendered here — as the
    same canonical-JSON error bodies the old threading server produced —
    so a coalesced failure is shared byte-identically by every waiter
    instead of escaping as an exception.
    """
    try:
        payload = answer_query(index, allow_compute, path, params)
        return 200, to_json(payload).encode("utf-8")
    except PermissionError as exc:
        return 403, to_json({"error": str(exc)}).encode("utf-8")
    except (KeyError, FileNotFoundError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        return 404, to_json({"error": str(message)}).encode("utf-8")
    except (ValueError, CampaignError) as exc:
        return 400, to_json({"error": str(exc)}).encode("utf-8")
    except Exception as exc:  # pragma: no cover - defensive 500
        return 500, to_json({"error": f"{type(exc).__name__}: {exc}"}).encode("utf-8")


# ----------------------------------------------------------------------
# Async request coalescing
# ----------------------------------------------------------------------


class AsyncDedupeMap:
    """Collapse identical concurrent requests into one computation.

    The asyncio generalization of
    :class:`~repro.runtime.query.RequestCoalescer`: the first caller for
    a key becomes the *leader* and schedules the computation on the
    worker pool; every concurrent caller for the same key awaits the
    same future and receives the same result (or the same exception).
    The computation is chained to the shared future — never to the
    leader's request task — so a client disconnect can orphan a request
    without orphaning its waiters.

    With ``hold_s > 0`` a *completed* entry stays in the map for that
    long, serving identical requests the finished bytes (a window hit)
    before eviction — bounded-staleness request collapsing for the
    read-mostly data plane.
    """

    def __init__(self):
        self._entries: dict[object, asyncio.Future] = {}
        self.computations = 0
        self.coalesced = 0
        self.window_hits = 0

    def __len__(self) -> int:
        return len(self._entries)

    def _evict(self, key: object, future: asyncio.Future) -> None:
        if self._entries.get(key) is future:
            del self._entries[key]

    async def run(self, key, call, executor, hold_s: float = 0.0) -> tuple[object, str]:
        """Run (or join) the computation for ``key``.

        Returns ``(value, source)`` where ``source`` is ``"computed"``
        for the leader, ``"coalesced"`` for a waiter that joined a live
        computation, and ``"window"`` for a hit on a held result.
        """
        loop = asyncio.get_running_loop()
        future = self._entries.get(key)
        if future is not None:
            if future.done():
                self.window_hits += 1
                source = "window"
            else:
                self.coalesced += 1
                source = "coalesced"
            return await asyncio.shield(future), source
        future = loop.create_future()
        self._entries[key] = future
        self.computations += 1
        work = loop.run_in_executor(executor, call)

        def _transfer(done: asyncio.Future) -> None:
            if not future.done():
                if done.cancelled():
                    future.cancel()
                elif done.exception() is not None:
                    future.set_exception(done.exception())
                else:
                    future.set_result(done.result())
            if hold_s > 0:
                loop.call_later(hold_s, self._evict, key, future)
            else:
                self._evict(key, future)

        work.add_done_callback(_transfer)
        return await asyncio.shield(future), "computed"


# ----------------------------------------------------------------------
# The server
# ----------------------------------------------------------------------


class AsyncCharacterizationServer(HttpService):
    """Asyncio HTTP/1.1 server over one characterization index.

    One instance owns the index, the bounded compute pool, the dedupe
    map and the ``/metrics`` payload, on the lifecycle of
    :class:`~repro.runtime.wire.HttpService`; stop it with ``shutdown()``
    then ``server_close()``.
    """

    def __init__(
        self,
        address: tuple[str, int],
        index: CharacterizationIndex,
        allow_compute: bool = False,
        quiet: bool = False,
        max_connections: int = DEFAULT_MAX_CONNECTIONS,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        coalesce_window_s: float = DEFAULT_COALESCE_WINDOW_S,
        drain_timeout_s: float = DEFAULT_DRAIN_TIMEOUT_S,
        keepalive_timeout_s: float = DEFAULT_KEEPALIVE_TIMEOUT_S,
        access_log=None,
        precompute: bool = True,
    ):
        super().__init__(
            address,
            server_name=f"repro-serve/{__version__}",
            quiet=quiet,
            access_log=access_log,
            max_connections=max_connections,
            keepalive_timeout_s=keepalive_timeout_s,
            drain_timeout_s=drain_timeout_s,
        )
        self.index = index
        self.allow_compute = allow_compute
        self.max_inflight = int(max_inflight)
        self.coalesce_window_s = float(coalesce_window_s)
        self.precompute = precompute
        self.dedupe = AsyncDedupeMap()
        self.counters.update(dict.fromkeys(METRIC_COUNTER_NAMES, 0))
        self._inflight = 0
        self._inflight_peak = 0
        self._precomputed = 0
        self._executor: ThreadPoolExecutor | None = None

    # ------------------------------------------------------------------
    # Lifecycle hooks
    # ------------------------------------------------------------------

    async def on_start(self) -> None:
        """Start the compute pool and precompute the landmark rows."""
        # Admission bounds concurrent data-plane requests at max_inflight;
        # the pool adds headroom so the admission-exempt endpoints always
        # find a worker, and caps total threads — beyond the cap, admitted
        # requests queue (bounded by admission, never by client count).
        workers = max(4, min(self.max_inflight, 32)) + 2
        self._executor = ThreadPoolExecutor(workers, thread_name_prefix="serve-compute")
        if self.precompute:
            self._precomputed = await asyncio.get_running_loop().run_in_executor(
                self._executor, self.index.precompute_landmarks
            )

    def on_close(self) -> None:
        """Stop the compute pool."""
        if self._executor is not None:
            self._executor.shutdown(wait=False)

    def banner(self) -> str:
        """The startup line (``benchmarks/e2e/run.py`` parses its address)."""
        stats = self.index.stats()
        host, port = self.server_address
        return (
            f"serving characterization index of {self.index.cache_dir} "
            f"({stats['points']['indexed']} points, {stats['datasets']} datasets) "
            f"on http://{host}:{port} "
            f"(compute={'on' if self.allow_compute else 'off'}, "
            f"max-inflight={self.max_inflight}, "
            f"precomputed {self._precomputed} landmark rows)"
        )

    def stop_report(self) -> str:
        """The line printed after a graceful stop."""
        return "shutting down: drained in-flight requests, access log flushed"

    def server_close(self) -> None:
        """Close the index (it holds nothing to release; idempotent)."""
        self.index.close()

    # ------------------------------------------------------------------
    # Request pipeline: admission -> coalesce -> compute -> conditional
    # ------------------------------------------------------------------

    async def handle(self, request: Request) -> Response:
        """Run one request through the pipeline."""
        url = urlparse(request.target)
        path = url.path
        if request.method not in ("GET", "HEAD"):
            error = error_bytes(f"method {request.method} not allowed")
            return Response(405, error, headers={"Allow": "GET, HEAD"})
        exempt = path in ADMISSION_EXEMPT_PATHS
        if not exempt and self._inflight >= self.max_inflight:
            self.counters["shed_total"] += 1
            error = error_bytes("server at max in-flight requests; retry")
            return Response(503, error, headers={"Retry-After": "1"}, source="shed")
        if not exempt:
            self._inflight += 1
            self._inflight_peak = max(self._inflight_peak, self._inflight)
        try:
            status, body, source = await self._respond(path, url.query)
        finally:
            if not exempt:
                self._inflight -= 1
        headers = {}
        if status == 200:
            etag = strong_etag(body)
            headers["ETag"] = etag
            headers["Cache-Control"] = "no-cache"
            if etag_matches(request.headers.get("if-none-match"), etag):
                self.counters["not_modified_total"] += 1
                status, body = 304, b""
        return Response(status, body, headers=headers, source=source)

    async def _respond(self, path: str, query: str) -> tuple[int, bytes, str]:
        """Produce ``(status, body, source)`` for one admitted request."""
        if path == "/metrics":
            return 200, to_json(self.metrics()).encode("utf-8"), "inline"
        params = parse_qs(query)
        call = functools.partial(render_response, self.index, self.allow_compute, path, params)
        if path in ADMISSION_EXEMPT_PATHS:
            # Liveness must never collapse onto (or wait behind) a held
            # data-plane entry; it still computes off-loop.
            loop = asyncio.get_running_loop()
            status, body = await loop.run_in_executor(self._executor, call)
            return status, body, "inline"
        key = (path, tuple(sorted((k, tuple(v)) for k, v in params.items())))
        hold_s = self.coalesce_window_s if path in WINDOW_CACHEABLE_PATHS else 0.0
        self.counters["dedupe_requests_total"] += 1
        (status, body), source = await self.dedupe.run(key, call, self._executor, hold_s=hold_s)
        self.counters["computations_total"] = self.dedupe.computations
        self.counters["coalesced_total"] = self.dedupe.coalesced
        self.counters["window_hits_total"] = self.dedupe.window_hits
        return status, body, source

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def metrics(self) -> dict:
        """The ``/metrics`` payload: counters, gauges, latency histogram.

        Counter names are exactly :data:`METRIC_COUNTER_NAMES` and gauge
        names exactly :data:`METRIC_GAUGE_NAMES` — pinned by the tests,
        keyed on by the CI bench gates.
        """
        return {
            "counters": {name: self.counters[name] for name in METRIC_COUNTER_NAMES},
            "gauges": {
                "connections_active": len(self._conns),
                "in_flight": self._inflight,
                "in_flight_peak": self._inflight_peak,
                "precomputed_landmarks": self._precomputed,
            },
            "latency_ms": self.latency.as_dict(),
        }


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def make_server(
    cache_dir: str,
    host: str = "127.0.0.1",
    port: int = 8080,
    config: ExperimentConfig | None = None,
    allow_compute: bool = False,
    quiet: bool = False,
    **server_kwargs,
) -> AsyncCharacterizationServer:
    """Build a ready-to-run async server over one cache directory.

    ``port=0`` binds an ephemeral port (the tests' pattern); read the
    bound address back from ``server.server_address`` once the server is
    running.  Extra keyword arguments (``max_inflight``,
    ``max_connections``, ``coalesce_window_s``, ``access_log``,
    ``drain_timeout_s``, ``precompute``) pass through to
    :class:`AsyncCharacterizationServer`.
    """
    index = CharacterizationIndex(cache_dir, config=config)
    return AsyncCharacterizationServer(
        (host, port), index, allow_compute=allow_compute, quiet=quiet, **server_kwargs
    )


def serve(cache_dir: str, **kwargs) -> int:
    """Blocking entry point behind ``repro-undervolt serve``.

    Takes :func:`make_server`'s arguments.  Installs SIGTERM/SIGINT
    handlers: either signal stops accepting, drains in-flight requests
    under the drain deadline, flushes the access log, and returns 0.
    """
    server = make_server(cache_dir, **kwargs)
    try:
        asyncio.run(server.run_async(install_signal_handlers=True))
    except KeyboardInterrupt:  # pragma: no cover - non-POSIX fallback
        print("shutting down")
    finally:
        server.server_close()
    return 0


__all__ = [
    "ADMISSION_EXEMPT_PATHS",
    "AsyncCharacterizationServer",
    "AsyncDedupeMap",
    "DEFAULT_COALESCE_WINDOW_S",
    "DEFAULT_DRAIN_TIMEOUT_S",
    "DEFAULT_MAX_CONNECTIONS",
    "DEFAULT_MAX_INFLIGHT",
    "LATENCY_BUCKETS_MS",
    "METRIC_COUNTER_NAMES",
    "METRIC_GAUGE_NAMES",
    "WINDOW_CACHEABLE_PATHS",
    "answer_query",
    "etag_matches",
    "make_server",
    "render_response",
    "serve",
    "strong_etag",
]
