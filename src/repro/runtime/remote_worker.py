"""Remote campaign worker: lease, sync, execute locally, post back.

The worker half of the distributed campaign fabric
(:mod:`repro.runtime.coordinator`).  A worker process is deliberately
dumb and stateless: it knows a coordinator URL and a local cache
directory, nothing about the campaign.  How it executes is its own
choice (``jobs``, its host's worker count); the lease says only what to
compute.  Each cycle it

1. **leases** one work unit from ``POST /lease`` — the response carries
   the unit, the campaign's :class:`~repro.core.experiment.ExperimentConfig`
   on the wire, and the coordinator's library version (a mismatch
   aborts: fingerprints embed the version, so skewed workers could only
   produce rejected results; a lease that still carries an execution
   plan comes from an older coordinator and aborts too);
2. **syncs** any model-plane blobs it is missing from ``GET /blobs``
   into its local :class:`~repro.runtime.blobs.BlobStore` (which refuses
   a name that could leave the store), so cold workers load spilled
   models instead of rebuilding them;
3. **executes** the unit as a one-unit campaign on its local runtime —
   :func:`~repro.runtime.campaign.run_campaign` for an experiment,
   :func:`~repro.runtime.campaign.run_sweep_campaign` for a board sweep,
   both on the worker's one :class:`~repro.runtime.fabric.WorkerFabric`
   — so it shards, caches and writes the same local point store exactly
   as a single-host campaign does (every lease executes: a result hit
   cannot name the unit's points, so the worker drops its local result
   entry first, and points already stored replay); and
4. **posts** the result plus the raw text of exactly the point entries
   the unit touched (:attr:`~repro.runtime.campaign.CampaignEntry.points`)
   to ``POST /complete`` for the coordinator to merge.

The transport assumes faults (:mod:`repro.runtime.resilience`): every
request to the coordinator retries through one loop
(:func:`~repro.runtime.resilience.call_with_retries`) that backs off
exponentially with deterministic per-worker jitter, a usable server
``Retry-After`` always wins, and a
:class:`~repro.runtime.resilience.LeaseHeartbeat` renews the lease while
a unit executes so slow units are not re-leased out from under the
worker.  Failures split into two kinds: :class:`CoordinatorUnreachable`
(connection-level — refused, reset, timed out) and
:class:`TransientProtocolError` (the coordinator answered, but badly:
5xx, truncated body, malformed JSON).  Both retry; only one request
failing for the whole ``retry_budget_s`` stops the worker.

A unit whose *execution* raises is reported to ``POST /fail`` with the
traceback — the coordinator counts strikes and quarantines repeat
offenders — and the worker moves on to the next lease rather than dying.

Determinism does the heavy lifting: because every unit is a pure
function of ``(unit_id, config, version)``, the coordinator can re-lease
a unit whose worker died, accept whichever completion lands first, and
still end up with stores byte-identical to a single-host serial run.
That same determinism is why retrying ``/complete`` and ``/fail`` is
safe: a re-post lands as a duplicate (or a stale lease) and changes
nothing; a retried ``/lease`` at worst leaves one lease to lapse.

A worker exits cleanly when the coordinator answers ``done``, when it
reaches ``max_units`` (the tests' stand-in for a worker dying between
units), or when the coordinator stays unreachable past ``retry_budget_s``
(a drained coordinator shuts down, so "connection refused" after
completed work usually *is* the success path).
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import time
import traceback
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ReproError
from repro.runtime.blobs import BlobStore, check_blob_name
from repro.runtime.cache import ResultCache, result_to_payload
from repro.runtime.campaign import run_campaign, run_sweep_campaign
from repro.runtime.hashing import current_version
from repro.runtime.plan import ExecutionPlan, config_from_wire
from repro.runtime.points import PointCache
from repro.runtime.resilience import (
    DEFAULT_RETRY_BUDGET_S,
    LeaseHeartbeat,
    RetryPolicy,
    call_with_retries,
)
from repro.runtime.wire import as_seconds


class WorkerError(RuntimeError):
    """A worker-fatal protocol problem (version skew, malformed lease)."""


class CoordinatorUnreachable(ConnectionError):
    """The coordinator did not answer at all: refused, reset, timed out.

    Retryable; a worker gives up only after one request has kept
    failing for ``retry_budget_s`` (counted from its first attempt).
    """


class TransientProtocolError(RuntimeError):
    """The coordinator answered, but unusably: 5xx, truncated, bad JSON.

    Retryable.  ``retry_after_s`` carries the response's ``Retry-After``
    header when the server sent one, and overrides the retry policy's
    backoff (:func:`repro.runtime.resilience.call_with_retries` honors
    the attribute by name).
    """

    def __init__(self, message: str, retry_after_s: float | None = None):
        super().__init__(message)
        self.retry_after_s = retry_after_s


#: Exceptions the worker's request paths retry: the two transport
#: failures, and nothing else.
RETRYABLE = (CoordinatorUnreachable, TransientProtocolError)


class CoordinatorClient:
    """Blocking HTTP client for the coordinator's JSON protocol.

    Failures are classified into :class:`CoordinatorUnreachable`
    (nothing answered) and :class:`TransientProtocolError` (a bad
    answer); 4xx responses are returned to the caller as bodies — they
    are the coordinator *speaking*, e.g. the 409 fingerprint rejection
    the worker must surface, not a transport fault.
    """

    def __init__(self, base_url: str, timeout_s: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout_s = float(timeout_s)

    def _request(self, method: str, path: str, payload: dict | None = None) -> bytes:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(
            self.base_url + path,
            data=body,
            method=method,
            headers={"Content-Type": "application/json"} if body else {},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout_s) as response:
                data = response.read()
        except urllib.error.HTTPError as exc:
            data = exc.read()
            if exc.code >= 500:
                raise TransientProtocolError(
                    f"{method} {path} answered {exc.code}",
                    retry_after_s=as_seconds((exc.headers or {}).get("Retry-After")),
                ) from None
            # 4xx is the coordinator answering deliberately (409
            # fingerprint rejection, 400 bad request): hand the body up.
            return data
        except http.client.HTTPException as exc:
            # Truncated or mangled response: the connection worked, the
            # bytes did not (IncompleteRead, BadStatusLine, ...).
            raise TransientProtocolError(
                f"{method} {path} returned a broken response: {type(exc).__name__}"
            ) from None
        except (urllib.error.URLError, ConnectionError, TimeoutError, OSError) as exc:
            reason = getattr(exc, "reason", exc)
            raise CoordinatorUnreachable(f"{method} {path} unreachable: {reason}") from None
        return data

    def _json(self, method: str, path: str, payload: dict | None = None) -> dict:
        data = self._request(method, path, payload)
        try:
            decoded = json.loads(data.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            # A truncated body can still satisfy Content-Length checks at
            # the socket layer; malformed JSON is the protocol-level tell.
            raise TransientProtocolError(f"{method} {path} returned malformed JSON") from None
        if not isinstance(decoded, dict):
            raise TransientProtocolError(f"{method} {path} returned a non-object body")
        return decoded

    def healthz(self) -> dict:
        """``GET /healthz``."""
        return self._json("GET", "/healthz")

    def lease(self, worker: str) -> dict:
        """``POST /lease`` for one unit of work."""
        return self._json("POST", "/lease", {"worker": worker})

    def renew(self, unit_id: str, lease_id: str) -> dict:
        """``POST /renew`` — the lease heartbeat."""
        return self._json("POST", "/renew", {"unit_id": unit_id, "lease_id": lease_id})

    def fail(self, unit_id: str, lease_id: str, error: str) -> dict:
        """``POST /fail`` — report one unit's execution failure."""
        return self._json(
            "POST", "/fail", {"unit_id": unit_id, "lease_id": lease_id, "error": error}
        )

    def complete(self, payload: dict) -> dict:
        """``POST /complete`` with one finished unit."""
        return self._json("POST", "/complete", payload)

    def list_blobs(self) -> list[str]:
        """Names in the coordinator's model plane."""
        return list(self._json("GET", "/blobs").get("blobs", []))

    def fetch_blob(self, name: str) -> bytes:
        """One blob's raw bytes."""
        return self._request("GET", "/blobs/" + name)


@dataclass
class WorkerStats:
    """What one :func:`run_worker` invocation did, for logs and tests."""

    worker_id: str
    units_completed: int = 0
    units_duplicate: int = 0
    #: Units whose execution raised (reported to ``/fail``).
    units_failed: int = 0
    #: Completions the coordinator refused because the unit quarantined.
    units_quarantined: int = 0
    blobs_synced: int = 0
    #: Retries across every request to the coordinator (unreachable or
    #: transient) plus ``wait`` answers slept through.
    retries: int = 0
    #: Successful lease-heartbeat renewals.
    lease_renewals: int = 0
    wall_s: float = 0.0
    #: ``drained`` | ``max-units`` | ``unreachable``
    stopped: str = "drained"
    unit_ids: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        """JSON-able summary (the CLI prints this)."""
        return {
            "worker_id": self.worker_id,
            "units_completed": self.units_completed,
            "units_duplicate": self.units_duplicate,
            "units_failed": self.units_failed,
            "units_quarantined": self.units_quarantined,
            "blobs_synced": self.blobs_synced,
            "retries": self.retries,
            "lease_renewals": self.lease_renewals,
            "wall_s": round(self.wall_s, 6),
            "stopped": self.stopped,
            "unit_ids": list(self.unit_ids),
        }


def sync_blobs(client: CoordinatorClient, blob_root: Path) -> int:
    """Pull every coordinator blob this store is missing; returns count.

    Pull-only and name-addressed: blobs are content-addressed upstream,
    so an existing local file is always already correct and never
    re-fetched.  A listed name the blob store refuses (traversal, an
    absolute path) raises :class:`WorkerError` before anything is fetched.
    """
    store = BlobStore(blob_root)
    local = set(store.names())
    try:
        missing = [check_blob_name(name) for name in client.list_blobs() if name not in local]
    except ValueError as exc:
        raise WorkerError(f"coordinator listed an {exc}") from None
    return sum(store.write_raw(name, client.fetch_blob(name)) for name in missing)


def run_worker(
    connect: str,
    cache_dir,
    jobs: int | str = 1,
    worker_id: str | None = None,
    max_units: int | None = None,
    retry_budget_s: float = DEFAULT_RETRY_BUDGET_S,
    retry_policy: RetryPolicy | None = None,
    timeout_s: float = 30.0,
    client: CoordinatorClient | None = None,
    quiet: bool = True,
    sleep=time.sleep,
) -> WorkerStats:
    """Drain work from a coordinator until it says ``done``.

    ``jobs`` is this host's worker count for every leased unit (an int,
    or ``"auto"`` for this host's CPUs); the lease says only what to
    compute.  ``max_units`` stops after N completions — the tests'
    deterministic stand-in for a worker that dies mid-campaign.

    Every request to the coordinator retries under ``retry_policy``
    (capped exponential backoff, deterministic jitter keyed by
    ``worker_id``, ``Retry-After`` honored), and each retry counts in
    :attr:`WorkerStats.retries`; the worker gives up with ``stopped =
    "unreachable"`` once one request has failed for ``retry_budget_s``
    (a drained coordinator exits first, so late workers routinely see
    this).  A unit whose execution raises is reported to ``/fail`` and
    the worker moves on; a lease heartbeat renews long-running units so
    their leases never lapse mid-execution.
    """
    from repro.runtime.fabric import WorkerFabric

    plan = ExecutionPlan(jobs=jobs)
    client = client or CoordinatorClient(connect, timeout_s=timeout_s)
    worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
    policy = (retry_policy or RetryPolicy()).named(f"worker/{worker_id}")
    cache = ResultCache(cache_dir)
    points = PointCache(cache.point_root)
    stats = WorkerStats(worker_id=worker_id)
    started = time.perf_counter()
    wait_attempt = 0
    # One fabric for the worker's life; it spawns no pool until a unit
    # dispatches a task.
    fabric = (
        WorkerFabric(plan.jobs, blob_root=str(cache.blob_root))
        if plan.resolved_jobs() > 1
        else None
    )

    def _retry_sleep(delay: float) -> None:
        stats.retries += 1
        sleep(delay)

    def _post(fn, name: str):
        """One coordinator request, retried until success or the retry budget."""
        return call_with_retries(
            fn,
            policy.named(f"worker/{worker_id}/{name}"),
            retryable=RETRYABLE,
            budget_s=retry_budget_s,
            sleep=_retry_sleep,
        )

    try:
        while max_units is None or stats.units_completed < max_units:
            response = _post(lambda: client.lease(worker_id), "lease")
            status = response.get("status")
            if status == "done":
                stats.stopped = "drained"
                break
            if status == "wait":
                stats.retries += 1
                retry_after_s = as_seconds(response.get("retry_after_s"))
                sleep(policy.delay(wait_attempt, retry_after_s))
                wait_attempt += 1
                continue
            wait_attempt = 0
            if status != "lease":
                raise WorkerError(f"unexpected lease response: {response!r}")
            if response.get("version") != current_version():
                raise WorkerError(
                    f"version skew: coordinator runs {response.get('version')!r}, "
                    f"worker runs {current_version()!r}; results would be rejected"
                )
            try:
                unit = response["unit"]
                unit_id = unit["unit_id"]
                fingerprint = unit["fingerprint"]
                lease_id = response["lease_id"]
                config = config_from_wire(response["config"])
                ttl_s = as_seconds(response.get("ttl_s", 60.0))
                if not ttl_s:
                    raise ValueError(f"ttl_s {response['ttl_s']!r} is not a finite number > 0")
            except (KeyError, TypeError, ValueError, ReproError) as exc:
                raise WorkerError(f"malformed lease: {type(exc).__name__}: {exc}") from exc
            if "plan" in response:
                raise WorkerError(
                    "lease carries an execution plan, so the coordinator runs an older "
                    "release; upgrade it (each worker's --jobs sets how it runs)"
                )

            # A local result hit cannot name the points the unit needs, so
            # every lease executes; its points replay from the local store.
            cache.invalidate(fingerprint)
            # Blob sync is pull-only and skips existing files, so retrying
            # the whole pass after a mid-sync fault is safe.
            stats.blobs_synced += _post(lambda: sync_blobs(client, cache.blob_root), "blobs")
            heartbeat = LeaseHeartbeat(
                lambda: client.renew(unit_id, lease_id).get("status") == "renewed",
                ttl_s=ttl_s,
            )
            try:
                with heartbeat:
                    if unit["kind"] == "sweep":
                        outcome = run_sweep_campaign(
                            unit["benchmark"],
                            [unit["board"]],
                            config,
                            plan,
                            cache=cache,
                            fabric=fabric,
                        )
                    elif unit["kind"] == "experiment":
                        outcome = run_campaign(
                            [unit["experiment_id"]], config, plan, cache=cache, fabric=fabric
                        )
                    else:
                        raise WorkerError(f"unknown unit kind {unit.get('kind')!r}")
            except WorkerError:
                raise
            except Exception:
                stats.units_failed += 1
                error = traceback.format_exc()
                if not quiet:
                    print(f"[{worker_id}] {unit_id}: execution failed, reporting", flush=True)
                try:
                    # Safe to retry: a /fail re-post lands on an
                    # already-released lease and answers "stale".
                    _post(lambda: client.fail(unit_id, lease_id, error), "fail")
                except RETRYABLE:
                    pass  # the lease TTL lapses and strikes for us
                continue
            finally:
                stats.lease_renewals += heartbeat.renewals
            (entry,) = outcome.entries

            verdict = _post(
                lambda: client.complete(
                    {
                        "lease_id": lease_id,
                        "unit_id": unit_id,
                        "fingerprint": fingerprint,
                        "wall_s": entry.wall_s,
                        "result": result_to_payload(entry.result),
                        "points": points.texts(entry.points),
                    }
                ),
                "complete",
            )
            if verdict.get("status") == "accepted":
                stats.units_completed += 1
                stats.unit_ids.append(unit_id)
            elif verdict.get("status") == "duplicate":
                stats.units_duplicate += 1
                stats.units_completed += 1
                stats.unit_ids.append(unit_id)
            elif verdict.get("status") == "quarantined":
                # The unit struck out while we computed it; the campaign
                # already gave up on it.  Nothing to merge, move on.
                stats.units_quarantined += 1
            else:
                raise WorkerError(f"coordinator rejected {unit_id!r}: {verdict!r}")
            if not quiet:
                print(
                    f"[{worker_id}] {unit_id}: {verdict.get('status')} ({entry.wall_s:.2f}s)",
                    flush=True,
                )
        else:
            stats.stopped = "max-units"
    except RETRYABLE:
        # One request failed for the whole retry budget.  A finished
        # unit's points are safe in the local store; if the campaign still
        # needs the unit, it re-leases and replays them.
        stats.stopped = "unreachable"
    finally:
        if fabric is not None:
            fabric.close()
        stats.wall_s = time.perf_counter() - started
    return stats


__all__ = [
    "RETRYABLE",
    "CoordinatorClient",
    "CoordinatorUnreachable",
    "TransientProtocolError",
    "WorkerError",
    "WorkerStats",
    "run_worker",
    "sync_blobs",
]
