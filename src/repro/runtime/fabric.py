"""WorkerFabric: a persistent, leasable process pool with warm workers.

The historical executor built a fresh ``ProcessPoolExecutor`` inside
every ``run_tasks`` call and sized it ``min(jobs, len(tasks))`` — fine
for one big fan-out, pathological for campaign shapes that dispatch many
*small* rounds: the adaptive sweep strategy's bisection probes, the
characterization service's read-through point computes, a report's
successive campaigns.  Every round re-paid pool spawn, and every worker
died with its warm state (memoized workloads, captured clean passes)
before the next round could reuse it.

:class:`WorkerFabric` inverts that: **one pool, leased for the lifetime
of a campaign or sweep**, shared by every ``run_tasks`` round the
campaign dispatches.  Worker processes persist across rounds, so their
per-process caches stay warm:

* workload construction is memoized per process
  (:mod:`repro.models.zoo`), and with a model plane attached
  (:mod:`repro.runtime.blobs`) a cold worker loads spilled models
  memory-mapped instead of rebuilding them;
* clean-pass activations are cached at process scope
  (:func:`repro.nn.differential.fabric_clean_pass_cache`), so every
  voltage point of a sweep reuses one voltage-independent capture.

The fabric is an acceleration, never a semantic: tasks are pure
functions of their arguments, results are returned in input order, and
a leased pool produces bit-identical outcomes to the serial path.  If
the pool dies (``BrokenProcessPool``) the executor replays
only the unfinished tasks serially and the fabric discards the pool —
its warm caches die with the worker processes — respawning a fresh one
for the next round.

Use it as a context manager::

    plan = ExecutionPlan(jobs=8)
    with WorkerFabric(jobs=8, blob_root=cache.blob_root) as fabric:
        run_campaign(ids, config, plan, cache=cache)   # leased pool
        run_sweep_campaign("vggnet", boards, config, plan, cache=cache)

Entering the context also *activates* the fabric
(:func:`active_fabric`), so nested campaign calls (``run_campaign``,
``run_sweep_campaign``, ``run_fleet_campaign``) adopt the leased pool
without explicit plumbing — several campaigns then share one pool.
Without a lease each campaign with ``jobs > 1`` owns one fabric for its
lifetime.  Both choices are made in one place, the campaign runner
(:mod:`repro.runtime.campaign`), which passes the resolved fabric down;
:func:`~repro.runtime.executor.run_tasks` runs on exactly the fabric it
is given, or serially.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor
from contextvars import ContextVar


def _bind_worker_plane(blob_root: str | None) -> None:
    """Worker initializer: attach the model plane for the process's life.

    Runs once per spawned worker.  Tasks that carry their own plane root
    (``run_unit``'s ``blob_root`` argument) rebind per task; this default
    covers everything else dispatched through the fabric.
    """
    from repro.runtime.blobs import bind_default_plane

    bind_default_plane(blob_root)


def resolve_jobs(jobs) -> int:
    """Normalize a jobs request: ``"auto"`` means one worker per CPU.

    "Per CPU" respects the container's allowance: under a CPU-limited
    cgroup/affinity mask ``os.cpu_count()`` still reports the whole
    machine, so ``"auto"`` prefers the *schedulable* CPU set
    (``os.sched_getaffinity``) and only falls back to the raw count on
    platforms without affinity support.
    """
    if jobs == "auto":
        try:
            return len(os.sched_getaffinity(0)) or 1
        except (AttributeError, OSError):  # pragma: no cover - non-Linux
            return os.cpu_count() or 1
    return max(1, int(jobs))


class WorkerFabric:
    """One process pool leased across every round of a campaign/sweep."""

    def __init__(self, jobs: int | str, blob_root=None):
        self.jobs = resolve_jobs(jobs)
        self.blob_root = None if blob_root is None else str(blob_root)
        self._pool: ProcessPoolExecutor | None = None
        self._unavailable = False
        self._closed = False
        self._scope_token = None
        #: Guards pool spawn/discard: concurrent rounds (threaded sweep
        #: drivers, the query service's parallel misses) share one pool.
        self._pool_lock = threading.Lock()
        #: Lifetime counters (the satellite regression tests assert on
        #: ``pools_spawned``: one pool per campaign, not one per round).
        self.pools_spawned = 0
        self.broken_pools = 0
        self.tasks_dispatched = 0

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------

    def acquire_pool(self) -> ProcessPoolExecutor | None:
        """The leased pool, spawning it on first use; ``None`` = serial.

        ``None`` means this fabric cannot provide parallelism — one job,
        a closed fabric, or a platform that refuses process pools — and
        the executor should take its serial path.  The decision is
        sticky for platform refusals so each round does not re-pay a
        doomed spawn attempt.
        """
        if self.jobs <= 1 or self._closed or self._unavailable:
            return None
        with self._pool_lock:
            if self._closed or self._unavailable:
                return None
            if self._pool is None:
                try:
                    self._pool = ProcessPoolExecutor(
                        max_workers=self.jobs,
                        initializer=_bind_worker_plane,
                        initargs=(self.blob_root,),
                    )
                except (OSError, PermissionError, NotImplementedError, ValueError):
                    self._unavailable = True
                    return None
                self.pools_spawned += 1
            return self._pool

    def note_dispatched(self, n: int) -> None:
        """Count dispatched tasks (thread-safe; concurrent rounds add up)."""
        with self._pool_lock:
            self.tasks_dispatched += n

    def discard_pool(self) -> None:
        """Drop a broken pool (its workers' warm caches die with it)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
            self.broken_pools += 1
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Shut the leased pool down; the fabric cannot be reused after."""
        with self._pool_lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    # ------------------------------------------------------------------
    # Lease scope
    # ------------------------------------------------------------------

    def __enter__(self) -> "WorkerFabric":
        if self._scope_token is not None:
            raise RuntimeError("WorkerFabric scope is not reentrant")
        self._scope_token = _ACTIVE_FABRIC.set(self)
        return self

    def __exit__(self, *exc) -> None:
        _ACTIVE_FABRIC.reset(self._scope_token)
        self._scope_token = None
        self.close()


_ACTIVE_FABRIC: ContextVar[WorkerFabric | None] = ContextVar("repro_fabric", default=None)


def active_fabric() -> WorkerFabric | None:
    """The fabric leased to the current scope, if any."""
    return _ACTIVE_FABRIC.get()

