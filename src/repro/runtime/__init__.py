"""Parallel campaign runtime with content-addressed result caching.

The paper's methodology is a large repeated-sweep campaign: every headline
number is an average over 10 fault-realization experiments per operating
point, across five benchmarks and three board samples.  Serially that is
minutes of simulator time per report; this package turns it into an
embarrassingly parallel, cache-friendly workload:

* :mod:`repro.runtime.hashing` — stable fingerprints of
  ``(experiment_id, config, version)`` and of individual sweep voltage
  points; the cache keys and the provenance stamps EXPERIMENTS.md records.
* :mod:`repro.runtime.cache` — an on-disk JSON store of experiment
  results, corruption-tolerant and auditable by hand.
* :mod:`repro.runtime.points` — the per-voltage-point result store: the
  sweep's atomic unit of caching, shared across strategies and step
  sizes, and the durability layer interrupted sweeps resume from.
* :mod:`repro.runtime.journal` — the campaign journal recording planned
  and completed work units for ``campaign --resume``.
* :mod:`repro.runtime.shards` — work-unit planning against the shard
  metadata experiments register (per-benchmark, per-(benchmark, board)).
* :mod:`repro.runtime.blobs` — the content-addressed model plane:
  weight/dataset arrays spilled once as memory-mapped ``.npy`` blobs,
  so tasks ship keys instead of pickled arrays and cold workers load
  models instead of rebuilding them.
* :mod:`repro.runtime.fabric` — :class:`WorkerFabric`, the persistent
  process pool leased for a campaign's lifetime: worker warm state
  (memoized models, clean passes, the model plane) survives across
  every ``run_tasks`` round instead of dying with a per-call pool.
* :mod:`repro.runtime.executor` — fabric-aware fan-out with chunked
  submission, a deterministic in-process serial path, automatic
  fallback, and per-task completion hooks (units finalize as they
  land).
* :mod:`repro.runtime.campaign` — the orchestrator gluing the above
  together, plus the named campaign sets the CLI exposes.
* :mod:`repro.runtime.plan` — :class:`ExecutionPlan`, the one frozen,
  wire-serializable description of *how* a campaign executes (jobs and
  sweep dispatch); execution knobs never move fingerprints.
* :mod:`repro.runtime.wire` — the shared HTTP dialect (canonical-JSON
  bodies, strong ETags, structured access logs, request framing) both
  asyncio services speak.
* :mod:`repro.runtime.coordinator` / :mod:`repro.runtime.remote_worker`
  — the distributed campaign fabric: an HTTP work-lease coordinator
  serving unfinished units to blob-syncing remote workers, which run
  each leased unit as a one-unit campaign, with lease expiry and
  re-lease so dead workers degrade to "that unit runs elsewhere";
  merged stores are byte-identical to a single-host run.
* :mod:`repro.runtime.resilience` — the transport's fault-tolerance
  primitives: :class:`RetryPolicy` (capped exponential backoff with
  deterministic named-RNG jitter), per-endpoint circuit breakers, and
  the lease-renewal heartbeat; every clock and sleep is injected.
* :mod:`repro.runtime.chaos` — the deterministic fault injector: a
  seeded TCP proxy (resets, delays, truncations, 5xx bursts on a
  reproducible schedule) and the poison-unit hook, proving the
  resilience layer against known fault sequences in CI's chaos smoke.
* :mod:`repro.runtime.supervisor` — ``repro-undervolt workers``: spawn
  and supervise N local worker processes, restarting crashed ones with
  backoff, bounded per slot.
* :mod:`repro.runtime.query` — the serving side: a read-through
  characterization index over the point store (exact/nearest/interpolated
  point lookup, Vmin/Vcrash landmarks, guardband maps) answered from
  parsed payloads held in memory, with request-coalesced miss
  computation; the engine behind
  ``repro-undervolt query``/``serve`` (public facade: :mod:`repro.query`).

Determinism contract: at a fixed seed,
``run_campaign(..., plan=ExecutionPlan(jobs=N))`` is bit-identical to
``jobs=1``, which is itself bit-identical to calling the
runners directly — parallelism, caching (experiment- and point-level),
and resuming are pure accelerations.
"""

from repro.runtime.blobs import BlobStats, BlobStore, blob_plane, maybe_blob_plane
from repro.runtime.cache import DEFAULT_CACHE_DIR, CacheStats, ResultCache
from repro.runtime.campaign import (
    DEFAULT_ORDER,
    NAMED_CAMPAIGNS,
    CampaignEntry,
    CampaignOutcome,
    resolve_campaign,
    run_campaign,
    run_sweep_campaign,
)
from repro.runtime.executor import TaskOutcome, run_tasks
from repro.runtime.fabric import WorkerFabric, active_fabric, resolve_jobs
from repro.runtime.hashing import config_fingerprint, point_fingerprint, point_fingerprinter
from repro.runtime.journal import CampaignJournal, campaign_fingerprint
from repro.runtime.plan import ExecutionPlan
from repro.runtime.points import PointCache, PointEntry, PointStats, point_scope
from repro.runtime.query import (
    CharacterizationIndex,
    DatasetKey,
    RequestCoalescer,
    open_index,
)
from repro.runtime.resilience import CircuitBreaker, LeaseHeartbeat, RetryPolicy
from repro.runtime.shards import WorkUnit, merge_unit_results, plan_units

__all__ = [
    "DEFAULT_CACHE_DIR",
    "DEFAULT_ORDER",
    "NAMED_CAMPAIGNS",
    "BlobStats",
    "BlobStore",
    "CacheStats",
    "CampaignEntry",
    "CampaignJournal",
    "CampaignOutcome",
    "CharacterizationIndex",
    "CircuitBreaker",
    "DatasetKey",
    "ExecutionPlan",
    "LeaseHeartbeat",
    "PointCache",
    "PointEntry",
    "PointStats",
    "RequestCoalescer",
    "ResultCache",
    "RetryPolicy",
    "TaskOutcome",
    "WorkUnit",
    "WorkerFabric",
    "active_fabric",
    "blob_plane",
    "campaign_fingerprint",
    "config_fingerprint",
    "maybe_blob_plane",
    "merge_unit_results",
    "open_index",
    "plan_units",
    "point_fingerprint",
    "point_fingerprinter",
    "point_scope",
    "resolve_campaign",
    "resolve_jobs",
    "run_campaign",
    "run_sweep_campaign",
    "run_tasks",
]
