"""Retry policies and lease heartbeats for the fabric.

The distributed campaign fabric (:mod:`repro.runtime.coordinator` /
:mod:`repro.runtime.remote_worker`) is built on the premise that faults
are *expected*: workers die, connections reset, responses arrive
truncated or late, and the coordinator may answer 5xx under pressure.
This module is the transport's answer — small, composable pieces with
every source of nondeterminism injected so tests (and the chaos smoke)
can drive them deterministically:

* :class:`RetryPolicy` — capped exponential backoff with *deterministic*
  jitter: the jitter for attempt ``n`` is drawn from the named RNG
  stream ``<name>/attempt<n>`` (:func:`repro.rng.child_rng`), so a
  given name always produces the same delay sequence while distinct
  workers (distinct names) still desynchronize.  A server-sent
  ``Retry-After`` always wins over the computed backoff.
* :func:`call_with_retries` — the one retry loop, and the one fault
  mechanism, every worker request goes through (``/complete`` re-posts
  land as duplicates, and a retried ``/lease`` at worst orphans a lease
  that lapses, so retrying is always safe).  The worker sends one
  request at a time, so there is no concurrent traffic for a circuit
  breaker to shed: the backoff alone spaces out its attempts.
* :class:`LeaseHeartbeat` — a daemon thread renewing one work lease at a
  fraction of its TTL while the unit executes, so long-running units do
  not expire mid-execution and get needlessly re-leased elsewhere.

Nothing here imports the worker or the coordinator: the dependency runs
the other way, which keeps this layer reusable (the supervisor borrows
:class:`RetryPolicy` for its restart backoff).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace

from repro.rng import child_rng

#: Default total seconds a worker keeps retrying an unreachable
#: coordinator before giving up (``--retry-budget``).
DEFAULT_RETRY_BUDGET_S = 30.0


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic, named-RNG jitter.

    The delay for attempt ``n`` (0-based) is ``base_s * 2**n``, capped
    at ``max_s``, then shrunk by up to ``jitter`` (a fraction in
    ``[0, 1)``) using a uniform draw from the named stream
    ``<name>/attempt<n>``.  Same name ⇒ same sequence, which is what
    makes retry timing reproducible in tests and the chaos smoke;
    different names (one per worker id) keep real deployments from
    synchronizing their retries into thundering herds.
    """

    base_s: float = 0.1
    max_s: float = 5.0
    jitter: float = 0.25
    name: str = "retry"

    def __post_init__(self):
        if self.base_s <= 0:
            raise ValueError(f"base_s must be positive, got {self.base_s}")
        if self.max_s < self.base_s:
            raise ValueError(f"max_s must be >= base_s, got {self.max_s} < {self.base_s}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    def backoff(self, attempt: int) -> float:
        """The un-jittered capped exponential delay for one attempt."""
        if attempt < 0:
            raise ValueError(f"attempt must be >= 0, got {attempt}")
        return min(self.max_s, self.base_s * 2.0**attempt)

    def delay(self, attempt: int, retry_after_s: float | None = None) -> float:
        """Seconds to sleep before retry ``attempt`` (0-based).

        A server-provided ``retry_after_s`` (a ``Retry-After`` header or
        a ``wait`` response's ``retry_after_s`` field) overrides the
        computed backoff entirely: the server knows its own load.
        """
        if retry_after_s is not None:
            return max(0.0, float(retry_after_s))
        backoff = self.backoff(attempt)
        if self.jitter == 0.0:
            return backoff
        draw = float(child_rng(0, f"{self.name}/attempt{attempt}").random())
        return backoff * (1.0 - self.jitter * draw)

    def delays(self, attempts: int) -> list[float]:
        """The first ``attempts`` delays (tests pin this sequence)."""
        return [self.delay(i) for i in range(attempts)]

    def named(self, name: str) -> "RetryPolicy":
        """A copy whose jitter stream is keyed by ``name``."""
        return replace(self, name=name)


def call_with_retries(
    fn,
    policy: RetryPolicy,
    retryable: tuple = (Exception,),
    budget_s: float | None = None,
    sleep=time.sleep,
    clock=time.perf_counter,
):
    """Call ``fn`` until it succeeds or the time budget runs out.

    Only exceptions in ``retryable`` are retried; anything else
    propagates immediately.  A retryable exception carrying a
    ``retry_after_s`` attribute overrides the policy's backoff for that
    attempt (the ``Retry-After`` contract).  When the budget is
    exhausted the *last* exception propagates — the caller sees the
    real failure, not a synthetic one.  Only use this for requests a
    repeat cannot corrupt; the fabric's ``/complete`` and ``/fail``
    re-posts land as duplicates, and a repeated ``/lease`` at worst
    leaves one lease to lapse.
    """
    attempt = 0
    started = clock()
    while True:
        try:
            return fn()
        except retryable as exc:
            delay = policy.delay(attempt, retry_after_s=getattr(exc, "retry_after_s", None))
            if budget_s is not None and clock() - started + delay > budget_s:
                raise
            sleep(delay)
            attempt += 1


class LeaseHeartbeat:
    """Background renewal of one work lease while its unit executes.

    The coordinator's lease TTL is sized for *liveness detection*, not
    for the longest unit: without renewal, a long-running unit's lease
    lapses mid-execution and the unit is pointlessly re-leased (and
    re-executed) elsewhere.  The heartbeat renews at ``interval_s``
    (default TTL/3) until stopped; renewal failures are counted but
    never raised — the completion path resolves any stale lease (a late
    completion is accepted while the unit is open, a duplicate after).

    Use as a context manager around unit execution::

        with LeaseHeartbeat(renew, ttl_s=lease["ttl_s"]):
            result = execute(unit)
    """

    def __init__(self, renew, ttl_s: float, interval_s: float | None = None):
        if interval_s is None:
            interval_s = max(0.05, float(ttl_s) / 3.0)
        self._renew = renew
        self.interval_s = float(interval_s)
        self.renewals = 0
        self.failures = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                renewed = self._renew()
            except Exception:
                self.failures += 1
                continue
            if renewed:
                self.renewals += 1
            else:
                self.failures += 1

    def start(self) -> "LeaseHeartbeat":
        """Start renewing on a daemon thread (idempotent)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, daemon=True, name="repro-lease-heartbeat"
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop renewing and join the thread."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "LeaseHeartbeat":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


__all__ = [
    "DEFAULT_RETRY_BUDGET_S",
    "LeaseHeartbeat",
    "RetryPolicy",
    "call_with_retries",
]
