"""Retry policies, circuit breaking, and lease heartbeats for the fabric.

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
  given ``(seed, name)`` always produces the same delay sequence while
  distinct workers (distinct names) still desynchronize.  A server-sent
  ``Retry-After`` always wins over the computed backoff.
* :class:`CircuitBreaker` — a per-endpoint closed/open/half-open gate:
  after ``failure_threshold`` consecutive failures the circuit opens and
  calls fast-fail locally instead of hammering a struggling peer; after
  ``reset_after_s`` one probe is let through (half-open) and its outcome
  closes or re-opens the circuit.  The clock is injected.
* :func:`call_with_retries` — the one retry loop every worker request
  goes through (``/complete`` re-posts land as duplicates, and a
  retried ``/lease`` at worst orphans a lease that lapses, so retrying
  is always safe).
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
from dataclasses import dataclass

from repro.rng import child_rng

#: Consecutive failures that open a circuit by default.
DEFAULT_FAILURE_THRESHOLD = 5

#: Seconds an open circuit waits before letting a half-open probe through.
DEFAULT_RESET_AFTER_S = 2.0

#: Default total seconds a worker keeps retrying an unreachable
#: coordinator before giving up (``--retry-budget``).
DEFAULT_RETRY_BUDGET_S = 30.0


class CircuitOpenError(RuntimeError):
    """Raised when a request is refused locally because its circuit is open."""


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic, named-RNG jitter.

    The delay for attempt ``n`` (0-based) is ``base_s * multiplier**n``,
    capped at ``max_s``, then shrunk by up to ``jitter`` (a fraction in
    ``[0, 1)``) using a uniform draw from the named stream
    ``<name>/attempt<n>``.  Same ``(seed, name)`` ⇒ same sequence, which
    is what makes retry timing reproducible in tests and the chaos
    smoke; different names (one per worker id) keep real deployments
    from synchronizing their retries into thundering herds.
    """

    base_s: float = 0.1
    max_s: float = 5.0
    multiplier: float = 2.0
    jitter: float = 0.25
    seed: int = 0
    name: str = "retry"

    def __post_init__(self):
        if self.base_s <= 0:
            raise ValueError(f"base_s must be positive, got {self.base_s}")
        if self.max_s < self.base_s:
            raise ValueError(f"max_s must be >= base_s, got {self.max_s} < {self.base_s}")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    def backoff(self, attempt: int) -> float:
        """The un-jittered capped exponential delay for one attempt."""
        if attempt < 0:
            raise ValueError(f"attempt must be >= 0, got {attempt}")
        return min(self.max_s, self.base_s * self.multiplier**attempt)

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
        draw = float(child_rng(self.seed, f"{self.name}/attempt{attempt}").random())
        return backoff * (1.0 - self.jitter * draw)

    def delays(self, attempts: int) -> list[float]:
        """The first ``attempts`` delays (tests pin this sequence)."""
        return [self.delay(i) for i in range(attempts)]

    def named(self, name: str) -> "RetryPolicy":
        """A copy whose jitter stream is keyed by ``name``."""
        return RetryPolicy(
            base_s=self.base_s,
            max_s=self.max_s,
            multiplier=self.multiplier,
            jitter=self.jitter,
            seed=self.seed,
            name=name,
        )


class CircuitBreaker:
    """Per-endpoint circuit breaker: closed → open → half-open → closed.

    ``failure_threshold`` *consecutive* failures open the circuit; while
    open, :meth:`allow` refuses instantly (no network round trip) until
    ``reset_after_s`` has elapsed on the injected clock, at which point
    exactly one caller is admitted as the half-open probe.  The probe's
    :meth:`record_success` closes the circuit; its
    :meth:`record_failure` re-opens it for another full cooldown.
    Thread-safe: a worker's lease loop and its lease-renewal heartbeat
    share one client.
    """

    def __init__(
        self,
        name: str = "",
        failure_threshold: int = DEFAULT_FAILURE_THRESHOLD,
        reset_after_s: float = DEFAULT_RESET_AFTER_S,
        clock=time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1, got {failure_threshold}")
        if reset_after_s < 0:
            raise ValueError(f"reset_after_s must be >= 0, got {reset_after_s}")
        self.name = name
        self.failure_threshold = int(failure_threshold)
        self.reset_after_s = float(reset_after_s)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._failures = 0
        self._opened_at = 0.0
        #: Lifetime counters (surfaced in worker stats and tests).
        self.opened = 0
        self.rejected = 0

    @property
    def state(self) -> str:
        """Current state: ``closed`` / ``open`` / ``half-open``."""
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """Whether a request may go out right now.

        An open circuit past its cooldown transitions to half-open and
        admits the caller as the single probe; further callers are
        refused until the probe reports back.
        """
        with self._lock:
            if self._state == "closed":
                return True
            if self._state == "open":
                if self._clock() - self._opened_at >= self.reset_after_s:
                    self._state = "half-open"
                    return True
                self.rejected += 1
                return False
            # half-open: the probe is already in flight.
            self.rejected += 1
            return False

    def check(self) -> None:
        """:meth:`allow` as an exception (:class:`CircuitOpenError`)."""
        if not self.allow():
            raise CircuitOpenError(f"circuit {self.name or '<anonymous>'} is open")

    def record_success(self) -> None:
        """A request succeeded: close the circuit and forget failures."""
        with self._lock:
            self._state = "closed"
            self._failures = 0

    def record_failure(self) -> None:
        """A request failed: count it, opening the circuit at threshold."""
        with self._lock:
            self._failures += 1
            if self._state == "half-open" or self._failures >= self.failure_threshold:
                self._state = "open"
                self._opened_at = self._clock()
                self.opened += 1


def call_with_retries(
    fn,
    policy: RetryPolicy,
    retryable: tuple = (Exception,),
    attempts: int | None = None,
    budget_s: float | None = None,
    sleep=time.sleep,
    clock=time.perf_counter,
):
    """Call ``fn`` until it succeeds, the attempt cap, or the time budget.

    Only exceptions in ``retryable`` are retried; anything else
    propagates immediately.  A retryable exception carrying a
    ``retry_after_s`` attribute overrides the policy's backoff for that
    attempt (the ``Retry-After`` contract).  When the budget or attempt
    cap is exhausted the *last* exception propagates — the caller sees
    the real failure, not a synthetic one.  Only use this for requests a
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
            out_of_attempts = attempts is not None and attempt + 1 >= attempts
            out_of_budget = budget_s is not None and clock() - started + delay > budget_s
            if out_of_attempts or out_of_budget:
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
    "DEFAULT_FAILURE_THRESHOLD",
    "DEFAULT_RESET_AFTER_S",
    "DEFAULT_RETRY_BUDGET_S",
    "CircuitBreaker",
    "CircuitOpenError",
    "LeaseHeartbeat",
    "RetryPolicy",
    "call_with_retries",
]
