"""Resilience-layer tests: backoff determinism, retry budgets, heartbeats.

Everything here runs on injected clocks and recorded sleeps — the point
of :mod:`repro.runtime.resilience` is that none of its timing behavior
needs wall-clock time to verify.
"""

import pytest

from repro.runtime.resilience import LeaseHeartbeat, RetryPolicy, call_with_retries


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestRetryPolicy:
    def test_backoff_is_capped_exponential(self):
        policy = RetryPolicy(base_s=0.1, max_s=1.0, jitter=0.0)
        assert policy.delays(6) == [0.1, 0.2, 0.4, 0.8, 1.0, 1.0]

    def test_jittered_delays_are_deterministic_per_seed_and_name(self):
        """The jitter stream's seed is fixed, so the name alone keys it."""
        policy = RetryPolicy(name="w1")
        assert policy.delays(5) == RetryPolicy(name="w1").delays(5)

    def test_delays_of_the_worker_and_supervisor_policies_are_pinned(self):
        """The worker's and the supervisor's backoff sequences, exactly."""
        assert RetryPolicy().named("worker/w1/lease").delays(8) == [
            0.07559757999897422,
            0.17433256731509902,
            0.3089323302339688,
            0.72429705763884,
            1.4873820116324403,
            2.43960049495305,
            4.095001857358682,
            4.549944455029168,
        ]
        assert RetryPolicy(base_s=0.5, max_s=10.0).named("supervisor/slot0").delays(8) == [
            0.39624901588133044,
            0.8737724981535193,
            1.6697358639768907,
            3.8710527388751763,
            6.9179301372967785,
            9.06530024014728,
            8.334721252938571,
            7.995715396202545,
        ]

    def test_jitter_shrinks_within_bounds_and_varies_by_name(self):
        a = RetryPolicy(name="w1", jitter=0.25)
        b = a.named("w2")
        for attempt in range(5):
            backoff = a.backoff(attempt)
            assert backoff * 0.75 <= a.delay(attempt) <= backoff
        assert a.delays(5) != b.delays(5)

    def test_retry_after_overrides_backoff(self):
        policy = RetryPolicy(base_s=0.1, jitter=0.0)
        assert policy.delay(3, retry_after_s=0.01) == 0.01
        assert policy.delay(0, retry_after_s=-5.0) == 0.0  # clamped, not negative

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            RetryPolicy(base_s=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(max_s=0.01, base_s=0.1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            RetryPolicy().delay(-1)


class Flaky(RuntimeError):
    pass


class TestCallWithRetries:
    def test_retries_until_success_with_policy_delays(self):
        sleeps = []
        calls = {"n": 0}

        def fn():
            calls["n"] += 1
            if calls["n"] < 4:
                raise Flaky("not yet")
            return "ok"

        policy = RetryPolicy(base_s=0.1, jitter=0.0)
        result = call_with_retries(fn, policy, retryable=(Flaky,), sleep=sleeps.append)
        assert result == "ok"
        assert sleeps == [0.1, 0.2, 0.4]

    def test_non_retryable_propagates_immediately(self):
        def fn():
            raise KeyError("boom")

        with pytest.raises(KeyError):
            call_with_retries(fn, RetryPolicy(), retryable=(Flaky,), sleep=lambda s: None)

    def test_retry_after_attribute_overrides_backoff(self):
        sleeps = []
        calls = {"n": 0}

        def fn():
            calls["n"] += 1
            if calls["n"] == 1:
                exc = Flaky("throttled")
                exc.retry_after_s = 0.7
                raise exc
            return "ok"

        call_with_retries(fn, RetryPolicy(jitter=0.0), retryable=(Flaky,), sleep=sleeps.append)
        assert sleeps == [0.7]

    def test_budget_stops_before_oversleeping(self):
        clock = FakeClock()

        def sleep(s):
            clock.advance(s)

        def fn():
            raise Flaky("always")

        with pytest.raises(Flaky):
            call_with_retries(
                fn,
                RetryPolicy(base_s=1.0, max_s=1.0, jitter=0.0),
                retryable=(Flaky,),
                budget_s=2.5,
                sleep=sleep,
                clock=clock,
            )
        # Slept 1.0 twice; the third retry would end past the budget.
        assert clock.now == 2.0


class TestLeaseHeartbeat:
    def test_renews_until_stopped_and_counts_failures(self):
        outcomes = iter([True, True, False, True])

        def renew():
            return next(outcomes, None) or False

        hb = LeaseHeartbeat(renew, ttl_s=0.06)
        with hb:
            import time

            deadline = time.monotonic() + 2.0
            while hb.renewals + hb.failures < 4 and time.monotonic() < deadline:
                time.sleep(0.01)
        assert hb.renewals >= 2
        assert hb.failures >= 1

    def test_renew_exceptions_are_swallowed(self):
        def renew():
            raise RuntimeError("coordinator gone")

        hb = LeaseHeartbeat(renew, ttl_s=0.03)
        with hb:
            import time

            deadline = time.monotonic() + 2.0
            while hb.failures < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
        assert hb.failures >= 1

    def test_default_interval_is_a_third_of_ttl(self):
        hb = LeaseHeartbeat(lambda: True, ttl_s=9.0)
        assert hb.interval_s == 3.0
