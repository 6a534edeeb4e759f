"""Supervisor tests: restart-on-crash with backoff, bounded abandonment.

``spawn`` is injected, so these tests supervise scripted fake processes
with predetermined exit codes — no real workers, no coordinator, no
sleeps beyond the recorded backoff calls.
"""

from repro.runtime.resilience import RetryPolicy
from repro.runtime.supervisor import SupervisorStats, run_supervisor, worker_command


class FakeProc:
    """A process whose exit code is scripted; polls ready immediately."""

    def __init__(self, code):
        self.code = code
        self.terminated = False

    def poll(self):
        return self.code

    def terminate(self):
        self.terminated = True


class ScriptedSpawner:
    """Hands out FakeProcs per slot from scripted exit-code sequences."""

    def __init__(self, scripts):
        # scripts[slot] = list of exit codes, one per (re)start.
        self.scripts = {slot: list(codes) for slot, codes in scripts.items()}
        self.commands = []

    def __call__(self, command):
        self.commands.append(command)
        slot = int(command[command.index("--id") + 1].rsplit("w", 1)[1])
        return FakeProc(self.scripts[slot].pop(0))


def _run(scripts, **kwargs):
    spawner = ScriptedSpawner(scripts)
    sleeps = []

    def sleep(s):
        sleeps.append(s)

    stats = run_supervisor(
        "http://127.0.0.1:1",
        "/tmp/unused-cache",
        len(scripts),
        spawn=spawner,
        sleep=sleep,
        retry_policy=RetryPolicy(base_s=0.01, jitter=0.0),
        tick_s=0.0,
        **kwargs,
    )
    return stats, spawner, sleeps


class TestRunSupervisor:
    def test_clean_exits_are_reaped_without_restart(self):
        stats, spawner, _ = _run({0: [0], 1: [0]})
        assert stats.clean_exits == 2
        assert stats.restarts == 0
        assert stats.exit_codes == [0, 0]
        assert len(spawner.commands) == 2

    def test_crashed_worker_restarts_until_clean(self):
        stats, spawner, _ = _run({0: [1, 1, 0]})
        assert stats.restarts == 2
        assert stats.clean_exits == 1
        assert stats.abandoned == 0
        assert stats.exit_codes == [0]
        assert len(spawner.commands) == 3

    def test_slot_is_abandoned_after_max_restarts(self):
        stats, spawner, _ = _run({0: [1, 1, 1, 1]}, max_restarts=3)
        assert stats.restarts == 3
        assert stats.abandoned == 1
        assert stats.exit_codes == [1]
        assert len(spawner.commands) == 4

    def test_mixed_slots_are_independent(self):
        stats, _, _ = _run({0: [0], 1: [1, 0], 2: [1, 1]}, max_restarts=1)
        assert stats.clean_exits == 2
        assert stats.restarts == 2  # one for slot 1, one for slot 2
        assert stats.abandoned == 1
        assert stats.exit_codes == [0, 0, 1]

    def test_rejects_bad_arguments(self):
        import pytest

        with pytest.raises(ValueError):
            run_supervisor("http://x", "/tmp/c", 0)
        with pytest.raises(ValueError):
            run_supervisor("http://x", "/tmp/c", 1, max_restarts=-1)

    def test_stats_round_trip(self):
        stats = SupervisorStats(workers=2, clean_exits=2, exit_codes=[0, 0])
        payload = stats.as_dict()
        assert payload["workers"] == 2 and payload["exit_codes"] == [0, 0]


class TestWorkerCommand:
    def test_carries_every_flag(self):
        command = worker_command(
            "http://127.0.0.1:8400",
            "/tmp/cache/worker0",
            jobs=2,
            retry_budget_s=60.0,
            timeout_s=1.0,
            worker_id="sup-w0",
        )
        text = " ".join(command)
        assert "worker --connect http://127.0.0.1:8400" in text
        assert "--cache-dir /tmp/cache/worker0" in text
        assert "--jobs 2" in text
        assert "--retry-budget 60.0" in text and "--timeout 1.0" in text
        assert "--id sup-w0" in text

    def test_omits_unset_flags(self):
        command = worker_command("http://x", "/tmp/c")
        assert "--jobs" not in command and "--retry-budget" not in command
