"""Local worker supervisor: spawn N workers, restart crashed ones.

``repro-undervolt workers --connect <url> -n N`` is the one-command way
to throw a host's cores at a campaign: it spawns ``N`` worker processes
(each a ``repro-undervolt worker`` against its own cache directory) and
supervises them — a worker that *crashes* (non-zero exit) is restarted
with capped exponential backoff from the shared
:class:`~repro.runtime.resilience.RetryPolicy`, while a worker that
exits cleanly (the coordinator drained, or it burned its retry budget
against a coordinator that already left) is simply reaped.

The supervisor is deliberately not a distributed system: it manages
local children only, restarts are bounded by ``max_restarts`` per slot
(a worker crashing in a tight loop is a bug to surface, not to hide),
and the whole thing exits once every slot is done.  Determinism makes
restarts safe: a restarted worker re-leases whatever its predecessor
held once the lease TTL lapses, and its local result cache turns any
work the predecessor finished into pure cache hits.

``spawn`` is injectable so tests supervise fake processes with scripted
exit codes instead of real campaign workers.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.runtime.resilience import RetryPolicy

#: Restarts allowed per worker slot before the supervisor gives up on it.
DEFAULT_MAX_RESTARTS = 5


@dataclass
class SupervisorStats:
    """What one :func:`run_supervisor` invocation did."""

    workers: int = 0
    #: Workers that ended with exit code 0 (drained / clean stop).
    clean_exits: int = 0
    #: Crash restarts performed across all slots.
    restarts: int = 0
    #: Slots abandoned after ``max_restarts`` consecutive crashes.
    abandoned: int = 0
    wall_s: float = 0.0
    #: Final exit code per slot, in slot order.
    exit_codes: list[int] = field(default_factory=list)

    def as_dict(self) -> dict:
        """JSON-able summary (the CLI prints this)."""
        return {
            "workers": self.workers,
            "clean_exits": self.clean_exits,
            "restarts": self.restarts,
            "abandoned": self.abandoned,
            "wall_s": round(self.wall_s, 6),
            "exit_codes": list(self.exit_codes),
        }


def worker_command(
    connect: str,
    cache_dir: str | os.PathLike,
    jobs: int | str | None = None,
    retry_budget_s: float | None = None,
    timeout_s: float | None = None,
    worker_id: str | None = None,
) -> list[str]:
    """The argv for one supervised ``repro-undervolt worker`` child."""
    command = [
        sys.executable,
        "-m",
        "repro.cli",
        "worker",
        "--connect",
        connect,
        "--cache-dir",
        str(cache_dir),
    ]
    if jobs is not None:
        command += ["--jobs", str(jobs)]
    if retry_budget_s is not None:
        command += ["--retry-budget", str(retry_budget_s)]
    if timeout_s is not None:
        command += ["--timeout", str(timeout_s)]
    if worker_id is not None:
        command += ["--id", worker_id]
    return command


def _spawn_process(command: list[str]):
    return subprocess.Popen(command)


def run_supervisor(
    connect: str,
    cache_dir: str | os.PathLike,
    count: int,
    jobs: int | str | None = None,
    retry_budget_s: float | None = None,
    timeout_s: float | None = None,
    max_restarts: int = DEFAULT_MAX_RESTARTS,
    retry_policy: RetryPolicy | None = None,
    spawn=None,
    sleep=time.sleep,
    tick_s: float = 0.1,
    quiet: bool = True,
) -> SupervisorStats:
    """Spawn and supervise ``count`` local workers until all are done.

    Each slot gets its own cache subdirectory (``<cache_dir>/workerN``)
    and worker id, so supervised workers never contend on local stores.
    A slot whose child exits non-zero restarts after the policy's
    backoff for that slot's consecutive-crash count; ``max_restarts``
    consecutive crashes abandon the slot.  ``spawn`` (default:
    ``subprocess.Popen``) is injectable for tests.  Returns once every
    slot has exited cleanly or been abandoned.
    """
    spawn = spawn or _spawn_process
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if max_restarts < 0:
        raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
    policy = retry_policy or RetryPolicy(base_s=0.5, max_s=10.0)
    stats = SupervisorStats(workers=count)
    stats.exit_codes = [0] * count
    started = time.perf_counter()
    cache_root = Path(cache_dir)

    def _start(slot: int):
        command = worker_command(
            connect,
            cache_root / f"worker{slot}",
            jobs=jobs,
            retry_budget_s=retry_budget_s,
            timeout_s=timeout_s,
            worker_id=f"{os.getpid()}-w{slot}",
        )
        if not quiet:
            print(f"[supervisor] starting worker {slot}", flush=True)
        return spawn(command)

    # Per-slot state: the live process (or None once the slot is done),
    # consecutive crash count, and the monotonic restart-not-before time.
    procs: list = [_start(slot) for slot in range(count)]
    crashes = [0] * count
    restart_at = [0.0] * count
    try:
        while any(proc is not None for proc in procs) or any(restart_at):
            progressed = False
            for slot in range(count):
                if procs[slot] is None:
                    if restart_at[slot] and time.monotonic() >= restart_at[slot]:
                        restart_at[slot] = 0.0
                        procs[slot] = _start(slot)
                        progressed = True
                    continue
                code = procs[slot].poll()
                if code is None:
                    continue
                progressed = True
                procs[slot] = None
                stats.exit_codes[slot] = code
                if code == 0:
                    stats.clean_exits += 1
                    crashes[slot] = 0
                    continue
                crashes[slot] += 1
                if not quiet:
                    print(
                        f"[supervisor] worker {slot} crashed (exit {code}, "
                        f"crash {crashes[slot]}/{max_restarts})",
                        flush=True,
                    )
                if crashes[slot] > max_restarts:
                    stats.abandoned += 1
                    continue
                stats.restarts += 1
                delay = policy.named(f"supervisor/slot{slot}").delay(crashes[slot] - 1)
                restart_at[slot] = time.monotonic() + delay
            if not progressed:
                sleep(tick_s)
    finally:
        for proc in procs:
            if proc is not None:
                proc.terminate()
        stats.wall_s = time.perf_counter() - started
    return stats


__all__ = [
    "DEFAULT_MAX_RESTARTS",
    "SupervisorStats",
    "run_supervisor",
    "worker_command",
]
