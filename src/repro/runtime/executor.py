"""Task execution: fabric-aware process fan-out with a serial path.

``run_tasks`` takes ``(callable, args)`` pairs — the callables must be
top-level functions so they pickle by reference — and returns their timed
outcomes *in input order*, regardless of completion order.  That ordering
guarantee is what lets the shard mergers upstream reproduce serial
floating-point behaviour exactly.

There are two ways to run a round: on the
:class:`~repro.runtime.fabric.WorkerFabric` passed in, or serially
in-process.  ``run_tasks`` never adopts a lease itself — the campaign
layer resolves which fabric (if any) a campaign runs on and passes it
down.  On a fabric every round runs on the *same persistent pool*, so
worker warm state (memoized models, clean passes, the model plane)
survives across rounds and per-round spawn cost disappears.

Large rounds are submitted in *chunks* — contiguous runs of tasks shipped
as one pool item — to amortize per-task dispatch (pickle + queue + wakeup)
when the tasks are small, as point-granular rounds are.  Chunking never
reorders results and ``on_complete`` still fires exactly once per index.

``on_complete(index, outcome)`` fires as each task (or its chunk)
finishes, in completion order, exactly once per index.  The campaign
layer uses it to finalize — merge, cache, journal — every work unit the
moment its last task lands, which is what gives interrupted campaigns a
durable frontier to resume from.  If the pool dies mid-run the executor
falls back to the serial path for the *unfinished* tasks only; outcomes
already collected (and already announced) are kept, so a dead pool costs
the in-flight work, not a full rerun.  A fabric additionally discards its
broken pool — the workers' warm caches die with their processes — and
respawns a fresh one on the next round.  Callbacks should still tolerate
a duplicate index defensively — tasks are pure functions of their
arguments, so a replayed outcome is bit-identical.

Without a fabric everything runs in-process; seeded results are
bit-identical either way.  If the platform refuses to give a fabric a
process pool (sandboxes, missing semaphores) the executor falls back to
the serial path and records the degradation in each outcome's ``worker``
field rather than failing the campaign.  Genuine task exceptions still
propagate.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, ThreadPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.runtime.fabric import WorkerFabric

Task = tuple[Callable[..., Any], tuple]

#: Completion hook: ``(task_index, outcome)``; see module docstring.
CompletionHook = Callable[[int, "TaskOutcome"], None]

#: Auto-chunking never ships more than this many tasks per pool item.
MAX_CHUNK = 16


@dataclass(frozen=True)
class TaskOutcome:
    """One finished task: its return value, wall time, and where it ran."""

    value: Any
    wall_s: float
    worker: str  # "serial" | "pool" | "thread" | "serial-fallback"


def _timed_call(fn: Callable[..., Any], args: tuple, worker: str) -> TaskOutcome:
    started = time.perf_counter()
    value = fn(*args)
    return TaskOutcome(value=value, wall_s=time.perf_counter() - started, worker=worker)


def _run_chunk(tasks: Sequence[Task], worker: str) -> list[TaskOutcome]:
    """Worker-side body of one chunked submission (top-level: pickles)."""
    return [_timed_call(fn, args, worker) for fn, args in tasks]


def auto_chunksize(n_tasks: int, workers: int) -> int:
    """Tasks per pool item: 1 until rounds are large, then amortized.

    Coarse rounds (campaign work units) stay one-task-per-item for load
    balance; only rounds much larger than the pool — point-granular
    fan-outs of small tasks — are grouped, capped at :data:`MAX_CHUNK`.
    """
    if n_tasks <= workers * 8:
        return 1
    return max(1, min(MAX_CHUNK, n_tasks // (workers * 8)))


def _run_serial(
    tasks: Sequence[Task], worker: str, on_complete: CompletionHook | None
) -> list[TaskOutcome]:
    outcomes: list[TaskOutcome] = []
    for index, (fn, args) in enumerate(tasks):
        outcome = _timed_call(fn, args, worker)
        if on_complete is not None:
            on_complete(index, outcome)
        outcomes.append(outcome)
    return outcomes


def _replay_unfinished(
    tasks: Sequence[Task],
    outcomes: list[TaskOutcome | None],
    on_complete: CompletionHook | None,
) -> list[TaskOutcome]:
    """Serial replay of every task whose outcome never landed.

    Results already in hand (and already announced via ``on_complete``)
    are kept, so a pool dying after N-1 of N long units costs one unit,
    not a full serial rerun.
    """
    for index, (fn, args) in enumerate(tasks):
        if outcomes[index] is None:
            outcome = _timed_call(fn, args, "serial-fallback")
            outcomes[index] = outcome
            if on_complete is not None:
                on_complete(index, outcome)
    return [o for o in outcomes if o is not None]


def _drain_pool(
    pool: ProcessPoolExecutor,
    tasks: Sequence[Task],
    outcomes: list[TaskOutcome | None],
    on_complete: CompletionHook | None,
    chunksize: int,
) -> None:
    """Submit every task (chunked) and collect results as they land."""
    index_of = {}
    for start in range(0, len(tasks), chunksize):
        chunk = list(tasks[start : start + chunksize])
        future = pool.submit(_run_chunk, chunk, "pool")
        index_of[future] = (start, len(chunk))
    not_done = set(index_of)
    try:
        while not_done:
            done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
            for future in done:
                start, count = index_of[future]
                # Only a dead pool triggers the serial fallback; an
                # exception raised *by a task* propagates unchanged (it
                # is deterministic and would fail serially too).
                for offset, outcome in enumerate(future.result()):
                    outcomes[start + offset] = outcome
                    if on_complete is not None:
                        on_complete(start + offset, outcome)
    finally:
        for future in not_done:
            future.cancel()


def _run_on_fabric(
    tasks: Sequence[Task],
    fabric: WorkerFabric,
    on_complete: CompletionHook | None,
) -> list[TaskOutcome]:
    """One round on a leased pool (spawned lazily, never shut down here)."""
    pool = fabric.acquire_pool()
    if pool is None:
        worker = "serial" if fabric.jobs <= 1 else "serial-fallback"
        return _run_serial(tasks, worker, on_complete)
    outcomes: list[TaskOutcome | None] = [None] * len(tasks)
    chunksize = auto_chunksize(len(tasks), fabric.jobs)
    try:
        _drain_pool(pool, tasks, outcomes, on_complete, chunksize)
        fabric.note_dispatched(len(tasks))
        return [o for o in outcomes if o is not None]
    except BrokenProcessPool:
        # The workers died and their warm caches with them; the fabric
        # respawns a fresh pool on its next round.
        fabric.discard_pool()
        return _replay_unfinished(tasks, outcomes, on_complete)


def run_tasks_threaded(
    tasks: Sequence[Task],
    threads: int,
    on_complete: CompletionHook | None = None,
) -> list[TaskOutcome]:
    """Run tasks on in-process threads, same contract as :func:`run_tasks`.

    For tasks that are themselves *dispatchers* — parent-side sweep
    drivers whose probes execute on a fabric's worker processes — the
    GIL is irrelevant: threads overlap the waiting, so N drivers keep N
    pool workers busy.  Outcomes come back in input order and
    ``on_complete`` fires exactly once per index, serialized under a
    lock (the campaign finalizer is not re-entrant).  Task exceptions
    propagate, as everywhere else.
    """
    tasks = list(tasks)
    if not tasks:
        return []
    threads = max(1, int(threads))
    if threads == 1 or len(tasks) <= 1:
        return _run_serial(tasks, "serial", on_complete)
    outcomes: list[TaskOutcome | None] = [None] * len(tasks)
    hook_lock = threading.Lock()
    with ThreadPoolExecutor(max_workers=min(threads, len(tasks))) as pool:
        index_of = {
            pool.submit(_timed_call, fn, args, "thread"): i
            for i, (fn, args) in enumerate(tasks)
        }
        not_done = set(index_of)
        while not_done:
            done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
            for future in done:
                index = index_of[future]
                outcome = future.result()
                outcomes[index] = outcome
                if on_complete is not None:
                    with hook_lock:
                        on_complete(index, outcome)
    return [o for o in outcomes if o is not None]


def run_tasks(
    tasks: Sequence[Task],
    *,
    on_complete: CompletionHook | None = None,
    fabric: WorkerFabric | None = None,
) -> list[TaskOutcome]:
    """Run every task, returning outcomes in input order.

    With a ``fabric`` the tasks run on its leased pool (any task count —
    even a single dispatched probe reaches the warm workers), chunked by
    :func:`auto_chunksize`; without one they run serially in-process,
    even inside an active lease.
    """
    tasks = list(tasks)
    if not tasks:
        return []
    if fabric is None:
        return _run_serial(tasks, "serial", on_complete)
    return _run_on_fabric(tasks, fabric, on_complete)
