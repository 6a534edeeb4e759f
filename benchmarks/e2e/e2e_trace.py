"""Span tracing installed from outside the program, for the traced run.

The library records no spans of its own, so the traced run patches the
public functions and methods at each layer boundary with timing wrappers
(:func:`install`).  Each name is patched where its callers look it up —
``repro.runtime.campaign.run_unit`` as well as
``repro.experiments.registry.run_unit`` — and before the worker fabric
forks, so pool workers inherit the wrappers.

Every wrapped call records a span in memory: name, layer, start and end
from ``time.monotonic_ns`` (one clock for every process on the host), the
span that encloses it on the same thread, pid and thread.  Counts are
recorded at the same points.  Workers append their spans to a per-pid
file at the end of each task body; the measured process then merges every
file (:func:`merge`) and attributes the traced wall time to layers
(:func:`self_times`).
"""

from __future__ import annotations

import bisect
import functools
import importlib
import itertools
import json
import os
import pickle
import threading
import time
from collections import defaultdict
from pathlib import Path

#: Layers the self-time table reports, in display order.  ``other`` is
#: time inside the measured call that no wrapped function covers.
LAYERS = (
    "fabric", "task", "zoo", "sweep", "session", "engine", "differential",
    "points", "cache", "journal", "query", "other",
)

#: The active tracer of this process (``None``: the run is untraced).
TRACER: "Tracer | None" = None


class Tracer:
    """In-memory span and counter store for one process of a traced run."""

    def __init__(self, out_dir: str | os.PathLike, run_id: str):
        self.out_dir = Path(out_dir)
        self.run_id = run_id
        self.root_pid = os.getpid()
        self._reset()
        # A forked worker starts with the parent's unflushed spans in its
        # copy of memory; drop them so they are written exactly once.
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        # A new lock too: another thread may have held the old one when
        # the process forked.
        self._lock = threading.Lock()
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, layer: str, delegate: str | None = None) -> "_Span":
        """Context manager recording one span (``delegate``: see self_times)."""
        return _Span(self, name, layer, delegate)

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counters[name] += n

    def flush(self) -> None:
        """Append this process's spans and counters to its per-pid file."""
        with self._lock:
            spans, self.spans = self.spans, []
            counters, self.counters = dict(self.counters), defaultdict(float)
        if not spans and not counters:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        line = json.dumps({"pid": self.pid, "spans": spans, "counters": counters})
        with open(self.out_dir / f"spans-{self.pid}.jsonl", "a") as handle:
            handle.write(line + "\n")


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: Tracer, name: str, layer: str, delegate: str | None):
        self.tracer = tracer
        self.record = {"name": name, "layer": layer, "delegate": delegate}

    def __enter__(self):
        tracer = self.tracer
        stack = tracer._stack()
        self.record.update(
            id=f"{tracer.pid}:{next(tracer._ids)}",
            parent=stack[-1] if stack else None,
            pid=tracer.pid,
            tid=threading.get_ident(),
            run=tracer.run_id,
            t0=time.monotonic_ns(),
        )
        stack.append(self.record["id"])
        return self

    def __exit__(self, *exc):
        self.record["t1"] = time.monotonic_ns()
        self.tracer._stack().pop()
        with self.tracer._lock:
            self.tracer.spans.append(self.record)


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------


def _wrap(orig, name: str, layer: str, task: bool = False, after=None, delegate=None):
    """A timing wrapper around ``orig``.

    ``functools.wraps`` keeps ``orig``'s module and qualified name, so a
    wrapped task body still pickles by reference once the defining module
    also holds the wrapper.  ``task`` marks a task body: a pool worker
    flushes its spans when the body returns.  ``after(tracer, args,
    kwargs, result)`` records counts; ``delegate(args, kwargs)`` names
    what a blocked caller waits on (see :func:`self_times`).
    """

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        tracer = TRACER
        if tracer is None:
            return orig(*args, **kwargs)
        kind = delegate(args, kwargs) if delegate is not None else None
        with tracer.span(name, layer, kind):
            result = orig(*args, **kwargs)
        if after is not None:
            after(tracer, args, kwargs, result)
        if task and os.getpid() != tracer.root_pid:
            tracer.flush()
        return result

    return wrapper


def _patch_function(modules: list[str], attr: str, name: str, layer: str, **kw) -> None:
    """Patch ``attr`` in every module that looks it up (first: its home)."""
    loaded = [importlib.import_module(m) for m in modules]
    wrapper = _wrap(getattr(loaded[0], attr), name, layer, **kw)
    for module in loaded:
        setattr(module, attr, wrapper)


def _patch_method(cls, attr: str, name: str, layer: str, **kw) -> None:
    setattr(cls, attr, _wrap(getattr(cls, attr), name, layer, **kw))


def _timed_entry(submitted_ns: int, fn, *args, **kwargs):
    """Pool-side trampoline: queue wait, result size, and a dispatch span."""
    tracer = TRACER
    tracer.count("task.wait_s", (time.monotonic_ns() - submitted_ns) / 1e9)
    with tracer.span("executor.chunk", "fabric"):
        result = fn(*args, **kwargs)
    tracer.count("executor.task_result_bytes", len(pickle.dumps(result)))
    tracer.flush()
    return result


def install(out_dir: str | os.PathLike, run_id: str) -> Tracer:
    """Create this process's tracer and patch every layer boundary."""
    global TRACER
    from concurrent.futures import ProcessPoolExecutor

    from repro.core.session import AcceleratorSession
    from repro.core.undervolt import VoltageSweep
    from repro.dpu.engine import DPUEngine
    from repro.nn.differential import CleanPassCache
    from repro.runtime.blobs import BlobStore
    from repro.runtime.cache import ResultCache
    from repro.runtime.fabric import WorkerFabric, active_fabric, resolve_jobs
    from repro.runtime.journal import CampaignJournal
    from repro.runtime.points import PointCache
    from repro.runtime.query import CharacterizationIndex

    TRACER = Tracer(out_dir, run_id)

    # -- fabric / executor ------------------------------------------------
    def tasks_after(tracer, args, kwargs, result):
        tracer.count("executor.calls")
        tracer.count("executor.tasks", len(result))

    def pool_delegate(args, kwargs):
        # Mirrors run_tasks' own choice between a pool and the serial path.
        jobs = resolve_jobs(kwargs.get("jobs", args[1] if len(args) > 1 else 1))
        fabric = kwargs.get("fabric", args[3] if len(args) > 3 else None)
        if fabric is None and jobs > 1:
            fabric = active_fabric()
        if fabric is not None:
            return "pool" if fabric.jobs > 1 else None
        return "pool" if jobs > 1 and len(args[0]) > 1 else None

    _patch_function(
        ["repro.runtime.executor", "repro.runtime.campaign"],
        "run_tasks", "executor.run_tasks", "fabric",
        after=tasks_after, delegate=pool_delegate,
    )
    _patch_function(
        ["repro.runtime.executor", "repro.runtime.campaign"],
        "run_tasks_threaded", "executor.run_tasks_threaded", "fabric",
        after=tasks_after, delegate=lambda a, k: "threads",
    )
    _patch_method(WorkerFabric, "close", "fabric.close", "fabric")

    original_submit = ProcessPoolExecutor.submit

    def submit(self, fn, /, *args, **kwargs):
        TRACER.count("executor.task_arg_bytes", len(pickle.dumps((fn, args, kwargs))))
        return original_submit(self, _timed_entry, time.monotonic_ns(), fn, *args, **kwargs)

    ProcessPoolExecutor.submit = submit

    # -- task bodies ------------------------------------------------------
    _patch_function(
        ["repro.experiments.registry", "repro.runtime.campaign"],
        "run_unit", "task.run_unit", "task", task=True,
    )
    for attr in ("run_sweep_unit", "measure_round_task"):
        _patch_function(["repro.runtime.campaign"], attr, f"task.{attr}", "task", task=True)

    # -- models.zoo, runtime.blobs ----------------------------------------
    _patch_function(["repro.core.session"], "build_workload", "zoo.build", "zoo")
    _patch_function(["repro.models.zoo"], "build", "zoo.build", "zoo")
    for attr in ("get_array", "get_manifest"):
        _patch_method(BlobStore, attr, "plane.load", "zoo")
    for attr in ("put_array", "put_manifest"):
        _patch_method(BlobStore, attr, "plane.spill", "zoo")

    # -- core.undervolt ---------------------------------------------------
    def sweep_after(tracer, args, kwargs, result):
        tracer.count("sweep.rounds", result.rounds_executed)
        tracer.count("sweep.points_executed", result.points_executed)
        tracer.count("sweep.liveness_probes", result.liveness_probes)
        tracer.count("sweep.hang_probes", result.hang_probes)
        tracer.count("sweep.measurements", len(result.points))

    _patch_method(VoltageSweep, "run", "sweep.run", "sweep", after=sweep_after)
    _patch_function(["repro.runtime.campaign"], "run_sweep_unit_remote", "sweep.remote", "sweep")

    # -- core.session -----------------------------------------------------
    _patch_method(AcceleratorSession, "plan_point", "session.plan", "session")
    _patch_method(AcceleratorSession, "execute_plans", "session.execute", "session")
    _patch_method(AcceleratorSession, "finalize_point", "session.finalize", "session")

    # -- dpu.engine, nn.differential ---------------------------------------
    def lanes_after(tracer, args, kwargs, result):
        specs = args[1] if len(args) > 1 else kwargs["specs"]
        tracer.count(
            "engine.lanes",
            sum(len(rngs) for p_op, _f, rngs, collapse in specs if p_op > 0.0 or collapse),
        )

    _patch_method(DPUEngine, "run_points", "engine.run_points", "engine", after=lanes_after)
    _patch_method(DPUEngine, "run_batched", "engine.run", "engine")
    _patch_method(DPUEngine, "run", "engine.run", "engine")
    _patch_function(
        ["repro.nn.differential", "repro.dpu.engine"],
        "forward_points", "differential.forward_points", "differential",
    )
    _patch_function(
        ["repro.nn.differential", "repro.dpu.engine"],
        "forward_repeats", "differential.forward_repeats", "differential",
    )
    _patch_function(
        ["repro.nn.differential", "repro.dpu.engine"],
        "capture_clean_pass", "differential.clean_capture", "differential",
    )
    original_get = CleanPassCache.get

    def clean_get(self, *args, **kwargs):
        clean = original_get(self, *args, **kwargs)
        if TRACER is not None:
            TRACER.count("clean_cache.hits" if clean is not None else "clean_cache.misses")
        return clean

    CleanPassCache.get = clean_get

    # -- runtime.points, runtime.cache, runtime.journal ---------------------
    def load_after(tracer, args, kwargs, result):
        if result is not None:
            tracer.count("points.load_hits")

    def store_after(tracer, args, kwargs, result):
        tracer.count("points.store_bytes", Path(result).stat().st_size)

    _patch_method(PointCache, "load", "points.load", "points", after=load_after)
    _patch_method(PointCache, "store", "points.store", "points", after=store_after)
    _patch_function(
        ["repro.runtime.points", "repro.runtime.query"],
        "read_point_entry", "points.load", "points", after=load_after,
    )
    _patch_method(ResultCache, "load", "cache.load", "cache")
    _patch_method(ResultCache, "store", "cache.store", "cache")
    _patch_method(CampaignJournal, "record_unit", "journal.record", "journal")
    _patch_method(CampaignJournal, "begin", "journal.begin", "journal")

    # -- runtime.query ----------------------------------------------------
    for attr in ("refresh", "points", "point", "landmarks", "guardband", "stats"):
        _patch_method(CharacterizationIndex, attr, f"query.{attr}", "query")
    return TRACER


# ----------------------------------------------------------------------
# Merge and attribution
# ----------------------------------------------------------------------


def merge(out_dir: str | os.PathLike) -> tuple[list[dict], dict[str, float]]:
    """Every span and summed counter the run's processes flushed."""
    spans: list[dict] = []
    counters: dict[str, float] = defaultdict(float)
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        for line in path.read_text().splitlines():
            record = json.loads(line)
            spans.extend(record["spans"])
            for name, value in record["counters"].items():
                counters[name] += value
    return spans, dict(counters)


def _thread_segments(spans: list[dict]) -> list[tuple[int, int, dict]]:
    """One thread's timeline: ``(t0, t1, innermost span)``, sorted, disjoint.

    A span's self time is its duration minus the part of it that its
    children on the same thread cover; these segments are exactly those
    self intervals.
    """
    segments: list[tuple[int, int, dict]] = []
    events = sorted(spans, key=lambda s: (s["t0"], -s["t1"]))
    stack: list[dict] = []
    cursor = None
    for span in events:
        while stack and stack[-1]["t1"] <= span["t0"]:
            done = stack.pop()
            if cursor < done["t1"]:
                segments.append((cursor, done["t1"], done))
            cursor = done["t1"]
        if stack and cursor < span["t0"]:
            segments.append((cursor, span["t0"], stack[-1]))
        stack.append(span)
        cursor = span["t0"]
    while stack:
        done = stack.pop()
        if cursor < done["t1"]:
            segments.append((cursor, done["t1"], done))
        cursor = done["t1"]
    return segments


class _Timeline:
    def __init__(self, spans: list[dict]):
        self.segments = _thread_segments(spans)
        self.starts = [s[0] for s in self.segments]

    def clipped(self, a: int, b: int):
        i = max(0, bisect.bisect_right(self.starts, a) - 1)
        while i < len(self.segments) and self.segments[i][0] < b:
            t0, t1, span = self.segments[i]
            lo, hi = max(a, t0), min(b, t1)
            if lo < hi:
                yield lo, hi, span
            i += 1


def self_times(spans: list[dict], root: dict, capacity: dict[str, int]) -> dict[str, float]:
    """Seconds of ``root``'s wall time charged to each layer.

    On one thread, time goes to the innermost open span's layer.  Time a
    thread spends blocked in a *delegating* span — ``run_tasks`` waiting
    on pool workers (``"pool"``), ``run_tasks_threaded`` waiting on sweep
    threads (``"threads"``) — is charged to what the delegates did in
    that interval, each delegate's layers divided by ``capacity[kind]``
    (the worker or thread count); capacity left idle goes to ``fabric``.
    Every interval is charged exactly once, so the layers sum to the
    root's duration.
    """
    threads: dict[tuple, list[dict]] = defaultdict(list)
    for span in spans:
        threads[(span["pid"], span["tid"])].append(span)
    timelines = {key: _Timeline(group) for key, group in threads.items()}
    root_key = (root["pid"], root["tid"])
    delegates = {
        "pool": [t for (pid, _tid), t in timelines.items() if pid != root["pid"]],
        "threads": [
            t for (pid, tid), t in timelines.items() if pid == root["pid"] and (pid, tid) != root_key
        ],
    }
    totals: dict[str, float] = defaultdict(float)

    def charge(timeline: _Timeline, a: int, b: int, weight: float) -> None:
        for lo, hi, span in timeline.clipped(a, b):
            kind = span.get("delegate")
            if kind in delegates:
                spread(kind, lo, hi, weight)
            else:
                totals[span["layer"]] += weight * (hi - lo)

    def spread(kind: str, a: int, b: int, weight: float) -> None:
        busy = 0
        for timeline in delegates[kind]:
            busy += sum(hi - lo for lo, hi, _s in timeline.clipped(a, b))
        # More concurrent delegates than capacity (a respawned pool) must
        # not charge more than the interval: scale down.
        share = weight / max(capacity.get(kind, 1), busy / (b - a) if b > a else 1)
        for timeline in delegates[kind]:
            charge(timeline, a, b, share)
        totals["fabric"] += weight * (b - a) - share * busy

    charge(timelines[root_key], root["t0"], root["t1"], 1.0)
    return {layer: totals.get(layer, 0.0) / 1e9 for layer in LAYERS}


def span_totals(spans: list[dict]) -> dict[str, tuple[int, float]]:
    """Per span name: ``(calls, inclusive seconds)``."""
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for span in spans:
        entry = out[span["name"]]
        entry[0] += 1
        entry[1] += (span["t1"] - span["t0"]) / 1e9
    return {name: (n, s) for name, (n, s) in out.items()}


def chrome_trace(spans: list[dict]) -> dict:
    """Spans as Chrome trace-event JSON (complete events, microseconds)."""
    origin = min((s["t0"] for s in spans), default=0)
    return {
        "displayTimeUnit": "ms",
        "traceEvents": [
            {
                "name": s["name"],
                "cat": s["layer"],
                "ph": "X",
                "ts": (s["t0"] - origin) / 1000.0,
                "dur": (s["t1"] - s["t0"]) / 1000.0,
                "pid": s["pid"],
                "tid": s["tid"],
                "args": {"id": s["id"], "parent": s["parent"], "run": s["run"]},
            }
            for s in sorted(spans, key=lambda s: s["t0"])
        ],
    }
