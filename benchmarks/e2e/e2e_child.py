"""One measured execution of an end-to-end workload, in a fresh process.

``run.py`` starts this script once per execution with a JSON spec as its
only argument and reads one JSON result from the last line of its
output.  Actions:

* ``campaign`` — one cold campaign (``paper-serial``, ``fig3-parallel``
  or ``sweep-rounds``) into an empty cache directory;
* ``build-store`` — the ``serve-open`` characterization store (untimed
  set-up);
* ``serve-query`` — the ``serve-open`` request batch answered in-process
  (index open, landmark precompute, handler calls), untraced then traced,
  for the per-layer breakdown of the serving path.

With ``trace_dir`` set the execution runs under the span wrappers of
:mod:`e2e_trace`, installed before any worker forks.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import e2e_trace
from e2e_loadgen import request_mix

BENCHMARKS = ("vggnet", "googlenet", "alexnet", "resnet50", "inception")
BOARDS = (0, 1, 2)

#: Paper anchors and the tolerances ``tests/experiments/test_runners.py``
#: asserts at CI fidelity.
VMIN_PAPER_MV, VCRASH_PAPER_MV, GAIN_PAPER = 570.0, 540.0, 2.6
LANDMARK_TOL_MV, GAIN_TOL = 8.0, 0.15


def _mb(kib: int) -> float:
    return kib / 1024.0


def _store_digest(points) -> str:
    """sha256 over a :class:`PointCache`'s point files, in their sorted order."""
    digest = hashlib.sha256()
    for path in points.entries():
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _rows_digest(outcomes) -> str:
    payload = [
        (e.experiment_id, e.fingerprint, e.result.rows, e.result.summary)
        for outcome in outcomes
        for e in outcome.entries
    ]
    return hashlib.sha256(json.dumps(payload, sort_keys=True, default=str).encode()).hexdigest()


def _check(checks: list, name: str, ok: bool, detail: str = "") -> None:
    checks.append({"name": name, "ok": bool(ok), "detail": detail})


def campaign_config(workload: str, seed: int, smoke: bool):
    from repro.core.experiment import ExperimentConfig

    if workload == "paper-serial":
        return ExperimentConfig(seed=seed, repeats=1, samples=8)
    if workload == "fig3-parallel":
        return ExperimentConfig(seed=seed, repeats=1 if smoke else 3, samples=8 if smoke else 16)
    return ExperimentConfig(
        seed=seed, repeats=1, samples=16, strategy="adaptive", v_resolution=0.001
    )


def run_campaign_workload(spec: dict) -> dict:
    """One cold execution; returns timings, digests, summaries and checks."""
    from repro.analysis.report import render_campaign_report
    from repro.runtime.cache import ResultCache
    from repro.runtime.campaign import resolve_campaign, run_campaign, run_sweep_campaign
    from repro.runtime.fabric import WorkerFabric
    from repro.runtime.journal import JOURNAL_NAME, CampaignJournal
    from repro.runtime.plan import ExecutionPlan
    from repro.runtime.points import PointCache

    workload, seed, smoke = spec["workload"], spec["seed"], spec["smoke"]
    config = campaign_config(workload, seed, smoke)
    cache = ResultCache(spec["cache_dir"])
    tracer = e2e_trace.install(spec["trace_dir"], spec["run_id"]) if spec["trace_dir"] else None
    fabrics, leases, outcomes = [], [], []
    journal = None
    # Smoke size keeps the journal and warm-report checks on two cheap
    # experiments; fig3-parallel still checks the fig3 landmarks.
    ids = resolve_campaign(["table1", "sec41"] if smoke else ["paper"])

    def lease():
        fabric = WorkerFabric(2, blob_root=cache.blob_root)
        fabrics.append(fabric)
        leases.append([time.monotonic_ns(), None])
        return fabric

    # Set-up ends here: interpreter start, imports, cache and config.
    t_call = time.monotonic_ns()
    started = time.perf_counter()
    with tracer.span("campaign", "other") if tracer else nullcontext() as root:
        if workload == "paper-serial":
            journal = CampaignJournal(cache.root / JOURNAL_NAME)
            outcomes.append(
                run_campaign(ids, config, ExecutionPlan(jobs=1), cache=cache, journal=journal)
            )
        elif workload == "fig3-parallel":
            with lease():
                outcomes.append(run_campaign(["fig3"], config, ExecutionPlan(jobs=2), cache=cache))
            leases[-1][1] = time.monotonic_ns()
        else:
            plan = ExecutionPlan(jobs=2, dispatch="point")
            for benchmark in BENCHMARKS[:1] if smoke else BENCHMARKS:
                with lease():
                    outcomes.append(
                        run_sweep_campaign(benchmark, list(BOARDS), config, plan, cache=cache)
                    )
                leases[-1][1] = time.monotonic_ns()
    wall_s = time.perf_counter() - started
    rss = _mb(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    worker_rss = _mb(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    checks: list = []
    summary: dict = {}
    entries = [e for o in outcomes for e in o.entries]
    _check(checks, "cold run computes every unit", all(not e.cache_hit for e in entries),
           f"{sum(e.cache_hit for e in entries)} cache hits")
    if workload == "fig3-parallel" or (workload == "paper-serial" and not smoke):
        fig3 = outcomes[0].entry("fig3").result.summary
        summary["vmin_err_mv"] = abs(fig3["vmin_mean_mv"] - VMIN_PAPER_MV)
        summary["vcrash_err_mv"] = abs(fig3["vcrash_mean_mv"] - VCRASH_PAPER_MV)
        _check(checks, "fig3 landmarks within 8 mV of the paper",
               max(summary["vmin_err_mv"], summary["vcrash_err_mv"]) <= LANDMARK_TOL_MV,
               f"vmin {fig3['vmin_mean_mv']} vcrash {fig3['vcrash_mean_mv']}")
    if workload == "paper-serial":
        stats = outcomes[0].journal_stats
        _check(checks, "journal: every unit fresh, none recomputed",
               stats["fresh"] == len(ids) and stats["recomputed"] == 0, json.dumps(stats))
        if not smoke:
            gain = outcomes[0].entry("fig5").result.summary["gain_at_vmin"]
            summary["gain_err"] = abs(gain - GAIN_PAPER)
            _check(checks, "fig5 gain within 0.15 of the paper",
                   summary["gain_err"] <= GAIN_TOL, f"gain_at_vmin {gain}")
        if spec["warm_check"]:
            warm = run_campaign(ids, config, ExecutionPlan(jobs=1), cache=cache, journal=journal)
            _check(checks, "warm re-run is all cache hits", warm.cache_hits == len(ids),
                   f"{warm.cache_hits}/{len(ids)} hits")
            # The run-metadata table (hit/computed, wall_s) differs by
            # design; everything from the first experiment section must not.
            cold_md = render_campaign_report(outcomes[0])
            warm_md = render_campaign_report(warm)
            sections = lambda md: md[md.index("\n## "):]  # noqa: E731
            _check(checks, "warm report sections byte-identical",
                   sections(cold_md) == sections(warm_md))
    if workload == "fig3-parallel":
        entry = outcomes[0].entry("fig3")
        fabric = fabrics[0]
        _check(checks, "fig3 sharded over one leased pool",
               entry.n_shards > 1 and fabric.pools_spawned == 1
               and fabric.tasks_dispatched == entry.n_shards,
               f"{entry.n_shards} shards, {fabric.pools_spawned} pools, "
               f"{fabric.tasks_dispatched} tasks")
    if workload == "sweep-rounds":
        _check(checks, "every sweep reached its crash voltage",
               all(e.result.summary.get("crash_mv") is not None for e in entries))

    points = PointCache(cache.point_root)
    if spec["tamper"]:
        victim = points.entries()[0]
        victim.write_bytes(victim.read_bytes() + b" ")
    result = {
        "t_call_ns": t_call,
        "wall_s": wall_s,
        "rss_peak_mb": rss,
        "worker_rss_peak_mb": worker_rss,
        "store_digest": _store_digest(points),
        "rows_digest": _rows_digest(outcomes),
        "summary": summary,
        "checks": checks,
    }
    if tracer is not None:
        tracer.flush()
        fabric_stats = {
            "fabric.pools_spawned": sum(f.pools_spawned for f in fabrics),
            "fabric.tasks_dispatched": sum(f.tasks_dispatched for f in fabrics),
            "fabric.broken_pools": sum(f.broken_pools for f in fabrics),
        }
        result["layers"] = finish_trace(spec, root.record, fabric_stats, leases)
    return result


def finish_trace(spec: dict, root: dict, extra: dict, leases: list) -> dict:
    """Merge the run's span files, write trace.json + Chrome trace, compute layers."""
    trace_dir = Path(spec["trace_dir"])
    spans, counters = e2e_trace.merge(trace_dir)
    for path in trace_dir.glob("spans-*.jsonl"):
        path.unlink()
    layers = layer_metrics(spans, counters, leases)
    layers.update(extra)
    self_s = e2e_trace.self_times(spans, root, {"pool": 2, "threads": 2})
    layers.update({f"self_s.{layer}": value for layer, value in self_s.items()})
    layers["wall_s"] = (root["t1"] - root["t0"]) / 1e9
    (trace_dir / "trace.json").write_text(
        json.dumps({"root": root["id"], "spans": spans, "counters": counters})
    )
    (trace_dir / "trace.chrome.json").write_text(json.dumps(e2e_trace.chrome_trace(spans)))
    return layers


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict], counters: dict, leases: list) -> dict:
    """Per-layer metrics from merged spans and counts (serve ones come from run.py)."""
    totals = e2e_trace.span_totals(spans)
    n = lambda name: totals.get(name, (0, 0.0))[0]  # noqa: E731
    s = lambda name: totals.get(name, (0, 0.0))[1]  # noqa: E731
    c = lambda name: counters.get(name, 0)  # noqa: E731
    tasks = ("task.run_unit", "task.run_sweep_unit", "task.measure_round_task")
    first_task = []
    chunk_starts = sorted(sp["t0"] for sp in spans if sp["name"] == "executor.chunk")
    for t0, t1 in leases:
        inside = [t for t in chunk_starts if t0 <= t <= t1]
        if inside:
            first_task.append((inside[0] - t0) / 1e9)
    hits, misses = c("clean_cache.hits"), c("clean_cache.misses")
    evaluated = c("sweep.points_executed") + c("sweep.liveness_probes")
    return {
        "fabric.first_task_s": _ratio(sum(first_task), len(first_task)),
        "fabric.close_s": s("fabric.close"),
        "executor.calls": c("executor.calls"),
        "executor.tasks": c("executor.tasks"),
        "executor.busy_s": s("executor.run_tasks"),
        "executor.task_arg_bytes": c("executor.task_arg_bytes"),
        "executor.task_result_bytes": c("executor.task_result_bytes"),
        "task.n": sum(n(t) for t in tasks),
        "task.busy_s": sum(s(t) for t in tasks),
        "task.wait_s": c("task.wait_s"),
        "zoo.build_n": n("zoo.build"),
        "zoo.build_s": s("zoo.build"),
        "plane.load_n": n("plane.load"),
        "plane.load_s": s("plane.load"),
        "plane.spill_n": n("plane.spill"),
        "plane.spill_s": s("plane.spill"),
        "sweep.n": n("sweep.run"),
        "sweep.busy_s": s("sweep.run"),
        "sweep.rounds": c("sweep.rounds"),
        "sweep.points_executed": c("sweep.points_executed"),
        "sweep.liveness_probes": c("sweep.liveness_probes"),
        "sweep.hang_probes": c("sweep.hang_probes"),
        "sweep.measured_ratio": _ratio(c("sweep.measurements"), evaluated),
        "session.plan_n": n("session.plan"),
        "session.plan_s": s("session.plan"),
        "session.execute_n": n("session.execute"),
        "session.execute_s": s("session.execute"),
        "session.finalize_s": s("session.finalize"),
        "engine.run_points_n": n("engine.run_points"),
        "engine.run_points_s": s("engine.run_points"),
        "engine.lanes": c("engine.lanes"),
        "differential.forward_points_s": s("differential.forward_points"),
        "differential.clean_capture_n": n("differential.clean_capture"),
        "differential.clean_capture_s": s("differential.clean_capture"),
        "clean_cache.hits": hits,
        "clean_cache.misses": misses,
        "clean_cache.hit_ratio": _ratio(hits, hits + misses),
        "points.load_n": n("points.load"),
        "points.load_hits": c("points.load_hits"),
        "points.hit_ratio": _ratio(c("points.load_hits"), n("points.load")),
        "points.load_s": s("points.load"),
        "points.store_n": n("points.store"),
        "points.store_s": s("points.store"),
        "points.store_bytes": c("points.store_bytes"),
        "cache.load_n": n("cache.load"),
        "cache.load_s": s("cache.load"),
        "cache.store_n": n("cache.store"),
        "cache.store_s": s("cache.store"),
        "journal.record_n": n("journal.record"),
        "journal.record_s": s("journal.record"),
        "query.open_s": s("query.open"),
        "query.precompute_s": s("query.precompute"),
    }


# ----------------------------------------------------------------------
# serve-open
# ----------------------------------------------------------------------


def serve_config(seed: int):
    from repro.core.experiment import ExperimentConfig

    return ExperimentConfig(seed=seed, repeats=1, samples=8, v_step=0.001)


def serve_benchmarks(smoke: bool) -> list[str]:
    return list(BENCHMARKS[:1] if smoke else BENCHMARKS)


def build_store(spec: dict) -> dict:
    """Grid-sweep every (benchmark, board) at 1 mV into ``cache_dir``."""
    from repro.runtime.cache import ResultCache
    from repro.runtime.campaign import run_sweep_campaign
    from repro.runtime.fabric import WorkerFabric
    from repro.runtime.plan import ExecutionPlan
    from repro.runtime.points import PointCache

    config = serve_config(spec["seed"])
    cache = ResultCache(spec["cache_dir"])
    with WorkerFabric(2, blob_root=cache.blob_root):
        for benchmark in serve_benchmarks(spec["smoke"]):
            run_sweep_campaign(benchmark, list(BOARDS), config, ExecutionPlan(jobs=2), cache=cache)
    return {"points_stored": len(PointCache(cache.point_root).entries())}


def serve_query(spec: dict) -> dict:
    """Answer the request batch in-process, untraced then traced."""
    from urllib.parse import parse_qs, urlsplit

    from repro.runtime.query import open_index
    from repro.serve import render_response

    config = serve_config(spec["seed"])
    urls = request_mix(spec["seed"], spec["batch"], serve_benchmarks(spec["smoke"]), list(BOARDS))
    requests = [(u.path, parse_qs(u.query)) for u in map(urlsplit, urls)]

    def execute(tracer):
        span = tracer.span if tracer else lambda *a: nullcontext()
        started = time.perf_counter()
        with span("serve.query", "other") as root:
            with span("query.open", "query"):
                index = open_index(spec["cache_dir"], config=config)
            with span("query.precompute", "query"):
                index.precompute_landmarks()
            statuses = [render_response(index, False, path, params)[0] for path, params in requests]
        stats = index.stats()
        index.close()
        return time.perf_counter() - started, statuses, stats, root

    untraced_s, statuses, stats, _ = execute(None)
    tracer = e2e_trace.install(spec["trace_dir"], spec["run_id"])
    traced_s, traced_statuses, _, root = execute(tracer)
    tracer.flush()
    layers = finish_trace(spec, root.record, {}, [])
    layers["query.points_indexed"] = stats["points"]["indexed"]
    layers["query.datasets"] = stats["datasets"]
    checks: list = []
    _check(checks, "in-process answers are all 200",
           all(code == 200 for code in statuses + traced_statuses))
    return {"untraced_s": untraced_s, "traced_s": traced_s, "layers": layers, "checks": checks}


ACTIONS = {"campaign": run_campaign_workload, "build-store": build_store, "serve-query": serve_query}

if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    print(json.dumps(ACTIONS[spec["action"]](spec)))
