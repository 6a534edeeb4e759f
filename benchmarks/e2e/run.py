"""End-to-end benchmark: four cold-start workloads, metrics, and a traced breakdown.

Run from the repository root::

    python benchmarks/e2e/run.py run --workload all --seed 2020
    python benchmarks/e2e/run.py trace fig3-parallel --seed 2020
    python benchmarks/e2e/run.py compare PARENT_DIR CHANGE_DIR
    python benchmarks/e2e/run.py history RESULTS_DIR --out FILE

and, in the form ``BENCHMARK.json`` names::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

Every measured execution runs in a fresh child process (``e2e_child.py``)
with the BLAS thread variables taken out of the inherited environment and
set to 1.  Each run prints its metrics with units, checks
the program's outputs, writes a result file under ``--out``, and ends
with one JSON line: ``correct``, ``attempted``, ``failed`` and the
``BENCHMARK.json`` metrics (end-to-end ones untraced, per-layer ones with
tracing).  A failed check exits 1.  See README.md for the workloads, the
metrics and how to compare two commits.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import e2e_loadgen  # noqa: E402
import e2e_trace  # noqa: E402
from e2e_child import BOARDS, _check, serve_benchmarks  # noqa: E402

WORKLOADS = ("paper-serial", "fig3-parallel", "sweep-rounds", "serve-open")
FABRIC = ("fig3-parallel", "sweep-rounds")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: End-to-end metrics ``BENCHMARK.json`` does not gate: unit, better
#: direction, the workloads it applies to, and the regression bound
#: ``compare`` uses.  The gated ones apply to every workload and take
#: their unit, direction and bound from ``BENCHMARK.json``.
EXTRA_METRICS = {
    "worker_rss_peak_mb": ("MB", "lower", FABRIC, 0.10),
    "fail_frac": ("ratio", "lower", WORKLOADS, 0.0),
    "p50_ms": ("ms", "lower", ("serve-open",), 0.25),
    "p99_ms": ("ms", "lower", ("serve-open",), 0.25),
    "max_rps": ("req/s", "higher", ("serve-open",), 0.25),
    "vmin_err_mv": ("mV", "lower", ("paper-serial", "fig3-parallel"), 0.0),
    "vcrash_err_mv": ("mV", "lower", ("paper-serial", "fig3-parallel"), 0.0),
    "gain_err": ("x", "lower", ("paper-serial",), 0.0),
}

#: ``compare`` calls a verdict only over at least this many seed pairs.
MIN_PAIRS = 10

#: Open-loop rate ladder (req/s) of ``serve-open``.
RATES = (100, 200, 400, 600, 800)
#: ``max_rps`` conditions.
P99_LIMIT_MS, LAG_GROWTH_LIMIT_MS = 100.0, 10.0
#: Requests per closed-loop batch (``serve-open``'s ``wall_s``).
BATCH, SMOKE_BATCH = 400, 40
#: Shares of ``--seconds`` spent on closed-loop batches and on the ladder.
DRAIN_SHARE, LADDER_SHARE = 0.45, 0.3
CHILD_TIMEOUT_S = 150


class CheckFailed(Exception):
    pass


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def end_to_end_metrics(spec: dict) -> dict[str, tuple]:
    """Every end-to-end metric: unit, better direction, workloads, bound."""
    gated = {e["name"]: (e["unit"], e["better"], WORKLOADS, e["bound"]) for e in spec["end_to_end"]}
    return {**gated, **EXTRA_METRICS}


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------


def child_env() -> tuple[dict, dict]:
    """The children's environment (one BLAS thread), and the BLAS variables it replaced."""
    env = dict(os.environ)
    inherited = {k: env.pop(k) for k in BLAS_VARS if k in env}
    env.update({k: "1" for k in BLAS_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env, inherited


def _stop_group(proc: subprocess.Popen, grace_s: float = 10.0) -> None:
    """Stop a child and everything it started, then wait for it."""
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGTERM)
            proc.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        except ProcessLookupError:
            proc.wait()


def run_child(spec: dict, env: dict) -> dict:
    """Run one ``e2e_child.py`` action; its setup_s counts from the spawn."""
    spawned = time.monotonic_ns()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "e2e_child.py"), json.dumps(spec)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _stop_group(proc, grace_s=1.0)
        raise CheckFailed(f"{spec['action']} child timed out after {CHILD_TIMEOUT_S}s")
    finally:
        _stop_group(proc)
    if proc.returncode != 0:
        raise CheckFailed(f"{spec['action']} child exited {proc.returncode}:\n{stderr[-3000:]}")
    result = json.loads(stdout.strip().splitlines()[-1])
    if "t_call_ns" in result:
        result["setup_s"] = (result["t_call_ns"] - spawned) / 1e9
    return result


# ----------------------------------------------------------------------
# Campaign workloads
# ----------------------------------------------------------------------


def run_campaign(args, workload: str, traced: bool, env: dict, tmp: Path) -> dict:
    """Fresh-process executions for ``--seconds``, medians, and checks."""
    budget = args.seconds / 2 if traced else args.seconds
    minimum = 1 if traced else (2 if args.smoke else 3)
    runs, checks = [], []
    started = time.monotonic()
    while len(runs) < minimum or time.monotonic() - started < budget:
        runs.append(run_child(_campaign_spec(args, workload, tmp, len(runs), None), env))
    if traced:
        trace_dir = OUT / "trace" / f"{workload}-seed{args.seed}"
        shutil.rmtree(trace_dir, ignore_errors=True)
        traced_run = run_child(_campaign_spec(args, workload, tmp, len(runs), trace_dir), env)
    for run in runs + ([traced_run] if traced else []):
        merge_checks(checks, run["checks"])
    _check(checks, "every execution leaves a byte-identical point store",
           len({r["store_digest"] for r in runs + ([traced_run] if traced else [])}) == 1)
    _check(checks, "every execution produces identical result rows",
           len({r["rows_digest"] for r in runs + ([traced_run] if traced else [])}) == 1)
    med = lambda key: statistics.median(r[key] for r in runs)  # noqa: E731
    metrics = {
        "setup_s": med("setup_s"),
        "wall_s": med("wall_s"),
        "rss_peak_mb": med("rss_peak_mb"),
        "fail_frac": 0.0,
        **runs[0]["summary"],
    }
    if workload in FABRIC:
        metrics["worker_rss_peak_mb"] = med("worker_rss_peak_mb")
    out = {"metrics": metrics, "checks": checks, "attempted": len(runs), "failed": 0,
           "samples": {k: [r[k] for r in runs] for k in ("setup_s", "wall_s", "rss_peak_mb")}}
    if traced:
        layers = traced_run["layers"]
        layers["trace.overhead_pct"] = (layers["wall_s"] / metrics["wall_s"] - 1.0) * 100.0
        out["layers"] = layers
        out["attempted"] += 1
    return out


def _campaign_spec(args, workload, tmp, index, trace_dir) -> dict:
    return {
        "action": "campaign", "workload": workload, "seed": args.seed, "smoke": args.smoke,
        "cache_dir": str(tmp / f"exec-{index}"),
        "trace_dir": str(trace_dir) if trace_dir else None,
        "run_id": f"{workload}-{args.seed}-{index}",
        "warm_check": workload == "paper-serial" and index == 0,
        "tamper": args.tamper_store and index == 1,
    }


def merge_checks(checks: list, new: list) -> None:
    """Fold per-execution checks into one entry per name (first failure kept)."""
    by_name = {c["name"]: c for c in checks}
    for check in new:
        seen = by_name.get(check["name"])
        if seen is None:
            checks.append(dict(check))
            by_name[check["name"]] = checks[-1]
        elif seen["ok"] and not check["ok"]:
            seen.update(ok=False, detail=check["detail"])


# ----------------------------------------------------------------------
# serve-open
# ----------------------------------------------------------------------


class ServeProcess:
    """A ``repro-undervolt serve`` subprocess and its measured set-up time."""

    def __init__(self, store: Path, seed: int, env: dict, log: Path):
        spawned = time.monotonic()
        self.log = open(log, "a")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--cache-dir", str(store), "--seed", str(seed), "--repeats", "1", "--samples", "8"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self.log, text=True,
            start_new_session=True,
        )
        try:
            self.host, self.port = self._bound_address(deadline=spawned + 90.0)
            while self.get("/healthz")[0] != 200:
                if time.monotonic() > spawned + 90.0:
                    raise CheckFailed("server never answered /healthz with 200")
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.monotonic() - spawned

    def _bound_address(self, deadline: float) -> tuple[str, int]:
        while True:
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, remaining))
            line = self.proc.stdout.readline() if ready else ""
            match = re.search(r"on http://([\d.]+):(\d+)", line)
            if match:
                return match.group(1), int(match.group(2))
            if not line and (not ready or self.proc.poll() is not None):
                raise CheckFailed("server exited or never printed its address")

    def get(self, path: str) -> tuple[int, bytes]:
        try:
            with urllib.request.urlopen(f"http://{self.host}:{self.port}{path}", timeout=10) as r:
                return r.status, r.read()
        except OSError:
            return 0, b""

    def get_json(self, path: str) -> dict:
        status, body = self.get(path)
        if status != 200:
            raise CheckFailed(f"GET {path} answered {status}")
        return json.loads(body)

    def vmhwm_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise CheckFailed("no VmHWM for the server process")

    def stop(self) -> None:
        _stop_group(self.proc)
        self.log.close()


def run_serve(args, traced: bool, env: dict, tmp: Path) -> dict:
    """Build the store, start servers, drive the closed batch and the ladder."""
    smoke, seed = args.smoke, args.seed
    store = tmp / "store"
    base = {"seed": seed, "smoke": smoke, "cache_dir": str(store)}
    built = run_child({"action": "build-store", **base}, env)
    benchmarks, boards = serve_benchmarks(smoke), list(BOARDS)
    batch = e2e_loadgen.request_mix(seed, SMOKE_BATCH if smoke else BATCH, benchmarks, boards)
    ladder_urls = e2e_loadgen.request_mix(seed + 1, 4000, benchmarks, boards)
    step_s = 0.3 if smoke else LADDER_SHARE * args.seconds / len(RATES)
    checks: list = []

    setups = []
    starts = 1 if smoke else 3
    for i in range(starts):
        server = ServeProcess(store, seed, env, tmp / "serve.log")
        setups.append(server.setup_s)
        if i < starts - 1:
            server.stop()
    samples, walls, ladder = [], [], {}
    try:
        health = server.get_json("/healthz")
        _check(checks, "server indexes every stored point",
               health["points_indexed"] == built["points_stored"],
               f"{health['points_indexed']} indexed, {built['points_stored']} stored")
        metrics0, stats0 = server.get_json("/metrics"), server.get_json("/stats")
        # One untimed batch first: the LRU and the handlers' memos fill.
        samples.extend(e2e_loadgen.closed_batch(server.host, server.port, batch).samples)
        started = time.monotonic()
        while len(walls) < (1 if smoke else 3) or time.monotonic() - started < DRAIN_SHARE * args.seconds:
            result = e2e_loadgen.closed_batch(server.host, server.port, batch)
            walls.append(result.wall_s)
            samples.extend(result.samples)
        for rate in RATES:
            result = e2e_loadgen.open_step(server.host, server.port, ladder_urls, rate, step_s, seed)
            ladder[rate] = e2e_loadgen.step_summary(result)
            ladder[rate]["samples"] = result.samples
            samples.extend(result.samples)
        metrics1, stats1 = server.get_json("/metrics"), server.get_json("/stats")
        rss = server.vmhwm_mb()
    finally:
        server.stop()

    failed = sum(1 for s in samples if s.status != 200)
    _check(checks, "every request answered 200", failed == 0, f"{failed} failed")
    etags: dict[str, set] = {}
    for s in samples:
        if s.status == 200:
            etags.setdefault(s.url, set()).add(s.etag)
    drifted = [url for url, seen in etags.items() if len(seen) > 1]
    _check(checks, "each URL keeps one ETag across the run", not drifted, ", ".join(drifted[:3]))
    passing = [
        rate for rate, step in ladder.items()
        if step["p99_ms"] <= P99_LIMIT_MS and step["failed"] == 0 and step["dropped"] == 0
        and step["lag_last_ms"] - step["lag_first_ms"] <= LAG_GROWTH_LIMIT_MS
    ]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "rss_peak_mb": rss,
        "fail_frac": failed / len(samples),
        "p50_ms": ladder[200]["p50_ms"],
        "p99_ms": ladder[200]["p99_ms"],
        "max_rps": float(max(passing, default=0)),
    }
    out = {
        "metrics": metrics, "checks": checks, "attempted": len(samples), "failed": failed,
        "samples": {"setup_s": setups, "wall_s": walls, "rss_peak_mb": [rss]},
        "ladder": {str(r): {k: v for k, v in s.items() if k != "samples"} for r, s in ladder.items()},
    }
    if traced:
        trace_dir = OUT / "trace" / f"serve-open-seed{seed}"
        shutil.rmtree(trace_dir, ignore_errors=True)
        query = run_child(
            {"action": "serve-query", **base, "batch": len(batch), "trace_dir": str(trace_dir),
             "run_id": f"serve-open-{seed}"},
            env,
        )
        merge_checks(checks, query["checks"])
        layers = query["layers"]
        layers["trace.overhead_pct"] = (query["traced_s"] / query["untraced_s"] - 1.0) * 100.0
        layers.update(_serve_layers(metrics0, metrics1, stats0, stats1, ladder))
        out["layers"] = layers
    return out


def _serve_layers(m0: dict, m1: dict, s0: dict, s1: dict, ladder: dict) -> dict:
    """Server-side per-layer numbers: /metrics and /stats deltas, ladder p99s."""
    d = lambda name: m1["counters"][name] - m0["counters"][name]  # noqa: E731
    lru = {k: s1["lru"][k] - s0["lru"][k] for k in ("hits", "misses", "evictions")}
    lags = [(s.sent - s.due) * 1000.0 for step in ladder.values() for s in step["samples"]]
    out = {
        "serve.requests": d("requests_total"),
        "serve.dedupe_requests": d("dedupe_requests_total"),
        "serve.computations": d("computations_total"),
        "serve.coalesce_ratio": d("dedupe_requests_total") / max(1, d("computations_total")),
        "serve.window_hits": d("window_hits_total"),
        "serve.shed": d("shed_total"),
        "serve.errors": d("errors_total"),
        "serve.in_flight_peak": m1["gauges"]["in_flight_peak"],
        "query.lru_hits": lru["hits"],
        "query.lru_misses": lru["misses"],
        "query.lru_evictions": lru["evictions"],
        "query.lru_hit_ratio": lru["hits"] / max(1, lru["hits"] + lru["misses"]),
        "loadgen.sent": sum(step["n"] for step in ladder.values()),
        "loadgen.lag_p99_ms": e2e_loadgen.percentile(lags, 99.0),
        "loadgen.lag_max_ms": max(lags, default=0.0),
    }
    out.update({f"serve.p99_ms.r{rate}": step["p99_ms"] for rate, step in ladder.items()})
    return out


# ----------------------------------------------------------------------
# One workload, end to end
# ----------------------------------------------------------------------


def metadata(args, inherited: dict) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    try:
        import numpy

        found = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: found.get(k) for k in ("name", "version", "openblas configuration")}
    except Exception as exc:  # numpy missing or its config layout changed
        blas = {"error": f"{type(exc).__name__}: {exc}"}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": sha,
        "blas": blas,
        "blas_env_inherited": inherited,
        "seconds": args.seconds,
        "smoke": args.smoke,
    }


def run_workload(args, workload: str, traced: bool, spec: dict) -> dict:
    env, inherited = child_env()
    tmp = OUT / "tmp" / f"{workload}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        if workload == "serve-open":
            result = run_serve(args, traced, env, tmp)
        else:
            result = run_campaign(args, workload, traced, env, tmp)
    except CheckFailed as exc:
        result = {"metrics": {}, "checks": [], "attempted": 1, "failed": 1, "error": str(exc)}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result.update(
        workload=workload, seed=args.seed, traced=traced, meta=metadata(args, inherited),
        correct=("error" not in result and all(c["ok"] for c in result["checks"])),
    )
    report(result, spec)
    args.out.mkdir(parents=True, exist_ok=True)
    name = f"{workload}-seed{args.seed}-{'trace' if traced else 'run'}-{time.time_ns()}.json"
    (args.out / name).write_text(json.dumps(result, indent=1, sort_keys=True))
    return result


def report(result: dict, spec: dict) -> None:
    """Print the workload's metrics, per-layer table and checks."""
    workload = result["workload"]
    print(f"\n== {workload} (seed {result['seed']}{', traced' if result['traced'] else ''})")
    if "error" in result:
        print(f"   ERROR: {result['error']}")
    for name, (unit, better, applies, _bound) in end_to_end_metrics(spec).items():
        if workload in applies and name in result["metrics"]:
            print(f"   {name:<22} {result['metrics'][name]:>14.6g} {unit:<6} ({better} is better)")
    layers = result.get("layers")
    if layers:
        wall = layers["wall_s"]
        print(f"   self time by layer (traced wall {wall:.3f} s):")
        for layer in e2e_trace.LAYERS:
            value = layers[f"self_s.{layer}"]
            share = value / wall * 100.0 if wall else 0.0
            print(f"   {'self_s.' + layer:<30} {value:>14.6g} s      {share:5.1f}%")
        for entry in spec["per_layer"]:
            if not entry["name"].startswith("self_s."):
                value = per_layer_value(layers, entry["name"])
                print(f"   {entry['name']:<30} {value:>14.6g} {entry['unit']}")
    for check in result["checks"]:
        mark = "ok  " if check["ok"] else "FAIL"
        print(f"   [{mark}] {check['name']}{': ' + check['detail'] if check['detail'] else ''}")


def per_layer_value(layers: dict, name: str) -> float:
    """A per-layer metric; layers a workload never enters read 0."""
    return float(layers.get(name, 0.0))


def contract_line(result: dict, traced: bool, spec: dict) -> dict:
    if traced:
        metrics = {
            e["name"]: {"value": per_layer_value(result.get("layers", {}), e["name"]), "unit": e["unit"]}
            for e in spec["per_layer"]
        }
    else:
        metrics = {
            e["name"]: {"value": result["metrics"][e["name"]], "unit": e["unit"]}
            for e in spec["end_to_end"] if e["name"] in result["metrics"]
        }
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


# ----------------------------------------------------------------------
# compare / history
# ----------------------------------------------------------------------


def load_runs(directory: Path) -> dict[str, dict[int, dict]]:
    """Untraced result files of a directory, per workload and seed.

    ``compare`` pairs runs by seed, so a second untraced run of one
    workload and seed is an error: which of them to pair would be a guess.
    """
    runs: dict[str, dict[int, dict]] = {}
    for path in sorted(directory.glob("*.json")):
        result = json.loads(path.read_text())
        if result.get("traced"):
            continue
        by_seed = runs.setdefault(result["workload"], {})
        if result["seed"] in by_seed:
            raise ValueError(
                f"{directory}: more than one {result['workload']} run for seed {result['seed']}"
            )
        by_seed[result["seed"]] = result
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(pairs: list[tuple[float, float]], better: str, bound: float) -> tuple[str, float]:
    """improved / unchanged / regressed / unresolved, and the win fraction.

    ``pairs`` holds one (parent, change) value per seed.  Fewer than
    ``MIN_PAIRS`` pairs are unresolved.  A metric with bound 0 is
    deterministic per seed: unchanged when every pair is equal, improved
    when the change wins at least 9 of 10 pairs, regressed otherwise.
    For the others, improved: at least 9 of 10 pairs won (ties count for
    neither) and the medians differ by more than the parent's IQR.
    Unresolved: the parent's own spread is wider than the bound, unless
    every change run beats every parent run.  Regressed: the change's
    median is worse by more than ``bound`` of the parent's.
    """
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0) / max(1, len(pairs))
    if len(pairs) < MIN_PAIRS:
        return "unresolved", wins
    if bound == 0:
        if all(p == c for p, c in pairs):
            return "unchanged", wins
        return ("improved" if wins >= 0.9 else "regressed"), wins
    parent, change = [p for p, _ in pairs], [c for _, c in pairs]
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    gain = sign * (cm - pm)
    allowed = bound * abs(pm)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if gain > 0 and wins >= 0.9 and abs(cm - pm) > p3 - p1:
        return "improved", wins
    if p3 - p1 > allowed and not all_better:
        return "unresolved", wins
    if -gain > allowed:
        return "regressed", wins
    return "unchanged", wins


def compare(parent_dir: Path, change_dir: Path, spec: dict) -> int:
    try:
        parent, change = load_runs(parent_dir), load_runs(change_dir)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{'workload':<14} {'metric':<20} {'parent med [q1, q3]':<32} "
          f"{'change med [q1, q3]':<32} {'pairs':>5} {'wins':>5}  verdict")
    regressed = False
    for workload in WORKLOADS:
        p_runs, c_runs = parent.get(workload, {}), change.get(workload, {})
        unpaired = sorted(p_runs.keys() ^ c_runs.keys())
        if unpaired:
            print(f"{workload}: seeds without a pair, left out: {unpaired}")
        seeds = sorted(p_runs.keys() & c_runs.keys())
        for name, (unit, better, applies, bound) in end_to_end_metrics(spec).items():
            pairs = [
                (p_runs[s]["metrics"][name], c_runs[s]["metrics"][name]) for s in seeds
                if name in p_runs[s]["metrics"] and name in c_runs[s]["metrics"]
            ]
            if workload not in applies or not pairs:
                continue
            result, wins = verdict(pairs, better, bound)
            regressed |= result == "regressed"
            fmt = lambda v: "{1:.4g} [{0:.4g}, {2:.4g}] {unit}".format(*quartiles(v), unit=unit)  # noqa: E731
            pv, cv = [p for p, _ in pairs], [c for _, c in pairs]
            print(f"{workload:<14} {name:<20} {fmt(pv):<32} {fmt(cv):<32} "
                  f"{len(pairs):>5} {wins:>5.2f}  {result}")
    return 1 if regressed else 0


def history(results_dir: Path, out: Path, spec: dict) -> int:
    """Aggregate result files into one trajectory point (medians, layer shares)."""
    point: dict = {"workloads": {}}
    for path in sorted(results_dir.glob("*.json")):
        result = json.loads(path.read_text())
        point["meta"] = result["meta"]
        entry = point["workloads"].setdefault(result["workload"], {}).setdefault(
            f"seed{result['seed']}", {"runs": 0, "metrics": {}, "self_time_share": None}
        )
        if result["traced"]:
            layers = result["layers"]
            entry["self_time_share"] = {
                k[7:]: layers[k] / layers["wall_s"] for k in layers if k.startswith("self_s.")
            }
            entry["trace_overhead_pct"] = layers["trace.overhead_pct"]
            continue
        entry["runs"] += 1
        for name, value in result["metrics"].items():
            entry["metrics"].setdefault(name, []).append(value)
    units = {name: unit for name, (unit, *_rest) in end_to_end_metrics(spec).items()}
    for workload in point["workloads"].values():
        for entry in workload.values():
            entry["metrics"] = {
                name: dict(zip(("q1", "median", "q3"), quartiles(values)), unit=units[name])
                for name, values in entry["metrics"].items()
            }
    point["meta"].pop("smoke", None)
    out.write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------


def _add_run_flags(parser, spec: dict) -> None:
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measured seconds per workload (default from BENCHMARK.json)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and the fewest executions (the tier-1 test)")
    parser.add_argument("--out", type=Path, default=OUT / "runs",
                        help="directory for result files (default out/runs)")
    parser.add_argument("--tamper-store", action="store_true", help=argparse.SUPPRESS)


def main(argv: list[str]) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    if argv and argv[0].startswith("--"):
        # The BENCHMARK.json form: one workload, tracing chosen by --trace.
        parser.add_argument("--workload", choices=WORKLOADS, required=True)
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
        _add_run_flags(parser, spec)
        args = parser.parse_args(argv)
        workloads, traced = [args.workload], bool(args.trace)
    else:
        sub = parser.add_subparsers(dest="command", required=True)
        p_run = sub.add_parser("run", help="measure workloads untraced")
        p_run.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
        _add_run_flags(p_run, spec)
        p_trace = sub.add_parser("trace", help="measure workloads, then trace one execution each")
        p_trace.add_argument("workload", choices=WORKLOADS + ("all",))
        _add_run_flags(p_trace, spec)
        p_cmp = sub.add_parser("compare", help="per-metric verdicts between two result dirs")
        p_cmp.add_argument("parent", type=Path)
        p_cmp.add_argument("change", type=Path)
        p_hist = sub.add_parser("history", help="aggregate result files into a trajectory point")
        p_hist.add_argument("results", type=Path)
        p_hist.add_argument("--out", type=Path, required=True)
        args = parser.parse_args(argv)
        if args.command == "compare":
            return compare(args.parent, args.change, spec)
        if args.command == "history":
            return history(args.results, args.out, spec)
        workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
        traced = args.command == "trace"
    if args.smoke:
        args.seconds = 0.0
    ok = True
    for workload in workloads:
        result = run_workload(args, workload, traced, spec)
        ok &= result["correct"]
        print(json.dumps(contract_line(result, traced, spec)), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
