#!/usr/bin/env python
"""Regenerate the committed CI benchmark baseline.

Runs the gated benchmark files (``benchmarks/bench_micro.py`` and
``benchmarks/bench_runtime.py``) under pytest-benchmark, distills the
per-benchmark median timings into ``benchmarks/baselines/ci.json``, and
preserves the gate configuration (regression tolerance and the batched
-over-loop speedup requirements).

Run it on the reference CI hardware whenever the gated benchmarks change
shape or the expected performance legitimately moves::

    PYTHONPATH=src python scripts/update_bench_baseline.py

``scripts/check_bench_regression.py`` compares fresh results against this
file and fails CI on a >25% median regression or a broken speedup gate.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "benchmarks" / "baselines" / "ci.json"
BENCH_FILES = [
    "benchmarks/bench_micro.py",
    "benchmarks/bench_runtime.py",
    "benchmarks/bench_sweep.py",
    "benchmarks/bench_query.py",
    "benchmarks/bench_executor.py",
    "benchmarks/bench_serve.py",
    "benchmarks/bench_fleet.py",
]

#: Gate configuration carried into the baseline file.  The speedup and
#: extra_info gates are hardware-independent ratios; the medians are
#: hardware-specific and refreshed by this script.
DEFAULT_TOLERANCE = 0.25
SPEEDUP_GATES = [
    {
        "fast": "benchmarks/bench_micro.py::test_measurement_repeats10_batched",
        "slow": "benchmarks/bench_micro.py::test_measurement_repeats10_loop",
        "min_ratio": 3.0,
        "why": "repeats=10 measurement path: batched repeat mode must stay "
               ">=3x faster than the per-repeat loop at the Vmin edge",
    },
    {
        "fast": "benchmarks/bench_sweep.py::test_fig3_landmarks_adaptive",
        "slow": "benchmarks/bench_sweep.py::test_fig3_landmarks_grid_dense",
        "min_ratio": 12.0,
        "why": "fig3 landmark search at 1 mV resolution: the adaptive "
               "strategy must stay >=12x faster wall-clock than the dense "
               "grid while reaching identical Vmin/Vcrash (asserted in "
               "the bench body).  Voltage-axis round batching is what "
               "lifts this past the old ~5x: probe rounds are planned as "
               "speculative batches and each round is one voltage-stacked "
               "engine pass, so most of the adaptive dance costs liveness "
               "checks instead of full measurements",
    },
    {
        "fast": "benchmarks/bench_query.py::test_query_warm_lru",
        "slow": "benchmarks/bench_query.py::test_query_cold_index",
        "min_ratio": 5.0,
        "why": "characterization serving path: a warm index (LRU + "
               "landmark memo) must answer a mixed query batch >=5x "
               "faster than rebuilding the index from the on-disk point "
               "store; the bench bodies additionally assert cold and "
               "warm answers are identical and that the warm path "
               "computes nothing",
    },
    {
        "fast": "benchmarks/bench_executor.py::test_fig3_fleet_point_probes_warm_fabric",
        "slow": "benchmarks/bench_executor.py::test_fig3_fleet_point_probes_cold_pools",
        "min_ratio": 2.0,
        "why": "warm-worker execution fabric: a repeats-heavy adaptive "
               "fig3 fleet with every sweep round dispatched to workers "
               "as one measure_round_task must run >=2x faster on one "
               "leased pool (warm models + fabric-scope clean passes) "
               "than on a fresh pool per round; the bench body "
               "additionally asserts identical landmarks and point counts",
    },
    {
        "fast": "benchmarks/bench_fleet.py::test_fleet_sharded_fabric",
        "slow": "benchmarks/bench_fleet.py::test_fleet_per_board_dispatch",
        "min_ratio": 1.3,
        "why": "fleet fan-out granularity: the chunked fabric-sharded "
               "fleet campaign must stay >=1.3x faster than the same "
               "campaign dispatched at per-board scale (25-board units) "
               "— chunking amortizes the per-unit fixed costs (fleet "
               "minting, trace splitting, dispatch, result store) that "
               "otherwise swamp the simulation, the same story as the "
               "sweep's round batching; the bench bodies additionally "
               "assert all modes produce byte-identical fleet payloads",
    },
    {
        "fast": "benchmarks/bench_executor.py::test_workload_build_from_plane",
        "slow": "benchmarks/bench_executor.py::test_workload_build_cold",
        "min_ratio": 5.0,
        "why": "content-addressed model plane: loading a spilled "
               "workload (memory-mapped blobs, no weight generation or "
               "calibration pass) must beat a from-scratch build >=5x; "
               "the bench body asserts the loaded workload serves "
               "identical labels and clean accuracy",
    },
]
EXTRA_INFO_RATIO_GATES = [
    {
        "key": "points_executed",
        "fast": "benchmarks/bench_sweep.py::test_fig3_landmarks_adaptive",
        "slow": "benchmarks/bench_sweep.py::test_fig3_landmarks_grid_dense",
        "min_ratio": 3.0,
        "why": "the adaptive strategy must execute >=3x fewer voltage "
               "points than the dense grid at equal 1 mV resolution "
               "(hardware-independent counter recorded by the bench)",
    },
    {
        "slow": "benchmarks/bench_sweep.py::test_fig3_landmarks_grid_dense",
        "slow_key": "points_executed",
        "fast": "benchmarks/bench_sweep.py::test_fig3_landmarks_grid_dense",
        "fast_key": "rounds_executed",
        "min_ratio": 4.0,
        "why": "round-batched execution: the dense grid must coalesce its "
               "voltage points into >=4x fewer execution rounds — one "
               "voltage-stacked engine pass (one fabric task under round "
               "dispatch) per round — instead of dispatching one task per "
               "point (hardware-independent counters recorded by the "
               "bench)",
    },
    {
        "slow": "benchmarks/bench_serve.py::test_serve_mixed_load_p99",
        "slow_key": "dedupe_requests",
        "fast": "benchmarks/bench_serve.py::test_serve_mixed_load_p99",
        "fast_key": "computations",
        "min_ratio": 3.0,
        "why": "serving-plane coalescing: under the burst-heavy "
               "repeated-identical-query workload the async dedupe map "
               "must answer >=3x more data-plane requests than it runs "
               "computations (counters read from /metrics deltas; the "
               "bench body additionally asserts byte-identity within "
               "every burst and an If-None-Match 304 round-trip)",
    },
]
#: Benchmarks whose wall-clock median is recorded for trend-watching
#: but never armed: the serve bench's duration is a function of host
#: load (8 client threads vs the event loop), and its deterministic
#: contract is the p99 cap + coalescing ratio below.
MEDIAN_ADVISORY = [
    "benchmarks/bench_serve.py::test_serve_mixed_load_p99",
]
EXTRA_INFO_MAX_GATES = [
    {
        "bench": "benchmarks/bench_serve.py::test_serve_mixed_load_p99",
        "key": "p99_ms",
        "max": 500.0,
        "why": "serving-plane tail latency: p99 under the 8-client mixed "
               "load must stay under 500 ms — two orders of magnitude "
               "above the expected single-digit-ms value, so the cap "
               "holds on any CI box but catches an event-loop stall or "
               "a per-request index rebuild",
    },
]


def run_benchmarks(json_path: pathlib.Path, bench_files: list[str]) -> None:
    cmd = [
        sys.executable, "-m", "pytest", *bench_files,
        "-q", f"--benchmark-json={json_path}",
    ]
    print("+", " ".join(cmd))
    subprocess.run(cmd, check=True, cwd=REPO_ROOT)


def medians_from_report(report: dict) -> dict[str, float]:
    return {
        bench["fullname"]: bench["stats"]["median"]
        for bench in report.get("benchmarks", [])
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--from-json",
        help="distill an existing pytest-benchmark JSON report instead of "
             "running the benchmarks",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help=f"median regression tolerance (default {DEFAULT_TOLERANCE})",
    )
    parser.add_argument("--out", default=str(BASELINE_PATH))
    args = parser.parse_args(argv)

    if args.from_json:
        report = json.loads(pathlib.Path(args.from_json).read_text())
    else:
        with tempfile.TemporaryDirectory() as tmp:
            json_path = pathlib.Path(tmp) / "bench.json"
            run_benchmarks(json_path, BENCH_FILES)
            report = json.loads(json_path.read_text())

    medians = medians_from_report(report)
    if not medians:
        print("no benchmarks in report; refusing to write an empty baseline")
        return 1
    baseline = {
        "generated_with": "scripts/update_bench_baseline.py",
        "machine": report.get("machine_info", {}).get("node", "unknown"),
        "tolerance": args.tolerance,
        "speedup_gates": SPEEDUP_GATES,
        "extra_info_ratio_gates": EXTRA_INFO_RATIO_GATES,
        "extra_info_max_gates": EXTRA_INFO_MAX_GATES,
        "median_advisory": MEDIAN_ADVISORY,
        "medians_s": dict(sorted(medians.items())),
    }
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out} ({len(medians)} benchmark medians)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
