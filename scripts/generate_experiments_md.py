#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md at the paper's measurement fidelity.

Runs every registered experiment with 10 fault-realization repeats per
operating point (the paper's protocol, Section 4) and writes the
paper-vs-measured report to the repository root.  The report is driven by
the campaign runtime: experiments fan out over ``--jobs`` worker
processes, and results are reused from the content-addressed cache, so a
re-run recomputes only experiments whose config or library version
changed.  The cache key does NOT cover source code — after editing
experiment/simulator code, bump ``repro.version`` or pass ``--no-cache``.
The generated document's run-metadata table records, per experiment, the
config hash (the cache key), whether it was a cache hit, and the compute
wall-clock.

Usage:
    python scripts/generate_experiments_md.py [--fast] [--jobs N]
                                              [--no-cache] [--cache-dir DIR]
                                              [--out PATH]

``--fast`` drops to 3 repeats / 64 samples for a quick refresh.
"""

import argparse
import pathlib
import sys
import time

from repro.analysis.report import generate_report
from repro.core.experiment import ExperimentConfig
from repro.runtime.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.runtime.plan import ExecutionPlan

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fast", action="store_true",
        help="3 repeats / 64 samples instead of the paper's 10 / 96",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the campaign runtime (default 1)",
    )
    parser.add_argument(
        "--cache-dir", default=str(ROOT / DEFAULT_CACHE_DIR),
        help="result cache directory (default <repo>/.repro-cache)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="recompute everything"
    )
    parser.add_argument(
        "--out", default=str(ROOT / "EXPERIMENTS.md"),
        help="output path (default <repo>/EXPERIMENTS.md)",
    )
    args = parser.parse_args()

    config = (
        ExperimentConfig(seed=2020, repeats=3, samples=64)
        if args.fast
        else ExperimentConfig(seed=2020, repeats=10, samples=96)
    )
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    started = time.time()
    report = generate_report(config, plan=ExecutionPlan(jobs=args.jobs), cache=cache)
    target = pathlib.Path(args.out)
    target.write_text(report)
    cache_note = (
        "cache disabled"
        if cache is None
        else f"cache {cache.stats.hits} hit / {cache.stats.misses} miss"
    )
    print(f"wrote {target} ({len(report.splitlines())} lines, "
          f"{time.time() - started:.0f}s, jobs={args.jobs}, {cache_note})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
