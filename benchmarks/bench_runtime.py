"""Campaign-runtime benchmarks: parallel speedup and cache-hit latency.

Three measurements around the fig3 campaign (five independent fleet
sweeps, the runtime's showcase shard plan):

* serial baseline — ``ExecutionPlan(jobs=1)``, the historical loop;
* parallel — ``ExecutionPlan(jobs=5)``, one worker per benchmark shard;
* warm cache — the same campaign against a pre-warmed result cache,
  which must cost milliseconds, not sweep time.

Run with ``pytest benchmarks/bench_runtime.py`` (same environment
overrides as the other benches; see conftest).
"""

import pytest

from repro.runtime.cache import ResultCache
from repro.runtime.campaign import run_campaign
from repro.runtime.plan import ExecutionPlan

from conftest import run_once

EXPERIMENT = "fig3"


@pytest.mark.benchmark(group="runtime")
def test_campaign_serial(benchmark, config, record_result):
    outcome = run_once(
        benchmark, lambda: run_campaign([EXPERIMENT], config, ExecutionPlan(jobs=1))
    )
    record_result(outcome.entries[0].result)


@pytest.mark.benchmark(group="runtime")
def test_campaign_parallel(benchmark, config):
    outcome = run_once(
        benchmark, lambda: run_campaign([EXPERIMENT], config, ExecutionPlan(jobs=5))
    )
    entry = outcome.entries[0]
    assert entry.n_shards == 5
    # The merged parallel result must match the serial record exactly;
    # test_campaign.py asserts this bit-for-bit, the bench just sanity-checks.
    assert len(entry.result.rows) == 5


@pytest.mark.benchmark(group="runtime")
def test_cache_hit_latency(benchmark, config, tmp_path):
    cache = ResultCache(tmp_path / "cache")
    run_campaign([EXPERIMENT], config, cache=cache)  # warm it

    def warm_run():
        return run_campaign([EXPERIMENT], config, cache=cache)

    outcome = benchmark(warm_run)
    assert outcome.entries[0].cache_hit
