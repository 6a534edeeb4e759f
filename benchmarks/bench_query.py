"""Characterization query-service benchmarks: cold index vs warm index.

Warms one point store (full vggnet sweeps across the three-board fleet),
then measures the two ends of the serving path:

* ``test_query_cold_index`` — build a fresh
  :class:`~repro.runtime.query.CharacterizationIndex` from the on-disk
  store and answer one landmark query: every point file is parsed, the
  landmark rows are computed from scratch.
* ``test_query_warm_lru`` — answer a mixed query batch (landmarks,
  guardband, exact + interpolated points) against one shared warm index:
  the indexed payloads and the landmark memo serve everything from
  memory.  The test id keeps its historical ``lru`` name because the
  recorded baselines key on it.

The acceptance contract, gated by ``benchmarks/baselines/ci.json`` via
``scripts/check_bench_regression.py``:

* warm queries answer **>= 5x faster** than a cold index rebuild (a
  speedup gate — a ratio within one run, so it holds on any hardware);
* both paths return identical landmark rows (asserted in the bench
  bodies), and the warm path performs zero sweep computation
  (``served_from_cache``/``computed_sweeps`` recorded as ``extra_info``).

Run with ``pytest benchmarks/bench_query.py`` (same environment
overrides as the other benches; see conftest).
"""

import pytest

from repro.query import open_index
from repro.runtime.cache import ResultCache
from repro.runtime.campaign import run_sweep_campaign

#: Serving-path fidelity: the query layer's cost is index work, not
#: simulator fidelity, so the store is warmed at a light config.
REPEATS = 1
SAMPLES = 16
BOARDS = (0, 1, 2)

#: Cross-test record: path -> landmark rows (cold/warm identity check).
_RECORD: dict = {}


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory, config):
    """One cache dir holding the fleet's sweeps, plus the query config."""
    query_config = config.with_overrides(repeats=REPEATS, samples=SAMPLES)
    root = tmp_path_factory.mktemp("bench-query-cache")
    run_sweep_campaign(
        "vggnet", list(BOARDS), query_config, cache=ResultCache(root)
    )
    return root, query_config


@pytest.mark.benchmark(group="query")
def test_query_cold_index(benchmark, warm_store):
    root, query_config = warm_store

    def cold_query():
        index = open_index(root, config=query_config)
        return index.landmarks("vggnet"), index

    rows, index = benchmark(cold_query)
    assert len(rows) == len(BOARDS)
    assert all(r["complete"] for r in rows)
    _RECORD["cold"] = rows
    stats = index.stats()
    benchmark.extra_info["points_indexed"] = stats["points"]["indexed"]
    benchmark.extra_info["datasets"] = stats["datasets"]


@pytest.mark.benchmark(group="query")
def test_query_warm_lru(benchmark, warm_store):
    root, query_config = warm_store
    index = open_index(root, config=query_config)
    (landmark_row,) = index.landmarks("vggnet", board=0)
    vmin_mv = landmark_row["vmin_mv"]

    def warm_queries():
        rows = index.landmarks("vggnet")
        index.guardband("vggnet")
        index.point("vggnet", vmin_mv, board=0)
        index.point("vggnet", vmin_mv - 2.5, board=1, mode="interpolate")
        return rows

    rows = benchmark(warm_queries)
    if "cold" in _RECORD:  # running the full module: byte-identical answers
        assert rows == _RECORD["cold"]
    stats = index.stats()
    # The warm path must be pure serving: no sweeps, no point computes.
    assert stats["queries"]["computed_sweeps"] == 0
    assert stats["queries"]["computed_points"] == 0
    benchmark.extra_info["served_from_cache"] = stats["queries"]["served_from_cache"]
    benchmark.extra_info["lru_hits"] = stats["lru"]["hits"]
