"""Figure 6: accuracy vs voltage per benchmark, per board sample.

Sweeps each (benchmark, board) pair through the critical region and reports
the accuracy series, plus the fleet spreads dVmin / dVcrash the paper
attributes to process variation (31 mV and 18 mV respectively).

This is the repo's widest campaign — 15 independent sweeps — so the
experiment registers a per-``(benchmark, board)`` :class:`ShardPlan`.  The
merge hook rebuilds the per-board landmark lists in the serial iteration
order (benchmark-major, board-minor), so the fleet spread statistics see
the identical operand sequence a serial run computes.

Being the widest campaign also makes fig6 the biggest client of the
per-point cache: every ``(benchmark, board)`` sweep runs over the
campaign's point store, so a campaign killed mid-fig6 resumes paying
only for the voltage points its interrupted shards never reached, and a
campaign that ran fig3 first replays every voltage fig3 measured.
"""

from __future__ import annotations

from repro.analysis import expectations as paper
from repro.analysis.stats import mean_of, spread
from repro.core.experiment import ExperimentConfig
from repro.core.regions import detect_regions
from repro.experiments.common import BENCHMARK_ORDER, session_for, sweep_to_crash
from repro.experiments.registry import ExperimentResult, ShardPlan, register

#: The critical region sits below 590 mV on every board sample; starting
#: there keeps the (expensive) faulty forward passes to the relevant range.
SWEEP_START_MV = 620.0

TITLE = "Accuracy under reduced voltage, per benchmark and board (Figure 6)"

NOTE = (
    "Larger-parameter models (resnet50, inception) degrade at higher "
    "voltages than the Cifar models, matching Section 4.4."
)


def _pair_sweep(
    name: str, board: int, config: ExperimentConfig
) -> tuple[list[dict], float, float]:
    """One (benchmark, board) sweep: plotted rows plus its landmarks."""
    session = session_for(name, config, sample=board)
    sweep = sweep_to_crash(session, config, start_mv=SWEEP_START_MV)
    regions = detect_regions(sweep, accuracy_tolerance=config.accuracy_tolerance)
    rows: list[dict] = []
    for point in sweep.points:
        m = point.measurement
        if m.vccint_mv > regions.vmin_mv + 10.0:
            continue  # flat clean-accuracy region, not plotted
        rows.append(
            {
                "benchmark": name,
                "board": board,
                "vccint_mv": round(m.vccint_mv, 1),
                "accuracy": round(m.accuracy, 3),
                "accuracy_std": round(m.accuracy_std, 3),
                "faults_per_run": round(m.faults_per_run, 1),
            }
        )
    return rows, regions.vmin_mv, regions.vcrash_mv


def _summary(
    vmin_by_board: dict[int, list[float]], vcrash_by_board: dict[int, list[float]]
) -> dict:
    board_vmin = [mean_of(v) for v in vmin_by_board.values()]
    board_vcrash = [mean_of(v) for v in vcrash_by_board.values()]
    return {
        "delta_vmin_mv": round(spread(board_vmin), 1),
        "delta_vmin_paper": paper.DELTA_VMIN_MV,
        "delta_vcrash_mv": round(spread(board_vcrash), 1),
        "delta_vcrash_paper": paper.DELTA_VCRASH_MV,
    }


def _shard_keys(config: ExperimentConfig) -> list[tuple]:
    return [
        (name, board)
        for name in BENCHMARK_ORDER
        for board in range(config.cal.n_boards)
    ]


def _run_shard(key: tuple, config: ExperimentConfig) -> ExperimentResult:
    name, board = key
    rows, vmin_mv, vcrash_mv = _pair_sweep(name, int(board), config)
    return ExperimentResult(
        experiment_id="fig6",
        title=TITLE,
        rows=rows,
        merge_state={"board": int(board), "vmin_mv": vmin_mv, "vcrash_mv": vcrash_mv},
    )


def _merge(config: ExperimentConfig, shards: list[ExperimentResult]) -> ExperimentResult:
    result = ExperimentResult(experiment_id="fig6", title=TITLE)
    vmin_by_board: dict[int, list[float]] = {}
    vcrash_by_board: dict[int, list[float]] = {}
    for shard in shards:  # key order == serial order: benchmark-major
        board = shard.merge_state["board"]
        vmin_by_board.setdefault(board, []).append(shard.merge_state["vmin_mv"])
        vcrash_by_board.setdefault(board, []).append(shard.merge_state["vcrash_mv"])
        result.rows.extend(shard.rows)
    result.summary = _summary(vmin_by_board, vcrash_by_board)
    result.notes.append(NOTE)
    return result


@register("fig6", shards=ShardPlan(keys=_shard_keys, run=_run_shard, merge=_merge))
def run(config: ExperimentConfig | None = None) -> ExperimentResult:
    config = config or ExperimentConfig()
    # The serial run IS the shard composition: same per-pair work in the
    # same order, so serial-vs-parallel equivalence holds structurally.
    return _merge(config, [_run_shard(key, config) for key in _shard_keys(config)])
