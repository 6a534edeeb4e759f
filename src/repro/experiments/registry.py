"""Experiment registry: runners, shard metadata, and the result container.

Every paper table/figure registers a *runner* (``config -> ExperimentResult``).
Runners whose work factors into independent pieces additionally register a
:class:`ShardPlan` — the metadata the parallel campaign runtime
(:mod:`repro.runtime`) uses to split one experiment into work units such as
``(benchmark,)`` or ``(benchmark, board)`` shards and to merge the per-shard
results back into the exact result a serial run would have produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.experiment import ExperimentConfig


@dataclass
class ExperimentResult:
    """Output of one experiment runner.

    ``rows`` are table-shaped records; ``summary`` carries the headline
    scalars compared against the paper; ``notes`` records deviations.
    ``merge_state`` is scratch data a task hands to its parent (raw
    per-board landmark lists for its plan's merge hook; under ``"points"``
    the fingerprints of the voltage points it touched); it is never
    rendered and never cached.
    """

    experiment_id: str
    title: str
    rows: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    merge_state: dict = field(default_factory=dict)

    def render(self) -> str:
        from repro.analysis.tables import render_table

        parts = [render_table(self.rows, title=f"[{self.experiment_id}] {self.title}")]
        if self.summary:
            parts.append("summary: " + ", ".join(f"{k}={v}" for k, v in self.summary.items()))
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n".join(parts)


#: A runner computes one whole experiment at a given config.
Runner = Callable[[ExperimentConfig], ExperimentResult]


@dataclass(frozen=True)
class ShardPlan:
    """How one experiment splits into independent work units.

    ``keys(config)`` enumerates the shard keys in their canonical (serial)
    order; ``run(key, config)`` computes one shard; ``merge(config,
    results)`` combines the shard results — given in key order — into the
    experiment's full result.  Plans must keep the merge *exact*: the
    merged result is required to be bit-identical to a serial run, which
    is why the built-in plans shard along axes whose serial loop bodies
    are independent (benchmarks, board samples) and keep the repeated
    fault realizations of a measurement inside a single shard.
    """

    keys: Callable[[ExperimentConfig], Sequence[tuple]]
    run: Callable[[tuple, ExperimentConfig], ExperimentResult]
    merge: Callable[[ExperimentConfig, Sequence[ExperimentResult]], ExperimentResult]


@dataclass(frozen=True)
class ExperimentSpec:
    """Registry record: the runner plus optional shard metadata."""

    experiment_id: str
    runner: Runner
    shards: ShardPlan | None = None


#: experiment id -> full spec (runner + shard plan).
SPECS: dict[str, ExperimentSpec] = {}


def register(experiment_id: str, *, shards: ShardPlan | None = None):
    """Decorator adding a runner (and optional shard plan) to the registry."""

    def _wrap(func: Runner):
        if experiment_id in SPECS:
            raise ValueError(f"duplicate experiment id: {experiment_id}")
        SPECS[experiment_id] = ExperimentSpec(
            experiment_id=experiment_id, runner=func, shards=shards
        )
        return func

    return _wrap


def _load_all() -> None:
    """Import every experiment module so the registry is populated."""
    from repro.experiments import (  # noqa: F401
        table1,
        fig3,
        fig4,
        fig5,
        fig6,
        table2,
        fig7,
        fig8,
        fig9,
        fig10,
        sec41,
        ablations,
        ext_mitigation,
        ext_bram,
    )


def get_spec(experiment_id: str) -> ExperimentSpec:
    _load_all()
    try:
        return SPECS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(SPECS)}"
        ) from None


def get_experiment(experiment_id: str) -> Runner:
    return get_spec(experiment_id).runner


def run_experiment(
    experiment_id: str, config: ExperimentConfig | None = None
) -> ExperimentResult:
    runner = get_experiment(experiment_id)
    return runner(config or ExperimentConfig())


def run_unit(
    experiment_id: str,
    shard_key: tuple | None,
    config: ExperimentConfig,
    point_root: str | None = None,
    blob_root: str | None = None,
) -> ExperimentResult:
    """Execute one work unit: a whole experiment or a single shard.

    Top-level by design — worker processes receive only picklable
    ``(experiment_id, shard_key, config, point_root, blob_root)`` tuples
    and resolve the callable through the registry on their side.  When
    ``point_root`` is set, the unit runs under an active per-point cache:
    every voltage point its sweeps measure is served from / stored
    to the content-addressed point store at that directory — and the
    sweeps inside execute round-granularly (each strategy round is one
    voltage-stacked engine pass over :func:`repro.runtime.points.cached_round_measure`),
    with every point still landing as its own store entry under the
    unchanged per-point fingerprint.  When
    ``blob_root`` is set, the unit additionally runs under the model
    plane (:mod:`repro.runtime.blobs`): workload construction first
    consults the content-addressed blob store — loading spilled weight
    and dataset arrays memory-mapped — and spills fresh builds for every
    later process; tasks ship these directory strings and blob keys,
    never pickled arrays.

    A point's key names neither the experiment nor the shard: its
    context (benchmark, variant, board, voltage, clock, temperature)
    already pins what was measured.  So a serial rerun replays the
    points a sharded run measured, and ``fig5`` and ``fig6`` replay the
    voltages ``fig3`` measured.
    """
    # Late import: the runtime package depends on this module.
    from repro.runtime.blobs import maybe_blob_plane
    from repro.runtime.points import maybe_point_scope

    spec = get_spec(experiment_id)
    with maybe_blob_plane(blob_root), maybe_point_scope(point_root) as points:
        if shard_key is None:
            result = spec.runner(config)
        elif spec.shards is None:
            raise ValueError(f"experiment {experiment_id!r} has no shard plan")
        else:
            result = spec.shards.run(tuple(shard_key), config)
    if points is not None:
        result.merge_state["points"] = sorted(points.touched)
    return result


def list_experiments() -> list[str]:
    _load_all()
    return sorted(SPECS)
