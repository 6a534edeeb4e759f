"""Campaign shard planning: experiments -> independent work units.

A :class:`WorkUnit` is the scheduling atom of the campaign runtime: either
one whole experiment, or — for experiments that registered a
:class:`~repro.experiments.registry.ShardPlan` — one shard of it, such as a
single benchmark or a single ``(benchmark, board)`` pair.  Units carry only
plain data (id, key, config), so they cross process boundaries trivially;
the callable is resolved from the registry inside the worker.

Below the scheduling atom sits the *caching* atom: a sweep-shaped unit
decomposes further into voltage points, each cached individually by
:mod:`repro.runtime.points` under the owning experiment's id alone —
never the shard key, because how the planner cut the experiment
(``jobs``) is an execution detail and must not move cache keys.
The planner never enumerates points up front — a sweep discovers its
point set as it runs (the crash voltage, and for the adaptive strategy
the bisection path, are not known a priori) — but every point it does
visit lands in the per-point store, which is what makes interrupted or
re-parameterized campaigns pay only for their frontier.

Merging is exact by construction: plans enumerate shard keys in the same
order the serial loop visits them, the executor returns results in unit
order, and each plan's merge hook rebuilds its accumulator state in that
order — so fleet means and spreads see the same operand sequence (and the
same floating-point rounding) as a serial run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.experiment import ExperimentConfig
from repro.experiments.registry import ExperimentResult, get_spec


@dataclass(frozen=True)
class WorkUnit:
    """One schedulable piece of a campaign."""

    experiment_id: str
    #: ``None`` = the whole experiment; otherwise a key from the
    #: experiment's :class:`ShardPlan` (e.g. ``("vggnet",)`` or
    #: ``("vggnet", 2)``).
    shard_key: tuple | None

    @property
    def label(self) -> str:
        """Human-readable unit name, e.g. ``fig6[vggnet/2]``."""
        if self.shard_key is None:
            return self.experiment_id
        return f"{self.experiment_id}[{'/'.join(str(k) for k in self.shard_key)}]"


def plan_units(experiment_id: str, config: ExperimentConfig, shard: bool = True) -> list[WorkUnit]:
    """Split one experiment into work units (a single unit if unsharded)."""
    spec = get_spec(experiment_id)
    if shard and spec.shards is not None:
        keys = [tuple(k) for k in spec.shards.keys(config)]
        if not keys:
            raise ValueError(f"shard plan for {experiment_id!r} produced no keys")
        return [WorkUnit(experiment_id, key) for key in keys]
    return [WorkUnit(experiment_id, None)]


def merge_unit_results(
    experiment_id: str,
    config: ExperimentConfig,
    units: Sequence[WorkUnit],
    results: Sequence[ExperimentResult],
) -> ExperimentResult:
    """Combine per-unit results back into one experiment result."""
    if len(units) != len(results):
        raise ValueError(f"{experiment_id}: {len(units)} units but {len(results)} results")
    if len(units) == 1 and units[0].shard_key is None:
        return results[0]
    spec = get_spec(experiment_id)
    if spec.shards is None:  # pragma: no cover - planner guarantees a plan
        raise ValueError(f"experiment {experiment_id!r} has no shard plan to merge")
    return spec.shards.merge(config, list(results))
