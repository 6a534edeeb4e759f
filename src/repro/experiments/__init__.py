"""Experiment registry: one runner per paper table/figure.

Populated by the per-experiment modules; ``SPECS`` maps experiment ids
("table1", "fig3", ...) to their runner callables and shard metadata for
the campaign runtime (:mod:`repro.runtime`).
"""

from repro.experiments.registry import (
    SPECS,
    ExperimentResult,
    ExperimentSpec,
    ShardPlan,
    get_experiment,
    get_spec,
    run_experiment,
)

__all__ = [
    "SPECS",
    "ExperimentResult",
    "ExperimentSpec",
    "ShardPlan",
    "get_experiment",
    "get_spec",
    "run_experiment",
]
