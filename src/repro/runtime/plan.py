"""ExecutionPlan: one frozen description of *how* to execute.

Historically every campaign entry point grew its own execution knobs —
``jobs=`` here, ``dispatch=`` there.  :class:`ExecutionPlan` collapses
them into one value: a worker count and a sweep dispatch granularity.

The plan is deliberately **not** part of any cache key.  Both of its
fields are execution knobs, and the runtime's determinism contract says
execution knobs never move results — which is exactly why a distributed
campaign's workers may each run under their own plan (their own
``--jobs``) and still merge their point stores byte-identically.  The
batching budgets (:data:`repro.core.experiment.EXECUTION_FIELDS`) live
on the config, which excludes them from every fingerprint.

Alongside the plan live the config wire helpers
(:func:`config_to_wire` / :func:`config_from_wire`): the coordinator
ships its :class:`~repro.core.experiment.ExperimentConfig` — including
the nested :class:`~repro.fpga.calibration.Calibration` — as plain
JSON, and a worker reconstructs an *equal* config whose fingerprints
match the coordinator's exactly.  A lease ships what to compute (unit
and config), never a plan.

Every campaign entry point (:func:`~repro.runtime.campaign.run_campaign`,
:func:`~repro.runtime.campaign.run_sweep_campaign`,
:func:`~repro.runtime.campaign.run_fleet_campaign`,
:func:`~repro.analysis.report.generate_report`) takes ``plan=`` as its
only execution argument; ``None`` means the default plan.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.core.experiment import ExperimentConfig
from repro.fpga.calibration import Calibration

#: Valid values of :attr:`ExecutionPlan.dispatch` (see
#: :func:`repro.runtime.campaign.run_sweep_campaign`).
DISPATCH_MODES = ("unit", "point")

#: Calibration fields stored as flat tuples (JSON lists on the wire).
_CAL_TUPLE_FIELDS = ("board_vmin", "board_vcrash", "f_grid_mhz")


@dataclass(frozen=True)
class ExecutionPlan:
    """How a campaign executes — never *what* it computes.

    One frozen value threaded from the CLI through
    :mod:`repro.runtime.campaign` to the executor.  Every field is an
    execution acceleration: two runs of one campaign under different
    plans produce bit-identical results and share every cache entry.
    """

    #: Worker processes, or ``"auto"`` for one per *available* CPU
    #: (container-affinity aware; see
    #: :func:`repro.runtime.fabric.resolve_jobs`).
    jobs: int | str = 1
    #: Sweep work granularity: ``"unit"`` ships whole board sweeps to the
    #: pool, ``"point"`` drives strategies on parent threads and ships
    #: each round as one fabric task.
    dispatch: str = "unit"

    def __post_init__(self):
        if self.dispatch not in DISPATCH_MODES:
            raise ValueError(f"dispatch must be one of {DISPATCH_MODES}, got {self.dispatch!r}")
        if self.jobs != "auto":
            try:
                jobs = int(self.jobs)
            except (TypeError, ValueError):
                raise ValueError(f"jobs must be an int or 'auto', got {self.jobs!r}") from None
            if jobs < 1:
                raise ValueError(f"jobs must be >= 1, got {jobs}")
            object.__setattr__(self, "jobs", jobs)

    def resolved_jobs(self) -> int:
        """The concrete worker count (``"auto"`` resolved on this host)."""
        from repro.runtime.fabric import resolve_jobs

        return resolve_jobs(self.jobs)


def config_to_wire(config: ExperimentConfig) -> dict:
    """JSON-able snapshot of a config (nested calibration included)."""
    return config.as_dict()


def config_from_wire(payload: dict) -> ExperimentConfig:
    """Rebuild an :class:`~repro.core.experiment.ExperimentConfig` from wire.

    The inverse of :func:`config_to_wire` across a JSON round-trip:
    calibration tuples come back as lists and are re-tupled so the
    reconstructed config is *equal* to the original — and therefore
    fingerprints identically, the property the distributed fabric's
    byte-identity contract rests on.  Unknown keys (a knob an older peer
    still ships) are rejected by name.
    """
    unknown = sorted(set(payload) - {f.name for f in fields(ExperimentConfig)})
    if unknown:
        raise ValueError(f"unknown ExperimentConfig wire fields: {unknown}")
    payload = dict(payload)
    cal = payload.pop("cal", None)
    if cal is not None:
        cal = dict(cal)
        for name in _CAL_TUPLE_FIELDS:
            if name in cal:
                cal[name] = tuple(cal[name])
        if "fsafe_anchors_mhz" in cal:
            cal["fsafe_anchors_mhz"] = tuple(tuple(anchor) for anchor in cal["fsafe_anchors_mhz"])
        payload["cal"] = Calibration(**cal)
    return ExperimentConfig(**payload)


__all__ = [
    "DISPATCH_MODES",
    "ExecutionPlan",
    "config_from_wire",
    "config_to_wire",
]
