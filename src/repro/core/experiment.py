"""Experiment configuration shared by all campaigns.

The paper averages every reported number over 10 experiments (Section 4).
``ExperimentConfig`` carries the repeat count, the RNG seed bank, and the
workload build parameters so campaigns are reproducible end to end.  The
default repeat count is reduced for interactive runs; benches and the
recorded EXPERIMENTS.md numbers use ``repeats=10``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

from repro.errors import CampaignError
from repro.fpga.calibration import Calibration, DEFAULT_CALIBRATION
from repro.rng import SeedBank


#: Valid values of :attr:`ExperimentConfig.strategy` (see
#: :mod:`repro.core.undervolt`): ``grid`` walks every voltage point of the
#: sweep range, ``adaptive`` coarse-steps and bisects toward the region
#: boundaries.
SWEEP_STRATEGIES = ("grid", "adaptive")

#: Config fields that select *how* measurements are computed, never *what*
#: they are: batch chunking and round shape produce bit-identical
#: Measurements, so these knobs are excluded from the result-cache
#: fingerprint (see :func:`repro.runtime.hashing.config_fingerprint`).
EXECUTION_FIELDS = ("batch_budget", "point_batch")

#: Config fields that steer *which* voltage points a sweep visits — the
#: grid pitch, the search strategy, and the loss tolerance the adaptive
#: bisection branches on — but never the measured value at any individual
#: point.  Per-point cache keys exclude them (plus
#: :data:`EXECUTION_FIELDS`), so a finer step, a strategy switch, or a
#: tolerance change re-prices only the points that were never measured.
SWEEP_PLAN_FIELDS = ("v_step", "strategy", "v_resolution", "accuracy_tolerance")


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by every campaign."""

    seed: int = 2020
    #: Fault-realization repeats per operating point (paper: 10).
    repeats: int = 3
    #: Evaluation-set size per benchmark.
    samples: int = 96
    #: Executable-model width scale (see DESIGN.md substitutions).
    width_scale: float = 0.25
    #: Accuracy-loss tolerance defining "no accuracy loss" (absolute).
    accuracy_tolerance: float = 0.01
    #: Voltage sweep step (V); the paper uses 5 mV.
    v_step: float = 0.005
    #: Sweep search strategy: "grid" measures every point of the range,
    #: "adaptive" coarse-steps and bisects the guardband/critical and
    #: critical/crash boundaries down to the resolution.
    strategy: str = "grid"
    #: Landmark resolution (V) for sweeps; ``None`` falls back to
    #: ``v_step``.  The grid strategy uses it as its step, the adaptive
    #: strategy bisects boundaries down to it — so both strategies resolve
    #: landmarks on the same implicit voltage grid.
    v_resolution: float | None = None
    cal: Calibration = DEFAULT_CALIBRATION
    #: Stacked-batch memory budget: max inferences per forward pass.  When
    #: ``repeats * samples`` exceeds it, batched runs chunk along the
    #: repeat axis (chunking never changes results, only peak memory).
    batch_budget: int = 4096
    #: Max planned points per sweep execution round: how many voltages a
    #: strategy hands the executor at once (one fabric task per round
    #: under round-granular dispatch, one voltage-stacked engine pass
    #: in-process).  Round shape never changes any point's numbers — the
    #: per-point RNG streams are named by voltage — so this is an
    #: execution knob, excluded from every cache fingerprint.
    point_batch: int = 8

    def __post_init__(self):
        if self.repeats < 1:
            raise CampaignError(f"repeats must be >= 1, got {self.repeats}")
        if self.samples < 2:
            raise CampaignError(f"samples must be >= 2, got {self.samples}")
        if self.v_step <= 0:
            raise CampaignError(f"v_step must be positive, got {self.v_step}")
        if self.strategy not in SWEEP_STRATEGIES:
            raise CampaignError(
                f"strategy must be one of {SWEEP_STRATEGIES}, got {self.strategy!r}"
            )
        if self.v_resolution is not None and self.v_resolution <= 0:
            raise CampaignError(
                f"v_resolution must be positive, got {self.v_resolution}"
            )
        if not 0.0 <= self.accuracy_tolerance < 1.0:
            raise CampaignError("accuracy_tolerance must be in [0, 1)")
        if self.batch_budget < 1:
            raise CampaignError(
                f"batch_budget must be >= 1, got {self.batch_budget}"
            )
        if self.point_batch < 1:
            raise CampaignError(
                f"point_batch must be >= 1, got {self.point_batch}"
            )

    @property
    def seeds(self) -> SeedBank:
        return SeedBank(self.seed)

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        return replace(self, **kwargs)

    def as_dict(self) -> dict:
        """Every field as plain data (nested :class:`Calibration` included)."""
        return asdict(self)

    def semantic_dict(self) -> dict:
        """The fields that determine measurement *values*.

        This is the serialization the runtime's content-addressed result
        cache hashes: any change to any semantic knob — including a
        calibration override — changes the dict and therefore the cache
        key.  Execution-only knobs (:data:`EXECUTION_FIELDS`) are dropped,
        because batch chunking and round shape never change a result —
        flipping them must keep warm caches valid.
        """
        payload = asdict(self)
        for name in EXECUTION_FIELDS:
            payload.pop(name, None)
        return payload

    def point_semantic_dict(self) -> dict:
        """The fields that determine a *single voltage point's* measurement.

        This is what the runtime's per-point cache hashes
        (:func:`repro.runtime.hashing.point_fingerprint`).  On top of the
        execution-only knobs it drops :data:`SWEEP_PLAN_FIELDS`: the grid
        pitch, the search strategy, and the loss tolerance decide which
        points a sweep visits, never what any one of them measures — the
        per-point RNG streams are named by voltage, so a point's result is
        identical whether a dense grid or an adaptive bisection reached it.
        Changing ``--v-step``/``--strategy``/``--v-resolution`` therefore
        re-prices only the points that were never measured.
        """
        payload = self.semantic_dict()
        for name in SWEEP_PLAN_FIELDS:
            payload.pop(name, None)
        return payload

    def resolution_mv(self, step_mv: float | None = None) -> float:
        """The effective landmark resolution in millivolts.

        Precedence: an explicit ``step_mv`` override (legacy sweep API),
        then ``v_resolution``, then ``v_step``.
        """
        if step_mv is not None:
            return float(step_mv)
        if self.v_resolution is not None:
            return self.v_resolution * 1000.0
        return self.v_step * 1000.0


#: Configuration matching the paper's methodology (10 repeats).
PAPER_CONFIG = ExperimentConfig(repeats=10)
#: Fast configuration for unit tests.
FAST_CONFIG = ExperimentConfig(repeats=2, samples=48)
