"""AcceleratorSession: one board + one workload, measured point by point.

The session reproduces the paper's measurement loop (Figure 1): program
VCCINT over PMBus, run the benchmark on the DPU, read accuracy from the
classifier output and power/temperature back over PMBus, repeat N times
with independent fault realizations, and average.

The repeats execute batched through the copy-on-divergence executor
(:meth:`~repro.dpu.engine.DPUEngine.run_points`).  Each realization
draws from its own named RNG stream, so the result is bit-identical to
re-running the engine once per repeat — the oracle the tests compare
against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dpu.config import Deployment
from repro.dpu.engine import DPUEngine
from repro.errors import BoardHangError
from repro.core.experiment import ExperimentConfig
from repro.faults.model import FaultRateModel
from repro.fpga.board import ZCU102Board
from repro.fpga.variation import workload_vcrash_offset_v, workload_vmin_jitter_v
from repro.models.zoo import Workload, build as build_workload
from repro.rng import SeedBank


def reduce_repeats(accuracies: list[float], faults: list[int]) -> dict:
    """Vectorized per-point reduction over fault realizations.

    Whatever produced the per-repeat lists — the batched executor or a
    per-repeat loop — the mean/std/min reduction is this exact float64
    computation.
    ``accuracy_std`` is the population standard deviation (the paper
    averages a fixed set of 10 runs, not a sample of a larger one).
    """
    acc = np.asarray(accuracies, dtype=np.float64)
    return {
        "accuracy": float(acc.mean()),
        "accuracy_std": float(acc.std()) if acc.size > 1 else 0.0,
        "accuracy_min": float(acc.min()),
        "faults_per_run": float(np.mean(faults)),
    }


@dataclass(frozen=True)
class Measurement:
    """Averaged measurement at one operating point (the paper's data atom)."""

    benchmark: str
    variant: str
    board_sample: int
    vccint_v: float
    f_mhz: float
    temperature_c: float
    accuracy: float
    accuracy_std: float
    #: Worst repeat (used by strict no-loss acceptance in Fmax searches).
    accuracy_min: float
    clean_accuracy: float
    power_w: float
    bram_power_w: float
    gops: float
    faults_per_run: float
    repeats: int

    @property
    def vccint_mv(self) -> float:
        return self.vccint_v * 1000.0

    @property
    def gops_per_watt(self) -> float:
        return self.gops / self.power_w if self.power_w else 0.0

    @property
    def gops_per_joule(self) -> float:
        """GOPs per joule of a fixed work quantum.

        For a fixed number of operations W, energy = P * t = P * W/GOPS, so
        ops/J = GOPS^2 / (P * W) — we report the paper's normalized metric
        GOPs*GOPs/W which orders identically (Table 2's GOPs/J column).
        """
        return self.gops * self.gops / self.power_w if self.power_w else 0.0

    @property
    def accuracy_loss(self) -> float:
        return max(0.0, self.clean_accuracy - self.accuracy)

    def as_dict(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "variant": self.variant,
            "board": self.board_sample,
            "vccint_mv": round(self.vccint_mv, 1),
            "f_mhz": self.f_mhz,
            "temp_c": round(self.temperature_c, 1),
            "accuracy": round(self.accuracy, 4),
            "power_w": round(self.power_w, 3),
            "gops": round(self.gops, 1),
            "gops_per_watt": round(self.gops_per_watt, 1),
            "faults_per_run": round(self.faults_per_run, 1),
        }


@dataclass(frozen=True)
class PointPlan:
    """The board-side half of one operating point, frozen before execution.

    Produced by :meth:`AcceleratorSession.plan_point` — the PMBus dance
    (set rails, set clock, liveness check, telemetry) plus the derived
    fault regime — and consumed by :meth:`AcceleratorSession.execute_plans`
    / :meth:`AcceleratorSession.finalize_point`.  Splitting the dance from
    the engine work is what lets a sweep round execute many points' fault
    realizations as one stacked pass while each point's Measurement stays
    bit-identical to a solo :meth:`AcceleratorSession.run_at`.
    """

    vccint_mv: float
    f_mhz: float
    temperature_c: float
    p_op: float
    collapse: bool
    #: Effective realization count (1 for fault-free points).
    repeats: int
    power_w: float
    bram_power_w: float

    @property
    def engine_free(self) -> bool:
        """True when the point needs no engine pass (deterministic clean)."""
        return self.p_op <= 0.0 and not self.collapse


class AcceleratorSession:
    """Binds a board sample to a workload and measures operating points."""

    def __init__(
        self,
        board: ZCU102Board,
        workload: Workload,
        config: ExperimentConfig | None = None,
        deployment: Deployment | None = None,
    ):
        self.board = board
        self.workload = workload
        self.config = config or ExperimentConfig()
        self.engine = DPUEngine(workload, deployment=deployment, cal=board.cal)
        self.fault_model = FaultRateModel(
            delay_model=board.delay_model,
            cal=board.cal,
            workload_shift_v=workload_vmin_jitter_v(workload.name, board.cal),
        )
        from repro.fpga.power import quant_power_factor

        board.configure_workload(
            p_vnom_w=workload.profile.p_vnom_w
            * quant_power_factor(board.cal, workload.quantization.weight_bits),
            vcrash_offset_v=workload_vcrash_offset_v(workload.pruned, board.cal),
        )
        self._seeds: SeedBank = self.config.seeds.derive(
            f"session/{workload.variant_label}/board{board.sample}"
        )
        #: Die-temperature setpoint (degC); None = free-running fan.
        self._t_setpoint_c: float | None = None

    # ------------------------------------------------------------------

    def run_at(
        self,
        vccint_mv: float,
        f_mhz: float | None = None,
        repeats: int | None = None,
    ) -> Measurement:
        """Measure one operating point, averaged over fault realizations.

        All fault realizations stack into one forward pass, chunked to
        the config's ``batch_budget``.

        Raises :class:`BoardHangError` if the point is below this board's
        crash voltage (after latching the hang, as the real board would).
        """
        plan = self.plan_point(vccint_mv, f_mhz=f_mhz, repeats=repeats)
        outcomes = self.execute_plans([plan])[0]
        return self.finalize_point(plan, outcomes)

    def plan_point(
        self,
        vccint_mv: float,
        f_mhz: float | None = None,
        repeats: int | None = None,
    ) -> PointPlan:
        """Program the board for one point and freeze its execution plan.

        Performs the full PMBus dance — rails, clock, optional temperature
        regulation, liveness check, telemetry — and derives the point's
        fault regime (``p_op``, crash-edge collapse, effective repeats).
        Raises :class:`BoardHangError` below the board's crash voltage,
        exactly as :meth:`run_at` does; the board is left programmed at
        the point, so plans in a round must be taken in visiting order.
        """
        v = vccint_mv / 1000.0
        f_mhz = self.board.cal.f_default_mhz if f_mhz is None else f_mhz
        repeats = self.config.repeats if repeats is None else repeats

        self.board.set_vccint(v)
        self.board.set_clock_mhz(f_mhz)
        if self._t_setpoint_c is not None:
            self._regulate_temperature()
        self.board.check_alive()

        telemetry = self.board.telemetry()
        t_c = telemetry.die_temperature_c
        p_op = self.fault_model.p_per_op(v, f_mhz, t_c)
        # Crash-edge operation: within the collapse margin above Vcrash and
        # with the clock violating timing (p_op > 0), the control logic
        # itself mistimes and the classifier output is noise.  A sufficiently
        # underscaled clock restores positive slack and avoids the collapse
        # (Table 2's 540 mV / 200 MHz row).
        collapse = (
            v < self.board.vcrash_v + self.board.cal.collapse_margin_v
            and p_op > 0.0
        )
        return PointPlan(
            vccint_mv=vccint_mv,
            f_mhz=f_mhz,
            temperature_c=t_c,
            p_op=p_op,
            collapse=collapse,
            # Fault-free points are deterministic: one realization suffices.
            repeats=repeats if (p_op > 0.0 or collapse) else 1,
            power_w=telemetry.vccint_power_w,
            bram_power_w=telemetry.vccbram_power_w,
        )

    def _plan_rngs(self, plan: PointPlan) -> list:
        """The plan's per-realization RNG streams, named by its voltage.

        Stream names depend only on the operating point — never on round
        shape or batching — which is what makes a point's numerics
        independent of how many neighbours share its execution round.
        """
        return [
            self._seeds.rng(
                f"faults/v{plan.vccint_mv:.1f}/f{plan.f_mhz:.0f}/r{r}"
            )
            for r in range(plan.repeats)
        ]

    def execute_plans(self, plans: list[PointPlan]) -> list:
        """Run the engine work of several planned points, batched.

        All plans execute as one
        :meth:`~repro.dpu.engine.DPUEngine.run_points` call — their fault
        realizations stack along the batch axis, chunked to the config's
        ``batch_budget``.  Returns one outcome list per plan, aligned with
        the input; every outcome is bit-identical to a solo
        :meth:`run_at` at the same point.
        """
        specs = [
            (plan.p_op, plan.f_mhz, self._plan_rngs(plan), plan.collapse)
            for plan in plans
        ]
        return self.engine.run_points(specs, max_stacked=self.config.batch_budget)

    def finalize_point(self, plan: PointPlan, outcomes: list) -> Measurement:
        """Reduce one plan's realization outcomes into its Measurement."""
        stats = reduce_repeats(
            [o.accuracy for o in outcomes], [o.faults_injected for o in outcomes]
        )
        perf = self.engine.perf_model.report(plan.f_mhz)
        return Measurement(
            benchmark=self.workload.name,
            variant=self.workload.variant_label,
            board_sample=self.board.sample,
            vccint_v=plan.vccint_mv / 1000.0,
            f_mhz=plan.f_mhz,
            temperature_c=plan.temperature_c,
            clean_accuracy=self.workload.clean_accuracy,
            power_w=plan.power_w,
            bram_power_w=plan.bram_power_w,
            gops=perf.gops,
            repeats=plan.repeats,
            **stats,
        )

    def run_nominal(self) -> Measurement:
        """Measure the (Vnom, 333 MHz) baseline point."""
        return self.run_at(self.board.cal.vnom * 1000.0)

    def set_temperature(self, target_c: float) -> float:
        """Hold the die at ``target_c`` via the fan (Section 7 procedure).

        The setpoint persists: every subsequent operating point re-solves
        the fan duty for its own power draw, exactly as the paper's
        monitor-and-regulate loop does.  The achieved temperature is
        clamped by the fan's authority (the paper's reachable window).
        """
        self._t_setpoint_c = target_c
        return self._regulate_temperature()

    def release_temperature(self) -> None:
        """Return to a free-running fan (ambient-temperature operation)."""
        self._t_setpoint_c = None

    def _regulate_temperature(self) -> float:
        # Power depends on temperature through leakage, so iterate the
        # power/fan fixed point a few times; convergence is fast because
        # the leakage feedback is weak.
        achieved = self.board.thermal.die_temperature_c
        for _ in range(4):
            power = self.board.telemetry().on_chip_power_w
            achieved = self.board.thermal.set_target_temperature(
                self._t_setpoint_c, power
            )
        return achieved


def make_session(
    board: ZCU102Board,
    workload_or_name: Workload | str,
    config: ExperimentConfig | None = None,
    **build_kwargs,
) -> AcceleratorSession:
    """Convenience factory accepting a workload object or benchmark name."""
    config = config or ExperimentConfig()
    if isinstance(workload_or_name, str):
        workload = build_workload(
            workload_or_name,
            samples=config.samples,
            width_scale=config.width_scale,
            seed=config.seed,
            **build_kwargs,
        )
    else:
        workload = workload_or_name
    return AcceleratorSession(board, workload, config)
