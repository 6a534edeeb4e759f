"""Voltage sweep campaigns: dense grids and adaptive Vmin/Vcrash search.

Reproduces the paper's primary procedure (Sections 4.2-4.4): starting at
``Vnom``, lower VCCINT toward the crash point, measuring accuracy and
power at each visited point, until the board hangs.  The crash point is
recorded, the board is power-cycled, and the sweep result carries
everything Figures 3-6 need.

Two :class:`SweepStrategy` implementations decide *which* points to visit:

* :class:`GridStrategy` — the paper's dense walk, one measurement per
  ``resolution_mv`` step (the historical behaviour);
* :class:`AdaptiveStrategy` — a coarse descent followed by bisection of
  the guardband/critical (Vmin) and critical/crash (Vcrash) boundaries,
  exactly how Salami et al. localize Vmin on real hardware without paying
  for every grid point.

Both strategies evaluate points on the same implicit voltage grid
(``v_i = start - i * resolution``) and every point draws from RNG streams
named by its voltage, so a point's measurement is bit-identical whether a
dense walk or a bisection reached it — which is also what makes the
runtime's per-point result cache (:mod:`repro.runtime.points`) safe to
share between strategies.

Execution is *round-based* (the plan/execute split): a strategy is a
generator (:meth:`GridStrategy.plan_rounds` /
:meth:`AdaptiveStrategy.plan_rounds`) yielding rounds of
:class:`PlannedPoint` plans and receiving per-point outcomes back, and a
round executor decides where a round runs — in-process through one
stacked engine pass (:func:`repro.runtime.points.cached_round_measure`),
or shipped to a worker fabric as a single task per round
(:func:`repro.runtime.campaign.run_sweep_unit_remote`, whose worker runs
the same executor).  Plans come in
two modes: ``"measure"`` asks for the point's full Measurement, while
``"probe"`` asks only what the board dance already knows — whether the
point is alive and whether its fault rate is zero.  A zero-rate probe is
provably loss-free, so it yields its full Measurement for free (the
fault-free shortcut needs no engine pass); a faulty-but-alive probe costs
*nothing but the dance*.  The adaptive strategy rides this to skip the
expensive deep-critical accuracy measurements the old bisection paid for
points that feed no landmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.experiment import ExperimentConfig
from repro.core.session import AcceleratorSession, Measurement
from repro.errors import BoardHangError


def grid_voltage_mv(start_mv: float, index: int, resolution_mv: float) -> float:
    """The ``index``-th point (mV) of the implicit sweep grid.

    Computed directly from the index (not by iterated subtraction) so grid
    and adaptive strategies land on bit-identical voltages — and therefore
    on identical RNG streams and per-point cache keys.
    """
    return round(start_mv - index * resolution_mv, 6)


@dataclass(frozen=True)
class PlannedPoint:
    """One planned evaluation in a sweep round.

    ``index`` is the point's implicit-grid index (``v_mv ==
    grid_voltage_mv(start, index, resolution)``); outcomes are keyed by
    it.  ``mode`` selects what the executor must deliver:

    * ``"measure"`` — the point's full :class:`Measurement` (outcome
      ``("measurement", m)``) or a hang (``("hang", None)``);
    * ``"probe"`` — liveness plus fault regime from the board dance
      alone: ``("measurement", m)`` when the point is provably fault-free
      (the Measurement comes from the deterministic shortcut, for free),
      ``("alive", None)`` when it is alive but faulty, ``("hang", None)``
      when it hangs.

    Executors evaluate a round's points in list order and stop at the
    first hang; points after it get no outcome.
    """

    index: int
    v_mv: float
    mode: str = "measure"


def drive_rounds(gen, execute_round) -> tuple[list[Measurement], float | None, int]:
    """Drive a strategy's round generator to completion.

    ``gen`` is a :meth:`plan_rounds` generator; ``execute_round`` maps a
    round (list of :class:`PlannedPoint`) to ``{index: outcome}``.
    Returns ``(measurements, crash_mv, rounds_executed)``.
    """
    rounds = 0
    try:
        plan = next(gen)
        while True:
            outcomes = execute_round(plan)
            rounds += 1
            plan = gen.send(outcomes)
    except StopIteration as stop:
        measurements, crash_mv = stop.value
        return measurements, crash_mv, rounds


@dataclass(frozen=True)
class SweepPoint:
    """One voltage step of a sweep."""

    measurement: Measurement

    @property
    def vccint_mv(self) -> float:
        """The point's VCCINT in millivolts."""
        return self.measurement.vccint_mv

    @property
    def accuracy(self) -> float:
        """Mean classification accuracy over the fault realizations."""
        return self.measurement.accuracy


@dataclass
class SweepResult:
    """A completed downward voltage sweep on one (board, workload) pair."""

    benchmark: str
    variant: str
    board_sample: int
    points: list[SweepPoint] = field(default_factory=list)
    #: First voltage (mV) at which the board hung, None if the floor was
    #: reached alive.
    crash_mv: float | None = None
    #: Finest voltage spacing (mV) the producing strategy resolved; drives
    #: the default :meth:`point_at` tolerance.
    resolution_mv: float = 5.0
    #: Name of the strategy that produced the sweep ("grid" | "adaptive").
    strategy: str = "grid"
    #: Unique voltages the strategy evaluated, hang probes included (==
    #: ``len(points)`` + hang probes).  This is the sweep's true cost —
    #: what the adaptive-vs-grid benchmark gate counts — though when a
    #: per-point cache is active, evaluations may be replays rather than
    #: fresh computes (see a point store's :class:`repro.runtime.cache.StoreStats`).
    points_executed: int = 0
    #: How many of the executed probes hung the board.
    hang_probes: int = 0
    #: Liveness-only probes: board dances that established "alive but
    #: faulty" without an accuracy measurement.  Deliberately *excluded*
    #: from ``points_executed`` — a dance costs microseconds while a
    #: measurement costs an engine pass, so folding them together would
    #: let a strategy trade expensive points for cheap probes without the
    #: cost gate noticing.
    liveness_probes: int = 0
    #: Execution rounds the sweep dispatched (one fabric task per round
    #: under round-granular dispatch; one stacked engine pass in-process).
    rounds_executed: int = 0

    @classmethod
    def from_measurements(
        cls,
        measurements: list[Measurement],
        crash_mv: float | None = None,
        hang_probes: int = 0,
        strategy: str = "reassembled",
        resolution_mv: float | None = None,
    ) -> "SweepResult":
        """Reassemble a sweep-shaped result from stored measurements.

        The characterization index (:mod:`repro.runtime.query`) holds
        loose per-voltage points, not sweeps; this constructor packages
        one dataset's points back into the shape every landmark consumer
        (:func:`repro.core.regions.detect_regions`, the figure runners)
        already understands, so landmark extraction has exactly one
        implementation.  Points are ordered high-to-low voltage — the
        invariant ``detect_regions`` relies on — regardless of input
        order, and the default :meth:`point_at` tolerance derives from
        the finest spacing actually present.

        ``crash_mv``/``hang_probes`` carry the recorded-hang information
        when the producing store has it; identity fields (benchmark,
        variant, board) come from the measurements themselves, which must
        all belong to one (benchmark, variant, board) dataset.
        """
        if not measurements:
            raise ValueError("cannot assemble a sweep from zero measurements")
        ordered = sorted(measurements, key=lambda m: -m.vccint_mv)
        first = ordered[0]
        for m in ordered:
            identity = (m.benchmark, m.variant, m.board_sample)
            if identity != (first.benchmark, first.variant, first.board_sample):
                raise ValueError(
                    f"measurements span datasets: {identity} vs "
                    f"{(first.benchmark, first.variant, first.board_sample)}"
                )
        if resolution_mv is None:
            spacings = [
                a.vccint_mv - b.vccint_mv for a, b in zip(ordered, ordered[1:])
            ]
            positive = [s for s in spacings if s > 1e-9]
            resolution_mv = min(positive) if positive else 5.0
        return cls(
            benchmark=first.benchmark,
            variant=first.variant,
            board_sample=first.board_sample,
            points=[SweepPoint(m) for m in ordered],
            crash_mv=crash_mv,
            resolution_mv=resolution_mv,
            strategy=strategy,
            points_executed=len(ordered) + hang_probes,
            hang_probes=hang_probes,
        )

    @property
    def voltages_mv(self) -> list[float]:
        """Visited voltages (mV), in sweep order."""
        return [p.vccint_mv for p in self.points]

    @property
    def measurements(self) -> list[Measurement]:
        """The raw measurements, in sweep order."""
        return [p.measurement for p in self.points]

    def point_at(
        self, vccint_mv: float, tolerance_mv: float | None = None
    ) -> SweepPoint:
        """The measured point nearest ``vccint_mv``, within the tolerance.

        The default tolerance is half the producing strategy's resolution
        — the widest window that still maps every query to a unique grid
        point.  (A fixed tolerance breaks as soon as a sweep is finer than
        it: with sub-tolerance point spacing, first-match lookup can
        return a *neighbouring* point instead of the requested one.)
        """
        if tolerance_mv is None:
            tolerance_mv = self.resolution_mv / 2.0
        if not self.points:
            raise KeyError(f"no sweep point at {vccint_mv} mV (empty sweep)")
        nearest = min(self.points, key=lambda p: abs(p.vccint_mv - vccint_mv))
        if abs(nearest.vccint_mv - vccint_mv) <= tolerance_mv:
            return nearest
        raise KeyError(f"no sweep point at {vccint_mv} mV")

    @property
    def nominal(self) -> SweepPoint:
        """The first (highest-voltage) point — the sweep's baseline."""
        return self.points[0]

    @property
    def last_alive(self) -> SweepPoint:
        """The deepest point measured alive (Vcrash by the paper's definition)."""
        return self.points[-1]


def _deepest_index(start_mv: float, floor_mv: float, resolution_mv: float) -> int:
    """Deepest grid index still at or above the floor."""
    return int((start_mv - floor_mv) / resolution_mv + 1e-9)


@dataclass(frozen=True)
class GridStrategy:
    """Dense walk: one measurement per ``resolution_mv`` from start down."""

    resolution_mv: float

    name = "grid"

    def plan_rounds(self, start_mv: float, floor_mv: float, point_batch: int = 8):
        """Round generator for the dense walk.

        Yields ``point_batch``-sized rounds of consecutive measure plans,
        descending until the floor or the first hang.  Returns
        ``(measurements, crash_mv)`` via ``StopIteration``; the
        measurements are bit-identical to the serial walk — batching
        decides how rounds execute, never what any point computes.
        """
        res = self.resolution_mv
        deepest = _deepest_index(start_mv, floor_mv, res)
        batch = max(1, int(point_batch))
        measured: dict[int, Measurement] = {}
        index = 0
        while index <= deepest:
            chunk = list(range(index, min(index + batch, deepest + 1)))
            results = yield [
                PlannedPoint(i, grid_voltage_mv(start_mv, i, res)) for i in chunk
            ]
            advanced = chunk[-1] + 1
            for i in chunk:
                outcome = results.get(i)
                if outcome is not None and outcome[0] == "hang":
                    return (
                        [measured[j] for j in sorted(measured)],
                        grid_voltage_mv(start_mv, i, res),
                    )
                if outcome is None:
                    # Executor stopped early without a hang outcome for
                    # this index: re-request from here next round.
                    advanced = i
                    break
                measured[i] = outcome[1]
            index = advanced
        return [measured[j] for j in sorted(measured)], None


@dataclass(frozen=True)
class AdaptiveStrategy:
    """Probe-ladder descent plus measured refinement of both boundaries.

    The search leans on what a ``"probe"`` plan gets for free: the board
    dance decides liveness and whether the point's fault rate is zero,
    and a zero-rate point's Measurement costs nothing (the fault-free
    shortcut).  Phases:

    1. **Coarse probe ladder** — stride down in ``coarse_factor`` steps
       with probe plans.  Fault-free rungs yield free measurements; the
       ladder stops at the first rung that is faulty, lossy, or hung.
    2. **Vmin fine walk** — measure every grid point from the last free
       rung down to the first lossy point.  Most of these are still
       fault-free (free); the handful inside the loss-onset band are the
       only real accuracy measurements the boundary needs.  When the
       ladder hit a hang before any lossy point, the walk is replaced by
       the historical measured bisection of (last free rung, hang).
    3. **Crash search** — stride down from the deepest known-alive point
       with probe plans (a hang stops the round exactly where the search
       wants to stop), then bisect liveness to one grid step, then
       confirm the crash edge with one full measurement — the paper's
       ``last_alive`` point.

    All plans land on the same implicit grid the dense walk uses, so at
    equal resolution the detected Vmin/Vcrash landmarks — and every
    visited point's measurement — match the grid strategy exactly, while
    the *expensive* points (real engine passes) collapse to the onset
    band plus one crash-edge confirmation.
    """

    resolution_mv: float
    #: Accuracy-loss threshold steering the Vmin bisection (the config's
    #: ``accuracy_tolerance``); a sweep-plan knob, not a point knob.
    accuracy_tolerance: float = 0.01
    #: Coarse stride in grid steps (coarse step = factor * resolution).
    coarse_factor: int = 8

    name = "adaptive"

    def _loss_free(self, measurement: Measurement) -> bool:
        loss = measurement.clean_accuracy - measurement.accuracy
        return loss <= self.accuracy_tolerance

    def plan_rounds(self, start_mv: float, floor_mv: float, point_batch: int = 8):
        """Round generator for the adaptive search (see class docstring).

        Yields rounds of :class:`PlannedPoint` plans and receives
        ``{index: outcome}`` dicts back; returns ``(measurements,
        crash_mv)`` via ``StopIteration``.  Probe rounds are speculative
        — executors stop at the first hang, so a whole descent can ship
        as one round and stop itself exactly at the crash bracket.
        """
        res = self.resolution_mv
        deepest = _deepest_index(start_mv, floor_mv, res)
        stride = max(1, int(self.coarse_factor))
        batch = max(1, int(point_batch))

        def v(index: int) -> float:
            return grid_voltage_mv(start_mv, index, res)

        measured: dict[int, Measurement] = {}
        hung: set[int] = set()
        alive_probed: set[int] = set()

        def absorb(results: dict) -> None:
            for i, outcome in results.items():
                if outcome is None:
                    continue
                kind, m = outcome
                if kind == "hang":
                    hung.add(i)
                elif kind == "alive":
                    alive_probed.add(i)
                else:
                    measured[i] = m

        def finish(crash_idx: int | None):
            points = [measured[i] for i in sorted(measured)]
            if not points:
                # Mirror the dense walk: hanging at the very start is an
                # error surfaced by VoltageSweep.run (no points collected).
                return [], v(min(hung)) if hung else None
            return points, None if crash_idx is None else v(crash_idx)

        # Phase 1: coarse probe ladder, stopping at the first rung that
        # is not a loss-free measurement.
        coarse = list(range(0, deepest + 1, stride))
        if coarse[-1] != deepest:
            coarse.append(deepest)
        last_free: int | None = None
        stop: tuple[int, str] | None = None
        pos = 0
        while pos < len(coarse) and stop is None:
            chunk = coarse[pos : pos + batch]
            results = yield [PlannedPoint(i, v(i), "probe") for i in chunk]
            absorb(results)
            for i in chunk:
                if i in hung:
                    stop = (i, "hang")
                    break
                if i in alive_probed:
                    stop = (i, "alive")
                    break
                m = measured.get(i)
                if m is None:
                    stop = (i, "hang")  # skipped: executor hit a hang here
                    break
                if self._loss_free(m):
                    last_free = i
                else:
                    stop = (i, "lossy")
                    break
            pos += batch

        if stop is None:
            # Every rung down to the floor measured loss-free.
            return finish(None)
        stop_idx, stop_kind = stop

        # Phase 2: refine the guardband/critical boundary.
        if stop_kind == "hang":
            # Hang before any lossy rung: measured bisection of the gap,
            # exactly the historical phase-2 search (a hung mid narrows
            # from the bad side).
            if last_free is not None:
                free, bad = last_free, min(hung)
                while bad - free > 1:
                    mid = (free + bad) // 2
                    results = yield [PlannedPoint(mid, v(mid))]
                    absorb(results)
                    m = measured.get(mid)
                    if m is not None and self._loss_free(m):
                        free = mid
                    else:
                        bad = mid
        else:
            # Fine measure-walk from the last free rung to the first
            # lossy point.  Fault-free prefixes cost nothing; only the
            # loss-onset band pays for engine passes.  Measuring every
            # step (rather than bisecting) makes the measured point set a
            # superset of nothing and the Vmin landmark grid-exact
            # without any loss-monotonicity assumption.
            index = 0 if last_free is None else last_free + 1
            while index <= deepest:
                if index in hung or (hung and index >= min(hung)):
                    break
                m = measured.get(index)
                if m is None:
                    results = yield [PlannedPoint(index, v(index))]
                    absorb(results)
                    if index in hung:
                        break
                    m = measured.get(index)
                    if m is None:  # pragma: no cover - defensive
                        break
                if not self._loss_free(m):
                    break
                last_free = index
                index += 1

        # Phase 3: crash search.  Probe-stride down from the deepest
        # known-alive index; the whole descent ships as one speculative
        # round because executors stop at the first hang.
        if not hung:
            known = set(measured) | alive_probed
            base = max(known)
            descent = [
                i
                for i in range(base + stride, deepest + 1, stride)
                if i not in known
            ]
            if deepest not in known and (not descent or descent[-1] != deepest):
                descent.append(deepest)
            if descent:
                results = yield [PlannedPoint(i, v(i), "probe") for i in descent]
                absorb(results)
        if not hung:
            # Floor reached alive — no crash boundary; make sure the
            # deepest point carries a full measurement (it is the sweep's
            # last_alive).
            if deepest not in measured:
                results = yield [PlannedPoint(deepest, v(deepest))]
                absorb(results)
            if deepest not in hung:
                return finish(None)

        # Bisect liveness to a one-step bracket.
        alive_known = set(measured) | alive_probed
        hang_idx = min(hung)
        below = [i for i in alive_known if i < hang_idx]
        if not below:
            return finish(hang_idx)
        alive_idx = max(below)
        while hang_idx - alive_idx > 1:
            mid = (alive_idx + hang_idx) // 2
            results = yield [PlannedPoint(mid, v(mid), "probe")]
            absorb(results)
            if mid in hung:
                hang_idx = mid
            else:
                alive_idx = mid

        # Confirm the crash edge with one full measurement — the sweep's
        # last_alive point, one grid step above the recorded crash.
        edge = hang_idx - 1
        while edge >= 0 and edge not in measured:
            results = yield [PlannedPoint(edge, v(edge))]
            absorb(results)
            if edge in hung:
                # Defensive: liveness said alive but the measure hung —
                # shift the bracket up and confirm the new edge.
                hang_idx = edge
                edge = hang_idx - 1
                continue
            if edge not in measured:  # pragma: no cover - defensive
                break
        return finish(hang_idx)


def sweep_strategy(
    config: ExperimentConfig, step_mv: float | None = None
) -> GridStrategy | AdaptiveStrategy:
    """Build the sweep strategy the config (or a step override) selects."""
    resolution_mv = config.resolution_mv(step_mv)
    if resolution_mv <= 0:
        raise ValueError(f"step must be positive, got {resolution_mv}")
    if config.strategy == "adaptive":
        return AdaptiveStrategy(
            resolution_mv=resolution_mv,
            accuracy_tolerance=config.accuracy_tolerance,
        )
    return GridStrategy(resolution_mv=resolution_mv)


class VoltageSweep:
    """Downward VCCINT sweep with crash handling."""

    def __init__(self, session: AcceleratorSession, config: ExperimentConfig | None = None):
        self.session = session
        self.config = config or session.config

    def run(
        self,
        start_mv: float | None = None,
        floor_mv: float = 500.0,
        step_mv: float | None = None,
        f_mhz: float | None = None,
        strategy: GridStrategy | AdaptiveStrategy | None = None,
        measure_round=None,
        point_batch: int | None = None,
    ) -> SweepResult:
        """Sweep from ``start_mv`` (default Vnom) down to crash or floor.

        The visiting order and point set come from ``strategy`` (default:
        whatever the config selects — ``grid`` unless overridden), as a
        sequence of *rounds* of :class:`PlannedPoint` plans (up to
        ``point_batch`` per round, default the config's ``point_batch``).
        Every plan in a round is executed through one voltage-stacked
        engine pass — per-point RNG streams are named by voltage, so the
        round's shape cannot change any point's numbers.  When a
        per-point cache scope is active (:mod:`repro.runtime.points`),
        every measured point is served from / stored to the
        content-addressed point cache with the same per-point fingerprint
        a serial sweep would use, so interrupted or re-parameterized
        sweeps only pay for voltages never measured before.

        ``measure_round`` overrides how a whole round is evaluated: a
        ``measure_round(points) -> {index: outcome}`` callable following
        the :func:`drive_rounds` protocol.  The campaign runtime uses
        this to dispatch each round — the coarse descent and each
        bisection round alike — as *one* task on a leased worker fabric
        (:func:`repro.runtime.campaign.run_sweep_unit_remote`); a
        dispatched round is bit-identical to a local one and the strategy
        cannot tell the difference.
        """
        cal = self.session.board.cal
        start_mv = cal.vnom * 1000.0 if start_mv is None else start_mv
        if strategy is None:
            strategy = sweep_strategy(self.config, step_mv=step_mv)
        if floor_mv >= start_mv:
            raise ValueError("floor must be below the start voltage")
        if point_batch is None:
            point_batch = getattr(self.config, "point_batch", 8)

        if measure_round is None:
            # Late import: repro.core must stay importable without the
            # runtime package; the point cache is an optional acceleration.
            from repro.runtime.points import cached_round_measure

            measure_round = cached_round_measure(self.session, self.config, f_mhz)

        counts = {"measurement": 0, "hang": 0, "alive": 0}

        def counted(points: list[PlannedPoint]) -> dict:
            results = measure_round(points)
            for outcome in results.values():
                if outcome is not None:
                    counts[outcome[0]] += 1
            return results

        measurements, crash_mv, rounds = drive_rounds(
            strategy.plan_rounds(start_mv, floor_mv, point_batch=point_batch),
            counted,
        )
        if not measurements:
            raise BoardHangError(
                f"board hung at the very first point ({start_mv} mV)"
            )
        return SweepResult(
            benchmark=self.session.workload.name,
            variant=self.session.workload.variant_label,
            board_sample=self.session.board.sample,
            points=[SweepPoint(m) for m in measurements],
            crash_mv=crash_mv,
            resolution_mv=strategy.resolution_mv,
            strategy=strategy.name,
            points_executed=counts["measurement"] + counts["hang"],
            hang_probes=counts["hang"],
            liveness_probes=counts["alive"],
            rounds_executed=rounds,
        )
