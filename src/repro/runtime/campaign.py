"""Campaign orchestration: cache consult, shard fan-out, deterministic merge.

``run_campaign`` is the one entry point every consumer drives (the CLI's
``run``/``report``/``campaign`` commands and
:func:`repro.analysis.report.generate_report`).  For each requested
experiment it:

1. computes the content-addressed fingerprint of
   ``(experiment_id, config, version)`` and consults the
   :class:`~repro.runtime.cache.ResultCache` (if one is attached);
2. plans the misses into :class:`~repro.runtime.shards.WorkUnit`\\ s —
   whole experiments, or registry-declared shards when running parallel —
   and fans the *combined* unit list of all experiments out over the
   executor, so a campaign saturates ``--jobs`` workers even when its
   experiments shard unevenly;
3. finalizes each experiment the moment its last shard lands: merges the
   shard results in canonical order (bit-identical to a serial run) and
   commits them through the :class:`CampaignLedger` — normalized by the
   cache's JSON codec, stored back, and marked completed in the
   :class:`CampaignJournal` (if one is attached).  The distributed
   coordinator commits through the same ledger.

Durability is layered: finished experiments live in the result cache,
partially finished sweeps live point-by-point in the per-point store
(workers activate it via :func:`repro.runtime.points.maybe_point_scope`),
and the journal records which planned units completed — so a campaign
killed mid-flight resumes from its frontier with ``resume=True`` and
recomputes only work that never finished.

All three campaign kinds — registry experiments (``run_campaign``),
board sweeps (``run_sweep_campaign``) and fleets
(``run_fleet_campaign``) — only build their requests; one
:class:`_CampaignRun` resolves the plan and worker fabric and executes
them, so a campaign runs on one pool however many rounds (or
nested reference sweeps) it dispatches.

The returned :class:`CampaignOutcome` keeps per-experiment provenance
(fingerprint, cache hit/miss, aggregate shard wall time) for
``EXPERIMENTS.md``'s run-metadata table, plus the run's resume accounting
when a journal was active.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.core.experiment import ExperimentConfig
from repro.experiments.registry import ExperimentResult, get_spec, run_unit
from repro.runtime.cache import CacheHit, ResultCache, normalize_result
from repro.runtime.executor import TaskOutcome, run_tasks, run_tasks_threaded
from repro.runtime.fabric import WorkerFabric, active_fabric
from repro.runtime.hashing import config_fingerprint
from repro.runtime.journal import CampaignJournal, campaign_fingerprint
from repro.runtime.plan import ExecutionPlan
from repro.runtime.shards import merge_unit_results, plan_units

#: Canonical report order: tables first, then figures in paper order, then
#: the extension studies.  Re-exported by :mod:`repro.analysis.report`.
DEFAULT_ORDER = (
    "table1",
    "sec41",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "table2",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "ablations",
    "ext_mitigation",
    "ext_bram",
)

#: Named experiment sets for ``repro-undervolt campaign <name>``.
NAMED_CAMPAIGNS: dict[str, tuple[str, ...]] = {
    "paper": DEFAULT_ORDER,
    "tables": ("table1", "table2"),
    "figures": (
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
    ),
    "extensions": ("ablations", "ext_mitigation", "ext_bram"),
}


def _all_experiments_in_report_order() -> tuple[str, ...]:
    from repro.experiments.registry import list_experiments

    known = list_experiments()
    ordered = [e for e in DEFAULT_ORDER if e in known]
    return tuple(ordered + sorted(set(known) - set(ordered)))


def resolve_campaign(targets: Sequence[str]) -> tuple[str, ...]:
    """Map CLI campaign targets to experiment ids.

    Each target may be a campaign-set name (``paper``, ``tables``, ...),
    ``all``, or an explicit experiment id; sets expand in place and
    duplicates collapse, so names and ids mix freely.
    """
    ids: list[str] = []
    for target in targets:
        if target == "all":
            expansion: Sequence[str] = _all_experiments_in_report_order()
        elif target in NAMED_CAMPAIGNS:
            expansion = NAMED_CAMPAIGNS[target]
        else:
            expansion = (target,)
        for exp_id in expansion:
            if exp_id not in ids:
                ids.append(exp_id)
    return tuple(ids)


@dataclass(frozen=True)
class CampaignEntry:
    """Provenance of one experiment inside a campaign run."""

    experiment_id: str
    fingerprint: str
    result: ExperimentResult
    cache_hit: bool
    #: Aggregate compute wall time (s): sum of this experiment's shard
    #: times for a fresh run, the recorded compute time for a cache hit.
    wall_s: float
    n_shards: int
    worker: str  # "cache" | "serial" | "pool" | "serial-fallback"
    #: Fingerprints of the voltage points a fresh run loaded or stored,
    #: sorted.  Empty for a cache hit, without a point store, and for
    #: point-dispatched sweeps (remote workers never dispatch points).
    points: tuple[str, ...] = ()


@dataclass(frozen=True)
class CampaignOutcome:
    """Everything a campaign run produced, in requested order."""

    entries: tuple[CampaignEntry, ...]
    config: ExperimentConfig
    jobs: int
    #: Journal identity of this campaign (None when no journal was active).
    campaign_id: str | None = None
    #: This run's resume accounting from the journal (None without one):
    #: planned/completed/resumed/recomputed/fresh/cached counters.
    journal_stats: dict | None = None

    @property
    def results(self) -> list[ExperimentResult]:
        """The experiment results alone, in requested order."""
        return [e.result for e in self.entries]

    @property
    def cache_hits(self) -> int:
        """How many requested experiments were served from the cache."""
        return sum(1 for e in self.entries if e.cache_hit)

    @property
    def computed(self) -> int:
        """How many requested experiments were computed fresh."""
        return len(self.entries) - self.cache_hits

    def entry(self, experiment_id: str) -> CampaignEntry:
        """The provenance entry for one experiment id (KeyError if absent)."""
        for e in self.entries:
            if e.experiment_id == experiment_id:
                return e
        raise KeyError(f"no campaign entry for {experiment_id!r}")


class CampaignLedger:
    """One campaign's commit rule: fingerprints, journal plan, replay, commit.

    Binds the ordered unit ids to the config, result cache and journal
    (either may be ``None``; so is the campaign id without a journal).
    :meth:`commit` normalizes, stores, then journals, so a journaled
    completion always has its result on disk.  The local campaign
    runner and the distributed coordinator both commit through here, so
    a coordinated campaign journals exactly like a local one.
    """

    def __init__(
        self,
        unit_ids: Sequence[str],
        config: ExperimentConfig,
        cache: ResultCache | None = None,
        journal: CampaignJournal | None = None,
    ):
        self.unit_ids = list(unit_ids)
        self.config = config
        self.cache = cache
        self.journal = journal
        self.fingerprints = {u: config_fingerprint(u, config) for u in self.unit_ids}
        self.campaign_id = (
            campaign_fingerprint(self.unit_ids, config) if journal is not None else None
        )

    def begin(self, resume: bool = False) -> None:
        """Journal the campaign's unit plan (see :meth:`CampaignJournal.begin`)."""
        if self.journal is not None:
            plan = [(u, self.fingerprints[u]) for u in self.unit_ids]
            self.journal.begin(self.campaign_id, plan, resume=resume)

    def replay(self, unit_id: str) -> CacheHit | None:
        """The unit's cached result, journaled as a hit; ``None`` on a miss."""
        if self.cache is None:
            return None
        hit = self.cache.load(self.fingerprints[unit_id], unit_id)
        if hit is not None:
            self._record(unit_id, cache_hit=True, wall_s=hit.wall_s)
        return hit

    def commit(self, unit_id: str, result: ExperimentResult, wall_s: float) -> ExperimentResult:
        """Normalize, store and journal one fresh result; returns the normalized one."""
        result = normalize_result(result)
        if self.cache is not None:
            self.cache.store(self.fingerprints[unit_id], unit_id, self.config, result, wall_s)
        self._record(unit_id, cache_hit=False, wall_s=wall_s)
        return result

    def quarantine(self, unit_id: str, error: str) -> None:
        """Journal one unit the campaign gave up on (terminal)."""
        if self.journal is not None:
            self.journal.record_quarantine(
                self.campaign_id, self.fingerprints[unit_id], unit_id=unit_id, error=error
            )

    def last_run(self) -> dict | None:
        """This run's resume accounting (``None`` without a journal)."""
        return self.journal.last_run(self.campaign_id) if self.journal is not None else None

    def _record(self, unit_id: str, cache_hit: bool, wall_s: float) -> None:
        if self.journal is not None:
            self.journal.record_unit(
                self.campaign_id, self.fingerprints[unit_id], cache_hit=cache_hit, wall_s=wall_s
            )


#: One cacheable request: its cache/unit id, a thunk producing the
#: executor tasks, and a merge over the per-task results.
_Request = tuple[str, Callable[[], list], Callable[[list], ExperimentResult]]


class _PendingUnit:
    """One cache-missed request, finalized as soon as its tasks land."""

    __slots__ = ("unit_id", "tasks", "merge", "outcomes", "remaining", "entry")

    def __init__(self, unit_id: str, tasks: list, merge: Callable):
        self.unit_id = unit_id
        self.tasks = tasks
        self.merge = merge
        self.outcomes: list[TaskOutcome | None] = [None] * len(tasks)
        self.remaining = len(tasks)
        self.entry: CampaignEntry | None = None


class _CampaignRun:
    """One campaign's execution context, resolved once.

    The plan (default when ``None``) has its ``jobs`` resolved and the
    worker fabric is chosen: the one passed in, else the scope's active
    lease (:func:`~repro.runtime.fabric.active_fabric`), else — with
    ``jobs > 1`` — a fabric this run owns and closes on exit.  With one
    job and no lease everything stays serial.  This is the one place a
    campaign decides who owns the pool; a campaign that runs another (a
    fleet's reference sweeps, a remote worker's leased units) hands it
    its fabric.
    """

    def __init__(
        self,
        config: ExperimentConfig | None,
        plan: ExecutionPlan | None,
        cache: ResultCache | None,
        fabric: WorkerFabric | None,
    ):
        self.plan = plan or ExecutionPlan()
        self.config = config or ExperimentConfig()
        self.jobs = self.plan.resolved_jobs()
        self.cache = cache
        self.point_root = str(cache.point_root) if cache is not None else None
        self.blob_root = str(cache.blob_root) if cache is not None else None
        self._owned: WorkerFabric | None = None
        if fabric is None:
            fabric = active_fabric()
        if fabric is None and self.jobs > 1:
            fabric = self._owned = WorkerFabric(self.jobs, blob_root=self.blob_root)
        self.fabric = fabric

    def __enter__(self) -> "_CampaignRun":
        return self

    def __exit__(self, *exc) -> None:
        if self._owned is not None:
            self._owned.close()

    def execute(
        self,
        requests: Sequence[_Request],
        journal: CampaignJournal | None = None,
        resume: bool = False,
        threads: int = 0,
    ) -> CampaignOutcome:
        """The shared cache-consult / fan-out / merge / commit sequence.

        Every campaign kind reduces to this: tasks from *all* cache
        misses run through one executor pass, so the pool stays saturated
        across request boundaries, and every entry records the same
        provenance either way.  Each unit is finalized — merged, then
        committed through the :class:`CampaignLedger` — the moment its
        last task completes, so an interrupted campaign leaves every
        finished unit durable on disk rather than losing the whole batch.
        With ``threads > 0`` the tasks are dispatchers that carry the
        fabric themselves and run on parent threads instead of the pool.
        """
        ledger = CampaignLedger([u for u, _, _ in requests], self.config, self.cache, journal)
        ledger.begin(resume)

        entries: dict[str, CampaignEntry] = {}
        pending: list[_PendingUnit] = []
        for unit_id, make_tasks, merge in requests:
            hit = ledger.replay(unit_id)
            if hit is not None:
                entries[unit_id] = CampaignEntry(
                    experiment_id=unit_id,
                    fingerprint=ledger.fingerprints[unit_id],
                    result=hit.result,
                    cache_hit=True,
                    wall_s=hit.wall_s,
                    n_shards=0,
                    worker="cache",
                )
            else:
                pending.append(_PendingUnit(unit_id, make_tasks(), merge))

        flat: list = []
        owner: list[tuple[_PendingUnit, int]] = []
        for unit in pending:
            for local_index, task in enumerate(unit.tasks):
                flat.append(task)
                owner.append((unit, local_index))

        def finalize(unit: _PendingUnit) -> None:
            mine = [o for o in unit.outcomes if o is not None]
            wall_s = sum(o.wall_s for o in mine)
            points = {fp for o in mine for fp in o.value.merge_state.get("points", ())}
            unit.entry = CampaignEntry(
                experiment_id=unit.unit_id,
                fingerprint=ledger.fingerprints[unit.unit_id],
                result=ledger.commit(unit.unit_id, unit.merge([o.value for o in mine]), wall_s),
                cache_hit=False,
                wall_s=wall_s,
                n_shards=len(unit.tasks),
                worker=mine[0].worker if mine else "serial",
                points=tuple(sorted(points)),
            )

        def on_complete(flat_index: int, outcome: TaskOutcome) -> None:
            unit, local_index = owner[flat_index]
            if unit.entry is not None:
                # Defensive: the executor fires once per index, but a
                # replayed duplicate would carry bit-identical values —
                # ignore it rather than double-count the unit.
                return
            if unit.outcomes[local_index] is None:
                unit.remaining -= 1
            unit.outcomes[local_index] = outcome
            if unit.remaining == 0:
                finalize(unit)

        if threads > 0:
            # In-process thread fan-out: the tasks are dispatchers
            # (point-mode sweep drivers) that must not be pickled to a
            # pool but should still overlap, each feeding the fabric.
            run_tasks_threaded(flat, threads, on_complete=on_complete)
        else:
            run_tasks(flat, on_complete=on_complete, fabric=self.fabric)

        for unit in pending:
            if unit.entry is None:  # pragma: no cover - executor guarantees completion
                raise RuntimeError(f"unit {unit.unit_id!r} never completed")
            entries[unit.unit_id] = unit.entry
        return CampaignOutcome(
            entries=tuple(entries[unit_id] for unit_id, _, _ in requests),
            config=self.config,
            jobs=self.jobs,
            campaign_id=ledger.campaign_id,
            journal_stats=ledger.last_run(),
        )


def run_campaign(
    experiment_ids: Iterable[str],
    config: ExperimentConfig | None = None,
    plan: ExecutionPlan | None = None,
    cache: ResultCache | None = None,
    journal: CampaignJournal | None = None,
    resume: bool = False,
    fabric: WorkerFabric | None = None,
) -> CampaignOutcome:
    """Run a set of experiments, reusing cached results where possible.

    ``plan`` is the one description of *how* to execute
    (:class:`~repro.runtime.plan.ExecutionPlan`: the worker count; its
    ``dispatch`` field is sweep-only and ignored here); ``None`` means
    the default plan.

    With a ``journal``, the campaign's plan and per-unit completions are
    written through to disk; ``resume=True`` keeps the journal's prior
    history so previously completed units count as resumed work (see
    :mod:`repro.runtime.journal`).  Resuming does not change *what* runs —
    completed units are cache hits either way — it changes what the run
    records and reports.

    With ``jobs > 1`` the work runs on a :class:`WorkerFabric` — the one
    passed in, the scope's active lease, or a pool owned (and closed) by
    this call — so worker warm state persists across every round the
    campaign dispatches.  When a cache is attached its blob plane is
    threaded to the workers, which load spilled models memory-mapped
    instead of rebuilding them.
    """
    ids = list(dict.fromkeys(experiment_ids))
    for exp_id in ids:
        get_spec(exp_id)  # fail fast on unknown ids, before touching cache
    with _CampaignRun(config, plan, cache, fabric) as run:
        config = run.config
        # Sharding only pays when there is a pool to spread shards over;
        # the serial path keeps the historical one-call-per-experiment
        # shape by construction.
        shard = run.jobs > 1

        def request_for(exp_id: str) -> _Request:
            def make_tasks() -> list:
                units = plan_units(exp_id, config, shard=shard)
                roots = (run.point_root, run.blob_root)
                return [(run_unit, (u.experiment_id, u.shard_key, config, *roots)) for u in units]

            def merge(results: list) -> ExperimentResult:
                units = plan_units(exp_id, config, shard=shard)
                return merge_unit_results(exp_id, config, units, results)

            return exp_id, make_tasks, merge

        return run.execute([request_for(e) for e in ids], journal, resume)


# ----------------------------------------------------------------------
# Voltage-sweep campaigns (the CLI's ``sweep`` command).
# ----------------------------------------------------------------------


def sweep_unit_id(benchmark: str, board_sample: int) -> str:
    """Pseudo experiment id keying one sweep in the result cache."""
    return f"sweep:{benchmark}:board{board_sample}"


def _sweep_result(benchmark: str, board_sample: int, sweep) -> ExperimentResult:
    return ExperimentResult(
        experiment_id=sweep_unit_id(benchmark, board_sample),
        title=f"sweep: {benchmark} on board {board_sample}",
        rows=[p.measurement.as_dict() for p in sweep.points],
        summary={"crash_mv": sweep.crash_mv},
    )


def run_sweep_unit(
    benchmark: str,
    board_sample: int,
    config: ExperimentConfig,
    point_root: str | None = None,
    blob_root: str | None = None,
) -> ExperimentResult:
    """One full Vnom-to-crash sweep, packaged as an ExperimentResult."""
    from repro.core.session import make_session
    from repro.core.undervolt import VoltageSweep
    from repro.fpga.board import make_board
    from repro.runtime.blobs import maybe_blob_plane
    from repro.runtime.points import maybe_point_scope

    with maybe_blob_plane(blob_root):
        board = make_board(sample=board_sample, cal=config.cal)
        session = make_session(board, benchmark, config)
        with maybe_point_scope(point_root) as points:
            sweep = VoltageSweep(session, config).run()
    result = _sweep_result(benchmark, board_sample, sweep)
    if points is not None:
        result.merge_state["points"] = sorted(points.touched)
    return result


def measure_round_task(
    benchmark: str,
    board_sample: int,
    points: tuple,
    f_mhz: float | None,
    config: ExperimentConfig,
    point_root: str | None,
    blob_root: str | None = None,
) -> list:
    """One dispatched sweep *round*: many planned points, one fabric task.

    ``points`` is a tuple of ``(index, v_mv, mode)`` triples — the wire
    form of :class:`~repro.core.undervolt.PlannedPoint` — executed in
    order through :func:`~repro.runtime.points.cached_round_measure`, so
    every engine-bound plan in the round runs as one voltage-stacked
    pass on the worker's warm model.  Returns ``[(index, kind,
    measurement-or-None), ...]`` for the points that got an outcome
    (execution stops at the first hang, exactly as in-process rounds
    do); per-point store entries land under the *unchanged* per-point
    fingerprints, so dispatched and in-process sweeps share one store.
    Top-level so a fabric can ship it to a warm worker.
    """
    from repro.core.session import make_session
    from repro.core.undervolt import PlannedPoint
    from repro.fpga.board import make_board
    from repro.runtime.blobs import maybe_blob_plane
    from repro.runtime.points import cached_round_measure, maybe_point_scope

    with maybe_blob_plane(blob_root):
        board = make_board(sample=board_sample, cal=config.cal)
        session = make_session(board, benchmark, config)
        with maybe_point_scope(point_root):
            execute = cached_round_measure(session, config, f_mhz)
            outcomes = execute([PlannedPoint(index, v_mv, mode) for index, v_mv, mode in points])
    return [(index, kind, m) for index, (kind, m) in outcomes.items()]


@dataclass(frozen=True)
class _SweepWorkloadHandle:
    """Just the identity a parent-side sweep driver needs of a workload."""

    name: str
    variant_label: str


@dataclass(frozen=True)
class RemoteSweepSession:
    """A build-free stand-in for :class:`~repro.core.session.AcceleratorSession`.

    The parent side of a dispatched sweep only *routes* probes: it needs
    the board (calibration for the start voltage, ``power_cycle`` for
    hang recovery) and the workload's identity labels — never its
    weights, dataset, or engine, which live in the workers.  Keeping the
    parent model-free matters beyond memory: worker pools fork from the
    parent, so a parent that built models would hand every cold worker a
    warm copy and hide the true cost the fabric exists to amortize.
    """

    board: object
    workload: _SweepWorkloadHandle
    config: ExperimentConfig


def remote_sweep_session(
    benchmark: str, board_sample: int, config: ExperimentConfig
) -> RemoteSweepSession:
    """Parent-side sweep handle for (benchmark, board): board, no model."""
    from repro.fpga.board import make_board
    from repro.models.zoo import default_variant_label

    return RemoteSweepSession(
        board=make_board(sample=board_sample, cal=config.cal),
        workload=_SweepWorkloadHandle(
            name=benchmark,
            variant_label=default_variant_label(benchmark),
        ),
        config=config,
    )


def run_sweep_unit_remote(
    benchmark: str,
    board_sample: int,
    config: ExperimentConfig,
    point_root: str | None,
    blob_root: str | None,
    fabric: WorkerFabric | None,
) -> ExperimentResult:
    """One sweep driven in-process, with every *round* dispatched remotely.

    The strategy — grid walk or adaptive search — runs here, in the
    parent (over a model-free :class:`RemoteSweepSession`), but each
    round of planned points it emits becomes **one**
    :func:`measure_round_task` on the fabric's warm pool — an adaptive
    bisection round is one fabric task, not N per-point dispatches.
    Round results are bit-identical to an in-process sweep (per-point
    RNG streams are named by voltage, and the worker executes the same
    round protocol), so the assembled
    :class:`~repro.core.undervolt.SweepResult` is too; what changes is
    *where* the cost lands — on workers whose model and clean-pass state
    persists across every round.
    """
    from repro.core.undervolt import VoltageSweep

    session = remote_sweep_session(benchmark, board_sample, config)

    def measure_round(points) -> dict:
        task_args = (
            benchmark,
            board_sample,
            tuple((p.index, p.v_mv, p.mode) for p in points),
            None,
            config,
            point_root,
            blob_root,
        )
        outcomes = run_tasks([(measure_round_task, task_args)], fabric=fabric)
        return {index: (kind, m) for index, kind, m in outcomes[0].value}

    sweep = VoltageSweep(session, config).run(measure_round=measure_round)
    return _sweep_result(benchmark, board_sample, sweep)


def run_sweep_campaign(
    benchmark: str,
    boards: Sequence[int],
    config: ExperimentConfig | None = None,
    plan: ExecutionPlan | None = None,
    cache: ResultCache | None = None,
    fabric: WorkerFabric | None = None,
    journal: CampaignJournal | None = None,
    resume: bool = False,
) -> CampaignOutcome:
    """Sweep one benchmark on several boards, cached and fanned out.

    ``plan`` (:class:`~repro.runtime.plan.ExecutionPlan`) is the one
    description of *how* to execute; ``None`` means the default plan.

    ``plan.dispatch`` selects the work granularity: ``"unit"`` (default)
    ships whole board sweeps to the pool — best when boards outnumber
    workers — while ``"point"`` runs each board's strategy on a parent
    thread and dispatches every sweep *round* as one task to the fabric's
    warm workers — the adaptive strategy's bisection rounds then reuse one
    leased pool (and its warm model/clean-pass state) end to end instead
    of paying per-round setup, and the per-board driver threads keep the
    pool busy across boards.  Both modes produce bit-identical results
    and share the same point store.

    ``journal``/``resume`` mirror :func:`run_campaign`: with a journal
    the sweep plan and per-board completions are written through, and a
    resumed campaign counts previously completed boards as resumed work.
    """
    with _CampaignRun(config, plan, cache, fabric) as run:
        config = run.config
        point_mode = run.plan.dispatch == "point"

        def request_for(board: int) -> _Request:
            if point_mode:
                # The unit runs in-process on a parent thread (its probes
                # dispatch); the outer pass must never pickle the fabric
                # handle in the task args, so it uses threads, not a pool.
                task = (
                    run_sweep_unit_remote,
                    (benchmark, board, config, run.point_root, run.blob_root, run.fabric),
                )
            else:
                task = (run_sweep_unit, (benchmark, board, config, run.point_root, run.blob_root))
            return sweep_unit_id(benchmark, board), lambda: [task], lambda results: results[0]

        return run.execute(
            [request_for(b) for b in boards],
            journal,
            resume,
            # Point mode: drive the per-board strategies on parent threads
            # so every fabric worker stays busy across boards.
            threads=min(run.jobs, max(1, len(boards))) if point_mode else 0,
        )


# ---------------------------------------------------------------------------
# Fleet simulation campaigns
# ---------------------------------------------------------------------------

#: Boards per fleet work unit.  A module constant — never derived from the
#: job count — so unit ids, cache fingerprints, and resume journals are
#: identical regardless of how a campaign is sharded.
FLEET_CHUNK_BOARDS = 250


def fleet_chunks(n_boards: int) -> list[tuple[int, int]]:
    """Contiguous ``[lo, hi)`` board ranges of one fleet's work units."""
    return [
        (lo, min(lo + FLEET_CHUNK_BOARDS, n_boards))
        for lo in range(0, n_boards, FLEET_CHUNK_BOARDS)
    ]


def fleet_unit_id(spec, policy: str, lo: int, hi: int) -> str:
    """Cache/journal id of one fleet chunk.

    The spec digest scopes the id, so two specs never share cached rows
    even under the same config.
    """
    return f"fleet:{spec.benchmark}:{spec.digest()}:{policy}:boards{lo}-{hi}"


def run_fleet_unit(
    spec,
    policy_name: str,
    lo: int,
    hi: int,
    config: ExperimentConfig,
    curves: dict,
    prep,
) -> ExperimentResult:
    """One fleet work unit: boards ``[lo, hi)`` under one policy.

    Runs anywhere a sweep unit runs — in-process, in a pool, or on a warm
    fabric worker — and is a pure function of its arguments: the parent
    campaign hands it the reference ``curves`` it read from the store,
    so a worker never opens the store.
    """
    from repro.fleet.boards import mint_fleet
    from repro.fleet.simulator import simulate_fleet

    boards = mint_fleet(spec, cal=config.cal)
    rows = simulate_fleet(spec, boards, curves, prep, policy_name, (lo, hi))
    return ExperimentResult(
        experiment_id=fleet_unit_id(spec, policy_name, lo, hi),
        title=f"fleet: {policy_name} boards [{lo}, {hi}) of {spec.n_boards}",
        rows=rows,
        summary={"policy": policy_name, "lo": lo, "hi": hi, "boards": hi - lo},
    )


def run_fleet_campaign(
    spec,
    policies: Sequence[str] | None = None,
    config: ExperimentConfig | None = None,
    plan: ExecutionPlan | None = None,
    cache: ResultCache | None = None,
    fabric: WorkerFabric | None = None,
    journal: CampaignJournal | None = None,
    resume: bool = False,
) -> CampaignOutcome:
    """Simulate a fleet under several policies, cached and fanned out.

    Board chunks shard across the executor exactly like sweep units: each
    ``(policy, chunk)`` is one cacheable unit whose fingerprint covers the
    spec digest, the policy, and the config, so re-running a spec is a
    cache hit and ``--resume`` skips completed chunks.  Before sharding,
    the parent sweeps the reference boards (cache hits when already
    characterized; otherwise one sweep campaign on this campaign's own
    fabric), reads their curves and computes the fleet-wide policy
    constants once, and ships both with every unit, so workers never
    open the store.

    ``policies`` defaults to every shipped policy, in canonical order.
    """
    from repro.fleet.boards import mint_fleet
    from repro.fleet.policy import POLICY_NAMES, RefCurve, prepare_policies
    from repro.runtime.query import open_index

    policies = tuple(policies) if policies else POLICY_NAMES
    with _CampaignRun(config, plan, cache, fabric) as run:
        if run.cache is None:
            raise ValueError(
                "fleet campaigns require a result cache: policies read "
                "reference curves from the characterization store"
            )
        config = run.config
        run_sweep_campaign(
            spec.benchmark, spec.ref_boards, config, run.plan, cache=run.cache, fabric=run.fabric
        )
        index = open_index(run.cache.root, config=config)
        curves = {ref: RefCurve.from_index(index, spec.benchmark, ref) for ref in spec.ref_boards}
        boards = mint_fleet(spec, cal=config.cal)
        prep = prepare_policies(spec, boards, curves, policies, config)

        def request_for(policy: str, lo: int, hi: int) -> _Request:
            task = (run_fleet_unit, (spec, policy, lo, hi, config, curves, prep))
            return fleet_unit_id(spec, policy, lo, hi), lambda: [task], lambda results: results[0]

        requests = [
            request_for(policy, lo, hi)
            for policy in policies
            for lo, hi in fleet_chunks(spec.n_boards)
        ]
        return run.execute(requests, journal, resume)


def fleet_policy_rows(
    outcome: CampaignOutcome, spec, policies: Sequence[str]
) -> dict[str, list[dict]]:
    """Reassemble per-policy board rows from a fleet campaign outcome."""
    rows: dict[str, list[dict]] = {}
    for policy in policies:
        rows[policy] = []
        for lo, hi in fleet_chunks(spec.n_boards):
            entry = outcome.entry(fleet_unit_id(spec, policy, lo, hi))
            rows[policy].extend(entry.result.rows)
    return rows
