"""Command-line front end.

Examples::

    repro-undervolt list
    repro-undervolt run fig3 --repeats 3 --samples 64 --jobs 5
    repro-undervolt run fig3 --strategy adaptive --v-resolution 0.001
    repro-undervolt run table2 --csv out.csv
    repro-undervolt sweep vggnet --board 0
    repro-undervolt sweep vggnet --board all --jobs 3
    repro-undervolt report --jobs 4
    repro-undervolt campaign paper --jobs 8
    repro-undervolt campaign paper --jobs 8 --resume
    repro-undervolt campaign fig3 fig6 --no-cache
    repro-undervolt query landmarks --benchmark vggnet --board 0
    repro-undervolt query guardband --benchmark vggnet --markdown
    repro-undervolt serve --port 8080 --compute
    repro-undervolt serve --max-inflight 128 --access-log access.jsonl

Every campaign-shaped command accepts ``--jobs`` (process fan-out),
``--cache-dir``/``--no-cache`` (the content-addressed result cache: whole
experiments plus individual sweep voltage points), and the full set of
:class:`~repro.core.experiment.ExperimentConfig` knobs (``--v-step``,
``--strategy``, ``--v-resolution``, ``--width-scale``,
``--accuracy-tolerance``, ``--batch-budget``, ``--point-batch``).
Each such command runs exactly one campaign, and with ``--jobs N > 1``
that campaign owns one worker pool for every round it dispatches (see
:mod:`repro.runtime.campaign`).  ``campaign`` additionally journals its plan under the cache dir and
accepts ``--resume`` to pick an interrupted campaign back up, skipping
every unit (and every already-measured voltage point) that completed.

The serving side reads what the campaigns wrote: ``query`` answers
one-shot characterization questions (points / landmarks / guardband /
stats) from the cache dir's point store, and ``serve`` exposes the same
queries as JSON endpoints over an async HTTP plane with admission
control (``--max-inflight``/``--max-connections``), request coalescing
(``--coalesce-window``), ETag revalidation, ``/metrics`` counters, JSON
access logs (``--access-log``), and graceful drain on SIGTERM (see
:mod:`repro.serve`).  Both accept ``--compute`` to measure misses in
process (the default variant at a free-running fan).
"""

from __future__ import annotations

import argparse
import sys


def _config_from_args(args):
    """The one place CLI flags become an ExperimentConfig."""
    from repro.core.experiment import ExperimentConfig

    return ExperimentConfig(
        seed=args.seed,
        repeats=args.repeats,
        samples=args.samples,
        v_step=args.v_step,
        strategy=args.strategy,
        v_resolution=args.v_resolution,
        width_scale=args.width_scale,
        accuracy_tolerance=args.accuracy_tolerance,
        batch_budget=args.batch_budget,
        point_batch=args.point_batch,
    )


def _board_arg(value: str):
    """``--board`` accepts a sample index or 'all' (the whole fleet)."""
    if value == "all":
        return "all"
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a board index or 'all', got {value!r}"
        ) from None


def _jobs_arg(value: str) -> int:
    """``--jobs`` accepts a worker count or 'auto' (one per CPU)."""
    if value == "auto":
        from repro.runtime.fabric import resolve_jobs

        return resolve_jobs("auto")
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a worker count or 'auto', got {value!r}"
        ) from None


def _cache_from_args(args):
    """A ResultCache per the cache flags, or None when disabled."""
    if args.no_cache:
        return None
    from repro.runtime.cache import ResultCache

    return ResultCache(args.cache_dir)


def _plan_from_args(args):
    """The one ExecutionPlan a CLI invocation threads everywhere.

    Collapses the scattered execution flags (``--jobs``, ``--dispatch``)
    into the frozen plan the campaign runtime — and, for ``coordinate``,
    every remote worker — executes under.
    """
    from repro.runtime.plan import ExecutionPlan

    return ExecutionPlan(jobs=args.jobs, dispatch=getattr(args, "dispatch", "unit"))


def _add_config_flags(parser, *, repeats: int, samples: int) -> None:
    from repro.core.experiment import ExperimentConfig

    defaults = ExperimentConfig()
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument("--repeats", type=int, default=repeats)
    parser.add_argument("--samples", type=int, default=samples)
    parser.add_argument(
        "--v-step", dest="v_step", type=float, default=defaults.v_step,
        help=f"voltage sweep step in volts (default {defaults.v_step})",
    )
    parser.add_argument(
        "--strategy", choices=["grid", "adaptive"], default=defaults.strategy,
        help="sweep search strategy: 'grid' measures every point, "
             "'adaptive' coarse-steps and bisects the Vmin/Vcrash "
             f"boundaries to the resolution (default {defaults.strategy})",
    )
    parser.add_argument(
        "--v-resolution", dest="v_resolution", type=float, default=None,
        help="landmark resolution in volts for sweeps (default: --v-step); "
             "the grid strategy uses it as its step, the adaptive strategy "
             "bisects boundaries down to it",
    )
    parser.add_argument(
        "--width-scale", dest="width_scale", type=float,
        default=defaults.width_scale,
        help=f"executable-model width scale (default {defaults.width_scale})",
    )
    parser.add_argument(
        "--accuracy-tolerance", dest="accuracy_tolerance", type=float,
        default=defaults.accuracy_tolerance,
        help="absolute accuracy-loss tolerance defining 'no loss' "
             f"(default {defaults.accuracy_tolerance})",
    )
    parser.add_argument(
        "--batch-budget", dest="batch_budget", type=int,
        default=defaults.batch_budget,
        help="max stacked inferences per batched forward pass; larger "
             "repeat sets chunk along the repeat axis "
             f"(default {defaults.batch_budget})",
    )
    parser.add_argument(
        "--point-batch", dest="point_batch", type=int,
        default=defaults.point_batch,
        help="max planned voltage points per sweep execution round (one "
             "fabric task / one stacked engine pass per round); round "
             "shape never changes results "
             f"(default {defaults.point_batch})",
    )


def _add_runtime_flags(parser) -> None:
    from repro.runtime.cache import DEFAULT_CACHE_DIR

    parser.add_argument(
        "--jobs", type=_jobs_arg, default=1,
        help="worker processes for the campaign runtime, or 'auto' for "
             "one per CPU (default 1 = serial); a parallel command runs one "
             "campaign on one persistent worker pool, shared by all its rounds",
    )
    parser.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR,
        help=f"result cache directory (default {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the result cache entirely",
    )


def _cmd_list(_args) -> int:
    from repro.experiments.registry import list_experiments

    for exp_id in list_experiments():
        print(exp_id)
    return 0


def _cmd_run(args) -> int:
    from repro.runtime.campaign import run_campaign

    config = _config_from_args(args)
    cache = _cache_from_args(args)
    outcome = run_campaign([args.experiment], config, _plan_from_args(args), cache=cache)
    entry = outcome.entries[0]
    result = entry.result
    print(result.render())
    if entry.cache_hit:
        print(f"(cache hit {entry.fingerprint}; computed in {entry.wall_s:.2f}s)")
    if args.csv:
        from repro.analysis.tables import write_csv

        write_csv(args.csv, result.rows)
        print(f"rows written to {args.csv}")
    return 0


def _cmd_sweep(args) -> int:
    from repro.analysis.tables import render_table
    from repro.runtime.campaign import run_sweep_campaign

    config = _config_from_args(args)
    if args.board == "all":
        boards = list(range(config.cal.n_boards))
    else:
        boards = [args.board]
    cache = _cache_from_args(args)
    outcome = run_sweep_campaign(args.benchmark, boards, config, _plan_from_args(args), cache=cache)
    for board, entry in zip(boards, outcome.entries):
        print(
            render_table(
                entry.result.rows,
                title=f"sweep: {args.benchmark} on board {board}",
            )
        )
        crash_mv = entry.result.summary.get("crash_mv")
        if crash_mv is not None:
            print(f"board hung at {crash_mv:.0f} mV (power-cycled)")
    return 0


def _cmd_report(args) -> int:
    from repro.analysis.report import generate_report

    config = _config_from_args(args)
    cache = _cache_from_args(args)
    report = generate_report(
        config, plan=_plan_from_args(args), cache=cache,
        journal=_journal_from_args(args, cache),
    )
    with open(args.out, "w") as f:
        f.write(report)
    print(f"wrote {args.out} ({len(report.splitlines())} lines)")
    return 0


def _journal_from_args(args, cache):
    """The campaign journal living under the cache dir (None = no cache)."""
    if cache is None:
        return None
    from repro.runtime.journal import JOURNAL_NAME, CampaignJournal

    return CampaignJournal(cache.root / JOURNAL_NAME)


def _cmd_campaign(args) -> int:
    from repro.analysis.report import render_campaign_report
    from repro.analysis.tables import render_table
    from repro.runtime.campaign import resolve_campaign, run_campaign

    config = _config_from_args(args)
    ids = resolve_campaign(args.targets)
    cache = _cache_from_args(args)
    if args.resume and cache is None:
        print("error: --resume requires the result cache (drop --no-cache)")
        return 2
    outcome = run_campaign(
        ids, config, _plan_from_args(args), cache=cache,
        journal=_journal_from_args(args, cache), resume=args.resume,
    )
    rows = [
        {
            "experiment": e.experiment_id,
            "hash": e.fingerprint,
            "cache": "hit" if e.cache_hit else "computed",
            "shards": e.n_shards if not e.cache_hit else "-",
            "wall_s": round(e.wall_s, 2),
            "rows": len(e.result.rows),
        }
        for e in outcome.entries
    ]
    print(
        render_table(
            rows,
            title=f"campaign: {len(ids)} experiments, jobs={args.jobs}, "
                  f"{outcome.cache_hits} cached / {outcome.computed} computed",
        )
    )
    if outcome.journal_stats is not None:
        stats = outcome.journal_stats
        print(
            f"journal {outcome.campaign_id}: {stats['planned']} planned, "
            f"{stats['resumed']} resumed, {stats['recomputed']} recomputed, "
            f"{stats['fresh']} fresh, {stats['cached']} cached"
        )
    if args.out:
        report = render_campaign_report(outcome)
        with open(args.out, "w") as f:
            f.write(report)
        print(f"wrote {args.out} ({len(report.splitlines())} lines)")
    return 0


def _cmd_fleet(args) -> int:
    from repro.fleet.boards import FleetSpec
    from repro.fleet.policy import POLICY_NAMES
    from repro.fleet.report import fleet_payload, render_fleet_markdown, to_json
    from repro.runtime.campaign import fleet_policy_rows, run_fleet_campaign

    config = _config_from_args(args)
    cache = _cache_from_args(args)
    if cache is None:
        print("error: fleet simulations require the result cache (drop --no-cache)")
        return 2
    if args.policies == "all":
        policies = POLICY_NAMES
    else:
        policies = tuple(p.strip() for p in args.policies.split(",") if p.strip())
        unknown = [p for p in policies if p not in POLICY_NAMES]
        if unknown:
            print(
                f"error: unknown policies {unknown}; "
                f"expected a subset of {list(POLICY_NAMES)}"
            )
            return 2
    spec = FleetSpec(
        benchmark=args.benchmark,
        n_boards=args.boards,
        fleet_seed=args.fleet_seed,
        trace_kind=args.trace,
        rate_hz=args.rate,
        duration_s=args.duration,
        epoch_s=args.epoch,
        deadline_s=args.deadline,
    )
    outcome = run_fleet_campaign(
        spec, policies, config, _plan_from_args(args), cache=cache,
        journal=_journal_from_args(args, cache), resume=args.resume,
    )
    rows = fleet_policy_rows(outcome, spec, policies)
    payload = fleet_payload(spec, rows)
    print(render_fleet_markdown(payload))
    print(
        f"campaign: {len(outcome.entries)} units, jobs={args.jobs}, "
        f"{outcome.cache_hits} cached / {outcome.computed} computed"
    )
    if outcome.journal_stats is not None:
        stats = outcome.journal_stats
        print(
            f"journal {outcome.campaign_id}: {stats['planned']} planned, "
            f"{stats['resumed']} resumed, {stats['recomputed']} recomputed, "
            f"{stats['fresh']} fresh, {stats['cached']} cached"
        )
    if args.json_out:
        with open(args.json_out, "w") as f:
            f.write(to_json(payload))
        print(f"wrote {args.json_out}")
    return 0


def _cmd_query(args) -> int:
    import json

    from repro.query import open_index, to_json
    from repro.serve import answer_query

    config = _config_from_args(args)
    index = open_index(args.cache_dir, config=config)
    if args.markdown:
        # The markdown report covers landmarks + guardband for the whole
        # (optionally benchmark-filtered) index; skip building a JSON
        # payload that would be discarded anyway.
        from repro.analysis.report import render_characterization_report

        print(render_characterization_report(index, benchmark=args.benchmark))
        return 0
    if args.what == "points" and args.benchmark is None:
        print("error: --benchmark is required for 'points' queries")
        return 2
    # The flags become the HTTP endpoint's query parameters, so the CLI
    # and ``serve`` answer through one mapping onto the index.
    flags = dict(benchmark=args.benchmark, variant=args.variant, board=args.board,
                 v_mv=args.v_mv, mode=args.mode, compute="1" if args.compute else None)
    params = {name: [str(value)] for name, value in flags.items() if value is not None}
    try:
        payload = answer_query(index, True, f"/{args.what}", params)
    except (KeyError, ValueError) as exc:
        # A miss or an ambiguous filter is an answer, not a crash: the
        # same errors the HTTP layer maps to 404/400.  Anything else is
        # a bug and raises with its traceback.
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}")
        return 1
    if args.pretty:
        print(json.dumps(json.loads(to_json(payload)), indent=2, sort_keys=True))
    else:
        print(to_json(payload))
    return 0


def _cmd_coordinate(args) -> int:
    from repro.runtime.coordinator import make_coordinator

    coordinator = make_coordinator(
        args.targets,
        args.cache_dir,
        config=_config_from_args(args),
        plan=_plan_from_args(args),
        host=args.host,
        port=args.port,
        resume=args.resume,
        lease_ttl_s=args.lease_ttl,
        linger_s=args.linger,
        quarantine_strikes=args.quarantine_strikes,
        access_log=args.access_log,
        quiet=False,
    )
    thread = coordinator.start_in_thread()
    if args.port_file:
        # The bound address (--port 0 binds ephemerally), for scripts
        # that need to point workers at this coordinator.
        host, port = coordinator.server_address
        with open(args.port_file, "w") as f:
            f.write(f"{host} {port}\n")
    try:
        thread.join()
    except KeyboardInterrupt:
        coordinator.shutdown()
        thread.join(timeout=5.0)
    quarantined = coordinator.quarantined_units
    if quarantined:
        # Partial-but-honest drain: the campaign gave up on poison
        # units and must say so, but giving up *is* the success path —
        # the alternative is re-leasing them forever.
        print(
            f"campaign drained with {len(quarantined)} quarantined unit(s): "
            + ", ".join(sorted(quarantined)),
        )
    return 0 if coordinator.drained else 1


def _cmd_worker(args) -> int:
    import json

    from repro.runtime.remote_worker import WorkerError, run_worker

    try:
        stats = run_worker(
            args.connect,
            args.cache_dir,
            jobs=args.jobs if args.jobs > 1 else None,
            poll_s=args.poll,
            worker_id=args.id,
            max_units=args.max_units,
            retry_budget_s=args.retry_budget,
            timeout_s=args.timeout,
            quiet=False,
        )
    except WorkerError as exc:
        print(f"error: {exc}")
        return 2
    print(json.dumps(stats.as_dict(), sort_keys=True))
    return 0 if stats.stopped in ("drained", "max-units") else 1


def _cmd_workers(args) -> int:
    import json

    from repro.runtime.supervisor import run_supervisor

    stats = run_supervisor(
        args.connect,
        args.cache_dir,
        args.count,
        jobs=args.jobs if args.jobs > 1 else None,
        poll_s=args.poll,
        retry_budget_s=args.retry_budget,
        timeout_s=args.timeout,
        max_restarts=args.max_restarts,
        quiet=False,
    )
    print(json.dumps(stats.as_dict(), sort_keys=True))
    return 0 if stats.abandoned == 0 and all(c == 0 for c in stats.exit_codes) else 1


def _cmd_serve(args) -> int:
    from repro.serve import serve

    return serve(
        args.cache_dir,
        host=args.host,
        port=args.port,
        config=_config_from_args(args),
        allow_compute=args.compute,
        max_inflight=args.max_inflight,
        max_connections=args.max_connections,
        coalesce_window_s=args.coalesce_window,
        drain_timeout_s=args.drain_timeout,
        access_log=args.access_log,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-undervolt",
        description="Reduced-voltage FPGA CNN accelerator study (DSN 2020 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list experiment ids")
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="run one experiment (table/figure)")
    p_run.add_argument("experiment", help="experiment id, e.g. fig3")
    _add_config_flags(p_run, repeats=3, samples=96)
    _add_runtime_flags(p_run)
    p_run.add_argument("--csv", help="also write rows to this CSV path")
    p_run.set_defaults(func=_cmd_run)

    p_report = sub.add_parser(
        "report", help="run every experiment and write EXPERIMENTS.md"
    )
    p_report.add_argument("--out", default="EXPERIMENTS.md")
    _add_config_flags(p_report, repeats=3, samples=64)
    _add_runtime_flags(p_report)
    p_report.set_defaults(func=_cmd_report)

    p_sweep = sub.add_parser("sweep", help="voltage-sweep one benchmark")
    p_sweep.add_argument("benchmark", help="vggnet|googlenet|alexnet|resnet50|inception")
    p_sweep.add_argument(
        "--board", type=_board_arg, default=0,
        help="board sample index, or 'all' for the whole fleet",
    )
    p_sweep.add_argument(
        "--dispatch", choices=["unit", "point"], default="unit",
        help="parallel work granularity: 'unit' ships whole board sweeps "
             "to the pool, 'point' drives strategies on parent threads "
             "and ships each sweep round as one fabric task; results are "
             "bit-identical (default unit)",
    )
    _add_config_flags(p_sweep, repeats=3, samples=96)
    _add_runtime_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_campaign = sub.add_parser(
        "campaign",
        help="run a named experiment set (paper|tables|figures|extensions|all) "
             "or explicit ids in one parallel batch",
    )
    p_campaign.add_argument(
        "targets", nargs="+",
        help="campaign name (paper, tables, figures, extensions, all) or "
             "experiment ids",
    )
    p_campaign.add_argument("--out", help="also write a markdown report here")
    p_campaign.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted campaign: keep the journal's completed "
             "units (served from the cache) and recompute only the frontier",
    )
    _add_config_flags(p_campaign, repeats=3, samples=64)
    _add_runtime_flags(p_campaign)
    p_campaign.set_defaults(func=_cmd_campaign)

    p_fleet = sub.add_parser(
        "fleet",
        help="simulate a board fleet serving traffic under voltage policies",
    )
    p_fleet.add_argument(
        "--benchmark", default="vggnet",
        help="benchmark whose characterization drives the fleet "
             "(default vggnet)",
    )
    p_fleet.add_argument(
        "--boards", type=int, default=16,
        help="number of virtual boards to mint (default 16)",
    )
    p_fleet.add_argument(
        "--fleet-seed", dest="fleet_seed", type=int, default=7,
        help="root seed of the fleet's named RNG streams (default 7)",
    )
    p_fleet.add_argument(
        "--policies", default="all",
        help="comma-separated policy names, or 'all' (default): "
             "nominal, static-guardband, per-board-vmin, reactive-dvfs, "
             "mitigated",
    )
    p_fleet.add_argument(
        "--trace", choices=["steady", "poisson", "diurnal"], default="steady",
        help="fleet-wide request trace shape (default steady)",
    )
    p_fleet.add_argument(
        "--rate", type=float, default=64.0,
        help="fleet-wide request rate in req/s (default 64)",
    )
    p_fleet.add_argument(
        "--duration", type=float, default=60.0,
        help="simulated wall time in seconds (default 60)",
    )
    p_fleet.add_argument(
        "--epoch", type=float, default=5.0,
        help="policy decision interval in seconds (default 5)",
    )
    p_fleet.add_argument(
        "--deadline", type=float, default=0.05,
        help="per-request SLO deadline in seconds (default 0.05)",
    )
    p_fleet.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted fleet campaign from its journal",
    )
    p_fleet.add_argument(
        "--json", dest="json_out", default=None,
        help="also write the canonical-JSON fleet payload to this path",
    )
    _add_config_flags(p_fleet, repeats=3, samples=96)
    _add_runtime_flags(p_fleet)
    p_fleet.set_defaults(func=_cmd_fleet)

    from repro.runtime.cache import DEFAULT_CACHE_DIR

    p_query = sub.add_parser(
        "query",
        help="one-shot characterization queries against a warm point store",
    )
    p_query.add_argument(
        "what", choices=["points", "landmarks", "guardband", "stats"],
        help="what to ask the characterization index",
    )
    p_query.add_argument("--benchmark", help="benchmark name, e.g. vggnet")
    p_query.add_argument("--variant", help="workload variant label filter")
    p_query.add_argument(
        "--board", type=int, default=None, help="board sample index filter"
    )
    p_query.add_argument(
        "--v-mv", dest="v_mv", type=float, default=None,
        help="voltage (mV) for a single-point lookup",
    )
    p_query.add_argument(
        "--mode", choices=["exact", "nearest", "interpolate"], default="exact",
        help="single-point lookup mode (default exact)",
    )
    p_query.add_argument(
        "--compute", action="store_true",
        help="fill misses by measuring the missing sweep/point "
             "(default variant, free-running fan only)",
    )
    p_query.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR,
        help=f"cache directory holding the point store (default {DEFAULT_CACHE_DIR})",
    )
    p_query.add_argument(
        "--pretty", action="store_true", help="indent the JSON output"
    )
    p_query.add_argument(
        "--markdown", action="store_true",
        help="render a landmark/guardband markdown report instead of JSON",
    )
    _add_config_flags(p_query, repeats=3, samples=96)
    p_query.set_defaults(func=_cmd_query)

    p_coord = sub.add_parser(
        "coordinate",
        help="serve a campaign's unfinished units as time-leased HTTP "
             "work items for remote workers, merging their results",
    )
    p_coord.add_argument(
        "targets", nargs="+",
        help="campaign names, experiment ids, or sweep specs "
             "(sweep:<benchmark>[:board<N>])",
    )
    p_coord.add_argument("--host", default="127.0.0.1")
    p_coord.add_argument(
        "--port", type=int, default=0, help="0 binds an ephemeral port (default)"
    )
    p_coord.add_argument(
        "--lease-ttl", dest="lease_ttl", type=float, default=60.0,
        help="seconds a leased unit stays exclusive before it is "
             "re-leased to another worker (default 60)",
    )
    p_coord.add_argument(
        "--linger", type=float, default=2.0,
        help="seconds to keep answering 'done' after the campaign "
             "drains, so every worker polls its way to a clean exit "
             "(default 2)",
    )
    p_coord.add_argument(
        "--port-file", dest="port_file", default=None,
        help="write the bound 'host port' here once accepting",
    )
    p_coord.add_argument(
        "--resume", action="store_true",
        help="keep the journal's completed units (served from the cache) "
             "and distribute only the frontier",
    )
    p_coord.add_argument(
        "--quarantine-strikes", dest="quarantine_strikes", type=int, default=3,
        help="lapsed leases + reported failures before a unit is "
             "quarantined (excluded from leasing and reported) "
             "instead of re-leased forever (default 3)",
    )
    p_coord.add_argument(
        "--access-log", dest="access_log", default=None,
        help="structured JSON access log: a file path, or '-' for stdout",
    )
    p_coord.add_argument(
        "--dispatch", choices=["unit", "point"], default="unit",
        help="execution-plan dispatch mode shipped to every worker "
             "(default unit)",
    )
    _add_config_flags(p_coord, repeats=3, samples=64)
    _add_runtime_flags(p_coord)
    p_coord.set_defaults(func=_cmd_coordinate)

    p_worker = sub.add_parser(
        "worker",
        help="lease work units from a coordinator, execute them on the "
             "local fabric, and post results back",
    )
    p_worker.add_argument(
        "--connect", required=True,
        help="coordinator base URL, e.g. http://127.0.0.1:8400",
    )
    p_worker.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR,
        help=f"local cache directory (default {DEFAULT_CACHE_DIR}); "
             "missing model-plane blobs sync from the coordinator",
    )
    p_worker.add_argument(
        "--jobs", type=_jobs_arg, default=1,
        help="override the shipped plan's worker count for this host "
             "(default 1 = honor the plan)",
    )
    p_worker.add_argument(
        "--poll", type=float, default=0.5,
        help="seconds between polls while all units are leased out",
    )
    p_worker.add_argument(
        "--max-units", dest="max_units", type=int, default=None,
        help="exit after completing this many units (default: drain)",
    )
    p_worker.add_argument(
        "--retry-budget", dest="retry_budget", type=float, default=30.0,
        help="seconds without a single successful coordinator response "
             "before the worker gives up (default 30)",
    )
    p_worker.add_argument(
        "--timeout", type=float, default=30.0,
        help="per-request HTTP timeout in seconds (default 30)",
    )
    p_worker.add_argument(
        "--id", default=None,
        help="worker id reported to the coordinator (default host-pid)",
    )
    p_worker.set_defaults(func=_cmd_worker)

    p_workers = sub.add_parser(
        "workers",
        help="spawn and supervise N local campaign workers, restarting "
             "crashed ones with backoff",
    )
    p_workers.add_argument(
        "--connect", required=True,
        help="coordinator base URL, e.g. http://127.0.0.1:8400",
    )
    p_workers.add_argument(
        "-n", "--count", dest="count", type=int, default=2,
        help="worker processes to supervise (default 2)",
    )
    p_workers.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR,
        help=f"cache root (default {DEFAULT_CACHE_DIR}); each worker "
             "gets its own workerN subdirectory",
    )
    p_workers.add_argument(
        "--jobs", type=_jobs_arg, default=1,
        help="per-worker override of the shipped plan's worker count "
             "(default 1 = honor the plan)",
    )
    p_workers.add_argument(
        "--poll", type=float, default=None,
        help="seconds between polls while all units are leased out",
    )
    p_workers.add_argument(
        "--retry-budget", dest="retry_budget", type=float, default=None,
        help="per-worker seconds without a successful coordinator "
             "response before it gives up",
    )
    p_workers.add_argument(
        "--timeout", type=float, default=None,
        help="per-worker per-request HTTP timeout in seconds",
    )
    p_workers.add_argument(
        "--max-restarts", dest="max_restarts", type=int, default=5,
        help="consecutive crashes tolerated per worker slot before the "
             "supervisor abandons it (default 5)",
    )
    p_workers.set_defaults(func=_cmd_workers)

    p_serve = sub.add_parser(
        "serve",
        help="serve the characterization index over HTTP (JSON endpoints)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8080, help="0 binds an ephemeral port"
    )
    p_serve.add_argument(
        "--compute", action="store_true",
        help="allow clients to request read-through compute (?compute=1)",
    )
    p_serve.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR,
        help=f"cache directory holding the point store (default {DEFAULT_CACHE_DIR})",
    )
    from repro.serve import (
        DEFAULT_COALESCE_WINDOW_S,
        DEFAULT_DRAIN_TIMEOUT_S,
        DEFAULT_MAX_CONNECTIONS,
        DEFAULT_MAX_INFLIGHT,
    )

    p_serve.add_argument(
        "--max-inflight", dest="max_inflight", type=int,
        default=DEFAULT_MAX_INFLIGHT,
        help="admission control: concurrent data-plane requests beyond "
             "this are shed with 503 + Retry-After instead of queueing; "
             "0 sheds everything except /healthz and /metrics "
             f"(default {DEFAULT_MAX_INFLIGHT})",
    )
    p_serve.add_argument(
        "--max-connections", dest="max_connections", type=int,
        default=DEFAULT_MAX_CONNECTIONS,
        help="connections beyond this are answered 503 and closed "
             f"(default {DEFAULT_MAX_CONNECTIONS})",
    )
    p_serve.add_argument(
        "--coalesce-window", dest="coalesce_window", type=float,
        default=DEFAULT_COALESCE_WINDOW_S,
        help="seconds a completed data-plane response stays in the "
             "dedupe map serving identical requests (0 = pure "
             "single-flight: only concurrent duplicates collapse; "
             f"default {DEFAULT_COALESCE_WINDOW_S})",
    )
    p_serve.add_argument(
        "--drain-timeout", dest="drain_timeout", type=float,
        default=DEFAULT_DRAIN_TIMEOUT_S,
        help="graceful-shutdown deadline (s) for draining in-flight "
             f"requests on SIGTERM/SIGINT (default {DEFAULT_DRAIN_TIMEOUT_S})",
    )
    p_serve.add_argument(
        "--access-log", dest="access_log", default=None,
        help="structured JSON access log: a file path, or '-' for stdout "
             "(default: no access log)",
    )
    _add_config_flags(p_serve, repeats=3, samples=96)
    p_serve.set_defaults(func=_cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
