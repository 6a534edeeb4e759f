"""EXPERIMENTS.md generation: paper-vs-measured for every table/figure.

The report is driven by the campaign runtime (:mod:`repro.runtime`): the
experiment set is fanned out over ``jobs`` worker processes and consults
the content-addressed result cache, so a warm re-run recomputes nothing.
Rendering is split from execution — :func:`render_campaign_report` takes a
finished :class:`~repro.runtime.campaign.CampaignOutcome`, which the CLI's
``campaign`` command reuses to write a report for an arbitrary experiment
subset.

Per experiment the document carries the regenerated rows, the headline
summary next to the paper's anchors, and any recorded notes; the run
metadata table at the top records each experiment's config fingerprint,
cache status, and wall-clock.  The experiment sections are a pure function
of ``(config, version)`` — ``--jobs N`` and warm-cache runs render them
byte-identically to a serial cold run.
"""

from __future__ import annotations

import io
from typing import Iterable

from repro.core.experiment import ExperimentConfig
from repro.experiments.registry import ExperimentResult
from repro.fleet.report import fleet_payload, render_fleet_markdown
from repro.runtime.cache import ResultCache
from repro.runtime.campaign import DEFAULT_ORDER, CampaignOutcome, run_campaign
from repro.runtime.plan import ExecutionPlan
from repro.version import __version__

__all__ = [
    "DEFAULT_ORDER",
    "fleet_payload",
    "generate_report",
    "render_campaign_report",
    "render_characterization_report",
    "render_experiment_markdown",
    "render_fleet_markdown",
]


def _markdown_table(rows: list[dict], limit: int | None = None) -> str:
    if not rows:
        return "(no rows)\n"
    shown = rows if limit is None or len(rows) <= limit else rows[:limit]
    columns = list(shown[0].keys())
    out = io.StringIO()
    out.write("| " + " | ".join(columns) + " |\n")
    out.write("|" + "|".join("---" for _ in columns) + "|\n")
    for row in shown:
        out.write(
            "| " + " | ".join(str(row.get(c, "")) for c in columns) + " |\n"
        )
    if shown is not rows:
        out.write(f"\n*({len(rows) - len(shown)} more rows; see "
                  f"`benchmarks/out/` for the full CSV.)*\n")
    return out.getvalue()


def render_experiment_markdown(result: ExperimentResult, row_limit: int = 40) -> str:
    out = io.StringIO()
    out.write(f"## {result.experiment_id}: {result.title}\n\n")
    if result.summary:
        out.write("**Headline (measured vs paper):**\n\n")
        for key, value in result.summary.items():
            out.write(f"- `{key}` = {value}\n")
        out.write("\n")
    out.write(_markdown_table(result.rows, limit=row_limit))
    for note in result.notes:
        out.write(f"\n> {note}\n")
    out.write("\n")
    return out.getvalue()


def _render_run_metadata(outcome: CampaignOutcome) -> str:
    """The provenance table: fingerprint, cache status, wall-clock.

    The header records the campaign's worker fan-out (``jobs``, the
    resolved value — ``--jobs auto`` shows the CPU count it resolved
    to); the experiment sections below stay a pure function of
    ``(config, version)`` regardless of it.
    """
    out = io.StringIO()
    out.write(f"**Run metadata** (jobs = {outcome.jobs}; "
              "config hash = cache key of "
              "(experiment, config, version); wall = compute seconds, "
              "summed over shards):\n\n")
    out.write("| experiment | config hash | cache | shards | wall_s |\n")
    out.write("|---|---|---|---|---|\n")
    for entry in outcome.entries:
        status = "hit" if entry.cache_hit else "computed"
        shards = "-" if entry.cache_hit else str(entry.n_shards)
        out.write(
            f"| {entry.experiment_id} | `{entry.fingerprint}` | {status} "
            f"| {shards} | {entry.wall_s:.2f} |\n"
        )
    out.write("\n")
    return out.getvalue()


def render_campaign_report(
    outcome: CampaignOutcome, row_limit: int = 40
) -> str:
    """Render a finished campaign as the EXPERIMENTS.md document."""
    config = outcome.config
    out = io.StringIO()
    out.write("# EXPERIMENTS — paper vs measured\n\n")
    out.write(
        "Generated by `repro.analysis.report` "
        f"(library v{__version__}) with seed={config.seed}, "
        f"repeats={config.repeats} (paper: 10), samples={config.samples}, "
        f"width_scale={config.width_scale}.\n\n"
        "Absolute watt/GOPs values are simulator outputs calibrated to the "
        "paper's anchors (DESIGN.md §5); the comparisons below check the "
        "*shape* of every result — who wins, by what factor, where the "
        "crossovers fall.\n\n"
    )
    out.write(_render_run_metadata(outcome))
    for result in outcome.results:
        out.write(render_experiment_markdown(result, row_limit=row_limit))
    return out.getvalue()


def render_characterization_report(index, benchmark: str | None = None) -> str:
    """Render landmark + guardband tables from a characterization index.

    Unlike the experiment sections above — which are produced by *live*
    campaign runs — this fragment is rendered from the serving layer's
    :class:`~repro.runtime.query.CharacterizationIndex`: whatever the
    point store already holds, without re-running any sweep.  The CLI's
    ``query --markdown`` uses it to turn a warm cache directory into a
    human-readable characterization summary.
    """
    out = io.StringIO()
    out.write("# Characterization database\n\n")
    stats = index.stats()
    out.write(
        f"Indexed from `{stats['cache_dir']}`: "
        f"{stats['points']['indexed']} points "
        f"({stats['points']['alive']} alive, {stats['points']['hangs']} hangs) "
        f"across {stats['datasets']} datasets, library v{stats['version']}.\n\n"
    )
    landmark_rows = [
        {
            "benchmark": row["benchmark"],
            "variant": row["variant"],
            "board": row["board"],
            "vmin_mv": row.get("vmin_mv", "-"),
            "vcrash_mv": row.get("vcrash_mv", "-"),
            "guardband_mv": row.get("guardband_mv", "-"),
            "critical_mv": row.get("critical_mv", "-"),
            "points": row.get("n_points", 0),
            "status": "ok" if row.get("complete") else row.get("reason", "incomplete"),
        }
        for row in index.landmarks(benchmark=benchmark)
    ]
    out.write("## Voltage landmarks (Vmin / Vcrash per dataset)\n\n")
    out.write(_markdown_table(landmark_rows))
    out.write("\n## Per-board guardband maps\n\n")
    for entry in index.guardband(benchmark=benchmark):
        out.write(f"### {entry['benchmark']} ({entry['variant']})\n\n")
        if entry["boards"]:
            out.write(_markdown_table(entry["boards"]))
            out.write(
                f"\nFleet-safe worst case: Vmin {entry['worst_case_vmin_mv']} mV "
                f"({entry['fleet_guardband_mv']} mV of guardband reclaimed on "
                f"every board).\n\n"
            )
        else:
            out.write("(no complete per-board landmarks yet)\n\n")
        if entry["incomplete_boards"]:
            out.write(
                f"*Boards without complete landmarks: "
                f"{entry['incomplete_boards']}.*\n\n"
            )
    return out.getvalue()


def generate_report(
    config: ExperimentConfig,
    experiment_ids: Iterable[str] | None = None,
    row_limit: int = 40,
    plan: ExecutionPlan | None = None,
    cache: ResultCache | None = None,
    journal=None,
) -> str:
    """Run every experiment (parallel, cached) and render the report.

    ``plan`` is an :class:`~repro.runtime.plan.ExecutionPlan`; ``None``
    means the default plan.

    The rendered experiment sections are a pure function of
    ``(config, version)``: whether a result arrived from the experiment
    cache, was rebuilt from per-point cache entries, or was computed
    fresh, the tables are byte-identical.  With a ``journal``
    (:class:`repro.runtime.journal.CampaignJournal`) the underlying
    campaign additionally records its plan and completions, so an
    interrupted report can be picked up by ``campaign paper --resume``
    against the same cache dir.
    """
    ids = tuple(experiment_ids) if experiment_ids is not None else DEFAULT_ORDER
    outcome = run_campaign(ids, config, plan, cache=cache, journal=journal)
    return render_campaign_report(outcome, row_limit=row_limit)
