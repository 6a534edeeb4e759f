"""Report-level acceptance tests for the campaign runtime.

``repro-undervolt report --jobs N`` must render experiment tables
byte-identical to a serial run at the same seed, and a warm-cache re-run
must recompute nothing while rendering the same document body.
"""

from repro.analysis.report import generate_report, render_campaign_report
from repro.core.experiment import ExperimentConfig
from repro.runtime.cache import ResultCache
from repro.runtime.campaign import run_campaign
from repro.runtime.plan import ExecutionPlan

CFG = ExperimentConfig(repeats=1, samples=16)
#: One unsharded and one sharded experiment: both merge paths render.
IDS = ("table1", "fig3")


def experiment_sections(report: str) -> str:
    """Everything from the first experiment heading on (drops the
    run-metadata table, whose wall-clock column is timing-dependent)."""
    return report[report.index("\n## "):]


class TestParallelReport:
    def test_jobs_n_tables_byte_identical_to_serial(self):
        serial = generate_report(CFG, experiment_ids=IDS, plan=ExecutionPlan(jobs=1))
        parallel = generate_report(CFG, experiment_ids=IDS, plan=ExecutionPlan(jobs=4))
        assert experiment_sections(serial) == experiment_sections(parallel)

    def test_metadata_table_lists_every_experiment(self):
        report = generate_report(CFG, experiment_ids=("table1",))
        assert "**Run metadata**" in report
        assert "| experiment | config hash | cache | shards | wall_s |" in report
        assert "| table1 | `" in report


class TestWarmCacheReport:
    def test_warm_rerun_is_byte_identical_and_all_hits(self, tmp_path):
        cold = generate_report(
            CFG, experiment_ids=("table1",), cache=ResultCache(tmp_path / "c")
        )
        warm_cache = ResultCache(tmp_path / "c")
        warm = generate_report(
            CFG, experiment_ids=("table1",), cache=warm_cache
        )
        assert experiment_sections(cold) == experiment_sections(warm)
        assert warm_cache.stats.hits == 1 and warm_cache.stats.stores == 0
        assert "| table1 | `" in warm and "| hit |" in warm

    def test_render_campaign_report_reusable(self):
        outcome = run_campaign(("table1",), CFG)
        text = render_campaign_report(outcome)
        assert text.startswith("# EXPERIMENTS")
        assert "## table1" in text
