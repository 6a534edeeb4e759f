"""CLI front-end tests."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out and "fig6" in out

    def test_run_command(self, capsys):
        code = main(["run", "sec41", "--repeats", "1", "--samples", "48"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sec41" in out
        assert "vccint_w" in out

    def test_run_with_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "rows.csv"
        code = main(
            ["run", "table1", "--repeats", "1", "--samples", "48", "--csv", str(csv_path)]
        )
        assert code == 0
        assert csv_path.exists()
        assert "model" in csv_path.read_text().splitlines()[0]

    def test_sweep_command(self, capsys):
        code = main(["sweep", "vggnet", "--board", "1", "--repeats", "1", "--samples", "48"])
        assert code == 0
        out = capsys.readouterr().out
        assert "board 1" in out
        assert "hung at" in out

    def test_report_command(self, tmp_path, capsys, monkeypatch):
        # Restrict the report to two cheap experiments for test speed.
        import repro.analysis.report as report_mod

        monkeypatch.setattr(report_mod, "DEFAULT_ORDER", ("table1", "sec41"))
        out_path = tmp_path / "EXP.md"
        code = main(
            ["report", "--out", str(out_path), "--repeats", "1", "--samples", "48"]
        )
        assert code == 0
        text = out_path.read_text()
        assert text.startswith("# EXPERIMENTS")
        assert "## table1" in text

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_experiment_fails_loudly(self):
        with pytest.raises(KeyError):
            main(["run", "fig99"])


class TestConfigFlags:
    def test_config_knobs_reach_the_experiment_config(self):
        from repro.cli import _config_from_args

        args = build_parser().parse_args(
            [
                "run", "sec41",
                "--seed", "7", "--repeats", "2", "--samples", "32",
                "--v-step", "0.01", "--width-scale", "0.5",
                "--accuracy-tolerance", "0.02",
                "--strategy", "adaptive", "--v-resolution", "0.001",
            ]
        )
        config = _config_from_args(args)
        assert config.seed == 7
        assert config.repeats == 2
        assert config.samples == 32
        assert config.v_step == 0.01
        assert config.width_scale == 0.5
        assert config.accuracy_tolerance == 0.02
        assert config.strategy == "adaptive"
        assert config.v_resolution == 0.001

    def test_defaults_match_experiment_config(self):
        from repro.cli import _config_from_args
        from repro.core.experiment import ExperimentConfig

        args = build_parser().parse_args(["run", "sec41"])
        defaults = ExperimentConfig()
        config = _config_from_args(args)
        assert config.v_step == defaults.v_step
        assert config.width_scale == defaults.width_scale
        assert config.accuracy_tolerance == defaults.accuracy_tolerance
        assert config.strategy == defaults.strategy == "grid"
        assert config.v_resolution is defaults.v_resolution is None

    def test_every_campaign_command_has_runtime_flags(self):
        parser = build_parser()
        for argv in (
            ["run", "sec41"],
            ["sweep", "vggnet"],
            ["report"],
            ["campaign", "tables"],
        ):
            args = parser.parse_args(argv + ["--jobs", "3", "--no-cache"])
            assert args.jobs == 3 and args.no_cache

    def test_jobs_auto_resolves_to_cpu_count(self):
        import os

        parser = build_parser()
        for argv in (
            ["run", "sec41"],
            ["sweep", "vggnet"],
            ["campaign", "tables"],
        ):
            args = parser.parse_args(argv + ["--jobs", "auto"])
            assert args.jobs == (os.cpu_count() or 1)

    def test_jobs_rejects_garbage(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["run", "sec41", "--jobs", "many"])
        assert "worker count or 'auto'" in capsys.readouterr().err

    def test_jobs_recorded_in_run_metadata(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "r.md"
        code = main([
            "campaign", "sec41", "--repeats", "1", "--samples", "16",
            "--jobs", "2", "--no-cache", "--out", str(out),
        ])
        assert code == 0
        assert "**Run metadata** (jobs = 2;" in out.read_text()


class TestRuntimeCommands:
    def test_run_with_cache_dir(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        argv = [
            "run", "sec41", "--repeats", "1", "--samples", "16",
            "--cache-dir", str(cache_dir),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "sec41" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "cache hit" in warm

    def test_sweep_all_boards(self, capsys, tmp_path):
        code = main(
            [
                "sweep", "vggnet", "--board", "all", "--repeats", "1",
                "--samples", "16", "--jobs", "2",
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "board 0" in out and "board 1" in out and "board 2" in out

    def test_campaign_named_set(self, capsys, tmp_path):
        code = main(
            [
                "campaign", "tables", "--repeats", "1", "--samples", "16",
                "--cache-dir", str(tmp_path / "cache"),
                "--out", str(tmp_path / "campaign.md"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "table1" in out and "table2" in out
        assert "campaign: 2 experiments" in out
        text = (tmp_path / "campaign.md").read_text()
        assert "## table1" in text and "## table2" in text

    def test_sweep_invalid_board_is_clean_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["sweep", "vggnet", "--board", "two"])
        assert exc.value.code == 2
        assert "expected a board index or 'all'" in capsys.readouterr().err

    def test_campaign_explicit_ids_no_cache(self, capsys):
        code = main(
            ["campaign", "sec41", "--repeats", "1", "--samples", "16",
             "--no-cache"]
        )
        assert code == 0
        assert "sec41" in capsys.readouterr().out

    def test_run_adaptive_strategy(self, capsys):
        code = main(
            ["run", "fig3", "--repeats", "1", "--samples", "16",
             "--strategy", "adaptive", "--no-cache"]
        )
        assert code == 0
        assert "vmin_mean_mv" in capsys.readouterr().out

    def test_campaign_journal_and_resume(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        argv = ["campaign", "sec41", "--repeats", "1", "--samples", "16",
                "--cache-dir", cache_dir]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "journal" in first and "1 fresh" in first
        assert (tmp_path / "cache" / "journal.json").exists()
        assert main(argv + ["--resume"]) == 0
        resumed = capsys.readouterr().out
        assert "1 resumed" in resumed and "0 recomputed" in resumed

    def test_parallel_campaign_spawns_one_pool(self, capsys, monkeypatch):
        """The campaign's runner owns the command's only worker pool."""
        import repro.runtime.fabric as fabric_module

        created = []
        base = fabric_module.ProcessPoolExecutor

        class Counted(base):
            def __init__(self, *args, **kwargs):
                created.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(fabric_module, "ProcessPoolExecutor", Counted)
        code = main(
            ["campaign", "table1", "sec41", "--repeats", "1", "--samples", "16",
             "--jobs", "2", "--no-cache"]
        )
        assert code == 0
        assert "sec41" in capsys.readouterr().out
        assert created == [2]

    def test_resume_requires_cache(self, capsys):
        code = main(["campaign", "sec41", "--no-cache", "--resume"])
        assert code == 2
        assert "--resume requires the result cache" in capsys.readouterr().out


class TestQueryCommand:
    @pytest.fixture()
    def warm_cache_dir(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(
            ["sweep", "vggnet", "--board", "0", "--repeats", "1",
             "--samples", "8", "--cache-dir", cache_dir]
        ) == 0
        return cache_dir

    def test_query_landmarks_json(self, warm_cache_dir, capsys):
        import json

        capsys.readouterr()
        code = main(
            ["query", "landmarks", "--benchmark", "vggnet", "--board", "0",
             "--repeats", "1", "--samples", "8", "--cache-dir", warm_cache_dir]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        (row,) = payload["landmarks"]
        assert row["complete"] is True
        assert row["vcrash_mv"] < row["vmin_mv"] < 850.0

    def test_query_point_exact(self, warm_cache_dir, capsys):
        import json

        capsys.readouterr()
        code = main(
            ["query", "points", "--benchmark", "vggnet", "--board", "0",
             "--v-mv", "850", "--repeats", "1", "--samples", "8",
             "--cache-dir", warm_cache_dir]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["hang"] is False and payload["vccint_mv"] == 850.0

    def test_query_guardband_markdown(self, warm_cache_dir, capsys):
        capsys.readouterr()
        code = main(
            ["query", "guardband", "--benchmark", "vggnet", "--markdown",
             "--repeats", "1", "--samples", "8", "--cache-dir", warm_cache_dir]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# Characterization database" in out
        assert "Fleet-safe worst case" in out

    def test_query_stats_on_empty_store(self, tmp_path, capsys):
        import json

        code = main(
            ["query", "stats", "--repeats", "1", "--samples", "8",
             "--cache-dir", str(tmp_path / "empty")]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["points"]["indexed"] == 0

    def test_query_points_requires_benchmark(self, tmp_path, capsys):
        code = main(
            ["query", "points", "--repeats", "1", "--samples", "8",
             "--cache-dir", str(tmp_path / "empty")]
        )
        assert code == 2
        assert "--benchmark is required" in capsys.readouterr().out

    def test_serve_parser_wiring(self):
        from repro.cli import _cmd_serve

        args = build_parser().parse_args(
            ["serve", "--port", "0", "--compute", "--cache-dir", "somewhere"]
        )
        assert args.func is _cmd_serve
        assert args.port == 0 and args.compute
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--lru-capacity", "16"])
        assert excinfo.value.code == 2

    def test_query_miss_is_a_clean_error_not_a_traceback(self, tmp_path, capsys):
        code = main(
            ["query", "points", "--benchmark", "vggnet", "--board", "0",
             "--repeats", "1", "--samples", "8",
             "--cache-dir", str(tmp_path / "cold")]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert out.startswith("error: no indexed dataset")

    def test_query_compute_of_another_variant_is_a_clean_error(self, tmp_path, capsys):
        code = main(
            ["query", "points", "--benchmark", "vggnet", "--board", "0",
             "--v-mv", "850", "--variant", "vggnet-int4", "--compute",
             "--repeats", "1", "--samples", "8",
             "--cache-dir", str(tmp_path / "cold")]
        )
        assert code == 1
        assert capsys.readouterr().out.startswith("error: compute fills only")
        assert not (tmp_path / "cold" / "points").exists()

    @pytest.mark.parametrize(
        "exc, answered",
        [(KeyError("a miss"), True), (ValueError("a bad filter"), True),
         (TypeError("a bug"), False)],
        ids=["miss", "bad-filter", "bug"],
    )
    def test_query_answers_misses_and_bad_filters_but_raises_bugs(
        self, tmp_path, capsys, monkeypatch, exc, answered
    ):
        from repro.runtime.query import CharacterizationIndex

        def fail(self, *args, **kwargs):
            raise exc

        monkeypatch.setattr(CharacterizationIndex, "guardband", fail)
        argv = ["query", "guardband", "--repeats", "1", "--samples", "8",
                "--cache-dir", str(tmp_path / "cold")]
        if not answered:
            with pytest.raises(TypeError, match="a bug"):
                main(argv)
            return
        assert main(argv) == 1
        assert capsys.readouterr().out == f"error: {exc.args[0]}\n"

    def test_query_markdown_skips_the_json_payload_path(self, tmp_path, capsys):
        # 'points' + --markdown must not require --v-mv/--benchmark plumbing:
        # the report renders the whole (empty) index without computing.
        code = main(
            ["query", "points", "--markdown", "--repeats", "1",
             "--samples", "8", "--cache-dir", str(tmp_path / "cold")]
        )
        assert code == 0
        assert "# Characterization database" in capsys.readouterr().out
