"""Unit tests of ``run.py compare``: runs pair by seed, and few pairs decide nothing."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("e2e_run", HERE / "run.py")
e2e_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(e2e_run)
SPEC = e2e_run.load_spec()


def _write_runs(directory: Path, walls: dict[int, float], workload: str = "fig3-parallel") -> Path:
    directory.mkdir()
    for seed, wall in walls.items():
        result = {"workload": workload, "seed": seed, "traced": False, "metrics": {"wall_s": wall}}
        (directory / f"{workload}-seed{seed}-run-{len(list(directory.iterdir()))}.json").write_text(
            json.dumps(result)
        )
    return directory


def _rows(stdout: str) -> dict[str, list[str]]:
    return {line.split()[1]: line.split() for line in stdout.splitlines() if line.startswith("fig3-parallel ")}


def test_verdict_needs_ten_pairs():
    pairs = [(10.0, 5.0)] * 9
    assert e2e_run.verdict(pairs, "lower", 0.25) == ("unresolved", 1.0)
    assert e2e_run.verdict(pairs + [(10.0, 5.0)], "lower", 0.25) == ("improved", 1.0)
    assert e2e_run.verdict([], "lower", 0.25)[0] == "unresolved"


def test_verdict_regressed_and_unchanged():
    steady = [(10.0 + i * 0.01, 10.0 + i * 0.01) for i in range(10)]
    assert e2e_run.verdict(steady, "lower", 0.25)[0] == "unchanged"
    slower = [(p, c * 1.5) for p, c in steady]
    assert e2e_run.verdict(slower, "lower", 0.25)[0] == "regressed"


def test_verdict_zero_bound_flags_any_movement():
    same = [(1.7, 1.7)] * 10
    assert e2e_run.verdict(same, "lower", 0.0)[0] == "unchanged"
    moved = same[:9] + [(1.7, 2.0)]
    assert e2e_run.verdict(moved, "lower", 0.0)[0] == "regressed"


def test_compare_pairs_runs_by_seed(tmp_path, capsys):
    # Every seed gives the same value on both sides, but the seed sets are
    # shifted by one: pairing in sorted order would make the change win
    # every pair by 0.1 s.
    parent = _write_runs(tmp_path / "parent", {s: 11.0 - 0.1 * s for s in range(0, 11)})
    change = _write_runs(tmp_path / "change", {s: 11.0 - 0.1 * s for s in range(1, 12)})
    assert e2e_run.compare(parent, change, SPEC) == 0
    out = capsys.readouterr().out
    assert "seeds without a pair, left out: [0, 11]" in out
    row = _rows(out)["wall_s"]
    assert row[-3:] == ["10", "0.00", "unchanged"]


def test_compare_with_too_few_common_seeds_is_unresolved(tmp_path, capsys):
    parent = _write_runs(tmp_path / "parent", {s: 10.0 for s in range(0, 10)})
    change = _write_runs(tmp_path / "change", {s: 20.0 for s in range(1, 11)})
    assert e2e_run.compare(parent, change, SPEC) == 0
    assert _rows(capsys.readouterr().out)["wall_s"][-3:] == ["9", "0.00", "unresolved"]


def test_compare_refuses_two_runs_of_one_seed(tmp_path, capsys):
    parent = _write_runs(tmp_path / "parent", {s: 10.0 for s in range(10)})
    change = _write_runs(tmp_path / "change", {s: 10.0 for s in range(10)})
    (change / "extra.json").write_text(
        json.dumps({"workload": "fig3-parallel", "seed": 3, "traced": False, "metrics": {"wall_s": 9.0}})
    )
    assert e2e_run.compare(parent, change, SPEC) == 2
    assert "more than one fig3-parallel run for seed 3" in capsys.readouterr().err
