"""Smoke test of the end-to-end benchmark (``benchmarks/e2e/run.py``).

Runs every workload once at ``--smoke`` size in traced mode — which also
runs one untraced execution per workload, so both metric sets print — and
checks that every metric ``BENCHMARK.json`` names is printed with its
unit, that every correctness check passes, and that the traced self
times add up to the traced wall time.  A second run tampers with one
execution's point store and must fail.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _run(tmp_path: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args, "--smoke", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )


def _sections(stdout: str) -> dict[str, str]:
    """The printed report of each workload, keyed by workload name."""
    parts = re.split(r"^== (\S+).*$", stdout, flags=re.M)
    return dict(zip(parts[1::2], parts[2::2]))


def test_every_metric_printed_with_unit_and_checks_pass(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run(tmp_path, "trace", "all")
    assert proc.returncode == 0, proc.stdout[-5000:] + proc.stderr[-5000:]
    sections = _sections(proc.stdout)
    assert sorted(sections) == sorted(w["name"] for w in spec["workloads"])
    for workload, text in sections.items():
        assert "[FAIL]" not in text, text
        for entry in spec["end_to_end"] + spec["per_layer"]:
            pattern = rf"^\s+{re.escape(entry['name'])}\s+\S+\s+{re.escape(entry['unit'])}(\s|$)"
            assert re.search(pattern, text, flags=re.M), f"{workload}: {entry['name']} [{entry['unit']}]"

    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    per_layer = {e["name"]: e["unit"] for e in spec["per_layer"]}
    assert len(lines) == len(sections)
    for line in lines:
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert {name: m["unit"] for name, m in line["metrics"].items()} == per_layer

    for path in tmp_path.glob("*.json"):
        layers = json.loads(path.read_text())["layers"]
        total = sum(v for k, v in layers.items() if k.startswith("self_s."))
        assert abs(total - layers["wall_s"]) <= 0.01 * layers["wall_s"], path.name


def test_tampered_store_digest_fails_the_run(tmp_path):
    proc = _run(tmp_path, "run", "--workload", "sweep-rounds", "--tamper-store")
    assert proc.returncode != 0
    assert "[FAIL] every execution leaves a byte-identical point store" in proc.stdout
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is False
