#!/usr/bin/env python
"""CI chaos smoke for the distributed fabric's resilience layer.

Two phases, both against real CLI processes (``repro-undervolt
coordinate`` / ``worker``), holding the fabric to the same bar as the
plain distributed smoke — byte-identity with a single-host serial run —
but under deliberately hostile transport:

**Phase A — chaos drain.**  A seeded
:class:`~repro.runtime.chaos.ChaosProxy` sits between two workers and
the coordinator, injecting connection resets, delays past the client
timeout, truncated response bodies, and 5xx bursts per a deterministic
fault schedule.  The campaign must still drain with the merged point
store byte-identical to the reference, ``recomputed == 0`` in the
journal, every fault kind must actually have fired, and the workers'
summed ``retries`` must be at least 1 (the retry loop is the worker's
only fault mechanism, so the run proves it absorbed the faults, not
luck).

**Phase B — poison quarantine.**  One unit is poisoned via
``REPRO_CHAOS_POISON_UNITS``: its execution always raises, the worker
reports each failure to ``/fail``, and after K strikes the coordinator
quarantines it.  The campaign must drain to a partial-but-honest
result: coordinator exits 0, the quarantine is journaled and reported,
and the merged store is byte-identical to the reference *minus* the
poisoned board's points.

Usage (CI)::

    PYTHONPATH=src python scripts/chaos_smoke.py --seed 25 \
        --repeats 1 --samples 8
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.runtime.chaos import FAULT_KINDS, POISON_ENV, ChaosProxy, FaultSchedule  # noqa: E402

BENCHMARK = "vggnet"
WORK_DIR = pathlib.Path(".chaos-smoke")
POISON_BOARD = 1


def run_cli(*args: str, capture: bool = False) -> subprocess.CompletedProcess:
    """Run one repro CLI command to completion."""
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        check=True,
        stdout=subprocess.PIPE if capture else None,
        text=True,
    )


def start_cli(*args: str, env: dict | None = None) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={**os.environ, **(env or {})},
    )


def wait_for(predicate, timeout_s: float, what: str) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.1)
    raise SystemExit(f"timed out after {timeout_s:.0f}s waiting for {what}")


def point_bytes(cache_dir: pathlib.Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted((cache_dir / "points").glob("*.json"))}


def start_coordinator(cache_dir, targets, config_flags, *extra) -> tuple[subprocess.Popen, str]:
    port_file = cache_dir.parent / f"{cache_dir.name}.addr"
    proc = start_cli(
        "coordinate",
        *targets,
        *config_flags,
        "--cache-dir",
        str(cache_dir),
        "--port-file",
        str(port_file),
        *extra,
    )
    wait_for(lambda: port_file.exists(), 30, "the coordinator's port file")
    host, port = port_file.read_text().split()
    return proc, f"http://{host}:{port}"


def start_worker(url: str, cache_dir, worker_id: str, env: dict | None = None) -> subprocess.Popen:
    return start_cli(
        "worker",
        "--connect",
        url,
        "--cache-dir",
        str(cache_dir),
        "--timeout",
        "1",
        "--retry-budget",
        "45",
        "--id",
        worker_id,
        env=env,
    )


def finish(proc: subprocess.Popen, what: str, timeout_s: float = 300) -> tuple[int, str]:
    try:
        code = proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.terminate()
        raise SystemExit(f"{what} did not exit within {timeout_s:.0f}s")
    return code, proc.stdout.read()


def worker_stats(output: str, what: str) -> dict:
    """The stats JSON a worker prints as its last line."""
    try:
        return json.loads(output.strip().splitlines()[-1])
    except (IndexError, ValueError):
        print(output)
        raise SystemExit(f"{what} printed no final stats line") from None


def last_run(cache_dir: pathlib.Path) -> dict:
    journal = json.loads((cache_dir / "journal.json").read_text())
    (campaign,) = journal["campaigns"].values()
    return campaign["runs"][-1]


def phase_a(args, ref_points, config_flags, targets) -> None:
    print("[A] chaos drain: 2 workers through a seeded fault-injecting proxy")
    coord_cache = WORK_DIR / "chaos-cache"
    # Strikes stay out of Phase A's way (chaos lapses leases, but no
    # execution ever fails): quarantine is Phase B's subject.
    coordinator, url = start_coordinator(
        coord_cache,
        targets,
        config_flags,
        "--lease-ttl",
        "3",
        "--linger",
        "10",
        "--quarantine-strikes",
        "50",
    )
    schedule = FaultSchedule(
        seed=args.seed,
        reset_rate=0.12,
        delay_rate=0.06,
        truncate_rate=0.12,
        error_rate=0.08,
        burst_len=3,
        delay_s=2.0,
    )
    host, port = url.removeprefix("http://").split(":")
    with ChaosProxy((host, int(port)), schedule) as proxy:
        workers = [
            start_worker(proxy.url, WORK_DIR / f"chaos-w{i}", f"chaos-w{i}") for i in range(2)
        ]
        code, output = finish(coordinator, "chaos coordinator")
        if code != 0:
            print(output)
            raise SystemExit("chaos coordinator exited non-zero (campaign not drained)")
        retries = 0
        for i, worker in enumerate(workers):
            # Workers may burn their retry budget against the departed
            # coordinator; their exit codes are not the test.
            _, worker_output = finish(worker, f"chaos worker {i}", timeout_s=120)
            retries += worker_stats(worker_output, f"chaos worker {i}")["retries"]
        faults = proxy.snapshot()
    print(f"  fault schedule fired: {faults}")
    print(f"  workers retried {retries} times")
    if retries < 1:
        raise SystemExit("no worker retried: the faults never reached the retry loop")
    missing = [kind for kind in FAULT_KINDS if kind != "pass" and faults[kind] == 0]
    if missing:
        raise SystemExit(
            f"fault kinds {missing} never fired (seed {args.seed}); "
            f"the run proved nothing about them — pick a heavier seed"
        )

    merged = point_bytes(coord_cache)
    if not ref_points or merged != ref_points:
        raise SystemExit(
            f"merged point store diverged under chaos "
            f"({len(merged)} vs {len(ref_points)} entries)"
        )
    print(f"  point stores byte-identical under chaos ({len(ref_points)} entries)")

    run = last_run(coord_cache)
    if run["recomputed"] != 0:
        raise SystemExit(f"chaos forced recomputation of completed units: {run}")
    if run["completed"] != args.boards or run.get("quarantined", 0) != 0:
        raise SystemExit(f"chaos drain incomplete: {run}")
    print(f"  journal: {run['completed']} completed, recomputed == 0")


def phase_b(args, ref_points, config_flags, targets) -> None:
    poison_unit = f"sweep:{BENCHMARK}:board{POISON_BOARD}"
    print(f"[B] poison quarantine: {poison_unit} always crashes its worker")
    coord_cache = WORK_DIR / "poison-cache"
    coordinator, url = start_coordinator(
        coord_cache,
        targets,
        config_flags,
        "--linger",
        "5",
        "--quarantine-strikes",
        "3",
    )
    worker = start_worker(url, WORK_DIR / "poison-w0", "poison-w0", env={POISON_ENV: poison_unit})
    code, coord_output = finish(coordinator, "poison coordinator")
    if code != 0:
        print(coord_output)
        raise SystemExit("poison coordinator exited non-zero: quarantine must still drain")
    worker_code, worker_output = finish(worker, "poison worker", timeout_s=120)
    if worker_code != 0:
        print(worker_output)
        raise SystemExit("poison worker exited non-zero (it should survive the poison unit)")
    if "quarantined" not in coord_output or poison_unit not in coord_output:
        print(coord_output)
        raise SystemExit("coordinator did not report the quarantine in its final output")
    print("  coordinator exited 0 and reported the quarantine")

    stats = worker_stats(worker_output, "poison worker")
    if stats["units_failed"] < 3:
        raise SystemExit(f"expected >= 3 reported failures, got {stats}")
    print(f"  worker reported {stats['units_failed']} failures and drained")

    expected = {
        name: data
        for name, data in ref_points.items()
        if json.loads(data)["context"]["board"] != POISON_BOARD
    }
    merged = point_bytes(coord_cache)
    if merged != expected:
        raise SystemExit(
            f"poisoned store should be the reference minus {poison_unit} "
            f"({len(merged)} vs {len(expected)} entries)"
        )
    print(f"  point store is reference minus the poisoned board ({len(expected)} entries)")

    run = last_run(coord_cache)
    if run.get("quarantined", 0) != 1 or run["completed"] != args.boards - 1:
        raise SystemExit(f"journal accounting wrong after quarantine: {run}")
    print(f"  journal: {run['completed']} completed, {run['quarantined']} quarantined")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--seed", type=int, default=25,
        help="fault-schedule seed (25 fires all five kinds within the "
             "first dozen connections)",
    )
    parser.add_argument("--repeats", default="1")
    parser.add_argument("--samples", default="8")
    parser.add_argument("--boards", type=int, default=3, help="board samples to sweep")
    args = parser.parse_args()

    if WORK_DIR.exists():
        shutil.rmtree(WORK_DIR)
    WORK_DIR.mkdir()
    config_flags = ["--repeats", args.repeats, "--samples", args.samples]
    targets = [f"sweep:{BENCHMARK}:board{i}" for i in range(args.boards)]

    print(f"[0] single-host serial reference sweep ({args.boards} boards)")
    ref_cache = WORK_DIR / "ref-cache"
    run_cli("sweep", BENCHMARK, "--board", "all", *config_flags, "--cache-dir", str(ref_cache))
    ref_points = point_bytes(ref_cache)

    phase_a(args, ref_points, config_flags, targets)
    phase_b(args, ref_points, config_flags, targets)
    print("chaos smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
