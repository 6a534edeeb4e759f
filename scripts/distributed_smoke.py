#!/usr/bin/env python
"""CI smoke test for the distributed campaign fabric.

Drives the real CLI processes (``repro-undervolt coordinate`` /
``worker``, not embedded objects) through the failure the fabric
exists to absorb — a worker dying mid-campaign — and holds the
distributed result to the single-host bar:

1. a single-host serial sweep builds the reference cache, and an
   unrelated ``alexnet`` sweep under the same config seeds the store of
   worker "doomed" (a worker ships only the points its units touched,
   so those must never reach the merged store);
2. a coordinator starts with every board's sweep unit, over a cache
   dir seeded with the reference cache's model plane (``blobs/``);
3. the script itself leases one unit as worker "ghost" and never
   completes it — a guaranteed dead worker holding a live lease — then
   worker "doomed" starts draining and is SIGKILLed after its first
   completed unit;
4. worker "rescuer" starts with ``--jobs 2``, waits out the dead
   leases' TTL, and drains the rest on its own worker pool; the
   coordinator exits 0 (drained);
5. the merged point store is byte-for-byte identical to the
   single-host reference store, the rescuer's model plane holds exactly
   the coordinator's blob files (names and bytes: the ``/blobs`` sync
   and its name check ran across real processes), warm reports rendered
   from the two caches are byte-identical, and the coordinator's journal
   recorded zero recomputed units.

Usage (CI)::

    PYTHONPATH=src python scripts/distributed_smoke.py \
        --repeats 1 --samples 8
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import signal
import subprocess
import sys
import time
import urllib.request

BENCHMARK = "vggnet"
WORK_DIR = pathlib.Path(".distributed-smoke")


def run_cli(*args: str, capture: bool = False) -> subprocess.CompletedProcess:
    """Run one repro CLI command to completion."""
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        check=True,
        stdout=subprocess.PIPE if capture else None,
        text=True,
    )


def start_cli(*args: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def completed_units(cache_dir: pathlib.Path) -> int:
    """Completed units in the coordinator's journal (0 before boot)."""
    path = cache_dir / "journal.json"
    if not path.exists():
        return 0
    data = json.loads(path.read_text())
    return sum(
        1
        for campaign in data.get("campaigns", {}).values()
        for unit in campaign.get("units", {}).values()
        if unit.get("status") == "completed"
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


def blob_bytes(cache_dir: pathlib.Path) -> dict[str, bytes]:
    """Blob files (arrays and manifests; not ``.gitignore``) by name."""
    blobs = sorted((cache_dir / "blobs").glob("*"))
    return {p.name: p.read_bytes() for p in blobs if not p.name.startswith(".")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", default="1")
    parser.add_argument("--samples", default="8")
    parser.add_argument("--boards", type=int, default=3, help="board samples to sweep")
    args = parser.parse_args()

    if WORK_DIR.exists():
        shutil.rmtree(WORK_DIR)
    WORK_DIR.mkdir()
    ref_cache = WORK_DIR / "ref-cache"
    coord_cache = WORK_DIR / "coord-cache"
    config_flags = ["--repeats", args.repeats, "--samples", args.samples]
    sweep_flags = ["sweep", BENCHMARK, "--board", "all", *config_flags]
    targets = [f"sweep:{BENCHMARK}:board{i}" for i in range(args.boards)]

    print(f"[1/5] single-host serial reference sweep ({args.boards} boards)")
    run_cli(*sweep_flags, "--cache-dir", str(ref_cache))
    doomed_cache = WORK_DIR / "doomed"
    seed_flags = ["sweep", "alexnet", "--board", "0", *config_flags]
    run_cli(*seed_flags, "--cache-dir", str(doomed_cache), capture=True)
    print(f"  seeded the doomed worker's store with {len(point_bytes(doomed_cache))} alexnet points")

    print("[2/5] starting coordinator over the reference model plane")
    shutil.copytree(ref_cache / "blobs", coord_cache / "blobs")
    port_file = WORK_DIR / "coordinator.addr"
    coordinator = start_cli(
        "coordinate",
        *targets,
        *config_flags,
        "--cache-dir",
        str(coord_cache),
        "--port-file",
        str(port_file),
        "--lease-ttl",
        "2",
        "--linger",
        "5",
    )
    wait_for(lambda: port_file.exists(), 30, "the coordinator's port file")
    host, port = port_file.read_text().split()
    url = f"http://{host}:{port}"
    print(f"  coordinator at {url}")

    print("[3/5] ghost worker leases a unit and dies; doomed worker is killed -9")
    # The ghost IS a dead worker: it takes a lease and never comes back,
    # so draining the campaign deterministically requires a TTL expiry
    # and re-lease (and caps how much the doomed worker can finish).
    ghost = json.loads(
        urllib.request.urlopen(
            urllib.request.Request(
                url + "/lease",
                data=b'{"worker": "ghost"}',
                headers={"Content-Type": "application/json"},
            ),
            timeout=30,
        ).read()
    )
    assert ghost.get("status") == "lease", ghost
    print(f"  ghost leased {ghost['unit']['unit_id']} and will never complete it")
    doomed = start_cli(
        "worker",
        "--connect",
        url,
        "--cache-dir",
        str(doomed_cache),
        "--id",
        "doomed",
    )
    wait_for(lambda: completed_units(coord_cache) >= 1, 120, "the first completed unit")
    doomed.send_signal(signal.SIGKILL)
    doomed.wait()
    survivors = completed_units(coord_cache)
    print(f"  killed -9 with {survivors}/{args.boards} unit(s) completed")
    if survivors >= args.boards:
        raise SystemExit("doomed worker finished the whole campaign; nothing was tested")

    print("[4/5] worker 'rescuer' takes over; campaign must drain")
    rescuer = start_cli(
        "worker",
        "--connect",
        url,
        "--cache-dir",
        str(WORK_DIR / "rescuer"),
        "--id",
        "rescuer",
        "--jobs",
        "2",
    )
    if coordinator.wait(timeout=300) != 0:
        print(coordinator.stdout.read())
        raise SystemExit("coordinator exited non-zero (campaign not drained)")
    rescuer.wait(timeout=60)
    print("  coordinator drained and exited 0")

    print("[5/5] byte-identity and journal checks")
    ref_points = point_bytes(ref_cache)
    merged_points = point_bytes(coord_cache)
    if not ref_points or merged_points != ref_points:
        raise SystemExit(
            f"merged point store diverged from the single-host reference "
            f"({len(merged_points)} vs {len(ref_points)} entries)"
        )
    print(f"  point stores byte-identical ({len(ref_points)} entries)")

    coord_blobs = blob_bytes(coord_cache)
    rescuer_blobs = blob_bytes(WORK_DIR / "rescuer")
    if not coord_blobs or rescuer_blobs != coord_blobs:
        raise SystemExit(
            f"rescuer's model plane diverged from the coordinator's "
            f"({sorted(rescuer_blobs)} vs {sorted(coord_blobs)})"
        )
    print(f"  rescuer synced the coordinator's model plane ({len(coord_blobs)} blob files)")

    ref_report = run_cli(*sweep_flags, "--cache-dir", str(ref_cache), capture=True).stdout
    merged_report = run_cli(*sweep_flags, "--cache-dir", str(coord_cache), capture=True).stdout
    if merged_report != ref_report:
        raise SystemExit("warm report from the merged cache diverged from the reference")
    print("  warm reports byte-identical")

    journal = json.loads((coord_cache / "journal.json").read_text())
    (campaign,) = journal["campaigns"].values()
    last = campaign["runs"][-1]
    assert last["completed"] == args.boards, last
    assert last["recomputed"] == 0, f"re-leased units were double-computed: {last}"
    print(
        f"  journal: {last['completed']} completed, {last['recomputed']} recomputed, "
        f"{last['fresh']} fresh of {last['planned']} planned"
    )
    print("distributed smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
