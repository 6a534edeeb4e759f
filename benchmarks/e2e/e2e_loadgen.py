"""Seeded HTTP load for the ``serve-open`` workload (stdlib only).

One asyncio thread drives a fixed number of keep-alive connections.  The
open loop (:func:`open_step`) sends on a Poisson schedule whatever the
server does: a connection takes the next request once it is due and it
is free, so a slow server builds a backlog, and every latency is timed
from the request's *due* time.  The closed loop (:func:`closed_batch`)
sends a fixed request list as fast as the connections return answers.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field

#: The traffic mix: nearest/interpolated point lookups, landmark rows,
#: guardband maps, whole-dataset dumps, liveness probes.
MIX = (("point", 0.60), ("landmarks", 0.20), ("guardband", 0.10), ("dump", 0.07), ("healthz", 0.03))

#: Voltages (mV) point lookups draw from: Vnom down past every board's
#: crash voltage, so lookups land above, inside and below the measured
#: range.
V_RANGE_MV = (520.0, 850.0)

#: Latency charged to a failed request (the client timeout, in ms).
FAILED_LATENCY_MS = 10_000.0


def request_mix(seed: int, n: int, benchmarks: list[str], boards: list[int]) -> list[str]:
    """``n`` request targets in :data:`MIX` proportions, seeded.

    The seed picks the order of the requests and every point lookup's
    dataset, voltage and mode.  Each kind gets its exact share of ``n``,
    and the heavy requests — dumps, landmark and guardband maps — cycle
    through every dataset and filter from a seeded offset, so a batch's
    work, and how hard its dumps churn the server's LRU, is the same for
    every seed.
    """
    rng = random.Random(f"serve-open/{seed}")
    kinds = [name for name, share in MIX for _ in range(round(share * n))]
    kinds = (kinds + ["point"] * n)[:n]
    rng.shuffle(kinds)
    datasets = [(b, board) for b in benchmarks for board in boards]
    cycles = {
        "dump": [f"/points?benchmark={b}&board={board}" for b, board in datasets],
        "landmarks": [f"/landmarks?benchmark={b}" for b in benchmarks]
        + [f"/landmarks?board={board}" for board in boards],
        "guardband": ["/guardband"] + [f"/guardband?benchmark={b}" for b in benchmarks],
        "healthz": ["/healthz"],
    }
    offset = rng.randrange(len(datasets))
    served = dict.fromkeys(cycles, offset)
    out = []
    for kind in kinds:
        if kind == "point":
            bench, board = rng.choice(datasets)
            v_mv = round(rng.uniform(*V_RANGE_MV), 1)
            mode = rng.choice(("nearest", "interpolate"))
            out.append(f"/points?benchmark={bench}&board={board}&v_mv={v_mv}&mode={mode}")
        else:
            cycle = cycles[kind]
            out.append(cycle[served[kind] % len(cycle)])
            served[kind] += 1
    return out


@dataclass
class Sample:
    """One request: when it was due and sent, how long it took, its answer."""

    url: str
    due: float
    sent: float
    latency_s: float
    status: int
    etag: str | None


@dataclass
class StepResult:
    samples: list[Sample] = field(default_factory=list)
    wall_s: float = 0.0
    #: Requests scheduled; those never sent (past the cutoff) are dropped.
    attempted: int = 0


class _Connection:
    def __init__(self, host: str, port: int, timeout_s: float):
        self.host, self.port, self.timeout_s = host, port, timeout_s
        self.reader = self.writer = None

    async def _open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(self.host, self.port)

    async def get(self, url: str) -> tuple[int, str | None]:
        """One keep-alive GET; ``(0, None)`` on a connection error."""
        try:
            if self.writer is None:
                await self._open()
            self.writer.write(f"GET {url} HTTP/1.1\r\nHost: {self.host}\r\n\r\n".encode())
            head = await asyncio.wait_for(self.reader.readuntil(b"\r\n\r\n"), self.timeout_s)
            lines = head.decode("latin-1").split("\r\n")
            status = int(lines[0].split()[1])
            headers = {}
            for line in lines[1:]:
                if ":" in line:
                    key, value = line.split(":", 1)
                    headers[key.strip().lower()] = value.strip()
            length = int(headers.get("content-length", "0"))
            await asyncio.wait_for(self.reader.readexactly(length), self.timeout_s)
            if headers.get("connection", "").lower() == "close":
                await self.close()
            return status, headers.get("etag")
        except (OSError, asyncio.IncompleteReadError, asyncio.TimeoutError, ValueError, IndexError):
            await self.close()
            return 0, None

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass
        self.reader = self.writer = None


async def _drive(host, port, connections, urls, dues, timeout_s, cutoff_s=None) -> StepResult:
    result = StepResult(attempted=len(urls))
    conns = [_Connection(host, port, timeout_s) for _ in range(connections)]
    cursor = iter(range(len(urls)))
    loop = asyncio.get_running_loop()
    start = loop.time()

    async def worker(conn: _Connection) -> None:
        for i in cursor:
            if cutoff_s is not None and loop.time() - start > cutoff_s:
                return  # the backlog outgrew the step: stop sending
            due = start + dues[i]
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            sent = loop.time()
            status, etag = await conn.get(urls[i])
            done = loop.time()
            result.samples.append(
                Sample(urls[i], due - start, sent - start, done - due, status, etag)
            )

    try:
        await asyncio.gather(*(worker(c) for c in conns))
    finally:
        for conn in conns:
            await conn.close()
    result.wall_s = loop.time() - start
    return result


def open_step(host, port, urls, rate_rps, duration_s, seed, connections=2, timeout_s=10.0):
    """Open-loop Poisson arrivals at ``rate_rps`` for ``duration_s``.

    Past 1.5 x ``duration_s`` nothing more is sent: a rate beyond the
    server's capacity would otherwise stretch the step for as long as its
    backlog takes to drain.  Requests never sent count as dropped.
    """
    rng = random.Random(f"arrivals/{seed}/{rate_rps}")
    dues, t = [], rng.expovariate(rate_rps)
    while t < duration_s:
        dues.append(t)
        t += rng.expovariate(rate_rps)
    chosen = [urls[i % len(urls)] for i in range(len(dues))]
    return asyncio.run(_drive(host, port, connections, chosen, dues, timeout_s, 1.5 * duration_s))


def closed_batch(host, port, urls, connections=2, timeout_s=10.0):
    """Closed loop: every request due at once, sent as connections free."""
    return asyncio.run(_drive(host, port, connections, urls, [0.0] * len(urls), timeout_s))


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in 0..100) of ``values``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def step_summary(step: StepResult) -> dict:
    """Latency percentiles, failures, drops and generator lag of one step."""
    samples = sorted(step.samples, key=lambda s: s.due)
    ok = [s.latency_s * 1000.0 for s in samples if s.status == 200]
    failed = sum(1 for s in samples if s.status != 200)
    dropped = step.attempted - len(samples)
    # A failed or dropped request misses every latency limit: count it at
    # the client timeout, above any limit a step is judged by.
    lat = ok + [FAILED_LATENCY_MS] * (failed + dropped)
    lags = [(s.sent - s.due) * 1000.0 for s in samples]
    quarter = max(1, len(lags) // 4)
    return {
        "n": len(samples),
        "failed": failed,
        "dropped": dropped,
        "p50_ms": percentile(lat, 50.0),
        "p99_ms": percentile(lat, 99.0),
        "lag_first_ms": sum(lags[:quarter]) / quarter if lags else 0.0,
        "lag_last_ms": sum(lags[-quarter:]) / quarter if lags else 0.0,
        "lag_p99_ms": percentile(lags, 99.0),
        "lag_max_ms": max(lags, default=0.0),
        "wall_s": step.wall_s,
    }
