"""Read-through characterization queries over the point store.

The paper's end product is a *characterization database*: per
``(benchmark, variant, board, voltage, clock, temperature)`` measurements
that downstream users consult to pick safe operating points.  PRs 1–3
built the compute side — parallel campaigns, batched fault simulation,
the per-point store (:mod:`repro.runtime.points`) and the campaign
journal.  This module is the serving side: :class:`CharacterizationIndex`
loads every cached point under a cache directory into queryable
*datasets* and answers the questions the paper's figures answer —

* **exact point lookup** — the measurement at one grid voltage;
* **nearest-voltage lookup / linear interpolation** — what to expect at a
  voltage the campaign never measured;
* **Vmin/Vcrash landmark extraction** per (benchmark, variant, board,
  clock, temperature), by reassembling a dataset's points into a
  :class:`~repro.core.undervolt.SweepResult` and running the *same*
  :func:`~repro.core.regions.detect_regions` the figure runners use;
* **per-board guardband maps** — how much of the vendor guardband each
  board reclaims for a workload, and the fleet-safe worst case.

Three properties make it a service rather than a file reader:

1. **Config-consistent indexing.**  A store may hold points from many
   configs and library versions; the index recomputes each entry's
   expected fingerprint under *its own* config
   (:func:`~repro.runtime.hashing.point_fingerprint`) and indexes only
   matching entries, so answers always reflect one coherent
   ``(config, version)`` — the same guarantee the result cache gives.
   Entries for identical contexts measured under different scopes (e.g.
   ``fig3`` and ``sweep:vggnet:board0``) are bit-identical by the point
   store's design and deduplicate deterministically.
2. **An in-process LRU over parsed point files.**  The index keeps light
   metadata for every point but bounds the parsed
   :class:`~repro.core.session.Measurement` payloads it holds
   (:class:`MeasurementLRU`); evicted payloads are re-read from disk on
   demand, so a million-point store serves from a fixed memory budget.
3. **Read-through compute with request coalescing.**  On a miss the
   index can *schedule* the missing work through the existing campaign
   executor — a full sweep via
   :func:`~repro.runtime.campaign.run_sweep_campaign` or a single
   voltage point as a one-point sweep round
   (:func:`~repro.runtime.campaign.measure_round_task`) — and a
   :class:`RequestCoalescer` guarantees that N concurrent requests for
   one missing key trigger exactly one computation; the other N-1 block
   on the leader's result.

The index is thread-safe (one instance serves :mod:`repro.serve`'s
asyncio plane from its worker-thread pool) and all query payloads are
plain JSON-able dicts, rendered canonically by :func:`to_json` so
concurrent identical queries produce byte-identical responses.  The
serving plane precomputes the landmark memo at startup through
:meth:`CharacterizationIndex.precompute_landmarks`, and generalizes the
:class:`RequestCoalescer` single-flight discipline to an async dedupe
map one layer up (:class:`repro.serve.AsyncDedupeMap`).
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from repro.core.experiment import ExperimentConfig
from repro.core.regions import detect_regions
from repro.core.session import Measurement
from repro.core.undervolt import SweepResult
from repro.errors import CampaignError
from repro.runtime.cache import ResultCache
from repro.runtime.hashing import current_version, point_fingerprinter
from repro.runtime.journal import JOURNAL_NAME, CampaignJournal
from repro.runtime.points import (
    PointCache,
    measurement_to_payload,
    read_point_entry,
)

#: Default bound on parsed Measurement payloads held in memory.
DEFAULT_LRU_CAPACITY = 4096

#: Voltage match window (mV) for *exact* lookups: a hair wider than the
#: 1e-4 mV rounding the point context applies, far finer than any grid.
EXACT_TOLERANCE_MV = 1e-3


def to_json(payload) -> str:
    """Canonical JSON for query responses: sorted keys, fixed separators.

    Every consumer — the HTTP handlers, the one-shot CLI, the tests —
    renders through this one function, which is what makes concurrent
    identical queries byte-identical (the service's determinism
    contract, inherited from the campaign runtime's).
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class DatasetKey:
    """Identity of one queryable dataset (one sweep's worth of points)."""

    benchmark: str
    variant: str
    board: int
    f_mhz: float
    #: Die-temperature setpoint (degC); ``None`` = free-running fan.
    t_setpoint_c: float | None

    def sort_key(self) -> tuple:
        """Deterministic ordering (``None`` setpoints sort first)."""
        return (
            self.benchmark,
            self.variant,
            self.board,
            self.f_mhz,
            self.t_setpoint_c is not None,
            self.t_setpoint_c or 0.0,
        )

    def as_dict(self) -> dict:
        """The key's fields, as they appear in every query response."""
        return {
            "benchmark": self.benchmark,
            "variant": self.variant,
            "board": self.board,
            "f_mhz": self.f_mhz,
            "t_setpoint_c": self.t_setpoint_c,
        }


@dataclass(frozen=True)
class PointRef:
    """Light per-point metadata kept in memory for every indexed point."""

    fingerprint: str
    vccint_mv: float
    hang: bool
    path: Path


class MeasurementLRU:
    """Bounded, thread-safe cache of parsed point measurements.

    The index's metadata is small (a fingerprint, a voltage, a path per
    point) but parsed :class:`Measurement` payloads are not; this LRU
    holds at most ``capacity`` of them.  On a miss the caller re-reads
    the point file — a pure latency cost, never a correctness one.
    """

    def __init__(self, capacity: int = DEFAULT_LRU_CAPACITY):
        if capacity < 1:
            raise ValueError(f"LRU capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, Measurement] = OrderedDict()

    def get(self, fingerprint: str) -> Measurement | None:
        """The cached measurement, or ``None`` (recency is updated on hit)."""
        with self._lock:
            measurement = self._entries.get(fingerprint)
            if measurement is None:
                self.misses += 1
                return None
            self._entries.move_to_end(fingerprint)
            self.hits += 1
            return measurement

    def put(self, fingerprint: str, measurement: Measurement) -> None:
        """Insert (or replace) one measurement, evicting the LRU entry."""
        with self._lock:
            if fingerprint in self._entries:
                # Replace, don't keep: the caller just re-read the file,
                # so its payload is at least as fresh as ours.
                self._entries[fingerprint] = measurement
                self._entries.move_to_end(fingerprint)
                return
            self._entries[fingerprint] = measurement
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every cached payload (used on index refresh)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        """Counters + occupancy for the ``/stats`` endpoint."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "size": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


class RequestCoalescer:
    """Collapse concurrent requests for one key into one computation.

    The first caller for a key becomes the *leader* and runs the
    computation; every concurrent caller for the same key blocks on the
    leader's :class:`~concurrent.futures.Future` and receives the same
    result (or the same exception).  Once the leader finishes, the key
    is released and a later request computes afresh.

    Safe from any thread — including the async serving plane's worker
    pool, where blocking on the leader's future parks a worker thread,
    never the event loop.  The plane's own
    :class:`repro.serve.AsyncDedupeMap` is this same discipline
    expressed over ``asyncio`` futures, one layer up.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._inflight: dict = {}
        #: Requests that piggybacked on another request's computation.
        self.coalesced_waits = 0

    def run(self, key, compute: Callable[[], object]) -> tuple[object, bool]:
        """Run (or join) the computation for ``key``.

        Returns ``(value, led)`` where ``led`` says whether this caller
        executed ``compute`` itself — the hook tests use to assert that
        N concurrent misses cost exactly one computation.
        """
        with self._lock:
            future = self._inflight.get(key)
            leader = future is None
            if leader:
                future = self._inflight[key] = Future()
            else:
                self.coalesced_waits += 1
        if not leader:
            return future.result(), False
        try:
            value = compute()
        except BaseException as exc:
            future.set_exception(exc)
            raise
        else:
            future.set_result(value)
            return value, True
        finally:
            with self._lock:
                self._inflight.pop(key, None)


@dataclass
class _Dataset:
    """One indexed dataset: alive points and hangs, high-to-low voltage."""

    key: DatasetKey
    alive: list[PointRef]
    hangs: list[PointRef]


class CharacterizationIndex:
    """Queryable, read-through view of one cache directory's point store.

    Construction scans ``<cache_dir>/points/`` (see :meth:`refresh`);
    queries are answered from the in-memory index + LRU, and — when
    ``compute`` is requested — misses are filled by scheduling work
    through the campaign executor with request coalescing.  One instance
    is safe to share across threads; :mod:`repro.serve` serves it from a
    ``ThreadingHTTPServer``.

    The index answers under exactly one ``(config, version)``: points
    whose fingerprint does not match the index's own config are counted
    (``excluded_other_config``) but never served.
    """

    def __init__(
        self,
        cache_dir: str | Path,
        config: ExperimentConfig | None = None,
        lru_capacity: int = DEFAULT_LRU_CAPACITY,
        jobs: int = 1,
    ):
        self.cache_dir = Path(cache_dir)
        self.config = config or ExperimentConfig()
        self.jobs = max(1, int(jobs))
        self._cache = ResultCache(self.cache_dir)
        self._points = PointCache(self._cache.point_root)
        #: Lazily leased worker fabric for read-through computes: one
        #: persistent pool (and its warm model/clean-pass state) serves
        #: every miss this index ever fills, instead of a pool per miss.
        self._fabric = None
        self._lru = MeasurementLRU(lru_capacity)
        self._coalescer = RequestCoalescer()
        self._lock = threading.Lock()
        self._datasets: dict[DatasetKey, _Dataset] = {}
        self._landmark_memo: dict[DatasetKey, dict] = {}
        self.corrupt_skipped = 0
        self.excluded_other_config = 0
        self.served_from_cache = 0
        self.computed_sweeps = 0
        self.computed_points = 0
        self.refresh()

    # ------------------------------------------------------------------
    # Index construction
    # ------------------------------------------------------------------

    def refresh(self) -> None:
        """Rescan the point store and rebuild the datasets.

        Only entries whose fingerprint matches this index's
        ``(config, version)`` are admitted (see the class docstring);
        entries sharing a context across scopes deduplicate to the
        lexicographically smallest fingerprint, which is deterministic
        because the scan order is.  The landmark memo is dropped and the
        LRU is cleared then reseeded, in scan order, with the payloads
        of the points that won deduplication — both are derived state,
        and a point file rewritten in place must never be served from a
        stale parse.
        """
        datasets: dict[DatasetKey, dict[float, PointRef]] = {}
        seeds: list[tuple[str, Measurement]] = []
        # One bound fingerprinter per scan: the config is encoded once,
        # not once per point.
        fingerprint_of = point_fingerprinter(self.config)
        corrupt = 0
        excluded = 0
        # PointCache.scan serves unchanged files from its mtime/size
        # parse memo, so a warm refresh costs one stat per file instead
        # of one JSON parse; corrupt verdicts are memoized and counted
        # identically either way.
        for path, entry in self._points.scan():
            if entry is None:
                corrupt += 1
                continue
            context = entry.context
            expected = fingerprint_of(entry.scope, context)
            if expected != entry.fingerprint:
                excluded += 1
                continue
            try:
                key = DatasetKey(
                    benchmark=str(context["benchmark"]),
                    variant=str(context["variant"]),
                    board=int(context["board"]),
                    f_mhz=float(context["f_mhz"]),
                    t_setpoint_c=(
                        None
                        if context["t_setpoint_c"] is None
                        else float(context["t_setpoint_c"])
                    ),
                )
                v_mv = round(float(context["vccint_mv"]), 4)
            except (KeyError, TypeError, ValueError):
                corrupt += 1
                continue
            ref = PointRef(
                fingerprint=entry.fingerprint,
                vccint_mv=v_mv,
                hang=entry.record.hang,
                path=path,
            )
            slot = datasets.setdefault(key, {})
            prior = slot.get(v_mv)
            # Duplicate contexts across scopes are bit-identical by the
            # point store's design; first (smallest fingerprint) wins.
            if prior is None or ref.fingerprint < prior.fingerprint:
                slot[v_mv] = ref
            if entry.record.measurement is not None:
                seeds.append((entry.fingerprint, entry.record.measurement))
        built = {
            key: _Dataset(
                key=key,
                alive=[r for v, r in sorted(refs.items(), reverse=True) if not r.hang],
                hangs=[r for v, r in sorted(refs.items(), reverse=True) if r.hang],
            )
            for key, refs in datasets.items()
        }
        indexed = {ref.fingerprint for refs in datasets.values() for ref in refs.values()}
        self._lru.clear()
        for entry_fingerprint, measurement in seeds:
            # A context that lost deduplication is never looked up again;
            # seeding it would only evict a served point.
            if entry_fingerprint in indexed:
                self._lru.put(entry_fingerprint, measurement)
        with self._lock:
            self._datasets = built
            self._landmark_memo = {}
            self.corrupt_skipped = corrupt
            self.excluded_other_config = excluded

    # ------------------------------------------------------------------
    # Payload access (through the LRU)
    # ------------------------------------------------------------------

    def _measurement(self, ref: PointRef) -> Measurement:
        """The parsed measurement behind one alive point (LRU-cached)."""
        measurement = self._lru.get(ref.fingerprint)
        if measurement is not None:
            return measurement
        entry = read_point_entry(ref.path)
        if entry is None or entry.record.measurement is None:
            raise KeyError(
                f"point entry {ref.fingerprint} vanished or went corrupt "
                f"under the index; refresh() to rescan"
            )
        self._lru.put(ref.fingerprint, entry.record.measurement)
        return entry.record.measurement

    def _point_row(self, ref: PointRef) -> dict:
        """One point as a response row (hangs carry no measurement)."""
        row = {"vccint_mv": ref.vccint_mv, "hang": ref.hang}
        if not ref.hang:
            row.update(measurement_to_payload(self._measurement(ref)))
        return row

    # ------------------------------------------------------------------
    # Dataset selection
    # ------------------------------------------------------------------

    def dataset_keys(
        self,
        benchmark: str | None = None,
        variant: str | None = None,
        board: int | None = None,
        f_mhz: float | None = None,
        t_setpoint_c: float | None = None,
    ) -> list[DatasetKey]:
        """Every indexed dataset matching the filters, sorted."""
        with self._lock:
            keys = list(self._datasets)
        out = [
            k
            for k in keys
            if (benchmark is None or k.benchmark == benchmark)
            and (variant is None or k.variant == variant)
            and (board is None or k.board == board)
            and (f_mhz is None or abs(k.f_mhz - f_mhz) < 1e-9)
            and (t_setpoint_c is None or k.t_setpoint_c == t_setpoint_c)
        ]
        return sorted(out, key=DatasetKey.sort_key)

    def _dataset(self, key: DatasetKey) -> _Dataset | None:
        with self._lock:
            return self._datasets.get(key)

    def _one_dataset(
        self,
        benchmark: str,
        variant: str | None,
        board: int,
        f_mhz: float | None,
        t_setpoint_c: float | None,
    ) -> _Dataset:
        """Resolve query filters to exactly one dataset, or raise KeyError."""
        keys = self.dataset_keys(
            benchmark=benchmark,
            variant=variant,
            board=board,
            f_mhz=f_mhz,
            t_setpoint_c=t_setpoint_c,
        )
        if not keys:
            raise KeyError(
                f"no indexed dataset for benchmark={benchmark!r} "
                f"variant={variant!r} board={board}"
            )
        if len(keys) > 1:
            # Ambiguity is a bad *query*, not a cache miss: ValueError so
            # the read-through path never schedules computation for it
            # (and the HTTP layer maps it to 400, not 404).
            raise ValueError(
                f"filters match {len(keys)} datasets "
                f"({[k.as_dict() for k in keys]}); add variant/f_mhz/temp"
            )
        dataset = self._dataset(keys[0])
        assert dataset is not None
        return dataset

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def points(
        self,
        benchmark: str,
        variant: str | None = None,
        board: int = 0,
        f_mhz: float | None = None,
        t_setpoint_c: float | None = None,
    ) -> dict:
        """Every indexed point of one dataset, high-to-low voltage."""
        dataset = self._one_dataset(benchmark, variant, board, f_mhz, t_setpoint_c)
        refs = sorted(dataset.alive + dataset.hangs, key=lambda r: -r.vccint_mv)
        payload = {
            **dataset.key.as_dict(),
            "n_points": len(dataset.alive),
            "n_hangs": len(dataset.hangs),
            "points": [self._point_row(r) for r in refs],
        }
        with self._lock:
            self.served_from_cache += 1
        return payload

    def point(
        self,
        benchmark: str,
        vccint_mv: float,
        variant: str | None = None,
        board: int = 0,
        f_mhz: float | None = None,
        t_setpoint_c: float | None = None,
        mode: str = "exact",
        compute: bool = False,
    ) -> dict:
        """One operating point: exact, nearest-measured, or interpolated.

        ``mode='exact'`` requires a measured grid point within
        :data:`EXACT_TOLERANCE_MV` (a recorded hang is served as
        ``{"hang": true}``); ``'nearest'`` returns the closest measured
        alive point and its distance; ``'interpolate'`` linearly blends
        the two bracketing alive points' accuracy/power/performance
        fields (falling back to the nearest edge outside the measured
        range).  With ``compute=True`` an exact miss is measured through
        the campaign executor first (coalesced; see
        :meth:`ensure_point`) instead of raising ``KeyError``.
        """
        if mode not in ("exact", "nearest", "interpolate"):
            raise ValueError(f"unknown point mode {mode!r}")
        v_mv = round(float(vccint_mv), 4)
        try:
            dataset = self._one_dataset(benchmark, variant, board, f_mhz, t_setpoint_c)
            row = self._point_from(dataset, v_mv, mode)
        except KeyError:
            if not (compute and mode == "exact"):
                raise
            self.ensure_point(benchmark, v_mv, board=board, f_mhz=f_mhz)
            dataset = self._one_dataset(benchmark, variant, board, f_mhz, t_setpoint_c)
            row = self._point_from(dataset, v_mv, mode)
            return {**dataset.key.as_dict(), "mode": mode, **row}
        with self._lock:
            self.served_from_cache += 1
        return {**dataset.key.as_dict(), "mode": mode, **row}

    def _point_from(self, dataset: _Dataset, v_mv: float, mode: str) -> dict:
        """The mode-specific lookup against one dataset's point lists."""
        if mode == "exact":
            for ref in dataset.alive + dataset.hangs:
                if abs(ref.vccint_mv - v_mv) <= EXACT_TOLERANCE_MV:
                    return self._point_row(ref)
            raise KeyError(f"no measured point at {v_mv} mV for {dataset.key.as_dict()}")
        if not dataset.alive:
            raise KeyError(f"dataset {dataset.key.as_dict()} has no alive points")
        if mode == "nearest":
            ref = min(dataset.alive, key=lambda r: abs(r.vccint_mv - v_mv))
            row = self._point_row(ref)
            row["distance_mv"] = round(abs(ref.vccint_mv - v_mv), 4)
            return row
        # interpolate: alive refs are sorted high -> low voltage.
        above = [r for r in dataset.alive if r.vccint_mv >= v_mv]
        below = [r for r in dataset.alive if r.vccint_mv < v_mv]
        if not above or not below:
            edge = dataset.alive[0] if not above else dataset.alive[-1]
            row = self._point_row(edge)
            row["interpolated"] = False
            row["distance_mv"] = round(abs(edge.vccint_mv - v_mv), 4)
            return row
        hi, lo = above[-1], below[0]
        m_hi, m_lo = self._measurement(hi), self._measurement(lo)
        span = hi.vccint_mv - lo.vccint_mv
        w = 0.0 if span <= 0 else (v_mv - lo.vccint_mv) / span

        def blend(a: float, b: float) -> float:
            return b + (a - b) * w

        return {
            "vccint_mv": v_mv,
            "hang": False,
            "interpolated": True,
            "bracket_mv": [hi.vccint_mv, lo.vccint_mv],
            "accuracy": blend(m_hi.accuracy, m_lo.accuracy),
            "accuracy_std": blend(m_hi.accuracy_std, m_lo.accuracy_std),
            "power_w": blend(m_hi.power_w, m_lo.power_w),
            "gops": blend(m_hi.gops, m_lo.gops),
            "gops_per_watt": blend(m_hi.gops_per_watt, m_lo.gops_per_watt),
            "faults_per_run": blend(m_hi.faults_per_run, m_lo.faults_per_run),
            "clean_accuracy": m_hi.clean_accuracy,
        }

    def landmarks(
        self,
        benchmark: str | None = None,
        variant: str | None = None,
        board: int | None = None,
        compute: bool = False,
    ) -> list[dict]:
        """Vmin/Vcrash landmark rows for every matching dataset.

        Each row reassembles its dataset into a
        :class:`~repro.core.undervolt.SweepResult` and extracts the
        Figure 3 landmarks through
        :func:`~repro.core.regions.detect_regions` — one implementation
        for live sweeps and for the database.  Datasets whose points
        cannot yield landmarks yet (no recorded hang, or degraded from
        the very top) come back with ``complete: false`` and a reason.
        Rows are memoized until the next :meth:`refresh`.

        With ``compute=True`` and a *specific* (benchmark, board) that
        has no usable dataset, the missing sweep is scheduled through
        the campaign executor first (:meth:`ensure_sweep`, coalesced).
        """
        computed = False
        if compute and benchmark is not None and board is not None:
            keys = self.dataset_keys(benchmark=benchmark, variant=variant, board=board)
            usable = [
                k for k in keys if self._landmarks_for(k).get("complete")
            ]
            if not usable:
                self.ensure_sweep(benchmark, board)
                computed = True
        keys = self.dataset_keys(benchmark=benchmark, variant=variant, board=board)
        rows = [self._landmarks_for(key) for key in keys]
        if not computed:
            with self._lock:
                self.served_from_cache += 1
        return rows

    def _landmarks_for(self, key: DatasetKey) -> dict:
        """One dataset's landmark row (memoized; see :meth:`landmarks`)."""
        with self._lock:
            memo = self._landmark_memo.get(key)
        if memo is not None:
            return memo
        dataset = self._dataset(key)
        row: dict = {**key.as_dict()}
        if dataset is None or not dataset.alive:
            row.update(complete=False, reason="no alive points indexed")
        else:
            measurements = [self._measurement(r) for r in dataset.alive]
            crash_mv = max((r.vccint_mv for r in dataset.hangs), default=None)
            sweep = SweepResult.from_measurements(
                measurements,
                crash_mv=crash_mv,
                hang_probes=len(dataset.hangs),
                strategy="index",
            )
            try:
                regions = detect_regions(
                    sweep,
                    accuracy_tolerance=self.config.accuracy_tolerance,
                    vnom_mv=self.config.cal.vnom * 1000.0,
                )
                row.update(complete=True, **regions.as_dict())
            except CampaignError as exc:
                row.update(complete=False, reason=str(exc))
            row.update(n_points=len(dataset.alive), n_hangs=len(dataset.hangs))
        with self._lock:
            self._landmark_memo[key] = row
        return row

    def precompute_landmarks(self) -> int:
        """Warm the landmark memo for every indexed dataset; returns rows.

        The serving plane's startup hook: landmark extraction is the
        most expensive warm query (reassemble the dataset, run
        :func:`~repro.core.regions.detect_regions`), so a production
        server pays it once before accepting traffic instead of on the
        first client's request.  Deliberately does not touch the query
        counters — precompute is provisioning, not serving — and is
        idempotent: memoized rows are served, not recomputed.
        """
        keys = self.dataset_keys()
        for key in keys:
            self._landmarks_for(key)
        return len(keys)

    def guardband(self, benchmark: str | None = None, variant: str | None = None) -> list[dict]:
        """Per-board guardband maps, one entry per (benchmark, variant).

        Reshapes the landmark rows into the deployment question the
        paper's guardband tables answer: per board, how much of the
        vendor guardband the workload reclaims — plus the fleet-safe
        worst case (the *highest* per-board Vmin, i.e. the deployment
        voltage safe on every characterized board).
        """
        rows = self.landmarks(benchmark=benchmark, variant=variant)
        groups: dict[tuple, list[dict]] = {}
        for row in rows:
            groups.setdefault(
                (row["benchmark"], row["variant"], row["f_mhz"], row["t_setpoint_c"]),
                [],
            ).append(row)
        maps = []

        def group_order(item):
            (bench, var, f_mhz, temp), _ = item
            return (bench, var, f_mhz, temp is not None, temp or 0.0)

        for (bench, var, f_mhz, temp), members in sorted(groups.items(), key=group_order):
            boards = [
                {
                    "board": m["board"],
                    "vmin_mv": m["vmin_mv"],
                    "vcrash_mv": m["vcrash_mv"],
                    "guardband_mv": m["guardband_mv"],
                    "guardband_pct": m["guardband_pct"],
                    "critical_mv": m["critical_mv"],
                }
                for m in members
                if m.get("complete")
            ]
            entry = {
                "benchmark": bench,
                "variant": var,
                "f_mhz": f_mhz,
                "t_setpoint_c": temp,
                "boards": boards,
                "incomplete_boards": [
                    m["board"] for m in members if not m.get("complete")
                ],
            }
            if boards:
                worst = max(boards, key=lambda b: b["vmin_mv"])
                entry["worst_case_vmin_mv"] = worst["vmin_mv"]
                entry["fleet_guardband_mv"] = min(b["guardband_mv"] for b in boards)
            maps.append(entry)
        return maps

    # ------------------------------------------------------------------
    # Read-through compute (coalesced)
    # ------------------------------------------------------------------

    def _compute_fabric(self):
        """The index's leased fabric (spawned on first compute), if any.

        Created under the index lock: concurrent first misses for
        *different* keys (which the coalescer deliberately does not
        collapse) must share one fabric, not leak one pool each.
        """
        if self.jobs <= 1:
            return None
        from repro.runtime.fabric import WorkerFabric

        with self._lock:
            if self._fabric is None:
                self._fabric = WorkerFabric(self.jobs, blob_root=self._cache.blob_root)
            return self._fabric

    def close(self) -> None:
        """Release the compute fabric's pool (idempotent).

        Queries served from the index need no resources; only an index
        that has computed misses with ``jobs > 1`` holds worker
        processes, and long-lived embedders (the HTTP server, tests)
        should release them deterministically rather than at GC time.
        """
        fabric, self._fabric = self._fabric, None
        if fabric is not None:
            fabric.close()

    def ensure_sweep(self, benchmark: str, board: int):
        """Make sure (benchmark, board) has a full sweep's points.

        Schedules one board sweep through the campaign executor
        (:func:`~repro.runtime.campaign.run_sweep_campaign`, which also
        populates the result cache and the point store) and rescans the
        index.  Concurrent calls for the same (benchmark, board)
        coalesce into one computation.
        """
        from repro.runtime.campaign import run_sweep_campaign
        from repro.runtime.plan import ExecutionPlan

        key = ("sweep", benchmark, int(board))

        def compute():
            outcome = run_sweep_campaign(
                benchmark,
                [int(board)],
                self.config,
                ExecutionPlan(jobs=self.jobs),
                cache=self._cache,
                fabric=self._compute_fabric(),
            )
            self.refresh()
            return outcome

        outcome, led = self._coalescer.run(key, compute)
        if led:
            with self._lock:
                self.computed_sweeps += 1
        return outcome

    def ensure_point(
        self,
        benchmark: str,
        vccint_mv: float,
        board: int = 0,
        f_mhz: float | None = None,
    ) -> bool:
        """Make sure one voltage point is measured; ``True`` = alive.

        The measurement runs as a one-point sweep round
        (:func:`~repro.runtime.campaign.measure_round_task`) through the
        campaign executor, under the same point scope a ``repro sweep``
        of the pair would use, so the stored entry (a hang included) is
        shared with sweep campaigns and a point already in the store is
        replayed, not recomputed.  Concurrent calls for the same point
        coalesce into one computation.
        """
        from repro.runtime.campaign import measure_round_task, sweep_unit_id
        from repro.runtime.executor import run_tasks

        v_mv = round(float(vccint_mv), 4)
        key = ("point", benchmark, int(board), v_mv, f_mhz)

        def compute():
            task_args = (
                benchmark,
                int(board),
                ((0, v_mv, "measure"),),
                f_mhz,
                self.config,
                str(self._points.root),
                sweep_unit_id(benchmark, int(board)),
                str(self._cache.blob_root),
            )
            outcomes = run_tasks([(measure_round_task, task_args)], fabric=self._compute_fabric())
            self.refresh()
            ((_index, kind, _measurement),) = outcomes[0].value
            return kind != "hang"

        alive, led = self._coalescer.run(key, compute)
        if led:
            with self._lock:
                self.computed_points += 1
        return bool(alive)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def _journal_summary(self) -> dict:
        """Campaign-journal overview for the ``/stats`` endpoint."""
        return CampaignJournal(self.cache_dir / JOURNAL_NAME).summary()

    def stats(self) -> dict:
        """Everything the service knows about itself, JSON-able.

        Includes the ``served_from_cache`` counter the acceptance tests
        assert on: queries answered purely from the index, without
        scheduling any computation.
        """
        with self._lock:
            datasets = len(self._datasets)
            alive = sum(len(d.alive) for d in self._datasets.values())
            hangs = sum(len(d.hangs) for d in self._datasets.values())
            counters = {
                "served_from_cache": self.served_from_cache,
                "computed_sweeps": self.computed_sweeps,
                "computed_points": self.computed_points,
                "coalesced_waits": self._coalescer.coalesced_waits,
            }
            corrupt = self.corrupt_skipped
            excluded = self.excluded_other_config
        return {
            "version": current_version(),
            "cache_dir": str(self.cache_dir),
            "datasets": datasets,
            "points": {
                "indexed": alive + hangs,
                "alive": alive,
                "hangs": hangs,
                "corrupt_skipped": corrupt,
                "excluded_other_config": excluded,
            },
            "lru": self._lru.stats(),
            "queries": counters,
            "journal": self._journal_summary(),
        }


def open_index(
    cache_dir: str | Path,
    config: ExperimentConfig | None = None,
    **kwargs,
) -> CharacterizationIndex:
    """Build a :class:`CharacterizationIndex` over one cache directory.

    Thin convenience for the public API (``repro.query``): accepts the
    same keyword arguments as the class (``lru_capacity``, ``jobs``).
    """
    return CharacterizationIndex(cache_dir, config=config, **kwargs)


def default_variant(benchmark: str, config: ExperimentConfig) -> str:
    """The variant label a plain (unquantized-override) build produces.

    Queries key datasets by the workload *variant label* (e.g.
    ``vggnet@int8``); CLI users usually know only the benchmark name.
    """
    from repro.models.zoo import build as build_workload

    workload = build_workload(
        benchmark,
        samples=config.samples,
        width_scale=config.width_scale,
        seed=config.seed,
    )
    return workload.variant_label


__all__: Sequence[str] = [
    "CharacterizationIndex",
    "DatasetKey",
    "MeasurementLRU",
    "PointRef",
    "RequestCoalescer",
    "default_variant",
    "open_index",
    "to_json",
    "DEFAULT_LRU_CAPACITY",
    "EXACT_TOLERANCE_MV",
]
