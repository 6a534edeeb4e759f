"""Per-voltage-point result cache: the sweep's atomic unit of caching.

PR 1's :class:`~repro.runtime.cache.ResultCache` memoizes whole
experiments; this module drops one level lower and memoizes the *voltage
point* — the paper's actual unit of measurement.  Each entry records one
``session.run_at`` outcome (a full-precision
:class:`~repro.core.session.Measurement`, or the fact that the board hung
there), keyed by a stable hash of

``(point context, point-relevant config, version)``

where the context pins the physical identity of the point (benchmark,
variant, board sample, clock, temperature setpoint, and the voltage
itself), and the point-relevant config is
:meth:`~repro.core.experiment.ExperimentConfig.point_semantic_dict` — the
semantic knobs minus the sweep-plan fields (``v_step``, ``strategy``,
``v_resolution``, ``accuracy_tolerance``), which choose which points get
visited but never what any one of them measures.  The key does not name
the experiment that measured the point: a point's outcome depends only
on its context and config, so ``fig3``, ``fig5``, ``fig6`` and a
``sweep:<benchmark>:board<n>`` unit that visit one voltage share one
entry, and whichever runs first measures it for all of them.

Consequences, all exercised by ``tests/runtime/test_points.py``:

* an interrupted sweep resumes from its frontier — completed points are
  served from disk with bit-identical values;
* refining ``--v-step`` / ``--v-resolution`` or switching ``--strategy``
  re-prices only the voltages never measured before;
* a later experiment replays every voltage an earlier one measured;
* a version bump retires every point, while ``batch_budget`` /
  ``point_batch`` flips keep the store warm.

Workers activate a store per work unit via :func:`point_scope` (a
context-local, so process pools and in-process runs behave identically);
the sweep engine picks it up through :func:`cached_round_measure`, the
one round executor every sweep round runs through, in-process or on a
worker.
Corrupt entries are deleted and recomputed, never propagated, and writes
are atomic (temp file + rename), so parallel workers can share one store.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterator

from repro.core.experiment import ExperimentConfig
from repro.core.session import AcceleratorSession, Measurement
from repro.errors import BoardHangError
from repro.runtime.cache import EntryStore, atomic_write_text
from repro.runtime.hashing import FINGERPRINT_RE, current_version, point_fingerprinter

_ENTRY_KEYS = {"fingerprint", "context", "version", "hang", "measurement"}
_MEASUREMENT_FIELDS = tuple(f.name for f in fields(Measurement))
_MEASUREMENT_KEYS = set(_MEASUREMENT_FIELDS)


def measurement_to_payload(measurement: Measurement) -> dict:
    """Full-precision JSON-able snapshot of one measurement.

    ``dataclasses.asdict`` without its deep copy (every field is a
    scalar): this runs once per row a query serves.
    """
    return {name: getattr(measurement, name) for name in _MEASUREMENT_FIELDS}


def measurement_from_payload(payload: dict) -> Measurement:
    """Rebuild a :class:`Measurement` from its stored JSON payload.

    Strict on field drift in either direction — a point written by a
    different :class:`Measurement` schema must read as corruption, never
    as a half-filled measurement.
    """
    if set(payload) != _MEASUREMENT_KEYS:
        drift = sorted(set(payload) ^ _MEASUREMENT_KEYS)
        raise ValueError(f"measurement payload fields drifted: {drift}")
    return Measurement(**payload)


@dataclass(frozen=True)
class PointRecord:
    """One cached voltage point: a measurement, or a recorded hang."""

    hang: bool
    measurement: Measurement | None


class PointCache(EntryStore):
    """Content-addressed voltage-point store rooted at one directory."""

    def __post_init__(self):
        super().__post_init__()
        #: Read-side parse memo keyed by filename: (mtime_ns, size,
        #: parsed entry or None for corrupt).  Entries are immutable
        #: once written (writers replace atomically, which moves the
        #: mtime), so an unchanged stat means an unchanged parse — the
        #: fast path warm index refreshes ride on.  The memo is the one
        #: owner of parsed payloads: the query index serves every
        #: measurement from it, never from disk.
        self._scan_memo: dict[str, tuple[int, int, PointEntry | None]] = {}
        #: Scan counters: files served from the memo vs re-read.
        self.scan_fast_hits = 0
        self.scan_rereads = 0

    def path_for(self, fingerprint: str) -> Path:
        """On-disk location of one point entry."""
        return self.root / f"{fingerprint}.json"

    def load(self, fingerprint: str) -> PointRecord | None:
        """Return the cached point, or ``None`` on miss or corruption.

        A corrupt entry (anything :func:`read_point_entry` rejects) is
        deleted so the sweep recomputes and rewrites it.
        """
        path = self.path_for(fingerprint)
        if not path.exists():
            self.stats.misses += 1
            return None
        entry = read_point_entry(path)
        if entry is None:
            self._retire(path)
            return None
        self.stats.hits += 1
        return entry.record

    def store(
        self,
        fingerprint: str,
        context: dict,
        measurement: Measurement | None,
        version: str,
    ) -> Path:
        """Atomically write one point entry (``measurement=None`` = hang)."""
        self._prepare_root()
        payload = {
            "fingerprint": fingerprint,
            "context": context,
            "version": version,
            "hang": measurement is None,
            "measurement": None if measurement is None else measurement_to_payload(measurement),
        }
        path = self.path_for(fingerprint)
        atomic_write_text(path, json.dumps(payload))
        self.stats.stores += 1
        return path

    def check_shipped(self, fingerprint: str, text: str) -> PointEntry:
        """Validate one entry shipped as file text.

        The fingerprint must name a store file and the text must parse
        under it (:func:`parse_point_entry`); else ``ValueError``.
        Whether the fingerprint recomputes from the entry's context is
        the receiver's check: only it knows the ``(config, version)``.
        """
        if not isinstance(fingerprint, str) or not FINGERPRINT_RE.fullmatch(fingerprint):
            raise ValueError(f"invalid point fingerprint {fingerprint!r}")
        return parse_point_entry(text, fingerprint)

    def store_shipped(self, fingerprint: str, text: str) -> bool:
        """Write one shipped entry's text verbatim unless the file exists.

        Validates first (:meth:`check_shipped`); returns whether it wrote.
        """
        self.check_shipped(fingerprint, text)
        path = self.path_for(fingerprint)
        if path.exists():
            return False
        self._prepare_root()
        atomic_write_text(path, text)
        self.stats.stores += 1
        return True

    def entries(self) -> list[Path]:
        """All point files currently on disk (sorted by name for determinism)."""
        try:
            with os.scandir(self.root) as listing:
                names = sorted(
                    entry.name
                    for entry in listing
                    if entry.name.endswith(".json") and entry.is_file()
                )
        except (FileNotFoundError, NotADirectoryError):
            return []
        return [self.root / name for name in names]

    def scan(self) -> Iterator[tuple[Path, "PointEntry | None"]]:
        """Walk every point file, yielding ``(path, entry-or-None)``.

        ``None`` marks a corrupt or schema-drifted file (callers keep
        their corruption counters).  Unchanged files — same mtime and
        size as the previous scan through this cache instance — are
        served from the parse memo without touching their bytes, so a
        warm index refresh over a large store costs one ``stat`` per
        file instead of one full JSON parse.  Memoized corrupt verdicts
        are reused too: a file that has not changed cannot have healed.
        Memo-served entries are the full parsed entries, measurement
        included.
        """
        seen: set[str] = set()
        for path in self.entries():
            try:
                stat = path.stat()
            except OSError:
                continue  # deleted between listing and stat
            seen.add(path.name)
            memo = self._scan_memo.get(path.name)
            if memo is not None and memo[0] == stat.st_mtime_ns and memo[1] == stat.st_size:
                self.scan_fast_hits += 1
                yield path, memo[2]
                continue
            entry = read_point_entry(path)
            self._scan_memo[path.name] = (stat.st_mtime_ns, stat.st_size, entry)
            self.scan_rereads += 1
            yield path, entry
        for name in set(self._scan_memo) - seen:
            # pop, not del: concurrent scans over one cache instance may
            # both observe (and both prune) an externally deleted file.
            self._scan_memo.pop(name, None)


@dataclass(frozen=True)
class PointEntry:
    """One fully parsed point file: cache key parts plus the record.

    This is the read-side view the characterization query service
    (:mod:`repro.runtime.query`) indexes: unlike :meth:`PointCache.load`,
    which answers "is *this* fingerprint cached?", an entry carries the
    point's own identity — the physical context dict it was measured
    under — so a reader can reconstruct the datasets a store holds
    without knowing any fingerprints up front.
    """

    fingerprint: str
    #: Physical identity: benchmark/variant/board/voltage/clock/temp (see
    #: :func:`point_context`).
    context: dict
    #: Library version recorded at store time.
    version: str
    record: PointRecord


def parse_point_entry(text: str, fingerprint: str) -> PointEntry:
    """Parse one point file's text, stored under ``fingerprint``.

    The one validator of the point format (reads, index scans, merges of
    shipped entries); raises ``ValueError`` naming the first problem.
    """
    try:
        payload = json.loads(text)
        if not _ENTRY_KEYS <= set(payload):
            raise ValueError("point payload missing keys")
        if payload["fingerprint"] != fingerprint:
            raise ValueError(f"point entry {fingerprint} carries the wrong fingerprint")
        hang = bool(payload["hang"])
        measurement = None
        if not hang:
            measurement = measurement_from_payload(payload["measurement"])
        if not isinstance(payload["context"], dict):
            raise ValueError("point context must be a dict")
        return PointEntry(
            fingerprint=payload["fingerprint"],
            context=payload["context"],
            version=str(payload["version"]),
            record=PointRecord(hang=hang, measurement=measurement),
        )
    except (TypeError, KeyError) as exc:
        raise ValueError(f"malformed point entry {fingerprint}: {exc!r}") from None


def read_point_entry(path: str | os.PathLike) -> PointEntry | None:
    """Parse one point file into a :class:`PointEntry`; ``None`` if invalid.

    Read-only: unlike :meth:`PointCache.load` this never deletes a corrupt
    file — index builders skip and count corruption, while the write path
    (the sweep engine) remains the one place entries are retired.
    """
    path = Path(path)
    try:
        return parse_point_entry(path.read_text(), path.stem)
    except (OSError, ValueError):
        return None


_ACTIVE_CACHE: ContextVar[PointCache | None] = ContextVar("repro_point_cache", default=None)


def active_point_cache() -> PointCache | None:
    """The point store the current work unit runs under, if any."""
    return _ACTIVE_CACHE.get()


@contextmanager
def point_scope(cache: PointCache):
    """Bind a point store for the duration of a work unit."""
    token = _ACTIVE_CACHE.set(cache)
    try:
        yield
    finally:
        _ACTIVE_CACHE.reset(token)


def maybe_point_scope(point_root: str | os.PathLike | None):
    """A :func:`point_scope` for ``point_root``, or a no-op when disabled.

    The campaign runtime ships the point-store root to workers as a plain
    string (work units must stay picklable); ``None`` means caching is off.
    """
    if point_root is None:
        return nullcontext()
    return point_scope(PointCache(Path(point_root)))


def point_context(session: AcceleratorSession, vccint_mv: float, f_mhz: float | None) -> dict:
    """The physical identity of one measured point, for the cache key."""
    board = session.board
    return {
        "benchmark": session.workload.name,
        "variant": session.workload.variant_label,
        "board": board.sample,
        "vccint_mv": round(vccint_mv, 4),
        "f_mhz": board.cal.f_default_mhz if f_mhz is None else float(f_mhz),
        "t_setpoint_c": session._t_setpoint_c,
    }


def cached_round_measure(
    session: AcceleratorSession,
    config: ExperimentConfig,
    f_mhz: float | None = None,
):
    """A round executor (``points -> {index: outcome}``) over the point store.

    This is the in-process backend of the sweep engine's round protocol
    (:func:`repro.core.undervolt.drive_rounds`): each round dances the
    board through its plans in order, then executes every plan that needs
    an engine pass as *one* voltage-stacked call
    (:meth:`~repro.core.session.AcceleratorSession.execute_plans`).
    Outcomes and cache entries are bit-identical to the serial per-point
    loop because each point's RNG streams are named by its voltage, and
    each point still lands as its own cache entry under the *unchanged*
    per-point fingerprint.

    Semantics per plan, in round order (stopping after the first hang —
    the board is down, later plans get no outcome):

    * ``"measure"`` plans consult the point store first (cached points
      and hangs replay without touching the board) and write fresh
      outcomes back, hangs included — so a resumed or re-parameterized
      sweep never re-probes a voltage it already knows;
    * ``"probe"`` plans never read the store — the board dance alone
      decides liveness and the fault regime, so cached and uncached
      sweeps take identical paths — but their *deterministic* outcomes
      (fault-free measurements via the clean shortcut, and hangs) are
      written back under the same fingerprints a measure plan would use,
      unless the point is already on disk (probes warm the store; they
      never churn it).  A live faulty probe reports ``("alive", None)``
      and stores nothing.

    A hang power-cycles the board before returning, so the next round
    starts on a live board.
    """
    cache = active_point_cache()

    def execute(points) -> dict:
        # Bound once per round: the config is encoded once, not per point.
        version = current_version()
        fingerprint_of = None if cache is None else point_fingerprinter(config, version)

        def keys(v_mv: float) -> tuple[str, dict]:
            context = point_context(session, v_mv, f_mhz)
            return fingerprint_of(context), context

        def write_back(v_mv, fingerprint, context, measurement) -> None:
            if cache is None:
                return
            if fingerprint is None:
                # Probe plan: its outcome (a hang, or a fault-free
                # measurement) is deterministic, so store it unless the
                # point is already on disk (probes never read entries, so
                # an existing one must be left untouched).
                fingerprint, context = keys(v_mv)
                if cache.path_for(fingerprint).exists():
                    return
            cache.store(fingerprint, context, measurement, version)

        outcomes: dict[int, tuple] = {}
        pending: list[tuple] = []  # (point, plan, fingerprint, context)
        for p in points:
            fingerprint = context = None
            if cache is not None and p.mode == "measure":
                fingerprint, context = keys(p.v_mv)
                record = cache.load(fingerprint)
                if record is not None:
                    if record.hang:
                        outcomes[p.index] = ("hang", None)
                        break
                    outcomes[p.index] = ("measurement", record.measurement)
                    continue
            try:
                plan = session.plan_point(p.v_mv, f_mhz=f_mhz)
            except BoardHangError:
                session.board.power_cycle()
                write_back(p.v_mv, fingerprint, context, None)
                outcomes[p.index] = ("hang", None)
                break
            if p.mode == "probe" and not plan.engine_free:
                outcomes[p.index] = ("alive", None)
                continue
            pending.append((p, plan, fingerprint, context))
        if pending:
            # Plans danced before any hang still owe their measurements;
            # the stacked engine pass never touches the board.
            results = session.execute_plans([plan for _p, plan, _f, _c in pending])
            for (p, plan, fingerprint, context), outs in zip(pending, results):
                measurement = session.finalize_point(plan, outs)
                write_back(p.v_mv, fingerprint, context, measurement)
                outcomes[p.index] = ("measurement", measurement)
        return outcomes

    return execute
