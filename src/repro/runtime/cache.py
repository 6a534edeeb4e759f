"""On-disk JSON result cache, keyed by config fingerprint.

One file per cached experiment, named ``<fingerprint>.json`` under the
cache root.  Entries are self-describing (they carry the experiment id,
the full config snapshot, the library version, and the compute wall time)
so ``EXPERIMENTS.md`` can report cache provenance and a human can audit
``.repro-cache/`` with nothing but a JSON viewer.

Corruption is handled as a miss: an unreadable or schema-invalid entry is
deleted and recomputed, never propagated.  Results pass through the same
JSON codec on store *and* on the fresh-compute path (see
:func:`normalize_result`), so a warm-cache report renders byte-identically
to a cold one.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.experiment import ExperimentConfig
from repro.experiments.registry import ExperimentResult
from repro.runtime.hashing import FINGERPRINT_LEN, _jsonable, current_version

#: Default cache location, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Entry files are named by their hex fingerprint; anything else in the
#: cache dir (journal.json, the points/ subdir) is not an entry.
_FINGERPRINT_RE = re.compile(rf"[0-9a-f]{{{FINGERPRINT_LEN}}}")

_PAYLOAD_KEYS = {"fingerprint", "experiment_id", "version", "result", "wall_s"}
_RESULT_KEYS = {"experiment_id", "title", "rows", "summary", "notes"}


def _dumps(payload) -> str:
    """Serialize an entry, preserving dict insertion order.

    Row/summary key order is meaningful (it fixes table column order in
    every rendered report), so unlike the fingerprint hash this codec
    must NOT sort keys.
    """
    return json.dumps(payload, default=_jsonable)


@contextmanager
def atomic_open(path: Path, mode: str = "wb"):
    """Crash-safe file replace: yield a sibling temp file, then rename it.

    The one write primitive the on-disk stores share (experiment entries,
    voltage points, the campaign journal, model blobs): a reader never
    sees a torn file, and a crash mid-write leaves the previous content
    intact — the property the resume machinery is built on.  If the
    ``with`` body raises, the temp file is removed and ``path`` kept.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, mode) as handle:
            yield handle
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def atomic_write_text(path: Path, text: str | bytes) -> None:
    """:func:`atomic_open` for whole content: ``str`` as text, ``bytes`` verbatim."""
    with atomic_open(path, "w" if isinstance(text, str) else "wb") as handle:
        handle.write(text)


def result_to_payload(result: ExperimentResult) -> dict:
    """JSON-able snapshot of a result (shard ``merge_state`` is dropped)."""
    return {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "rows": result.rows,
        "summary": result.summary,
        "notes": result.notes,
    }


def result_from_payload(payload: dict) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from its stored JSON payload."""
    if not _RESULT_KEYS <= set(payload):
        missing = sorted(_RESULT_KEYS - set(payload))
        raise ValueError(f"result payload missing keys: {missing}")
    return ExperimentResult(
        experiment_id=payload["experiment_id"],
        title=payload["title"],
        rows=list(payload["rows"]),
        summary=dict(payload["summary"]),
        notes=list(payload["notes"]),
    )


def normalize_result(result: ExperimentResult) -> ExperimentResult:
    """Round-trip a result through the cache codec.

    Freshly computed results are normalized before rendering so that a
    value's printed form cannot depend on whether it came from the cache
    (numpy scalars become plain floats, tuples become lists, dict key
    order is preserved by JSON).
    """
    return result_from_payload(json.loads(_dumps(result_to_payload(result))))


@dataclass
class CacheStats:
    """Counters for one cache instance's lifetime."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0

    def as_dict(self) -> dict:
        """Plain-dict snapshot of the counters (for stats endpoints)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
        }


@dataclass(frozen=True)
class CacheHit:
    """A successfully loaded entry plus its recorded compute time."""

    result: ExperimentResult
    wall_s: float


@dataclass
class ResultCache:
    """Content-addressed experiment-result store rooted at one directory."""

    root: Path
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self):
        self.root = Path(self.root)

    def path_for(self, fingerprint: str) -> Path:
        """On-disk location of one entry."""
        return self.root / f"{fingerprint}.json"

    @property
    def point_root(self) -> Path:
        """Root of the companion per-point store (``<root>/points/``).

        Experiment entries and voltage-point entries share one cache
        directory so a single ``--cache-dir`` carries both granularities;
        the point store itself lives in :mod:`repro.runtime.points`.
        """
        return self.root / "points"

    @property
    def blob_root(self) -> Path:
        """Root of the companion model plane (``<root>/blobs/``).

        Spilled workload arrays and manifests live beside the result and
        point stores so one ``--cache-dir`` carries all three; the blob
        store itself lives in :mod:`repro.runtime.blobs`.
        """
        return self.root / "blobs"

    def load(self, fingerprint: str, experiment_id: str) -> CacheHit | None:
        """Return the cached entry, or ``None`` on miss or corruption.

        A corrupt entry (unparseable JSON, missing keys, or an id that
        does not match the fingerprint's) is deleted so the next store
        starts clean — the recovery path the tests exercise.
        """
        path = self.path_for(fingerprint)
        if not path.exists():
            self.stats.misses += 1
            return None
        try:
            payload = json.loads(path.read_text())
            if not _PAYLOAD_KEYS <= set(payload):
                raise ValueError("cache payload missing keys")
            if payload["experiment_id"] != experiment_id:
                raise ValueError(
                    f"cache entry {fingerprint} holds "
                    f"{payload['experiment_id']!r}, expected {experiment_id!r}"
                )
            result = result_from_payload(payload["result"])
            wall_s = float(payload["wall_s"])
        except (OSError, ValueError, TypeError, KeyError):
            self.stats.corrupt += 1
            self.stats.misses += 1
            try:
                path.unlink()
            except OSError:  # pragma: no cover - racing deletes are fine
                pass
            return None
        self.stats.hits += 1
        return CacheHit(result=result, wall_s=wall_s)

    def store(
        self,
        fingerprint: str,
        experiment_id: str,
        config: ExperimentConfig,
        result: ExperimentResult,
        wall_s: float,
    ) -> Path:
        """Atomically write one entry (write-to-temp, then rename)."""
        if result.experiment_id != experiment_id:
            raise ValueError(
                f"result id {result.experiment_id!r} does not match "
                f"cache key id {experiment_id!r}"
            )
        self.root.mkdir(parents=True, exist_ok=True)
        gitignore = self.root / ".gitignore"
        if not gitignore.exists():
            # Cache contents are derived data; keep them out of version
            # control wherever the user points --cache-dir (same trick
            # pytest's cache dir uses).
            gitignore.write_text("*\n")
        payload = {
            "fingerprint": fingerprint,
            "experiment_id": experiment_id,
            "version": current_version(),
            "config": config.as_dict(),
            "wall_s": round(float(wall_s), 6),
            "result": result_to_payload(result),
        }
        path = self.path_for(fingerprint)
        atomic_write_text(path, _dumps(payload))
        self.stats.stores += 1
        return path

    def invalidate(self, fingerprint: str) -> bool:
        """Drop one entry; returns whether a file was removed."""
        try:
            self.path_for(fingerprint).unlink()
            return True
        except OSError:
            return False

    def entries(self) -> list[Path]:
        """All entry files currently on disk (sorted for determinism).

        Only fingerprint-named files count: the cache root also hosts
        non-entry companions (``journal.json``, the ``points/`` store),
        which auditors and garbage collectors must never mistake for —
        or delete as — experiment entries.
        """
        if not self.root.is_dir():
            return []
        return sorted(
            p
            for p in self.root.glob("*.json")
            if p.is_file() and _FINGERPRINT_RE.fullmatch(p.stem)
        )
