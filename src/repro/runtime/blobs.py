"""Content-addressed model plane: memory-mapped array blobs plus manifests.

The campaign runtime's tasks are deliberately tiny — ``(experiment_id,
shard_key, config, ...)`` tuples — which means every worker process has
historically *rebuilt* its models from scratch: regenerate the weights,
run the calibration forward pass, construct the labels.  That work is
invariant across every task of a campaign (and across campaigns at a
fixed config/version), so this module gives it a durable home:

* :class:`BlobStore` — a content-addressed store of ``.npy`` array blobs
  under ``<cache>/blobs/``.  An array's key is the hash of its dtype,
  shape, and bytes, so identical arrays written by racing workers land on
  the same file; writes go through
  :func:`repro.runtime.cache.atomic_open`, the temp-file-plus-rename
  primitive every other on-disk store uses, and reads
  come back **memory-mapped**, so N workers on one host share a single
  page-cache copy of each weight tensor instead of N heap copies.
* **Manifests** — small JSON documents keyed by a caller-supplied name
  (the model zoo uses a workload build fingerprint) that reference array
  blobs by key.  A manifest plus its blobs is a complete serialized
  workload: tasks ship keys, never pickled arrays.

The store is a pure acceleration: everything in it is derived data,
reconstructible from the build parameters, and keyed by content (arrays)
or by a fingerprint that embeds the library version (manifests) — so a
stale or deleted plane can never change a result, only its cost.
:func:`blob_plane` / :func:`maybe_blob_plane` bind a store for the
duration of a work unit, exactly like
:func:`repro.runtime.points.point_scope` does for the point store.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Subdirectory of a result-cache root holding the blob plane.
BLOBS_SUBDIR = "blobs"

#: Hex digits kept from the sha256 digest of an array's content.
BLOB_KEY_LEN = 32


@dataclass
class BlobStats:
    """Counters for one blob store's lifetime."""

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


def array_key(array: np.ndarray) -> str:
    """Content hash of one array: dtype, shape, and raw bytes.

    Two bit-identical arrays always share a key, whatever produced them —
    the property that lets racing workers spill the same model without
    coordination.
    """
    array = np.ascontiguousarray(array)
    digest = hashlib.sha256()
    digest.update(str(array.dtype.str).encode())
    digest.update(str(array.shape).encode())
    digest.update(array.tobytes())
    return digest.hexdigest()[:BLOB_KEY_LEN]


@dataclass
class BlobStore:
    """Content-addressed array/manifest store rooted at one directory."""

    root: Path
    stats: BlobStats = field(default_factory=BlobStats)

    def __post_init__(self):
        self.root = Path(self.root)

    # ------------------------------------------------------------------
    # Array blobs
    # ------------------------------------------------------------------

    def array_path(self, key: str) -> Path:
        """On-disk location of one array blob."""
        return self.root / f"{key}.npy"

    def put_array(self, array: np.ndarray) -> str:
        """Spill one array (idempotent); returns its content key.

        An existing blob is trusted by construction — the key *is* the
        content hash — so re-putting an array another worker already
        spilled costs one ``stat``.
        """
        array = np.ascontiguousarray(array)
        key = array_key(array)
        path = self.array_path(key)
        if path.exists():
            return key
        from repro.runtime.cache import atomic_open

        self._ensure_root()
        # Streamed straight into the temp file: no in-memory copy of the array.
        with atomic_open(path) as handle:
            np.save(handle, array)
        self.stats.stores += 1
        return key

    def get_array(self, key: str) -> np.ndarray | None:
        """The blob's array, memory-mapped read-only; ``None`` on a miss.

        A corrupt blob (bad magic, truncated header) is deleted and
        reported as a miss — the caller rebuilds and re-spills, exactly
        like the result cache's corruption recovery.
        """
        path = self.array_path(key)
        try:
            array = np.load(path, mmap_mode="r", allow_pickle=False)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, ValueError):
            self.stats.corrupt += 1
            self.stats.misses += 1
            try:
                path.unlink()
            except OSError:  # pragma: no cover - racing deletes are fine
                pass
            return None
        self.stats.hits += 1
        return array

    # ------------------------------------------------------------------
    # Manifests
    # ------------------------------------------------------------------

    def manifest_path(self, name: str) -> Path:
        """On-disk location of one manifest."""
        return self.root / f"m-{name}.json"

    def put_manifest(self, name: str, payload: dict) -> Path:
        """Atomically write one manifest document."""
        from repro.runtime.cache import atomic_write_text

        self._ensure_root()
        path = self.manifest_path(name)
        atomic_write_text(path, json.dumps(payload))
        self.stats.stores += 1
        return path

    def get_manifest(self, name: str) -> dict | None:
        """The manifest's payload, or ``None`` on miss or corruption."""
        path = self.manifest_path(name)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, ValueError):
            self.stats.corrupt += 1
            self.stats.misses += 1
            try:
                path.unlink()
            except OSError:  # pragma: no cover - racing deletes are fine
                pass
            return None
        if not isinstance(payload, dict):
            self.stats.corrupt += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return payload

    # ------------------------------------------------------------------

    def _ensure_root(self) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        gitignore = self.root / ".gitignore"
        if not gitignore.exists():
            gitignore.write_text("*\n")


_ACTIVE_PLANE: ContextVar[BlobStore | None] = ContextVar("repro_blob_plane", default=None)


def active_blob_store() -> BlobStore | None:
    """The model plane the current work unit runs under, if any."""
    return _ACTIVE_PLANE.get()


@contextmanager
def blob_plane(store: BlobStore):
    """Bind a blob store as the active model plane for a work unit."""
    token = _ACTIVE_PLANE.set(store)
    try:
        yield store
    finally:
        _ACTIVE_PLANE.reset(token)


def bind_default_plane(blob_root: str | os.PathLike | None) -> None:
    """Bind a process-default model plane (worker initializers).

    Unlike :func:`blob_plane` this is not scoped: the store becomes the
    fallback for every task the process runs, which is exactly what a
    fabric worker wants — per-task :func:`maybe_blob_plane` bindings
    still override it for their duration.
    """
    if blob_root is None:
        return
    _ACTIVE_PLANE.set(BlobStore(Path(blob_root)))


def maybe_blob_plane(blob_root: str | os.PathLike | None):
    """A :func:`blob_plane` for ``blob_root``, or a no-op when disabled.

    The campaign runtime ships the plane root to workers as a plain
    string (work units must stay picklable); ``None`` means the model
    plane is off and every worker builds from scratch.
    """
    if blob_root is None:
        return nullcontext()
    return blob_plane(BlobStore(Path(blob_root)))
