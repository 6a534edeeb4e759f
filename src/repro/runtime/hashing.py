"""Content-addressed fingerprints for campaign work.

The result cache and the campaign orchestrator identify an experiment run
by a stable hash of the experiment id, every
:class:`~repro.core.experiment.ExperimentConfig` field (calibration
constants included), and the library version.  For a given codebase, two
runs with the same fingerprint produce bit-identical
:class:`~repro.experiments.registry.ExperimentResult` payloads, which is
what makes it safe for ``repro-undervolt report`` to reuse cached rows.

The fingerprint deliberately does NOT hash source code: the library
version stands in for it.  After changing experiment or simulator code,
bump ``repro.version`` (any release does) or run with the cache disabled;
otherwise a warm cache keeps serving pre-change results.

Per-point fingerprints are computed in bulk — once per stored point when
an index opens, once per voltage in every sweep round — against one
fixed ``(config, version)``.  :func:`point_fingerprinter` binds that
pair once: it encodes the config a single time and keeps a ``sha256``
already fed with the payload's ``{"config":…,"context":`` prefix, so
each point only hashes its own context.  The digest is the sha256 of
the payload's canonical JSON: ``sort_keys`` orders it ``config,
context, kind, version``, and a nested value encodes to the same text
alone as inside its parent under the same separators and fallback
encoder.  No experiment id is hashed into a point: whichever experiment
measures a voltage first measures it for every later one.
"""

from __future__ import annotations

import hashlib
import json
import re

from repro.core.experiment import ExperimentConfig

#: Hex digits kept from the sha256 digest; 16 nibbles = 64 bits, far past
#: collision risk for the handful of configs a repository ever sees.
FINGERPRINT_LEN = 16

#: A fingerprint as it names a store file: exactly that many hex digits.
FINGERPRINT_RE = re.compile(rf"[0-9a-f]{{{FINGERPRINT_LEN}}}")


def _jsonable(value):
    """Fallback encoder for numpy scalars/arrays hiding in config fields."""
    if hasattr(value, "item"):
        return value.item()
    if hasattr(value, "tolist"):
        return value.tolist()
    raise TypeError(f"cannot canonicalize {type(value).__name__} for hashing")


def canonical_json(payload) -> str:
    """Deterministic JSON: sorted keys, no whitespace, tuples as arrays."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=_jsonable)


def current_version() -> str:
    """The library version, read at call time (tests monkeypatch it)."""
    import repro.version

    return repro.version.__version__


def config_fingerprint(
    experiment_id: str,
    config: ExperimentConfig,
    version: str | None = None,
) -> str:
    """Stable hex fingerprint of ``(experiment_id, config, version)``.

    Only the config's *semantic* fields are hashed
    (:meth:`ExperimentConfig.semantic_dict`): execution knobs like
    ``batch_budget``/``point_batch`` change how a result is computed but
    not its value, so flipping them keeps warm caches valid — and
    fingerprints from before those knobs existed stay unchanged.
    """
    payload = {
        "experiment_id": experiment_id,
        "config": config.semantic_dict(),
        "version": current_version() if version is None else version,
    }
    digest = hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
    return digest[:FINGERPRINT_LEN]


def point_fingerprinter(config: ExperimentConfig, version: str | None = None):
    """Bind :func:`point_fingerprint` to one ``(config, version)``.

    Returns ``fingerprint(context) -> str``.  The config is
    encoded and the version read once, at bind time (see the module
    docstring), so bind one per batch of points, not one per process.
    """
    version = current_version() if version is None else version
    config_json = canonical_json(config.point_semantic_dict())
    prefix = hashlib.sha256(f'{{"config":{config_json},"context":'.encode())
    tail = f',"kind":"sweep-point","version":{canonical_json(version)}}}'.encode()

    def fingerprint(context: dict) -> str:
        digest = prefix.copy()
        digest.update(canonical_json(context).encode())
        digest.update(tail)
        return digest.hexdigest()[:FINGERPRINT_LEN]

    return fingerprint


def point_fingerprint(
    context: dict,
    config: ExperimentConfig,
    version: str | None = None,
) -> str:
    """Stable hex fingerprint of one sweep voltage point.

    Keyed by the point's physical identity (``context`` — benchmark,
    variant, board, voltage, clock, temperature setpoint), the
    *point-relevant* config (:meth:`ExperimentConfig.point_semantic_dict`,
    which drops the sweep-plan knobs on top of the execution-only ones),
    and the library version: the sha256 of the canonical JSON of
    ``{"kind": "sweep-point", "context": …, "config": …, "version": …}``.
    Any two sweeps that visit the same voltage — a dense grid and an
    adaptive bisection, a coarse and a refined step, or ``fig3`` and
    ``fig6`` — therefore share the entry bit-for-bit.  Fingerprinting
    many points under one config?  Bind a :func:`point_fingerprinter`
    once instead.
    """
    return point_fingerprinter(config, version)(context)
