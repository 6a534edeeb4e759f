"""Resumable campaigns: the on-disk journal of planned/completed units.

A :class:`CampaignJournal` lives next to the result cache
(``<cache-dir>/journal.json``) and records, per *campaign* (a stable hash
of the requested experiment ids, the semantic config, and the library
version), every planned work unit and its completion.  The journal is
written through atomically after each unit finalizes, so a campaign killed
mid-flight leaves a truthful frontier on disk:

* units that finished have their results in the
  :class:`~repro.runtime.cache.ResultCache` and are marked ``completed``;
* the interrupted unit's already-measured voltage points sit in the
  per-point store (:mod:`repro.runtime.points`);
* ``repro-undervolt campaign ... --resume`` replans the same campaign,
  serves completed units from the cache, recomputes only the frontier
  (whose sweeps replay their cached points), and records per-run resume
  accounting: ``resumed`` (previously completed, served from cache),
  ``recomputed`` (previously completed but recomputed — 0 unless the
  result cache was lost), and ``fresh`` (never completed before).

CI's resume smoke gate asserts ``recomputed == 0`` on the last run record
and byte-compares the resumed report against an uninterrupted one.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

try:  # pragma: no cover - platform availability, not logic
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

from repro.core.experiment import ExperimentConfig
from repro.runtime.hashing import FINGERPRINT_LEN, canonical_json, current_version

#: Journal file name inside the cache directory.
JOURNAL_NAME = "journal.json"

SCHEMA_VERSION = 1


def campaign_fingerprint(
    unit_ids: Sequence[str],
    config: ExperimentConfig,
    version: str | None = None,
) -> str:
    """Stable id of one campaign: its unit list, config, and version."""
    payload = {
        "kind": "campaign",
        "units": list(unit_ids),
        "config": config.semantic_dict(),
        "version": current_version() if version is None else version,
    }
    digest = hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
    return digest[:FINGERPRINT_LEN]


@dataclass(frozen=True)
class ResumeStats:
    """Per-run accounting of how the journal's history was used."""

    planned: int = 0
    completed: int = 0
    #: Cache hits on units a prior run had completed (the resume win).
    resumed: int = 0
    #: Previously completed units that had to be recomputed anyway
    #: (result cache lost or invalidated); 0 on a healthy resume.
    recomputed: int = 0
    #: Units computed for the first time (the frontier).
    fresh: int = 0
    #: Cache hits on units this journal never saw complete (e.g. a cache
    #: shared across campaigns).
    cached: int = 0
    #: Units quarantined this run (poison units the campaign gave up on).
    quarantined: int = 0

    def as_dict(self) -> dict:
        """Plain-dict snapshot (the shape journal run records store)."""
        return {
            "planned": self.planned,
            "completed": self.completed,
            "resumed": self.resumed,
            "recomputed": self.recomputed,
            "fresh": self.fresh,
            "cached": self.cached,
            "quarantined": self.quarantined,
        }


class CampaignJournal:
    """Write-through JSON journal of campaign work units.

    All mutators rewrite the file atomically (temp + rename); a corrupt or
    missing file reads as empty, so the journal can never wedge a campaign
    — at worst a resume degrades to a plain warm-cache run.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)

    # ------------------------------------------------------------------
    # File plumbing
    # ------------------------------------------------------------------

    @contextmanager
    def _locked(self):
        """Advisory exclusive lock spanning one read-modify-write.

        Unlike the result/point stores (independent per-entry files), the
        journal is one shared document: two campaigns running against the
        same cache dir would otherwise interleave whole-file rewrites and
        silently drop each other's completions.  On platforms without
        ``fcntl`` the journal degrades to unlocked single-process
        semantics.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            yield
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        lock_path = self.path.with_name(f".{self.path.name}.lock")
        with open(lock_path, "w") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(lock, fcntl.LOCK_UN)

    def _read(self) -> dict:
        try:
            payload = json.loads(self.path.read_text())
            if not isinstance(payload, dict) or "campaigns" not in payload:
                raise ValueError("journal schema drifted")
            return payload
        except (OSError, ValueError, TypeError):
            return {"schema": SCHEMA_VERSION, "campaigns": {}}

    def _write(self, payload: dict) -> None:
        from repro.runtime.cache import atomic_write_text

        # Strict JSON: a non-finite number raises ValueError here, before
        # anything is written, instead of landing as a NaN token.
        text = json.dumps(payload, indent=1, allow_nan=False)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(self.path, text)

    # ------------------------------------------------------------------
    # Campaign lifecycle
    # ------------------------------------------------------------------

    def begin(
        self,
        campaign_id: str,
        units: Sequence[tuple[str, str]],
        resume: bool = False,
    ) -> set[str]:
        """Record the plan for one run; returns prior-completed fingerprints.

        ``units`` is the ordered ``(unit_id, fingerprint)`` plan.  Without
        ``resume`` the campaign's unit history is wiped (a fresh run owns
        its journal entry); with it, previously completed units survive
        (their fingerprints are returned), which is how
        :meth:`record_unit` classifies this run's cache hits as resumed
        work.
        """
        with self._locked():
            payload = self._read()
            campaigns = payload.setdefault("campaigns", {})
            record = campaigns.setdefault(campaign_id, {"units": {}, "runs": []})
            if not resume:
                record["units"] = {}
            prior = {
                fingerprint
                for fingerprint, unit in record["units"].items()
                if unit.get("status") == "completed"
            }
            for unit_id, fingerprint in units:
                unit = record["units"].setdefault(
                    fingerprint, {"unit": unit_id, "status": "planned"}
                )
                unit["unit"] = unit_id
            record["runs"].append({"resume": bool(resume), **ResumeStats().as_dict()})
            record["runs"][-1]["planned"] = len(units)
            self._write(payload)
        return prior

    def record_unit(
        self,
        campaign_id: str,
        fingerprint: str,
        *,
        cache_hit: bool,
        wall_s: float = 0.0,
    ) -> None:
        """Mark one unit completed and count its outcome in the run.

        The outcome follows from the unit's recorded status: under
        :meth:`begin`'s rules a unit already ``completed`` was completed
        by an earlier run, so a cache hit on it is ``resumed`` and a
        recompute ``recomputed``; otherwise the unit is ``cached`` or
        ``fresh`` (see :class:`ResumeStats`).  The campaign runtime and
        the distributed coordinator both journal through this one rule.
        """
        with self._locked():
            payload = self._read()
            record = payload.setdefault("campaigns", {}).setdefault(
                campaign_id, {"units": {}, "runs": []}
            )
            unit = record["units"].setdefault(fingerprint, {"unit": fingerprint})
            prior = unit.get("status") == "completed"
            if cache_hit:
                outcome = "resumed" if prior else "cached"
            else:
                outcome = "recomputed" if prior else "fresh"
            unit["status"] = "completed"
            unit["outcome"] = outcome
            unit["wall_s"] = round(float(wall_s), 6)
            if not record["runs"]:
                record["runs"].append({"resume": False, **ResumeStats().as_dict()})
            run = record["runs"][-1]
            run["completed"] = run.get("completed", 0) + 1
            run[outcome] = run.get(outcome, 0) + 1
            self._write(payload)

    def record_quarantine(
        self,
        campaign_id: str,
        fingerprint: str,
        unit_id: str | None = None,
        error: str = "",
    ) -> None:
        """Mark one unit quarantined (terminal: the campaign gave up on it).

        The unit keeps its journal entry with ``status: "quarantined"``
        and the last reported error, so a post-mortem (or a ``--resume``
        after the underlying fault is fixed) can see exactly which units
        the campaign could not compute and why.
        """
        with self._locked():
            payload = self._read()
            record = payload.setdefault("campaigns", {}).setdefault(
                campaign_id, {"units": {}, "runs": []}
            )
            unit = record["units"].setdefault(fingerprint, {"unit": unit_id or fingerprint})
            if unit_id is not None:
                unit["unit"] = unit_id
            unit["status"] = "quarantined"
            unit["outcome"] = "quarantined"
            if error:
                unit["error"] = error
            if not record["runs"]:
                record["runs"].append({"resume": False, **ResumeStats().as_dict()})
            run = record["runs"][-1]
            run["quarantined"] = run.get("quarantined", 0) + 1
            self._write(payload)

    # ------------------------------------------------------------------
    # Introspection (tests and the CLI resume summary)
    # ------------------------------------------------------------------

    def campaign(self, campaign_id: str) -> dict:
        """One campaign's record (``{"units": ..., "runs": ...}``; empty if unknown)."""
        empty = {"units": {}, "runs": []}
        return self._read().get("campaigns", {}).get(campaign_id, empty)

    def completed_fingerprints(self, campaign_id: str) -> set[str]:
        """Fingerprints of every unit the campaign has seen complete."""
        return {
            fingerprint
            for fingerprint, unit in self.campaign(campaign_id)["units"].items()
            if unit.get("status") == "completed"
        }

    def last_run(self, campaign_id: str) -> dict | None:
        """The most recent run's resume accounting, or ``None``."""
        runs = self.campaign(campaign_id)["runs"]
        return runs[-1] if runs else None

    def summary(self) -> dict:
        """Journal-wide totals: campaigns recorded, units completed.

        The characterization service's ``/stats`` endpoint reports this
        so an operator can see how much compute history a cache
        directory carries without opening the file.
        """
        campaigns = self._read().get("campaigns", {})
        completed = sum(
            1
            for record in campaigns.values()
            for unit in record.get("units", {}).values()
            if unit.get("status") == "completed"
        )
        return {"campaigns": len(campaigns), "completed_units": completed}
