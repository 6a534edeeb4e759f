"""Campaign coordinator: HTTP work-lease distribution of one campaign.

The single-host campaign runtime already decomposes every campaign into
independent, content-addressed work units (board sweeps, experiment
shards) whose results are pure functions of ``(unit_id, config,
version)``.  The coordinator stretches that decomposition across hosts:
it owns one campaign's unit list, serves unfinished units to remote
workers as **time-leased work items** over plain HTTP, and merges what
the workers post back into the very stores — result cache, point store,
campaign journal — a single-host run would have written.

The protocol is deliberately small and pull-based (workers poll, the
coordinator never connects out):

``POST /lease``
    A worker asks for work.  The answer is one of ``lease`` (a unit,
    its lease id and TTL, the campaign's :class:`ExperimentConfig` on
    the wire, and the coordinator's library version), ``wait``
    (everything is leased out; retry after a delay), or ``done`` (the
    campaign drained).  A lease ships what to compute, never how: each
    worker runs it under its own ``--jobs``.

``POST /renew``
    A worker's lease heartbeat: extends a live lease's TTL so a
    long-running unit is not re-leased mid-execution.  A stale or
    unknown lease is answered as such and changes nothing — the
    completion path resolves any race.

``POST /fail``
    A worker reports that a unit's execution raised, with the
    traceback.  The failure releases the lease and counts one *strike*
    against the unit; at ``quarantine_strikes`` strikes (reported
    failures and lapsed leases both count) the unit is **quarantined**
    — excluded from all further leasing, recorded in the journal, and
    surfaced on ``/status`` and the final report — so a unit that
    reliably kills workers drains the campaign to a partial-but-honest
    result instead of being re-leased forever.

``POST /complete``
    A worker posts one finished unit: the result payload, its wall
    time, and the raw text of every point-store entry it holds under the
    campaign's config.  The coordinator validates every point entry (it
    must parse through the point store's own parser, and its fingerprint
    must recompute from its context under the campaign's config and
    version), the wall time (a finite number) and the result *before*
    the lease board records the completion — a refused post answers 400
    and leaves the unit leased — then has the point store write the
    entries **verbatim** (byte-identity with a single-host run holds by
    construction: entries are deterministic, and the first writer's
    bytes are kept) and commits the result through the campaign's
    :class:`~repro.runtime.campaign.CampaignLedger`.  Duplicate
    completions — two workers racing one unit, or a lease that expired
    and was re-leased before the original worker finished — are
    answered ``duplicate`` and change nothing.

``GET /blobs`` / ``GET /blobs/<name>``
    The coordinator's model plane, served read-only through its
    :class:`~repro.runtime.blobs.BlobStore` so a cold worker can sync
    spilled model blobs into its local store instead of rebuilding them.

Leases expire: a worker that leases a unit and dies silently simply
lets the TTL lapse, after which :class:`LeaseBoard` hands the unit to
the next ``/lease`` — a dead worker degrades to "that unit runs
elsewhere", never to a stuck campaign.  Results are deterministic, so a
late completion from a worker presumed dead is either a duplicate
(discarded) or indistinguishable from the re-lease's answer.

The coordinator never reads or writes a store file itself: it opens,
replays, commits and quarantines through the
:class:`~repro.runtime.campaign.CampaignLedger` a local campaign run
uses, so the two journal identically, and point entries and blobs go
through :class:`~repro.runtime.points.PointCache` and
:class:`~repro.runtime.blobs.BlobStore`, the owners of those formats.

All mutating handlers run inline on the event loop — the coordinator is
a control plane, not a data plane, and single-threaded merge order is
the simplest correctness argument for the journal and cache writes.
"""

from __future__ import annotations

import json
import time

from repro.core.experiment import ExperimentConfig
from repro.runtime.blobs import BlobStore
from repro.runtime.cache import ResultCache, result_from_payload
from repro.runtime.campaign import CampaignLedger, resolve_campaign, sweep_unit_id
from repro.runtime.hashing import current_version, point_fingerprinter
from repro.runtime.journal import JOURNAL_NAME, CampaignJournal
from repro.runtime.plan import config_to_wire
from repro.runtime.points import PointCache
from repro.runtime.wire import (
    HttpService,
    Request,
    Response,
    as_float,
    error_bytes,
    json_bytes,
)

#: Default seconds a lease stays exclusive before the unit is re-leased.
DEFAULT_LEASE_TTL_S = 60.0

#: Default seconds the coordinator keeps answering ``done`` after the
#: campaign drains, so every worker polls its way to a clean exit.
DEFAULT_LINGER_S = 2.0

#: Seconds a worker should wait before re-polling when all units are out.
DEFAULT_RETRY_AFTER_S = 0.5

#: Strikes (lapsed leases + reported failures) before a unit quarantines.
DEFAULT_QUARANTINE_STRIKES = 3

#: Characters of a reported traceback kept per unit (enough to diagnose,
#: bounded so a pathological worker cannot balloon the board).
_MAX_ERROR_CHARS = 2000

#: ``/complete`` bodies carry a full unit result plus its point-store
#: entries, so the coordinator accepts far larger bodies than the
#: serving plane's default.
COORDINATOR_MAX_BODY = 64 << 20

#: Seconds an idle worker connection stays open between requests.
COORDINATOR_READ_TIMEOUT_S = 10.0


def resolve_work_units(targets) -> list[dict]:
    """Expand CLI targets into the coordinator's ordered unit list.

    Each target is either a sweep spec — ``sweep:<benchmark>`` (board
    0) or ``sweep:<benchmark>:board<N>`` — or anything
    :func:`~repro.runtime.campaign.resolve_campaign` accepts (campaign
    set names, ``all``, explicit experiment ids).  Every unit is a wire
    dict carrying its kind and unit id (the coordinator stamps each
    unit's fingerprint from its ledger); duplicates collapse, order is
    preserved.  Unknown experiment ids fail here, before any worker
    connects.
    """
    from repro.experiments.registry import get_spec

    units: dict[str, dict] = {}  # unit id -> wire dict; first wins
    for target in targets:
        if target.startswith("sweep:"):
            parts = target.split(":")
            benchmark = parts[1]
            if len(parts) == 2:
                board = 0
            elif len(parts) == 3 and parts[2].startswith("board"):
                board = int(parts[2][len("board") :])
            else:
                raise ValueError(
                    f"sweep target must be 'sweep:<benchmark>' or "
                    f"'sweep:<benchmark>:board<N>', got {target!r}"
                )
            unit_id = sweep_unit_id(benchmark, board)
            units.setdefault(
                unit_id,
                {"kind": "sweep", "unit_id": unit_id, "benchmark": benchmark, "board": board},
            )
        else:
            for exp_id in resolve_campaign((target,)):
                get_spec(exp_id)  # fail fast on unknown ids
                units.setdefault(
                    exp_id, {"kind": "experiment", "unit_id": exp_id, "experiment_id": exp_id}
                )
    return list(units.values())


class LeaseBoard:
    """Pure lease state machine over one campaign's unit list.

    No I/O, no clock of its own (``clock`` is injected so tests drive
    expiry deterministically): units move ``pending -> leased ->
    completed``, a lease past its TTL silently reverts to ``pending`` on
    the next :meth:`lease` call (lazy expiry — nothing ticks), and a
    completion is accepted exactly once per unit regardless of how many
    workers raced it.

    Every lapsed lease and every worker-reported failure counts one
    *strike* against its unit (at most one strike per granted lease);
    a unit reaching ``quarantine_strikes`` strikes moves to the
    terminal ``quarantined`` state — never leased again, excluded from
    :meth:`done`'s completion requirement — so a poison unit degrades
    the campaign to a partial result instead of wedging it.
    """

    def __init__(
        self,
        units,
        ttl_s: float = DEFAULT_LEASE_TTL_S,
        clock=time.monotonic,
        quarantine_strikes: int = DEFAULT_QUARANTINE_STRIKES,
    ):
        if quarantine_strikes < 1:
            raise ValueError(f"quarantine_strikes must be >= 1, got {quarantine_strikes}")
        self.ttl_s = float(ttl_s)
        self.quarantine_strikes = int(quarantine_strikes)
        self._clock = clock
        self._order = [unit["unit_id"] for unit in units]
        self._units = {
            unit["unit_id"]: {
                "unit": unit,
                "status": "pending",
                "lease_id": None,
                "worker": None,
                "expires": 0.0,
                "strikes": 0,
                "error": None,
            }
            for unit in units
        }
        self._lease_seq = 0
        #: Lifetime counters, surfaced on ``/status``.
        self.leases_granted = 0
        self.leases_expired = 0
        self.leases_renewed = 0
        self.completions = 0
        self.duplicates = 0
        self.late_completions = 0
        self.failures_reported = 0

    def _strike(self, state: dict, error: str | None) -> bool:
        """Count one strike; returns whether the unit just quarantined."""
        state["strikes"] += 1
        if error:
            state["error"] = error[:_MAX_ERROR_CHARS]
        if state["strikes"] >= self.quarantine_strikes:
            state["status"] = "quarantined"
            state["lease_id"] = None
            state["worker"] = None
            return True
        state["status"] = "pending"
        state["lease_id"] = None
        state["worker"] = None
        return False

    def _expire_stale(self) -> None:
        now = self._clock()
        for state in self._units.values():
            if state["status"] == "leased" and now >= state["expires"]:
                self.leases_expired += 1
                self._strike(state, None)

    def lease(self, worker: str) -> tuple[dict, str] | None:
        """Lease the first available unit to ``worker``; None = all out.

        Expired leases are reclaimed first, so a dead worker's unit is
        handed to the next caller the moment its TTL lapses.
        """
        self._expire_stale()
        for unit_id in self._order:
            state = self._units[unit_id]
            if state["status"] != "pending":
                continue
            self._lease_seq += 1
            lease_id = f"L{self._lease_seq}"
            state["status"] = "leased"
            state["lease_id"] = lease_id
            state["worker"] = worker
            state["expires"] = self._clock() + self.ttl_s
            self.leases_granted += 1
            return state["unit"], lease_id
        return None

    def renew(self, unit_id: str, lease_id: str | None) -> str:
        """Extend one live lease: ``renewed`` / ``stale`` / ``unknown``.

        The worker-side heartbeat calls this at a fraction of the TTL
        so long-running units never lapse mid-execution.  A lease that
        already expired (or was re-leased) answers ``stale`` and is
        *not* resurrected — the completion path resolves that race.
        """
        self._expire_stale()
        state = self._units.get(unit_id)
        if state is None:
            return "unknown"
        if state["status"] != "leased" or lease_id != state["lease_id"]:
            return "stale"
        state["expires"] = self._clock() + self.ttl_s
        self.leases_renewed += 1
        return "renewed"

    def fail(self, unit_id: str, lease_id: str | None, error: str | None = None) -> str:
        """Record a worker-reported execution failure for one unit.

        Returns ``failed`` (strike counted, unit open again),
        ``quarantined`` (that strike was the last), ``stale`` (the
        report's lease is not the active one — its lease already lapsed
        and struck, so counting again would double-strike one lease),
        or ``unknown``.  Failures on completed units are ``stale`` too:
        a deterministic result already landed, the report is noise.
        """
        self._expire_stale()
        state = self._units.get(unit_id)
        if state is None:
            return "unknown"
        if state["status"] != "leased" or lease_id != state["lease_id"]:
            return "stale"
        self.failures_reported += 1
        return "quarantined" if self._strike(state, error) else "failed"

    def complete(self, unit_id: str, lease_id: str | None) -> str:
        """Record one completion: ``accepted`` / ``duplicate`` / ``unknown``.

        First completion wins; anything after is a ``duplicate`` and
        must change no state.  A completion under a *stale* lease (the
        unit expired and was re-leased, but the original worker finished
        anyway) is still accepted when the unit is open — results are
        deterministic, so whoever lands first lands the same bytes —
        and counted in ``late_completions``.  Quarantine is terminal:
        a completion arriving after quarantine is answered
        ``quarantined`` and merges nothing.
        """
        state = self._units.get(unit_id)
        if state is None:
            return "unknown"
        if state["status"] == "completed":
            self.duplicates += 1
            return "duplicate"
        if state["status"] == "quarantined":
            return "quarantined"
        if state["status"] == "leased" and lease_id != state["lease_id"]:
            self.late_completions += 1
        state["status"] = "completed"
        state["lease_id"] = None
        state["worker"] = None
        self.completions += 1
        return "accepted"

    def mark_completed(self, unit_id: str) -> None:
        """Pre-complete one unit (boot-time cache hits lease nothing)."""
        state = self._units[unit_id]
        if state["status"] != "completed":
            state["status"] = "completed"
            self.completions += 1

    def done(self) -> bool:
        """Whether every unit reached a terminal state.

        Completed and quarantined both count: a campaign with a poison
        unit drains to a partial-but-honest result (the quarantine is
        reported) rather than re-leasing it forever.
        """
        return all(
            state["status"] in ("completed", "quarantined") for state in self._units.values()
        )

    def fully_completed(self) -> bool:
        """Whether every unit completed (no quarantines)."""
        return all(state["status"] == "completed" for state in self._units.values())

    def quarantined(self) -> dict:
        """Quarantined units: ``{unit_id: {"strikes": n, "error": ...}}``."""
        return {
            unit_id: {"strikes": state["strikes"], "error": state["error"]}
            for unit_id, state in self._units.items()
            if state["status"] == "quarantined"
        }

    def counts(self) -> dict:
        """Unit counts by status (stale leases counted as leased)."""
        counts = {"pending": 0, "leased": 0, "completed": 0, "quarantined": 0}
        for state in self._units.values():
            counts[state["status"]] += 1
        return counts

    def snapshot(self) -> dict:
        """Status-endpoint view: per-status counts plus lease counters."""
        return {
            "units": self.counts(),
            "leases_granted": self.leases_granted,
            "leases_expired": self.leases_expired,
            "leases_renewed": self.leases_renewed,
            "completions": self.completions,
            "duplicates": self.duplicates,
            "late_completions": self.late_completions,
            "failures_reported": self.failures_reported,
            "quarantined": self.quarantined(),
        }


class CampaignCoordinator(HttpService):
    """Asyncio HTTP server distributing one campaign as leased work.

    One instance owns the campaign's :class:`LeaseBoard` and the
    :class:`~repro.runtime.campaign.CampaignLedger` it commits through,
    over the cache directory's own journal.
    Boot consults the cache first — already-cached units never reach a
    worker — then serves ``/lease`` / ``/complete`` until the board
    drains, lingers ``linger_s`` so late pollers see ``done``, and
    stops.  The server lifecycle is the shared
    :class:`~repro.runtime.wire.HttpService`; this class adds a
    ``(method, path)`` route table and its handlers.
    """

    def __init__(
        self,
        address: tuple[str, int],
        units,
        config: ExperimentConfig,
        cache: ResultCache | None = None,
        resume: bool = False,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        linger_s: float = DEFAULT_LINGER_S,
        quarantine_strikes: int = DEFAULT_QUARANTINE_STRIKES,
        access_log=None,
        quiet: bool = True,
        clock=time.monotonic,
    ):
        if cache is None:
            raise ValueError("the coordinator requires a result cache to merge into")
        super().__init__(
            address,
            server_name="repro-coordinator",
            quiet=quiet,
            access_log=access_log,
            keepalive_timeout_s=COORDINATOR_READ_TIMEOUT_S,
            max_body=COORDINATOR_MAX_BODY,
        )
        self.config = config
        self.cache = cache
        self.points = PointCache(cache.point_root)
        self.blobs = BlobStore(cache.blob_root)
        self.ledger = CampaignLedger(
            [unit["unit_id"] for unit in units],
            config,
            cache,
            CampaignJournal(cache.root / JOURNAL_NAME),
        )
        self.journal = self.ledger.journal
        self.campaign_id = self.ledger.campaign_id
        self.resume = bool(resume)
        self.linger_s = float(linger_s)
        # Leases ship each unit's fingerprint, taken from the ledger.
        self.units = [
            {**unit, "fingerprint": self.ledger.fingerprints[unit["unit_id"]]} for unit in units
        ]
        self.board = LeaseBoard(
            self.units,
            ttl_s=lease_ttl_s,
            clock=clock,
            quarantine_strikes=quarantine_strikes,
        )
        self._journaled_quarantines: set[str] = set()
        self._results_merged = 0
        self._points_written = 0
        self._points_skipped = 0
        self._linger_armed = False
        #: ``(method, path)`` -> handler(request) -> dict (200 JSON) or a
        #: Response; ``/blobs/`` stands for every ``/blobs/<name>``.
        self._routes = {
            ("GET", "/healthz"): self._healthz,
            ("GET", "/status"): lambda request: self._status_payload(),
            ("GET", "/blobs"): self._blobs,
            ("GET", "/blobs/"): self._serve_blob,
            ("POST", "/lease"): self._lease,
            ("POST", "/renew"): self._renew,
            ("POST", "/fail"): self._fail,
            ("POST", "/complete"): self._complete,
        }

    # ------------------------------------------------------------------
    # Lifecycle hooks: boot, startup line, final report
    # ------------------------------------------------------------------

    async def on_start(self) -> None:
        """Journal the unit plan and pre-complete every cache hit.

        Runs once before the listener accepts: the ledger replays each
        cached unit (journaled ``resumed`` when the journal saw it
        complete before, ``cached`` otherwise) and the board marks it
        completed, so workers only ever see genuinely unfinished work.
        """
        self.ledger.begin(self.resume)
        for unit_id in self.ledger.unit_ids:
            if self.ledger.replay(unit_id) is not None:
                self.board.mark_completed(unit_id)
        self._arm_linger_if_done()

    def banner(self) -> str:
        """The startup line: unit counts, address, campaign id."""
        host, port = self.server_address
        counts = self.board.counts()
        return (
            f"coordinating {len(self.units)} units "
            f"({counts['completed']} already cached) "
            f"on http://{host}:{port} (campaign {self.campaign_id})"
        )

    def stop_report(self) -> str:
        """The final report: board snapshot, then one line per quarantine."""
        state = "drained" if self.drained else "stopped early"
        lines = [f"coordinator {state}: {self.board.snapshot()}"]
        for unit_id, info in self.board.quarantined().items():
            error = (info["error"] or "no traceback reported").splitlines()[-1]
            lines.append(f"QUARANTINED {unit_id}: {info['strikes']} strikes; {error}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Campaign state
    # ------------------------------------------------------------------

    @property
    def drained(self) -> bool:
        """Whether every unit reached a terminal state (the CLI's exit signal).

        Quarantined units count as drained: the campaign delivered a
        partial-but-honest result and *reported* what it could not
        compute, which is success for the control plane — spinning
        forever on a poison unit is the failure mode.
        """
        return self.board.done()

    @property
    def quarantined_units(self) -> dict:
        """Quarantined units with strike counts and last reported error."""
        return self.board.quarantined()

    def _sync_quarantines(self) -> None:
        """Journal any newly quarantined units and arm the drain linger.

        Quarantine can happen lazily (a lease expiry during ``/lease``
        counts the final strike), so every mutating handler funnels
        through here rather than only ``/fail``.
        """
        for unit_id, info in self.board.quarantined().items():
            if unit_id in self._journaled_quarantines:
                continue
            self._journaled_quarantines.add(unit_id)
            if not self.quiet:
                print(
                    f"quarantined {unit_id} after {info['strikes']} strikes",
                    flush=True,
                )
            self.ledger.quarantine(unit_id, info["error"] or "")
        self._arm_linger_if_done()

    def _arm_linger_if_done(self) -> None:
        """Schedule the post-drain stop exactly once."""
        if not self.board.done() or self._linger_armed:
            return
        self._linger_armed = True
        self._loop.call_later(self.linger_s, self._stop.set)

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------

    async def handle(self, request: Request) -> Response:
        """Route one request: 404 unknown path, 405 wrong method, 400 bad body."""
        path = request.target.split("?", 1)[0]
        route = "/blobs/" if path.startswith("/blobs/") else path
        handler = self._routes.get((request.method, route))
        if handler is None:
            if any(known == route for _, known in self._routes):
                return Response(405, error_bytes(f"method {request.method} not allowed"))
            return Response(404, error_bytes(f"unknown path {path}"))
        try:
            answer = handler(request)
        except ValueError as exc:
            return Response(400, error_bytes(str(exc)))
        return answer if isinstance(answer, Response) else Response(200, json_bytes(answer))

    def _healthz(self, request: Request) -> dict:
        return {"status": "ok", "done": self.board.done(), "units": self.board.counts()}

    def _status_payload(self) -> dict:
        return {
            "campaign_id": self.campaign_id,
            "version": current_version(),
            "board": self.board.snapshot(),
            "results_merged": self._results_merged,
            "points_written": self._points_written,
            "points_skipped": self._points_skipped,
        }

    def _blobs(self, request: Request) -> dict:
        return {"blobs": self.blobs.names()}

    def _serve_blob(self, request: Request) -> Response:
        name = request.target.split("?", 1)[0][len("/blobs/") :]
        data = self.blobs.read_raw(name)  # ValueError (400) on a bad name
        if data is None:
            return Response(404, error_bytes(f"no blob {name!r}"))
        return Response(200, data, content_type="application/octet-stream")

    def _lease(self, request: Request) -> dict:
        payload = _json_body(request)
        worker = str(payload.get("worker", "anonymous"))
        if self.board.done():
            self._arm_linger_if_done()
            return {"status": "done", "campaign_id": self.campaign_id}
        leased = self.board.lease(worker)
        # Leasing expires stale leases lazily, and an expiry can be the
        # strike that quarantines a unit — sync before answering.
        self._sync_quarantines()
        if leased is None:
            if self.board.done():
                return {"status": "done", "campaign_id": self.campaign_id}
            return {"status": "wait", "retry_after_s": DEFAULT_RETRY_AFTER_S}
        unit, lease_id = leased
        return {
            "status": "lease",
            "lease_id": lease_id,
            "ttl_s": self.board.ttl_s,
            "unit": unit,
            "config": config_to_wire(self.config),
            "version": current_version(),
            "campaign_id": self.campaign_id,
        }

    def _complete(self, request: Request) -> dict | Response:
        payload = _json_body(request)
        unit_id = _unit_id(payload)
        fingerprint = payload.get("fingerprint")
        expected = self.ledger.fingerprints.get(unit_id)
        if expected is None:
            error = {"status": "unknown", "error": f"unknown unit {unit_id!r}"}
            return Response(409, json_bytes(error))
        if fingerprint != expected:
            # Version or config skew: the worker computed a different
            # cache key than this campaign's.  Reject rather than merge
            # bytes that belong to another fingerprint.
            error = {
                "status": "rejected",
                "error": f"fingerprint mismatch for {unit_id!r}: "
                f"got {fingerprint!r}, expected {expected!r}",
            }
            return Response(409, json_bytes(error))
        # Validate before the board records the completion: a refused post
        # (400) must leave the unit leased and the stores untouched.
        points = payload.get("points") or {}
        if not isinstance(points, dict):
            raise ValueError("completion points must be a JSON object")
        fingerprint_of = point_fingerprinter(self.config, current_version())
        for point_fp, text in points.items():
            entry = self.points.check_shipped(point_fp, text)
            if fingerprint_of(entry.context) != point_fp:
                raise ValueError(f"point entry {point_fp} does not hash to its fingerprint")
        try:
            result = result_from_payload(payload["result"])
            wall_s = as_float(payload.get("wall_s", 0.0), "wall_s")
            if wall_s is None:
                raise TypeError("'wall_s' is null")
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed result for {unit_id!r}: {exc!r}") from None
        if result.experiment_id != unit_id:
            raise ValueError(f"result for {result.experiment_id!r} posted as {unit_id!r}")
        verdict = self.board.complete(unit_id, payload.get("lease_id"))
        if verdict == "accepted":
            self._merge(unit_id, points, result, wall_s)
            self._arm_linger_if_done()
        return {"status": verdict, "done": self.board.done()}

    def _renew(self, request: Request) -> dict:
        payload = _json_body(request)
        verdict = self.board.renew(_unit_id(payload), payload.get("lease_id"))
        self._sync_quarantines()
        return {"status": verdict, "done": self.board.done()}

    def _fail(self, request: Request) -> dict:
        payload = _json_body(request)
        error = payload.get("error")
        verdict = self.board.fail(
            _unit_id(payload),
            payload.get("lease_id"),
            error=str(error) if error is not None else None,
        )
        self._sync_quarantines()
        return {"status": verdict, "done": self.board.done()}

    def _merge(self, unit_id: str, points: dict, result, wall_s: float) -> None:
        """Write one accepted, already validated completion to the stores.

        The point store writes each shipped entry verbatim (if absent),
        so the merged store is byte-identical to one a single-host run
        would produce; the result is committed through the ledger a local
        campaign run commits through, so the journal classifies the unit
        exactly as a local recompute (``recomputed`` when a prior run had
        completed it, ``fresh`` otherwise).
        """
        for point_fp, text in points.items():
            if self.points.store_shipped(point_fp, text):
                self._points_written += 1
            else:
                self._points_skipped += 1
        self.ledger.commit(unit_id, result, wall_s)
        self._results_merged += 1


def _json_body(request: Request) -> dict:
    """Parse a POST body as a JSON object (400 via ValueError otherwise)."""
    if not request.body:
        return {}
    try:
        payload = json.loads(request.body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        raise ValueError("request body is not valid JSON") from None
    if not isinstance(payload, dict):
        raise ValueError("request body must be a JSON object")
    return payload


def _unit_id(payload: dict) -> str:
    """A request's ``unit_id``: a non-empty string, else 400 (ValueError)."""
    unit_id = payload.get("unit_id")
    if not isinstance(unit_id, str) or not unit_id:
        raise ValueError(f"unit_id must be a non-empty string, got {type(unit_id).__name__}")
    return unit_id


def make_coordinator(
    targets,
    cache_dir,
    config: ExperimentConfig | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
    resume: bool = False,
    lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
    linger_s: float = DEFAULT_LINGER_S,
    quarantine_strikes: int = DEFAULT_QUARANTINE_STRIKES,
    access_log=None,
    quiet: bool = True,
) -> CampaignCoordinator:
    """Build an unstarted coordinator for CLI targets over one cache dir."""
    return CampaignCoordinator(
        (host, port),
        resolve_work_units(targets),
        config or ExperimentConfig(),
        cache=ResultCache(cache_dir),
        resume=resume,
        lease_ttl_s=lease_ttl_s,
        linger_s=linger_s,
        quarantine_strikes=quarantine_strikes,
        access_log=access_log,
        quiet=quiet,
    )


__all__ = [
    "COORDINATOR_MAX_BODY",
    "COORDINATOR_READ_TIMEOUT_S",
    "DEFAULT_LEASE_TTL_S",
    "DEFAULT_LINGER_S",
    "DEFAULT_QUARANTINE_STRIKES",
    "DEFAULT_RETRY_AFTER_S",
    "CampaignCoordinator",
    "LeaseBoard",
    "make_coordinator",
    "resolve_work_units",
]
