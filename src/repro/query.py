"""Public query API over the characterization database.

This is the stable client surface for consuming a characterization
campaign's output — the per-voltage-point store and journal a
``repro-undervolt campaign``/``sweep`` run leaves under its cache
directory.  Everything here re-exports from
:mod:`repro.runtime.query`, where the implementation (and its internals)
lives; downstream code should import from ``repro.query``.

Typical use::

    from repro.query import open_index

    index = open_index(".repro-cache")
    index.landmarks("vggnet", board=0)       # Vmin/Vcrash per dataset
    index.point("vggnet", 570.0, board=0)    # one measured operating point
    index.guardband("vggnet")                # per-board guardband map
    index.stats()                            # service counters

On a miss the index can *compute through* — ``landmarks(...,
compute=True)`` runs the missing sweep in the calling thread
(concurrent requests for the same work coalesce into one computation)
and every measured point lands in the shared store for the next reader.
Compute fills only the benchmark's default variant at a free-running
fan; asking it for another variant or a temperature setpoint raises
``ValueError``.
The same index instance backs the HTTP service (:mod:`repro.serve`).
"""

from repro.runtime.query import (
    EXACT_TOLERANCE_MV,
    CharacterizationIndex,
    DatasetKey,
    RequestCoalescer,
    open_index,
    to_json,
)

__all__ = [
    "EXACT_TOLERANCE_MV",
    "CharacterizationIndex",
    "DatasetKey",
    "RequestCoalescer",
    "open_index",
    "to_json",
]
