"""ExecutionPlan validation and config wire round-trips.

The plan's contract: one frozen value describes *how* a campaign
executes (worker count and sweep dispatch).  That execution fields never
move a fingerprint is pinned in ``tests/runtime/test_hashing.py``.  The
config, not the plan, is what the distributed fabric ships: it must
survive a JSON round-trip with its fingerprints intact.
"""

import json

import pytest

from repro.core.experiment import ExperimentConfig
from repro.runtime.hashing import config_fingerprint
from repro.runtime.plan import (
    ExecutionPlan,
    config_from_wire,
    config_to_wire,
)

CFG = ExperimentConfig(repeats=1, samples=8)


class TestValidation:
    def test_defaults(self):
        plan = ExecutionPlan()
        assert plan.jobs == 1
        assert plan.dispatch == "unit"

    def test_bad_dispatch_is_value_error(self):
        """The historical run_sweep_campaign contract: ValueError, not CampaignError."""
        with pytest.raises(ValueError):
            ExecutionPlan(dispatch="nope")

    def test_jobs_normalized_and_auto_kept(self):
        assert ExecutionPlan(jobs="3").jobs == 3
        assert ExecutionPlan(jobs="auto").jobs == "auto"
        assert ExecutionPlan(jobs="auto").resolved_jobs() >= 1
        with pytest.raises(ValueError):
            ExecutionPlan(jobs=0)
        with pytest.raises(ValueError):
            ExecutionPlan(jobs="many")


class TestWire:
    def test_unknown_config_wire_field_rejected(self):
        """A retired knob from an older peer is named, not a TypeError."""
        wired = {**config_to_wire(CFG), "repeat_mode": "batched"}
        with pytest.raises(ValueError, match=r"wire fields: \['repeat_mode'\]"):
            config_from_wire(wired)

    def test_config_round_trip_preserves_fingerprints(self):
        """The byte-identity contract: a worker's rebuilt config keys
        the exact same cache entries as the coordinator's original."""
        config = ExperimentConfig(repeats=2, samples=8, v_step=0.02, strategy="adaptive")
        wired = json.loads(json.dumps(config_to_wire(config)))
        rebuilt = config_from_wire(wired)
        assert rebuilt == config
        assert rebuilt.cal == config.cal
        for unit_id in ("fig3", "sweep:vggnet:board0"):
            assert config_fingerprint(unit_id, rebuilt) == config_fingerprint(unit_id, config)
