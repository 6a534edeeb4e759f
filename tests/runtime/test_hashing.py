"""Fingerprint stability and sensitivity tests."""

import hashlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.version
from repro.core.experiment import ExperimentConfig
from repro.runtime.hashing import (
    FINGERPRINT_LEN,
    canonical_json,
    config_fingerprint,
    current_version,
    point_fingerprint,
    point_fingerprinter,
)


class TestPinned:
    """Literal cache keys: a change that moves them retires every store.

    Deleting code paths or config knobs that are excluded from hashing
    (execution-only fields like ``repeat_mode``) must leave these exact
    values in place.
    """

    def test_config_fingerprint_is_pinned(self):
        assert config_fingerprint("fig3", ExperimentConfig(), version="1.2.0") == (
            "abb61e18d425bfc2"
        )

    def test_point_fingerprint_is_pinned(self):
        context = {
            "benchmark": "vggnet",
            "variant": "vggnet-int8",
            "board": 0,
            "vccint_mv": 850.0,
            "f_mhz": 333.0,
            "t_setpoint_c": None,
        }
        fingerprint = point_fingerprint(context, ExperimentConfig(), version="1.2.0")
        assert fingerprint == "0ef82e583517a08c"


class TestStability:
    def test_same_inputs_same_fingerprint(self):
        a = config_fingerprint("fig3", ExperimentConfig())
        b = config_fingerprint("fig3", ExperimentConfig())
        assert a == b
        assert len(a) == FINGERPRINT_LEN
        int(a, 16)  # hex

    def test_equal_configs_built_differently(self):
        base = ExperimentConfig(seed=7, repeats=2)
        rebuilt = ExperimentConfig().with_overrides(seed=7, repeats=2)
        assert config_fingerprint("t", base) == config_fingerprint("t", rebuilt)


class TestSensitivity:
    BASE = ExperimentConfig()

    @pytest.mark.parametrize(
        "override",
        [
            {"seed": 2021},
            {"repeats": 4},
            {"samples": 32},
            {"v_step": 0.010},
            {"width_scale": 0.5},
            {"accuracy_tolerance": 0.02},
        ],
    )
    def test_every_config_knob_changes_the_key(self, override):
        changed = self.BASE.with_overrides(**override)
        assert config_fingerprint("fig3", changed) != config_fingerprint("fig3", self.BASE)

    @pytest.mark.parametrize(
        "override",
        [
            {"point_batch": 1},
            {"batch_budget": 128},
            {"point_batch": 16, "batch_budget": 64},
        ],
    )
    def test_execution_mode_keeps_the_key(self, override):
        """Execution knobs never change results, so flipping them must
        keep warm caches valid (and pre-knob fingerprints stable)."""
        changed = self.BASE.with_overrides(**override)
        assert config_fingerprint("fig3", changed) == config_fingerprint("fig3", self.BASE)

    def test_calibration_override_changes_the_key(self):
        changed = self.BASE.with_overrides(cal=self.BASE.cal.with_overrides(p_total_vnom=13.0))
        assert config_fingerprint("fig3", changed) != config_fingerprint("fig3", self.BASE)

    def test_experiment_id_changes_the_key(self):
        assert config_fingerprint("fig3", self.BASE) != config_fingerprint("fig4", self.BASE)

    def test_version_changes_the_key(self, monkeypatch):
        before = config_fingerprint("fig3", self.BASE)
        monkeypatch.setattr(repro.version, "__version__", "999.0.0")
        assert config_fingerprint("fig3", self.BASE) != before

    def test_explicit_version_argument(self):
        assert config_fingerprint("fig3", self.BASE, version="1.0.0") != config_fingerprint(
            "fig3", self.BASE, version="2.0.0"
        )


def payload_point_fingerprint(context, config, version=None):
    """The per-call payload formula, kept as the oracle."""
    payload = {
        "kind": "sweep-point",
        "context": context,
        "config": config.point_semantic_dict(),
        "version": current_version() if version is None else version,
    }
    digest = hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
    return digest[:FINGERPRINT_LEN]


CONTEXT_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(10**6), max_value=10**6),
        st.floats(allow_nan=False),
        st.text(max_size=8),
    ),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=8,
)
CONTEXTS = st.dictionaries(st.text(max_size=6), CONTEXT_VALUES, max_size=6)
CONFIGS = st.sampled_from(
    [
        ExperimentConfig(),
        ExperimentConfig(seed=7, repeats=1, samples=8),
        ExperimentConfig(cal=ExperimentConfig().cal.with_overrides(p_total_vnom=13.0)),
    ]
)


class TestBoundFingerprinter:
    """``point_fingerprinter`` hashes exactly the original payload."""

    @settings(max_examples=200, deadline=None)
    @given(
        context=CONTEXTS,
        config=CONFIGS,
        version=st.one_of(st.none(), st.sampled_from(["1.2.0", "ü-2"])),
    )
    @example(context={}, config=ExperimentConfig(), version=None)
    @example(
        context={"a": None, "b": 1, "c": 1.0, "d": [[1, [2.5, None]], []], "é": "naïve ✓"},
        config=ExperimentConfig(),
        version="1.2.0",
    )
    def test_matches_the_payload_formula(self, context, config, version):
        oracle = payload_point_fingerprint(context, config, version)
        assert point_fingerprinter(config, version)(context) == oracle
        assert point_fingerprint(context, config, version) == oracle

    def test_int_and_float_contexts_stay_distinct(self):
        bound = point_fingerprinter(ExperimentConfig())
        assert bound({"v": 1}) != bound({"v": 1.0})

    def test_version_is_read_at_bind_time(self, monkeypatch):
        context = {"vccint_mv": 850.0}
        bound = point_fingerprinter(ExperimentConfig())
        before = bound(context)
        monkeypatch.setattr(repro.version, "__version__", "999.0.0")
        assert bound(context) == before
        rebound = point_fingerprinter(ExperimentConfig())
        assert rebound(context) != before
        assert rebound(context) == payload_point_fingerprint(context, ExperimentConfig())
