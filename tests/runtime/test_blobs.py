"""Model plane tests: content-addressed blobs, manifests, spilled workloads."""

import numpy as np
import pytest

from repro.core.experiment import ExperimentConfig
from repro.core.session import AcceleratorSession
from repro.fpga.board import make_board
from repro.models.builders import graph_from_manifest, graph_manifest
from repro.models.zoo import (
    _build_cached,
    build,
    workload_plane_key,
)
from repro.runtime.blobs import (
    BlobStore,
    active_blob_store,
    array_key,
    blob_plane,
    maybe_blob_plane,
)

CFG = ExperimentConfig(repeats=2, samples=16)

BUILD_KWARGS = dict(
    weight_bits=8, pruned=False, prune_sparsity=0.5,
    samples=CFG.samples, width_scale=CFG.width_scale, seed=CFG.seed,
)


@pytest.fixture()
def store(tmp_path):
    return BlobStore(tmp_path / "blobs")


@pytest.fixture(autouse=True)
def _fresh_build_memo():
    """Each test sees a cold in-process workload memo (plane hits visible)."""
    _build_cached.cache_clear()
    yield
    _build_cached.cache_clear()


class TestBlobStore:
    def test_content_addressing_is_idempotent(self, store):
        a = np.arange(12, dtype=np.float32).reshape(3, 4)
        key1 = store.put_array(a)
        key2 = store.put_array(a.copy())
        assert key1 == key2 == array_key(a)
        assert len(list(store.root.glob("*.npy"))) == 1

    def test_dtype_and_shape_move_the_key(self, store):
        a = np.zeros(4, dtype=np.float32)
        assert store.put_array(a) != store.put_array(a.astype(np.float64))
        assert array_key(a) != array_key(a.reshape(2, 2))

    def test_round_trip_is_bit_exact_and_mmapped(self, store):
        a = np.random.default_rng(0).normal(size=(5, 7)).astype(np.float32)
        loaded = store.get_array(store.put_array(a))
        assert isinstance(loaded, np.memmap)
        assert not loaded.flags.writeable
        assert np.array_equal(loaded, a)
        assert loaded.dtype == a.dtype

    def test_missing_blob_is_a_miss(self, store):
        assert store.get_array("deadbeef" * 4) is None
        assert store.stats.misses == 1

    def test_corrupt_blob_is_deleted_and_recounted(self, store):
        key = store.put_array(np.ones(3, dtype=np.float32))
        store.array_path(key).write_bytes(b"not an npy file")
        assert store.get_array(key) is None
        assert store.stats.corrupt == 1
        assert not store.array_path(key).exists()

    def test_manifest_round_trip(self, store):
        payload = {"format": 1, "nested": {"a": [1, 2.5]}}
        store.put_manifest("name", payload)
        assert store.get_manifest("name") == payload
        assert store.get_manifest("other") is None

    def test_corrupt_manifest_is_a_miss(self, store):
        # Unparseable JSON, and JSON that parses but is not an object:
        # both are retired (counted once, deleted), never re-read.
        for n, text in enumerate(["{broken", "[1, 2]"], start=1):
            store.put_manifest("name", {"x": 1})
            store.manifest_path("name").write_text(text)
            assert store.get_manifest("name") is None
            assert store.stats.corrupt == n
            assert not store.manifest_path("name").exists()
            assert store.get_manifest("name") is None
            assert store.stats.corrupt == n

    def test_raw_files_round_trip_under_the_name_rule(self, store):
        key = store.put_array(np.ones(2, dtype=np.float32))
        store.put_manifest("model", {"arrays": [key]})
        names = store.names()
        assert names == sorted([f"{key}.npy", "m-model.json"])  # no .gitignore
        other = BlobStore(store.root.parent / "other")
        assert [other.write_raw(name, store.read_raw(name)) for name in names] == [True, True]
        assert other.write_raw(names[0], b"ignored") is False  # present: kept
        assert other.get_manifest("model") == {"arrays": [key]}
        assert other.read_raw("absent.npy") is None
        for bad in ("../escape.npy", "/abs.npy", ".hidden", "a/b.npy"):
            with pytest.raises(ValueError, match="invalid blob name"):
                other.write_raw(bad, b"x")
            with pytest.raises(ValueError, match="invalid blob name"):
                other.read_raw(bad)
        assert sorted(p.name for p in store.root.parent.iterdir()) == ["blobs", "other"]

    def test_gitignore_written(self, store):
        store.put_array(np.zeros(1))
        assert (store.root / ".gitignore").read_text() == "*\n"


class TestPlaneScope:
    def test_scope_binding_and_reset(self, store):
        assert active_blob_store() is None
        with blob_plane(store):
            assert active_blob_store() is store
        assert active_blob_store() is None

    def test_maybe_plane_none_is_noop(self):
        with maybe_blob_plane(None):
            assert active_blob_store() is None


class TestGraphManifest:
    def test_graph_round_trip_forward_bit_identical(self, store):
        workload = build("googlenet", **BUILD_KWARGS)
        manifest = graph_manifest(workload.graph, store)
        rebuilt = graph_from_manifest(manifest, store)
        assert rebuilt is not None
        assert rebuilt.name == workload.graph.name
        assert rebuilt.topological_order() == workload.graph.topological_order()
        images = workload.dataset.images
        out_a = workload.graph.forward(images, activation_bits=8)
        out_b = rebuilt.forward(images, activation_bits=8)
        assert np.array_equal(out_a, out_b)

    def test_missing_blob_fails_the_whole_graph(self, store):
        workload = build("vggnet", **BUILD_KWARGS)
        manifest = graph_manifest(workload.graph, store)
        # Remove one referenced blob: the loader must refuse, not guess.
        victim = next(
            key for entry in manifest["nodes"] for key in entry.get("arrays", {}).values()
        )
        store.array_path(victim).unlink()
        assert graph_from_manifest(manifest, store) is None


class TestWorkloadPlane:
    def test_spill_and_reload_measurement_bit_identical(self, store):
        with blob_plane(store):
            fresh = build("vggnet", **BUILD_KWARGS)  # builds, then spills
        _build_cached.cache_clear()
        with blob_plane(store):
            loaded = build("vggnet", **BUILD_KWARGS)  # served from the plane
        assert loaded.graph is not fresh.graph  # genuinely reloaded
        assert store.stats.hits > 0
        assert loaded.variant_label == fresh.variant_label
        assert loaded.clean_accuracy == fresh.clean_accuracy
        assert loaded.exposure == fresh.exposure
        # The acceptance bar: a measurement at a faulty point must be
        # bit-identical whichever construction path produced the model.
        m_fresh = AcceleratorSession(
            make_board(sample=0, cal=CFG.cal), fresh, CFG
        ).run_at(545)
        m_loaded = AcceleratorSession(
            make_board(sample=0, cal=CFG.cal), loaded, CFG
        ).run_at(545)
        assert m_fresh == m_loaded

    def test_plane_key_pins_build_args_and_version(self, monkeypatch):
        base = workload_plane_key("vggnet", 8, False, 0.5, 16, 0.25, 2020)
        assert workload_plane_key("vggnet", 7, False, 0.5, 16, 0.25, 2020) != base
        assert workload_plane_key("vggnet", 8, True, 0.5, 16, 0.25, 2020) != base
        import repro.version

        monkeypatch.setattr(repro.version, "__version__", "0.0.0-test")
        assert workload_plane_key("vggnet", 8, False, 0.5, 16, 0.25, 2020) != base

    def test_torn_plane_falls_back_to_fresh_build(self, store):
        with blob_plane(store):
            build("vggnet", **BUILD_KWARGS)
        # Garbage-collect every array blob: the manifest now dangles.
        for path in store.root.glob("*.npy"):
            path.unlink()
        _build_cached.cache_clear()
        with blob_plane(store):
            rebuilt = build("vggnet", **BUILD_KWARGS)
        assert rebuilt.clean_accuracy > 0.0  # built from scratch, not None

    def test_no_plane_means_no_spill(self, tmp_path):
        build("vggnet", **BUILD_KWARGS)
        assert not list(tmp_path.rglob("*.npy"))

    def test_default_variant_label_pinned_to_built_workload(self):
        """The build-free label (used by model-free sweep driving) must
        track Workload.variant_label exactly."""
        from repro.models.zoo import default_variant_label

        assert default_variant_label("vggnet") == build("vggnet", **BUILD_KWARGS).variant_label
        pruned = dict(BUILD_KWARGS, weight_bits=7, pruned=True)
        assert default_variant_label("vggnet", weight_bits=7, pruned=True) == (
            build("vggnet", **pruned).variant_label
        )
