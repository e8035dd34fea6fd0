"""Dataset construction, file round-trips, and the cosine-softmax scorer."""

import math
import struct

import numpy as np
import pytest

from ogen._tensorio import read_tensor_file, write_tensor_file
from ogen.embedding_store import (
    ClassSplit,
    EmbeddingSet,
    SynthConfig,
    class_probabilities,
    load_embeddings,
    make_synthetic,
    save_embeddings,
)
from ogen.errors import DataError


def tiny_set(dim=4):
    e0 = np.zeros(dim, dtype=np.float32)
    e0[0] = 1.0
    e1 = np.zeros(dim, dtype=np.float32)
    e1[1] = 1.0
    feats0 = np.stack([e0, e0])
    feats1 = np.stack([e1])
    return EmbeddingSet(
        dim=dim,
        class_names=("a", "b"),
        class_embeddings=np.stack([e0, e1]),
        image_features=(feats0, feats1),
        split=ClassSplit(base=(0,), new=(1,)),
    )


def write_dataset(path, classes, split=((0,), ()), **meta):
    """Handcraft a dataset file; classes = [(name, emb list, [feat lists])];
    meta entries override the manifest's."""
    dim = len(classes[0][1])
    feats = [f for _, _, fs in classes for f in fs]
    tensors = {
        "class_embeddings": np.asarray([emb for _, emb, _ in classes], dtype=np.float32),
        "image_features": np.asarray(feats, dtype=np.float32).reshape(len(feats), dim),
    }
    manifest = {
        "format": "ogen-embeddings",
        "version": 2,
        "class_names": [name for name, _, _ in classes],
        "counts": [len(fs) for _, _, fs in classes],
        "base": list(split[0]),
        "new": list(split[1]),
    }
    manifest.update(meta)
    write_tensor_file(path, tensors, manifest)


class TestValidation:
    def test_unit_norm_enforced(self):
        bad = np.ones((2, 4), dtype=np.float32)  # norm 2 rows
        with pytest.raises(DataError, match="unit-norm"):
            EmbeddingSet(
                dim=4,
                class_names=("a", "b"),
                class_embeddings=bad,
                image_features=(bad[:1], bad[1:]),
                split=ClassSplit(base=(0,), new=(1,)),
            )

    @pytest.mark.parametrize("where", ["class_embeddings", "image_features"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vector_rejected(self, where, bad):
        ds = tiny_set()
        arrays = {"class_embeddings": ds.class_embeddings.copy(), "image_features": ds.image_features[0].copy()}
        arrays[where][0, 0] = bad
        with pytest.raises(DataError, match="0 is not unit-norm"):
            EmbeddingSet(
                dim=ds.dim,
                class_names=ds.class_names,
                class_embeddings=arrays["class_embeddings"],
                image_features=(arrays["image_features"], ds.image_features[1]),
                split=ds.split,
            )

    def test_duplicate_names_rejected(self):
        ds = tiny_set()
        with pytest.raises(DataError, match="unique"):
            EmbeddingSet(
                dim=ds.dim,
                class_names=("a", "a"),
                class_embeddings=ds.class_embeddings,
                image_features=ds.image_features,
                split=ds.split,
            )

    def test_split_must_reference_existing_classes(self):
        ds = tiny_set()
        with pytest.raises(DataError, match="references class 7"):
            EmbeddingSet(
                dim=ds.dim,
                class_names=ds.class_names,
                class_embeddings=ds.class_embeddings,
                image_features=ds.image_features,
                split=ClassSplit(base=(0, 7), new=()),
            )

    def test_every_class_needs_features(self):
        ds = tiny_set()
        with pytest.raises(DataError, match="no image features"):
            EmbeddingSet(
                dim=ds.dim,
                class_names=ds.class_names,
                class_embeddings=ds.class_embeddings,
                image_features=(ds.image_features[0], np.empty((0, 4), dtype=np.float32)),
                split=ds.split,
            )

    def test_immutable_after_construction(self):
        ds = tiny_set()
        with pytest.raises(ValueError):
            ds.class_embeddings[0, 0] = 5.0

    def test_split_features_stack_each_split_once(self):
        ds = make_synthetic(SynthConfig(num_classes=6, dim=8, per_class=3, seed=2))
        base, new = ds._split_features
        assert ds._split_features[0] is base
        for stacked, classes in ((base, ds.split.base), (new, ds.split.new)):
            assert stacked.dtype == np.float64 and not stacked.flags.writeable
            expected = np.concatenate([ds.image_features[c].astype(np.float64) for c in classes])
            np.testing.assert_array_equal(stacked, expected)


class TestFileFormat:
    def test_round_trip_is_identity(self, tmp_path):
        ds = make_synthetic(SynthConfig(num_classes=6, dim=8, per_class=5, seed=3))
        path = tmp_path / "d.oef"
        save_embeddings(ds, path)
        loaded = load_embeddings(path)
        assert loaded.class_names == ds.class_names
        assert loaded.split == ds.split
        np.testing.assert_array_equal(loaded.class_embeddings, ds.class_embeddings)
        for a, b in zip(loaded.image_features, ds.image_features):
            np.testing.assert_array_equal(a, b)

    def test_round_trip_bytes_identical(self, tmp_path):
        ds = make_synthetic(SynthConfig(num_classes=5, dim=16, per_class=4, seed=9))
        p1, p2 = tmp_path / "a.oef", tmp_path / "b.oef"
        save_embeddings(ds, p1)
        save_embeddings(load_embeddings(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_valid_two_class_file_normalized(self, tmp_path):
        # stored vectors are scaled; loader must bring all norms to 1
        e = [2.0, 0.0, 0.0, 0.0]
        f = [0.0, 3.0, 0.0, 0.0]
        path = tmp_path / "t.oef"
        write_dataset(path, [("a", e, [f]), ("b", f, [e])], split=((0,), (1,)))
        ds = load_embeddings(path)
        assert ds.num_classes == 2
        norms = np.linalg.norm(ds.class_embeddings.astype(np.float64), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-6)
        for feats in ds.image_features:
            np.testing.assert_allclose(
                np.linalg.norm(feats.astype(np.float64), axis=1), 1.0, atol=1e-6
            )

    def test_short_record_names_the_record(self, tmp_path):
        # the manifest declares (1, 8) class embeddings but the file
        # stops after 7 floats; the error names the tensor it was reading
        path = tmp_path / "short.oef"
        write_dataset(path, [("a", [1.0] + [0.0] * 7, [[1.0] + [0.0] * 7])])
        raw = path.read_bytes()
        (mlen,) = struct.unpack("<I", raw[:4])
        path.write_bytes(raw[: 4 + mlen + 7 * 4])
        with pytest.raises(DataError, match="class_embeddings"):
            load_embeddings(path)

    def test_zero_vector_rejected(self, tmp_path):
        e = [1.0, 0.0, 0.0, 0.0]
        z = [0.0, 0.0, 0.0, 0.0]
        path = tmp_path / "z.oef"
        write_dataset(path, [("a", e, [z])])
        with pytest.raises(DataError, match="zero norm"):
            load_embeddings(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vector_rejected(self, tmp_path, bad):
        e = [1.0, 0.0, 0.0, 0.0]
        path = tmp_path / "nan.oef"
        write_dataset(path, [("a", e, [e, [bad, 0.0, 0.0, 0.0]])])
        with pytest.raises(DataError, match="class 0 image feature 1 is not unit-norm"):
            load_embeddings(path)

    def test_duplicate_name_in_file(self, tmp_path):
        e0 = [1.0, 0.0, 0.0, 0.0]
        e1 = [0.0, 1.0, 0.0, 0.0]
        path = tmp_path / "dup.oef"
        write_dataset(path, [("x", e0, [e0]), ("x", e1, [e1])], split=((0, 1), ()))
        with pytest.raises(DataError, match="duplicate class name 'x'"):
            load_embeddings(path)

    def test_bad_magic(self, tmp_path):
        # the format field of the manifest takes the place of magic bytes
        path = tmp_path / "junk.oef"
        write_dataset(path, [("a", [1.0, 0.0], [[1.0, 0.0]])], format="ogen-generator")
        with pytest.raises(DataError, match="not an ogen-embeddings file"):
            load_embeddings(path)
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(DataError, match="truncated manifest"):
            load_embeddings(path)
        for manifest in (b"[1]", b"7"):
            path.write_bytes(struct.pack("<I", len(manifest)) + manifest)
            with pytest.raises(DataError, match="not an object with a tensor list"):
                load_embeddings(path)

    @pytest.mark.parametrize(
        "meta",
        [
            {"version": 3},
            {"class_names": "a"},
            {"class_names": [1]},
            {"counts": [1.0]},
            {"counts": [True]},
            {"counts": [2]},  # sums to more than the stored features
            {"counts": [1, 0]},  # one more count than class names
            {"base": [-1]},
            {"new": None},
        ],
        ids=["version_3", "names_not_a_list", "name_not_a_string", "count_a_float", "count_a_bool",
             "counts_not_summing_to_n", "counts_too_long", "negative_class_index", "new_missing"],
    )
    def test_malformed_manifest_is_data_error(self, tmp_path, meta):
        path = tmp_path / "m.oef"
        write_dataset(path, [("a", [1.0, 0.0], [[1.0, 0.0]])], **meta)
        with pytest.raises(DataError):
            load_embeddings(path)

    def test_version_1_file_says_to_regenerate(self, tmp_path):
        path = tmp_path / "old.oef"
        path.write_bytes(b"OGEN" + struct.pack("<III", 1, 4, 1) + b"\x00" * 32)
        with pytest.raises(DataError, match="version-1 dataset.*ogen gen-data"):
            load_embeddings(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_embeddings(tmp_path / "absent.oef")
        with pytest.raises(DataError, match="no such file"):
            load_embeddings(tmp_path)  # a directory

    def test_numpy_split_indices_are_written(self, tmp_path):
        ds = tiny_set()
        ds = EmbeddingSet(dim=ds.dim, class_names=ds.class_names, class_embeddings=ds.class_embeddings,
                          image_features=ds.image_features, split=ClassSplit(base=(np.int64(0),), new=(np.int64(1),)))
        save_embeddings(ds, tmp_path / "np.oef")
        assert load_embeddings(tmp_path / "np.oef").split == ClassSplit(base=(0,), new=(1,))

    def test_file_holds_one_block_per_tensor(self, tmp_path):
        ds = make_synthetic(SynthConfig(num_classes=5, dim=8, per_class=3, seed=4))
        save_embeddings(ds, tmp_path / "d.oef")
        tensors, meta = read_tensor_file(tmp_path / "d.oef")
        assert (meta["format"], meta["version"]) == ("ogen-embeddings", 2)
        assert meta["counts"] == [3] * 5 and meta["class_names"] == list(ds.class_names)
        assert (meta["base"], meta["new"]) == (list(ds.split.base), list(ds.split.new))
        np.testing.assert_array_equal(tensors["class_embeddings"], ds.class_embeddings)
        np.testing.assert_array_equal(tensors["image_features"], np.concatenate(ds.image_features))
        # the loaded per-class arrays are views of one block
        loaded = load_embeddings(tmp_path / "d.oef")
        block = loaded.image_features[0].base
        assert block.shape == (15, 8) and all(f.base is block for f in loaded.image_features)


class TestSynthetic:
    def test_zero_noise_features_equal_embeddings(self):
        ds = make_synthetic(
            SynthConfig(num_classes=4, dim=8, per_class=3, image_noise=0.0, text_noise=0.0, seed=1)
        )
        for c in range(4):
            for row in ds.image_features[c]:
                np.testing.assert_array_equal(row, ds.class_embeddings[c])

    def test_zero_noise_nearest_centroid_perfect(self):
        ds = make_synthetic(
            SynthConfig(num_classes=6, dim=8, per_class=4, image_noise=0.0, text_noise=0.0, seed=2)
        )
        emb = ds.class_embeddings.astype(np.float64)
        hits = total = 0
        for c in range(ds.num_classes):
            for row in ds.image_features[c]:
                hits += int(np.argmax(emb @ row.astype(np.float64)) == c)
                total += 1
        assert hits == total

    def test_deterministic_per_seed(self):
        cfg = SynthConfig(num_classes=7, dim=12, per_class=5, seed=42)
        a, b = make_synthetic(cfg), make_synthetic(cfg)
        np.testing.assert_array_equal(a.class_embeddings, b.class_embeddings)
        for fa, fb in zip(a.image_features, b.image_features):
            np.testing.assert_array_equal(fa, fb)
        assert a.split == b.split

    def test_split_sizes(self):
        cfg = SynthConfig(num_classes=10, dim=8, per_class=2, base_fraction=0.3, seed=0)
        ds = make_synthetic(cfg)
        assert len(ds.split.base) == math.ceil(0.3 * 10)
        assert len(ds.split.new) == 10 - len(ds.split.base)
        assert not set(ds.split.base) & set(ds.split.new)

    def test_benchmark_nearest_centroid_matches_oracle(self):
        # exhaustive nearest-centroid pass over the generated set; the
        # expected value is frozen from the oracle itself
        ds = make_synthetic(SynthConfig(num_classes=50, dim=64, per_class=40, image_noise=0.15, seed=0))
        emb = ds.class_embeddings.astype(np.float64)
        hits = total = 0
        for c in range(ds.num_classes):
            for row in ds.image_features[c]:
                scores = [float(emb[j] @ row.astype(np.float64)) for j in range(ds.num_classes)]
                hits += int(max(range(ds.num_classes), key=lambda j: scores[j]) == c)
                total += 1
        oracle_acc = hits / total
        # vectorized pass must agree with the explicit loop
        all_feats = np.concatenate([f.astype(np.float64) for f in ds.image_features])
        labels = np.repeat(np.arange(ds.num_classes), [f.shape[0] for f in ds.image_features])
        vec_acc = float(np.mean(np.argmax(all_feats @ emb.T, axis=1) == labels))
        assert vec_acc == oracle_acc
        # frozen from the oracle pass above (text_noise default 0.4)
        assert oracle_acc == 0.2735

    def test_config_validation(self):
        with pytest.raises(DataError):
            SynthConfig(num_classes=1, dim=8, per_class=2).validate()
        with pytest.raises(DataError):
            SynthConfig(num_classes=3, dim=8, per_class=2, base_fraction=0.0).validate()
        with pytest.raises(DataError):
            SynthConfig(num_classes=3, dim=8, per_class=2, image_noise=-0.1).validate()
        with pytest.raises(DataError, match="seed"):
            SynthConfig(num_classes=3, dim=8, per_class=2, seed=-1).validate()


class TestClassProbabilities:
    def test_dominant_logit(self):
        w = np.eye(4)[:, :3]  # three orthogonal classes
        z = w[:, 1]
        p = class_probabilities(z, w, tau=0.005)
        assert p[1] > 0.999999
        np.testing.assert_allclose(p.sum(), 1.0, atol=1e-9)

    def test_two_way_symmetry(self):
        # both classes at the same cosine to the feature
        z = np.array([1.0, 0.0])
        w = np.array([[0.5, 0.5], [0.8660254037844386, -0.8660254037844386]])
        for tau in (0.01, 0.1, 1.0):
            p = class_probabilities(z, w, tau)
            np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-12)

    def test_scale_invariance_exact_for_power_of_two(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal(8)
        w = rng.standard_normal((8, 5))
        p1 = class_probabilities(z, w, 0.05)
        p2 = class_probabilities(2.0 * z, w, 0.05)
        np.testing.assert_array_equal(p1, p2)

    def test_scale_invariance_general(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal(8)
        w = rng.standard_normal((8, 5))
        p1 = class_probabilities(z, w, 0.05)
        p2 = class_probabilities(3.7 * z, w, 0.05)
        np.testing.assert_allclose(p1, p2, rtol=1e-12)

    def test_properties_random(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            d = int(rng.integers(2, 16))
            C = int(rng.integers(2, 12))
            z = rng.standard_normal(d)
            w = rng.standard_normal((d, C))
            tau = float(rng.uniform(0.01, 2.0))
            p = class_probabilities(z, w, tau)
            assert abs(p.sum() - 1.0) < 1e-9
            assert np.all(p > 0.0) and np.all(p < 1.0)

    def test_tau_must_be_positive(self):
        with pytest.raises(ValueError):
            class_probabilities(np.ones(3), np.eye(3), 0.0)
