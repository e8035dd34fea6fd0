"""Dataset construction, file round-trips, and the cosine-softmax scorer."""

import builtins
import math
import struct
import tracemalloc

import numpy as np
import pytest
from conftest import class_rows

import ogen._tensorio
from ogen._tensorio import read_tensor_file, write_tensor_file
from ogen.embedding_store import (
    ClassSplit,
    EmbeddingSet,
    SynthConfig,
    _row_norms,
    load_embeddings,
    make_synthetic,
    save_embeddings,
)
from ogen.errors import DataError
from ogen.objective import class_probabilities


def tiny_set(dim=4):
    e0 = np.zeros(dim, dtype=np.float32)
    e0[0] = 1.0
    e1 = np.zeros(dim, dtype=np.float32)
    e1[1] = 1.0
    return EmbeddingSet(
        dim=dim,
        class_names=("a", "b"),
        class_embeddings=np.stack([e0, e1]),
        image_features=np.stack([e0, e0, e1]),
        counts=(2, 1),
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
                image_features=bad,
                counts=(1, 1),
                split=ClassSplit(base=(0,), new=(1,)),
            )

    @pytest.mark.parametrize("where", ["class_embeddings", "image_features"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vector_rejected(self, where, bad):
        ds = tiny_set()
        arrays = {"class_embeddings": ds.class_embeddings.copy(), "image_features": ds.image_features.copy()}
        arrays[where][0, 0] = bad
        with pytest.raises(DataError, match="0 is not unit-norm"):
            EmbeddingSet(
                dim=ds.dim,
                class_names=ds.class_names,
                class_embeddings=arrays["class_embeddings"],
                image_features=arrays["image_features"],
                counts=ds.counts,
                split=ds.split,
            )

    @pytest.mark.parametrize(
        "c, i, value, shown",
        [(1, 2, 2.0, "2"), (2, 4, 0.5, "0.5"), (1, 0, np.nan, "nan")],
        ids=["middle_class", "last_row_of_last_class", "nan_row"],
    )
    def test_bad_row_is_named_by_class_and_row(self, c, i, value, shown):
        # one norm pass over the block still names the class and the row in it
        counts = (3, 4, 5)
        feats = np.repeat(np.eye(4, dtype=np.float32)[:3], counts, axis=0)
        feats[sum(counts[:c]) + i] *= value
        with pytest.raises(DataError) as exc:
            EmbeddingSet(dim=4, class_names=("a", "b", "c"), class_embeddings=np.eye(4, dtype=np.float32)[:3],
                         image_features=feats, counts=counts, split=ClassSplit(base=(0,), new=(1, 2)))
        assert str(exc.value) == f"class {c} image feature {i} is not unit-norm (|v| = {shown})"

    def test_duplicate_names_rejected(self):
        ds = tiny_set()
        with pytest.raises(DataError, match="unique"):
            EmbeddingSet(
                dim=ds.dim,
                class_names=("a", "a"),
                class_embeddings=ds.class_embeddings,
                image_features=ds.image_features,
                counts=ds.counts,
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
                counts=ds.counts,
                split=ClassSplit(base=(0, 7), new=()),
            )

    def test_every_class_needs_features(self):
        ds = tiny_set()
        with pytest.raises(DataError) as exc:
            EmbeddingSet(
                dim=ds.dim,
                class_names=ds.class_names,
                class_embeddings=ds.class_embeddings,
                image_features=ds.image_features[:2],
                counts=(2, 0),
                split=ds.split,
            )
        assert str(exc.value) == "class 1 ('b') has no image features"

    @pytest.mark.parametrize(
        "counts, message",
        [
            ((3,), "counts has 1 entries, not one per class (2)"),
            ((2, 1, 1), "counts has 3 entries, not one per class (2)"),
            ((2, 2), "image_features shape (3, 4) != (sum(counts), d) = (4, 4)"),
            ((1, 1), "image_features shape (3, 4) != (sum(counts), d) = (2, 4)"),
        ],
        ids=["too_few", "too_many", "sum_above_rows", "sum_below_rows"],
    )
    def test_counts_must_describe_the_block(self, counts, message):
        ds = tiny_set()
        with pytest.raises(DataError) as exc:
            EmbeddingSet(dim=ds.dim, class_names=ds.class_names, class_embeddings=ds.class_embeddings,
                         image_features=ds.image_features, counts=counts, split=ds.split)
        assert str(exc.value) == message

    def test_immutable_after_construction(self):
        ds = tiny_set()
        with pytest.raises(ValueError):
            ds.class_embeddings[0, 0] = 5.0
        with pytest.raises(ValueError):
            ds.image_features[0, 0] = 5.0

    def test_split_features_stack_each_split_once(self):
        ds = make_synthetic(SynthConfig(num_classes=6, dim=8, per_class=3, seed=2))
        base, new, base_pos, new_pos, starts = ds._split_features
        assert ds._split_features[0] is base
        for stacked, classes in ((base, ds.split.base), (new, ds.split.new)):
            assert stacked.dtype == np.float64 and not stacked.flags.writeable
            expected = np.concatenate([class_rows(ds, c).astype(np.float64) for c in classes])
            np.testing.assert_array_equal(stacked, expected)
        # each row's class position in its split, and the base classes' row offsets
        for pos, classes in ((base_pos, ds.split.base), (new_pos, ds.split.new)):
            assert not pos.flags.writeable
            np.testing.assert_array_equal(pos, [j for j, c in enumerate(classes) for _ in range(ds.counts[c])])
        assert not starts.flags.writeable
        np.testing.assert_array_equal(starts, np.cumsum([0, *(ds.counts[c] for c in ds.split.base)]))


class TestFileFormat:
    def test_round_trip_is_identity(self, tmp_path):
        ds = make_synthetic(SynthConfig(num_classes=6, dim=8, per_class=5, seed=3))
        path = tmp_path / "d.oef"
        save_embeddings(ds, path)
        loaded = load_embeddings(path)
        assert loaded.class_names == ds.class_names
        assert loaded.split == ds.split
        np.testing.assert_array_equal(loaded.class_embeddings, ds.class_embeddings)
        np.testing.assert_array_equal(loaded.image_features, ds.image_features)
        assert loaded.counts == ds.counts

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
        np.testing.assert_allclose(np.linalg.norm(ds.image_features.astype(np.float64), axis=1), 1.0, atol=1e-6)

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
        # a zero row is named by its index in the stored feature block
        write_dataset(path, [("a", e, [e, e]), ("b", e, [e, z])], split=((0,), (1,)))
        with pytest.raises(DataError) as exc:
            load_embeddings(path)
        assert str(exc.value) == "image feature 3 has zero norm"

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

    def test_valid_file_is_opened_once(self, tmp_path, monkeypatch):
        path = tmp_path / "d.oef"
        save_embeddings(tiny_set(), path)
        opened = []
        real_open = builtins.open
        monkeypatch.setattr(builtins, "open", lambda f, *a, **k: opened.append(f) or real_open(f, *a, **k))
        load_embeddings(path)
        assert opened == [path]

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_embeddings(tmp_path / "absent.oef")
        with pytest.raises(DataError, match="no such file"):
            load_embeddings(tmp_path)  # a directory

    def test_tensors_are_written_from_their_own_buffers(self, tmp_path, monkeypatch):
        # a contiguous array of the stored dtype is written as it is, with no
        # staging copy; any other is converted once, and the bytes are the same
        chunks = []
        monkeypatch.setattr(ogen._tensorio, "write_atomically", lambda path, parts, reuse_aside: chunks.extend(parts))
        f8, f4 = np.arange(6.0).reshape(2, 3), np.arange(4, dtype=np.float32)
        write_tensor_file(tmp_path / "t.bin", {"f8": f8, "f4": f4, "strided": f8.T}, {})
        assert chunks[1].obj is f8 and chunks[2].obj is f4
        assert [bytes(c) for c in chunks[1:]] == [f8.tobytes(), f4.tobytes(), f8.T.tobytes()]

    def test_numpy_split_indices_are_written(self, tmp_path):
        ds = tiny_set()
        ds = EmbeddingSet(dim=ds.dim, class_names=ds.class_names, class_embeddings=ds.class_embeddings,
                          image_features=ds.image_features, counts=ds.counts,
                          split=ClassSplit(base=(np.int64(0),), new=(np.int64(1),)))
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
        assert tensors["image_features"].tobytes() == ds.image_features.tobytes()
        # the loaded set holds the stored block and its counts
        loaded = load_embeddings(tmp_path / "d.oef")
        assert loaded.image_features.shape == (15, 8) and not loaded.image_features.flags.writeable
        assert loaded.image_features.tobytes() == tensors["image_features"].tobytes() and loaded.counts == (3,) * 5


def _reference_synthetic(cfg):
    """make_synthetic as one draw and one normalization per class: the
    reference the batched draw must match bit for bit."""
    rng = np.random.default_rng(cfg.seed)
    C, d, n = cfg.num_classes, cfg.dim, cfg.per_class
    mu = rng.standard_normal((C, d))
    mu /= np.linalg.norm(mu, axis=1, keepdims=True)
    if cfg.text_noise > 0:
        text = mu + cfg.text_noise * rng.standard_normal((C, d))
        text /= np.linalg.norm(text, axis=1, keepdims=True)
    else:
        text = mu.copy()
    feats = []
    for c in range(C):
        if cfg.image_noise > 0:
            block = mu[c] + cfg.image_noise * rng.standard_normal((n, d))
            block /= np.linalg.norm(block, axis=1, keepdims=True)
        else:
            block = np.tile(mu[c], (n, 1))
        feats.append(block.astype(np.float32))
    order = rng.permutation(C)
    n_base = math.ceil(cfg.base_fraction * C)
    return text.astype(np.float32), feats, (tuple(order[:n_base]), tuple(order[n_base:]))


class TestChunkedRows:
    @pytest.mark.parametrize("rows", [0, 1, 255, 256, 257, 2000])
    def test_row_norms_equal_linalg_norm(self, rows):
        x = (np.random.default_rng(rows).standard_normal((rows, 64)) * 3).astype(np.float32)
        expected = np.linalg.norm(x.astype(np.float64), axis=-1)
        assert _row_norms(x).tobytes() == expected.tobytes()
        assert _row_norms(x.astype(np.float64)).tobytes() == expected.tobytes()

    def test_row_norms_of_blocks_straddling_chunks(self):
        # class edges fall on both sides of the 256-row chunk edges; a bad
        # row past the third chunk is still named by its class and its row
        counts = (100, 200, 3, 256, 1, 300, 52)
        rng = np.random.default_rng(5)
        feats = rng.standard_normal((sum(counts), 24)).astype(np.float32)
        expected = np.linalg.norm(feats.astype(np.float64), axis=-1)
        assert _row_norms(feats).tobytes() == expected.tobytes()
        unit = np.eye(24, dtype=np.float32)[np.arange(sum(counts)) % 24]
        unit[sum(counts[:5]) + 7] *= 2  # row 567, in the third chunk: class 5, row 7
        with pytest.raises(DataError) as exc:
            EmbeddingSet(dim=24, class_names=tuple("abcdefg"), class_embeddings=np.eye(7, 24, dtype=np.float32),
                         image_features=unit, counts=counts, split=ClassSplit(base=(0,), new=(1,)))
        assert str(exc.value).startswith("class 5 image feature 7 is not unit-norm")

    @pytest.mark.parametrize(
        "cfg",
        [
            SynthConfig(num_classes=7, dim=64, per_class=40, seed=3),
            SynthConfig(num_classes=7, dim=16, per_class=6, image_noise=0.0),
            SynthConfig(num_classes=300, dim=8, per_class=1, seed=1),
            SynthConfig(num_classes=20, dim=16, per_class=5, text_noise=0.0, base_fraction=1.0),
            SynthConfig(num_classes=13, dim=128, per_class=300, seed=2),
        ],
        ids=["C7_n40", "no_image_noise", "C300_n1_d8", "no_text_noise_all_base", "C13_d128_n300"],
    )
    def test_synthetic_equals_per_class_draws(self, cfg):
        text, feats, (base, new) = _reference_synthetic(cfg)
        ds = make_synthetic(cfg)
        assert ds.class_embeddings.tobytes() == text.tobytes()
        assert ds.counts == (cfg.per_class,) * cfg.num_classes
        for c, want in enumerate(feats):
            got = class_rows(ds, c)
            assert got.dtype == np.float32 and got.shape == want.shape and got.tobytes() == want.tobytes()
        assert ds.split == ClassSplit(base=tuple(map(int, base)), new=tuple(map(int, new)))
        # one read-only (C * n, d) block
        assert ds.image_features.shape == (cfg.num_classes * cfg.per_class, cfg.dim)
        assert not ds.image_features.flags.writeable

    def test_renormalized_file_equals_per_row_division(self, tmp_path):
        # rows off the sphere are divided by their float64 norm; unit rows are kept as stored
        rng = np.random.default_rng(8)
        feats = rng.standard_normal((700, 16)).astype(np.float32)
        feats /= np.linalg.norm(feats.astype(np.float64), axis=1, keepdims=True).astype(np.float32)
        feats[::2] *= 2.5  # 350 rows: more than one renormalization chunk
        counts = [300, 1, 399]
        path = tmp_path / "off.oef"
        write_tensor_file(path, {"class_embeddings": np.eye(3, 16, dtype=np.float32) * 4, "image_features": feats},
                          {"format": "ogen-embeddings", "version": 2, "class_names": ["a", "b", "c"],
                           "counts": counts, "base": [0], "new": [1, 2]})
        norms = np.linalg.norm(feats.astype(np.float64), axis=-1)
        off = np.abs(norms - 1.0) > 1e-6
        expected = feats.copy()
        expected[off] = (feats[off].astype(np.float64) / norms[off, None]).astype(np.float32)
        ds = load_embeddings(path)
        assert off.sum() >= 350
        assert ds.image_features.tobytes() == expected.tobytes() and ds.counts == tuple(counts)
        assert ds.class_embeddings.tobytes() == np.eye(3, 16, dtype=np.float32).tobytes()

    def test_peak_memory_stays_within_twice_the_feature_block(self, tmp_path):
        # numpy reports its buffers to tracemalloc; a float64 copy of the
        # whole block would alone take twice the float32 block
        cfg = SynthConfig(num_classes=50, dim=64, per_class=40)
        block_bytes = 50 * 40 * 64 * 4
        path = tmp_path / "d.oef"
        save_embeddings(make_synthetic(cfg), path)
        for call in (lambda: load_embeddings(path), lambda: make_synthetic(cfg)):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2 * block_bytes


class TestSynthetic:
    def test_zero_noise_features_equal_embeddings(self):
        ds = make_synthetic(
            SynthConfig(num_classes=4, dim=8, per_class=3, image_noise=0.0, text_noise=0.0, seed=1)
        )
        for c in range(4):
            for row in class_rows(ds, c):
                np.testing.assert_array_equal(row, ds.class_embeddings[c])

    def test_zero_noise_nearest_centroid_perfect(self):
        ds = make_synthetic(
            SynthConfig(num_classes=6, dim=8, per_class=4, image_noise=0.0, text_noise=0.0, seed=2)
        )
        emb = ds.class_embeddings.astype(np.float64)
        hits = total = 0
        for c in range(ds.num_classes):
            for row in class_rows(ds, c):
                hits += int(np.argmax(emb @ row.astype(np.float64)) == c)
                total += 1
        assert hits == total

    def test_deterministic_per_seed(self):
        cfg = SynthConfig(num_classes=7, dim=12, per_class=5, seed=42)
        a, b = make_synthetic(cfg), make_synthetic(cfg)
        np.testing.assert_array_equal(a.class_embeddings, b.class_embeddings)
        np.testing.assert_array_equal(a.image_features, b.image_features)
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
            for row in class_rows(ds, c):
                scores = [float(emb[j] @ row.astype(np.float64)) for j in range(ds.num_classes)]
                hits += int(max(range(ds.num_classes), key=lambda j: scores[j]) == c)
                total += 1
        oracle_acc = hits / total
        # vectorized pass must agree with the explicit loop
        all_feats = ds.image_features.astype(np.float64)
        labels = np.repeat(np.arange(ds.num_classes), ds.counts)
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
