"""Exact neighbor retrieval and the synthesis context."""

import dataclasses

import numpy as np
import pytest
from conftest import class_rows

from ogen.embedding_store import SynthConfig, make_synthetic
from ogen.errors import DataError
from ogen.retrieval import NeighborContext, build_context, retrieve_knn


def brute_force_topk(query, emb, k):
    """Independent oracle: full sort of all cosine scores, ties by index."""
    q = query / np.linalg.norm(query)
    cols = emb / np.linalg.norm(emb, axis=0)
    scores = cols.T @ q
    order = sorted(range(emb.shape[1]), key=lambda i: (-scores[i], i))
    return order[:k]


class TestRetrieveKnn:
    def test_self_is_nearest(self):
        rng = np.random.default_rng(0)
        emb = rng.standard_normal((8, 6))
        emb /= np.linalg.norm(emb, axis=0)
        assert retrieve_knn(emb[:, 3], emb, 1) == [3]

    def test_planar_angles(self):
        angles = np.deg2rad([0.0, 90.0, 180.0])
        emb = np.stack([np.cos(angles), np.sin(angles)])
        query = np.array([np.cos(np.deg2rad(10.0)), np.sin(np.deg2rad(10.0))])
        assert retrieve_knn(query, emb, 2) == [0, 1]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            d = int(rng.integers(2, 24))
            cb = int(rng.integers(1, 200))
            k = int(rng.integers(1, min(cb, 5) + 1))
            emb = rng.standard_normal((d, cb))
            emb /= np.linalg.norm(emb, axis=0)
            q = rng.standard_normal(d)
            assert retrieve_knn(q, emb, k) == brute_force_topk(q, emb, k)

    def test_tie_breaks_toward_smaller_index(self):
        base = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]).T  # duplicated pairs
        q = np.array([1.0, 1.0])
        # all four classes have identical cosine to the query
        assert retrieve_knn(q, base, 3) == [0, 1, 2]

    def test_descending_order(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            emb = rng.standard_normal((10, 40))
            q = rng.standard_normal(10)
            picks = retrieve_knn(q, emb, 5)
            cols = emb / np.linalg.norm(emb, axis=0)
            scores = cols.T @ (q / np.linalg.norm(q))
            picked = scores[picks]
            assert np.all(np.diff(picked) <= 1e-15)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        emb = rng.standard_normal((12, 30))
        q = rng.standard_normal(12)
        assert retrieve_knn(q, emb, 4) == retrieve_knn(5.0 * q, emb, 4)

    def test_k_clamped_with_warning(self):
        rng = np.random.default_rng(4)
        emb = rng.standard_normal((6, 3))
        with pytest.warns(UserWarning, match="clamped"):
            picks = retrieve_knn(rng.standard_normal(6), emb, 10)
        assert len(picks) == 3

    def test_k_must_be_positive(self):
        with pytest.raises(DataError):
            retrieve_knn(np.ones(4), np.eye(4), 0)


class TestNeighborContext:
    def test_holds_the_two_stacks_the_generator_reads(self):
        assert [f.name for f in dataclasses.fields(NeighborContext)] == ["neighbor_embeddings", "support_features"]

    @pytest.mark.parametrize(
        "neighbor_shape, support_shape",
        [((8,), (8,)), ((2, 2, 8, 3), (2, 2, 8, 3)), ((8, 3), (8, 2)), ((2, 8, 3), (8, 3)), ((8, 0), (8, 0)),
         ((2, 8, 0), (2, 8, 0))],
        ids=["1d", "4d", "shapes_differ", "batch_differs", "k0", "batched_k0"],
    )
    def test_malformed_stacks_are_data_errors(self, neighbor_shape, support_shape):
        with pytest.raises(DataError):
            NeighborContext(np.ones(neighbor_shape), np.ones(support_shape))


class TestBuildContext:
    def test_context_shape_and_membership(self):
        # support column j is row sample_ids[j] of base class neighbor_ids[j],
        # for one conditioning class and for a batch of two
        ds = make_synthetic(SynthConfig(num_classes=8, dim=12, per_class=5, base_fraction=1.0, seed=11))
        rows, _, _, _, starts = ds._split_features
        rng = np.random.default_rng(0)
        for neighbor_ids in ([2, 5, 7], [[2, 5, 7], [0, 2, 1]]):
            ids = np.array(neighbor_ids)
            picks = rng.integers(5, size=ids.shape)
            units = np.swapaxes(ds.class_embeddings[ids], -1, -2).astype(np.float64)  # (d, K) or (U, d, K)
            ctx = build_context(ids, units, rows, starts, picks)
            assert ctx.neighbor_embeddings is units
            assert ctx.support_features.shape == units.shape == ids.shape[:-1] + (12, 3)
            for *u, j in np.ndindex(ids.shape):
                column = ctx.support_features[(*u, slice(None), j)]
                np.testing.assert_array_equal(column, class_rows(ds, ds.split.base[ids[(*u, j)]])[picks[(*u, j)]])

    def test_one_index_reaches_the_offset_edges(self):
        # base classes of unequal sizes, so no offset is a multiple of one
        # class size; each case is checked against per-row indexing
        ds = make_synthetic(SynthConfig(num_classes=12, dim=6, per_class=5, seed=4))
        counts = tuple(1 + c % 5 for c in range(ds.num_classes))
        keep = np.concatenate([np.arange(5 * c, 5 * c + n) for c, n in enumerate(counts)])
        ds = dataclasses.replace(ds, image_features=ds.image_features[keep], counts=counts)
        rows, _, _, _, starts = ds._split_features
        base = ds.split.base
        sizes = [ds.counts[c] for c in base]
        last, end = len(base) - 1, sizes[-1] - 1
        assert len(set(sizes)) > 1 and starts[-1] == len(rows)
        cases = {
            "first row of the first class, (K,)": ([0, 1], [0, 0]),
            "last row of the last class, (K,)": ([1, last], [0, end]),
            "both edges, (U, K)": ([[0, last]], [[0, end]]),
            "one class drawn by several conditioning classes, (U, K)": (
                [[last, 0], [1, last], [last, 2]], [[end, 0], [sizes[1] - 1, 0], [end // 2, sizes[2] - 1]]
            ),
        }
        for name, (ids, picks) in cases.items():
            ids, picks = np.array(ids), np.array(picks)
            units = np.zeros(ids.shape[:-1] + (ds.dim, ids.shape[-1]))
            ctx = build_context(ids, units, rows, starts, picks)
            assert ctx.support_features.shape == units.shape, name
            for *u, j in np.ndindex(ids.shape):
                expected = class_rows(ds, base[ids[(*u, j)]])[picks[(*u, j)]]
                np.testing.assert_array_equal(ctx.support_features[(*u, slice(None), j)], expected, err_msg=name)
