"""Attention forward passes, both synthesis schemes, and exact gradients."""

import copy
import pickle

import numpy as np
import pytest
from conftest import (
    central_diff,
    random_context,
    random_params,
    rel_err,
    screened_batches,
    screened_instances,
    stack_contexts,
)

from ogen._tensorio import read_tensor_file, write_tensor_file
from ogen.errors import ConfigError, DataError
from ogen.generator import (
    _TENSOR_FIELDS,
    LN_EPS,
    GeneratorParams,
    _mhca_forward,
    backward,
    extrapolate_jointly,
    extrapolate_per_class,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from ogen.retrieval import NeighborContext


def column_layer_norm(params, x):
    """Independent re-implementation of the column-wise normalization."""
    mu = x.mean(axis=0)
    var = x.var(axis=0)
    xhat = (x - mu) / np.sqrt(var + LN_EPS)
    return params.ln_gain[:, None] * xhat + params.ln_bias[:, None]


def naive_mhca(params, query, keys, values):
    """Per-head loop oracle, no batched einsum anywhere."""
    h, d = params.heads, params.dim
    dh = d // h
    nq, nk = query.shape[1], keys.shape[1]
    out_concat = np.zeros((d, nq))
    for i in range(h):
        wq = params.wq[:, i * dh : (i + 1) * dh]
        wk = params.wk[:, i * dh : (i + 1) * dh]
        wv = params.wv[:, i * dh : (i + 1) * dh]
        for q in range(nq):
            qv = wq.T @ query[:, q]
            logits = np.array([(wk.T @ keys[:, j]) @ qv for j in range(nk)]) / np.sqrt(dh)
            logits -= logits.max()
            a = np.exp(logits)
            a /= a.sum()
            head_out = sum(a[j] * (wv.T @ values[:, j]) for j in range(nk))
            out_concat[i * dh : (i + 1) * dh, q] = head_out
    return params.wo @ out_concat


class TestInit:
    def test_output_projection_starts_zero(self):
        p = init_params(4, 16, 32, seed=0)
        assert np.all(p.wo == 0.0)
        assert np.all(p.ln_gain == 1.0)
        assert np.all(p.ln_bias == 0.0)

    def test_deterministic(self):
        a = init_params(2, 8, 16, seed=7)
        b = init_params(2, 8, 16, seed=7)
        for name in _TENSOR_FIELDS:
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_shapes(self):
        p = init_params(4, 64, 128, seed=0)
        assert p.wq.shape == (64, 64)
        assert p.ffn_w1.shape == (128, 64)
        assert p.dim // p.heads == 16

    def test_heads_must_divide_dim(self):
        with pytest.raises(ConfigError):
            init_params(3, 8, 16, seed=0)


class TestFlatStorage:
    def test_tensors_are_views_of_flat(self):
        p = init_params(2, 8, 16, seed=0)
        assert p.flat.dtype == np.float64 and p.flat.ndim == 1 and p.flat.flags.c_contiguous
        assert p.flat.size == sum(getattr(p, name).size for name in _TENSOR_FIELDS)
        assert all(np.shares_memory(getattr(p, name), p.flat) for name in _TENSOR_FIELDS)
        wq = p.wq.copy()
        p.flat -= 0.5 * np.arange(p.flat.size)  # an in-place step on the vector
        np.testing.assert_array_equal(p.wq, wq - 0.5 * np.arange(64).reshape(8, 8))
        p.ffn_b2[...] = 7.0  # a write to a named tensor lands in the vector
        np.testing.assert_array_equal(p.flat[-8:], 7.0)

    @pytest.mark.parametrize("make", ["copy", "zeros_like"])
    def test_copies_share_no_memory(self, make):
        p = init_params(2, 8, 16, seed=0)
        before = p.flat.copy()
        q = getattr(p, make)()
        assert (q.heads, q.dim, q.d_ff) == (p.heads, p.dim, p.d_ff)
        assert not np.shares_memory(q.flat, p.flat)
        assert all(np.shares_memory(getattr(q, name), q.flat) for name in _TENSOR_FIELDS)
        q.flat += 1.0
        q.wq[...] = 3.0
        np.testing.assert_array_equal(p.flat, before)

    def test_deepcopy_and_pickle_keep_the_views(self):
        p = init_params(2, 8, 16, seed=0)
        for q in (copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert not np.shares_memory(q.flat, p.flat)
            np.testing.assert_array_equal(q.flat, p.flat)
            q.flat += 1.0
            np.testing.assert_array_equal(q.wq, p.wq + 1.0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda n: np.zeros(n + 1),
            lambda n: np.zeros(n - 1),
            lambda n: np.zeros(2 * n)[::2],
            lambda n: np.zeros(n, dtype=np.float32),
            lambda n: np.zeros((1, n)),
            lambda n: [0.0] * n,
        ],
        ids=["too_long", "too_short", "non_contiguous", "float32", "two_dimensional", "list"],
    )
    def test_rejects_all_but_a_contiguous_float64_vector(self, make):
        n = init_params(2, 8, 16, seed=0).flat.size
        GeneratorParams(heads=2, dim=8, d_ff=16, flat=np.zeros(n))
        with pytest.raises(ConfigError):
            GeneratorParams(heads=2, dim=8, d_ff=16, flat=make(n))


class TestMhca:
    def test_single_key_attention_weight_is_one(self):
        rng = np.random.default_rng(0)
        p = random_params(rng, heads=2, dim=8, d_ff=16)
        q = rng.standard_normal((8, 2))
        k = rng.standard_normal((8, 1))
        v = rng.standard_normal((8, 1))
        out, cache = _mhca_forward(p, q, k, v)
        np.testing.assert_array_equal(cache["attn"], np.ones_like(cache["attn"]))
        # output reduces to wo @ (per-head value projection), independent of q
        expected = p.wo @ np.repeat(p.wv.T @ v, 2, axis=1)
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_zero_output_projection_gives_zero(self):
        rng = np.random.default_rng(1)
        p = init_params(2, 8, 16, seed=3)  # wo == 0
        out, _ = _mhca_forward(p, rng.standard_normal((8, 3)), rng.standard_normal((8, 4)), rng.standard_normal((8, 4)))
        np.testing.assert_array_equal(out, np.zeros((8, 3)))

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            p = random_params(rng, heads=2, dim=8, d_ff=16)
            q = rng.standard_normal((8, 3))
            k = rng.standard_normal((8, 3))
            v = rng.standard_normal((8, 3))
            out, _ = _mhca_forward(p, q, k, v)
            np.testing.assert_allclose(out, naive_mhca(p, q, k, v), rtol=1e-10, atol=1e-12)

    def test_batch_axis_matches_separate_calls(self):
        rng = np.random.default_rng(3)
        p = random_params(rng, heads=2, dim=8, d_ff=16)
        q = rng.standard_normal((4, 8, 2))
        k = rng.standard_normal((4, 8, 3))
        v = rng.standard_normal((4, 8, 3))
        out, _ = _mhca_forward(p, q, k, v)
        for u in range(4):
            np.testing.assert_allclose(out[u], naive_mhca(p, q[u], k[u], v[u]), rtol=1e-10, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        p = init_params(2, 8, 16, seed=0)
        with pytest.raises(DataError):
            _mhca_forward(p, np.ones((8, 2)), np.ones((8, 3)), np.ones((8, 4)))
        with pytest.raises(DataError):
            _mhca_forward(p, np.ones((6, 2)), np.ones((8, 3)), np.ones((8, 3)))
        with pytest.raises(DataError):
            _mhca_forward(p, np.ones((2, 8, 2)), np.ones((3, 8, 3)), np.ones((3, 8, 3)))


class TestPerClassScheme:
    def test_init_output_is_normalized_supports(self):
        rng = np.random.default_rng(3)
        p = init_params(2, 8, 16, seed=1)
        ctx = random_context(rng, dim=8, k=3)
        w = rng.standard_normal(8)
        w /= np.linalg.norm(w)
        out, _ = extrapolate_per_class(ctx, w, p)
        np.testing.assert_allclose(out, column_layer_norm(p, ctx.support_features), rtol=1e-12)

    def test_column_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        p = random_params(rng, heads=2, dim=8, d_ff=16)
        ctx = random_context(rng, dim=8, k=4)
        w = rng.standard_normal(8)
        w /= np.linalg.norm(w)
        out, _ = extrapolate_per_class(ctx, w, p)
        perm = [2, 0, 3, 1]
        ctx_p = NeighborContext(
            neighbor_embeddings=ctx.neighbor_embeddings[:, perm],
            support_features=ctx.support_features[:, perm],
        )
        out_p, _ = extrapolate_per_class(ctx_p, w, p)
        np.testing.assert_allclose(out_p, out[:, perm], rtol=1e-10, atol=1e-12)

    def test_zero_variance_column_stays_finite(self):
        p = init_params(2, 8, 16, seed=2)
        const = np.ones((8, 2)) / np.sqrt(8.0)  # zero variance per column
        ctx = NeighborContext(neighbor_embeddings=const.copy(), support_features=const.copy())
        w = np.zeros(8)
        w[0] = 1.0
        out, tape = extrapolate_per_class(ctx, w, p)
        assert np.all(np.isfinite(out))
        grads, _ = backward(tape, np.ones_like(out))
        for name in _TENSOR_FIELDS:
            assert np.all(np.isfinite(getattr(grads, name)))


class TestJointScheme:
    def test_init_output_ignores_neighbors(self):
        rng = np.random.default_rng(5)
        p = init_params(2, 8, 16, seed=4)  # wo == 0
        w = rng.standard_normal(8)
        w /= np.linalg.norm(w)
        a = extrapolate_jointly(random_context(rng, dim=8, k=3), w, p)[0]
        b = extrapolate_jointly(random_context(rng, dim=8, k=3), w, p)[0]
        np.testing.assert_array_equal(a, b)

    def test_neighbor_permutation_invariance(self):
        rng = np.random.default_rng(6)
        p = random_params(rng, heads=2, dim=8, d_ff=16)
        ctx = random_context(rng, dim=8, k=4)
        w = rng.standard_normal(8)
        w /= np.linalg.norm(w)
        out, _ = extrapolate_jointly(ctx, w, p)
        perm = [3, 1, 0, 2]
        ctx_p = NeighborContext(
            neighbor_embeddings=ctx.neighbor_embeddings[:, perm],
            support_features=ctx.support_features[:, perm],
        )
        out_p, _ = extrapolate_jointly(ctx_p, w, p)
        np.testing.assert_allclose(out_p, out, rtol=1e-12, atol=1e-14)

    def test_duplicated_neighbors_match_single(self):
        rng = np.random.default_rng(7)
        p = random_params(rng, heads=2, dim=8, d_ff=16)
        emb = rng.standard_normal((8, 1))
        emb /= np.linalg.norm(emb)
        sup = rng.standard_normal((8, 1))
        sup /= np.linalg.norm(sup)
        w = rng.standard_normal(8)
        w /= np.linalg.norm(w)
        one = NeighborContext(emb, sup)
        three = NeighborContext(np.repeat(emb, 3, axis=1), np.repeat(sup, 3, axis=1))
        z1, _ = extrapolate_jointly(one, w, p)
        z3, _ = extrapolate_jointly(three, w, p)
        np.testing.assert_allclose(z1, z3, rtol=1e-12, atol=1e-14)


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(8)
        p = random_params(rng)
        ctx = random_context(rng)
        w = rng.standard_normal(8)
        w /= np.linalg.norm(w)
        out, tape = extrapolate_jointly(ctx, w, p)
        grads, igrads = backward(tape, np.zeros_like(out))
        for name in _TENSOR_FIELDS:
            np.testing.assert_array_equal(getattr(grads, name), 0.0)
        np.testing.assert_array_equal(igrads.w_n, 0.0)

    def test_tape_reuse_rejected(self):
        rng = np.random.default_rng(9)
        p = random_params(rng)
        ctx = random_context(rng)
        w = rng.standard_normal(8)
        w /= np.linalg.norm(w)
        out, tape = extrapolate_jointly(ctx, w, p)
        backward(tape, np.zeros_like(out))
        with pytest.raises(DataError, match="consumed"):
            backward(tape, np.zeros_like(out))

    @pytest.mark.parametrize("scheme", ["joint", "per_class"])
    def test_finite_difference_all_parameters(self, scheme):
        # >= 20 seeded instances per scheme, step 1e-3; instances are
        # screened so no ReLU pre-activation sits near its kink (central
        # differences are not a valid oracle across the kink)
        fn = extrapolate_jointly if scheme == "joint" else extrapolate_per_class
        start = 0 if scheme == "joint" else 1000
        for params, ctx, w in screened_instances(20, start_seed=start):
            rng = np.random.default_rng(99)
            probe = rng.standard_normal(8 if scheme == "joint" else ctx.support_features.shape)

            def loss():
                return float(np.sum(probe * fn(ctx, w, params)[0]))

            out, tape = fn(ctx, w, params)
            grads, igrads = backward(tape, probe)
            for name in _TENSOR_FIELDS:
                fd = central_diff(loss, getattr(params, name), 1e-3)
                assert rel_err(fd, getattr(grads, name)) < 1e-4, f"{scheme}/{name}"
            fd_w = central_diff(loss, w, 1e-3)
            assert rel_err(fd_w, igrads.w_n) < 1e-4
            fd_keys = central_diff(loss, ctx.neighbor_embeddings, 1e-3)
            assert rel_err(fd_keys, igrads.neighbor_embeddings) < 1e-4
            fd_vals = central_diff(loss, ctx.support_features, 1e-3)
            assert rel_err(fd_vals, igrads.support_features) < 1e-4


class TestBatchedCalls:
    """U conditioning classes in one call equal U separate calls."""

    @pytest.mark.parametrize("scheme", ["joint", "per_class"])
    def test_forward_and_backward_match_separate_calls(self, scheme):
        fn = extrapolate_jointly if scheme == "joint" else extrapolate_per_class
        rng = np.random.default_rng(21)
        p = random_params(rng, heads=2, dim=8, d_ff=16)
        singles = [random_context(rng, dim=8, k=3) for _ in range(4)]
        w = rng.standard_normal((8, 4))
        w /= np.linalg.norm(w, axis=0)
        out, tape = fn(stack_contexts(singles), w, p)
        probe = rng.standard_normal(out.shape)
        grads, igrads = backward(tape, probe)
        summed = {name: np.zeros_like(getattr(p, name)) for name in _TENSOR_FIELDS}
        for u, ctx in enumerate(singles):
            out_u, tape_u = fn(ctx, w[:, u], p)
            probe_u = probe[:, u] if scheme == "joint" else probe[u]
            np.testing.assert_allclose(out[:, u] if scheme == "joint" else out[u], out_u, rtol=1e-12, atol=1e-13)
            grads_u, igrads_u = backward(tape_u, probe_u)
            for name in _TENSOR_FIELDS:
                summed[name] += getattr(grads_u, name)
            np.testing.assert_allclose(igrads.w_n[:, u], igrads_u.w_n, rtol=1e-12, atol=1e-13)
            np.testing.assert_allclose(igrads.neighbor_embeddings[u], igrads_u.neighbor_embeddings, rtol=1e-12, atol=1e-13)
            np.testing.assert_allclose(igrads.support_features[u], igrads_u.support_features, rtol=1e-12, atol=1e-13)
        for name in _TENSOR_FIELDS:
            np.testing.assert_allclose(getattr(grads, name), summed[name], rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("scheme", ["joint", "per_class"])
    def test_finite_difference_batched(self, scheme):
        fn = extrapolate_jointly if scheme == "joint" else extrapolate_per_class
        for params, ctx, w in screened_batches(5, start_seed=500 if scheme == "joint" else 1500):
            rng = np.random.default_rng(98)
            probe = rng.standard_normal(w.shape if scheme == "joint" else ctx.support_features.shape)

            def loss():
                return float(np.sum(probe * fn(ctx, w, params)[0]))

            _, tape = fn(ctx, w, params)
            grads, igrads = backward(tape, probe)
            for name in _TENSOR_FIELDS:
                fd = central_diff(loss, getattr(params, name), 1e-3)
                assert rel_err(fd, getattr(grads, name)) < 1e-4, f"{scheme}/{name}"
            assert rel_err(central_diff(loss, w, 1e-3), igrads.w_n) < 1e-4
            assert rel_err(central_diff(loss, ctx.neighbor_embeddings, 1e-3), igrads.neighbor_embeddings) < 1e-4
            assert rel_err(central_diff(loss, ctx.support_features, 1e-3), igrads.support_features) < 1e-4

    def test_conditioning_must_match_batch(self):
        rng = np.random.default_rng(22)
        p = random_params(rng, heads=2, dim=8, d_ff=16)
        ctx = stack_contexts([random_context(rng) for _ in range(3)])
        # a (d,) vector with a batched context, or (d, U') columns with U' != U
        for fn in (extrapolate_jointly, extrapolate_per_class):
            for w in (np.ones(8), np.ones((8, 2)), np.ones((8, 4))):
                with pytest.raises(DataError, match="conditioning"):
                    fn(ctx, w, p)


class TestCheckpoint:
    def test_file_round_trip_bit_exact(self, tmp_path):
        p = init_params(4, 16, 32, seed=12)
        path1 = tmp_path / "a.ckpt"
        path2 = tmp_path / "b.ckpt"
        save_checkpoint(path1, p, scheme="joint", epoch=17)
        loaded, meta = load_checkpoint(path1)
        assert meta["scheme"] == "joint" and meta["epoch"] == 17
        save_checkpoint(path2, loaded, scheme=meta["scheme"], epoch=meta["epoch"])
        assert path1.read_bytes() == path2.read_bytes()

    def test_values_survive_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        p = random_params(rng, heads=2, dim=8, d_ff=16)
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, p, scheme="per_class", epoch=3)
        loaded, _ = load_checkpoint(path)
        for name in _TENSOR_FIELDS:
            np.testing.assert_array_equal(
                getattr(p, name).astype(np.float32), getattr(loaded, name).astype(np.float32)
            )

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"\x02\x00\x00\x00{}")
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_missing_size_is_data_error(self, tmp_path):
        path = tmp_path / "d.ckpt"
        save_checkpoint(path, init_params(2, 8, 16, seed=0), scheme="joint", epoch=0)
        tensors, meta = read_tensor_file(path)
        del meta["heads"]
        write_tensor_file(path, tensors, meta)
        with pytest.raises(DataError, match="KeyError"):
            load_checkpoint(path)

    def test_missing_tensor_is_data_error(self, tmp_path):
        path = tmp_path / "f.ckpt"
        save_checkpoint(path, init_params(2, 8, 16, seed=0), scheme="joint", epoch=0)
        tensors, meta = read_tensor_file(path)
        write_tensor_file(path, {"flat": tensors["params"]}, meta)
        with pytest.raises(DataError, match="KeyError: 'params'"):
            load_checkpoint(path)

    def test_misshapen_tensor_is_data_error(self, tmp_path):
        path = tmp_path / "e.ckpt"
        save_checkpoint(path, init_params(2, 8, 16, seed=0), scheme="joint", epoch=0)
        tensors, meta = read_tensor_file(path)
        flat = tensors["params"]
        for misshapen in (flat.reshape(2, -1), flat[:-1], np.append(flat, np.float32(0.0))):
            write_tensor_file(path, {"params": misshapen}, meta)
            with pytest.raises(DataError, match="one contiguous float64 vector of"):
                load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_value_is_data_error(self, tmp_path, bad):
        path = tmp_path / "n.ckpt"
        save_checkpoint(path, init_params(2, 8, 16, seed=0), scheme="joint", epoch=0)
        tensors, meta = read_tensor_file(path)
        tensors["params"][5] = bad
        write_tensor_file(path, tensors, meta)
        with pytest.raises(DataError, match="non-finite"):
            load_checkpoint(path)

    def test_file_holds_one_flat_vector(self, tmp_path):
        p = random_params(np.random.default_rng(3), heads=2, dim=8, d_ff=16)
        save_checkpoint(tmp_path / "v.ckpt", p, scheme="joint", epoch=1)
        tensors, meta = read_tensor_file(tmp_path / "v.ckpt")
        assert list(tensors) == ["params"] and meta["version"] == 2
        assert tensors["params"].dtype == np.float32
        np.testing.assert_array_equal(tensors["params"], p.flat.astype(np.float32))

    def test_version_1_checkpoint_is_data_error(self, tmp_path):
        # version 1 held one float32 entry per named tensor
        p = init_params(2, 8, 16, seed=0)
        meta = {"format": "ogen-generator", "version": 1, "heads": 2, "dim": 8, "d_ff": 16,
                "scheme": "joint", "epoch": 0}
        write_tensor_file(tmp_path / "old.ckpt", {n: getattr(p, n).astype(np.float32) for n in _TENSOR_FIELDS}, meta)
        with pytest.raises(DataError, match="ogen-generator version 1 is not version 2.*train the run again"):
            load_checkpoint(tmp_path / "old.ckpt")
