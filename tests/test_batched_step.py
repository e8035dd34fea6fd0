"""The batched synthesis step against the per-class reference loop.

The trainer synthesizes all pseudo-unknown classes of an epoch in one
batched pass. The loop below takes them one class at a time, with the
single-class API and an independent per-vector normalization gradient;
both must draw the same neighbors and supports and agree on every
gradient and loss.
"""

import copy
import dataclasses

import numpy as np
import pytest
from conftest import class_rows

import ogen.trainer
from ogen import objective
from ogen.embedding_store import SynthConfig, make_synthetic
from ogen.generator import (
    _TENSOR_FIELDS,
    backward,
    extrapolate_jointly,
    extrapolate_per_class,
)
from ogen.retrieval import NeighborContext, build_context, retrieve_knn
from ogen.trainer import TrainConfig, _resolve_teacher, _synthesize, train

TOL = 1e-10


def unit_vector_vjp(raw, d_unit):
    norm = np.linalg.norm(raw)
    unit = raw / norm
    return (d_unit - unit * (unit @ d_unit)) / norm


def reference_step(state, cfg, teacher, frozen_new, known_cols, unknown_cols, dataset):
    """One class at a time: retrieval, support draws, student and teacher
    forward, loss heads and backward per pseudo-unknown class. Each support
    is read from its class's rows of the dataset's feature block."""
    rng, emb = state.rng, state.embeddings
    base = dataset.split.base
    c_b = emb.shape[1]
    if cfg.scheme == "joint":
        extrapolate = extrapolate_jointly
        ce_fn, mse_fn, prob_fn = objective.synth_ce_joint, objective.distill_grad_joint, objective.prob_joint_scheme
    else:
        extrapolate = extrapolate_per_class
        ce_fn, mse_fn, prob_fn = (
            objective.synth_ce_per_class,
            objective.distill_grad_per_class,
            objective.prob_per_class_scheme,
        )
    gen_grads = {name: np.zeros_like(getattr(state.params, name)) for name in _TENSOR_FIELDS}
    emb_grad = np.zeros_like(emb)
    k_eff = min(cfg.k, known_cols.size)
    union = np.concatenate([emb, frozen_new], axis=1)
    synth_ce = mse = 0.0
    neighbors, samples = [], []
    for u in unknown_cols:
        w_raw = emb[:, u]
        if cfg.random_neighbors:
            neighbor_cols = known_cols[rng.choice(known_cols.size, size=k_eff, replace=False)]
        else:
            neighbor_cols = known_cols[retrieve_knn(w_raw, emb[:, known_cols], k_eff)]
        picks = [int(rng.integers(dataset.counts[base[c]])) for c in neighbor_cols]
        raw = emb[:, neighbor_cols]
        support = np.array([class_rows(dataset, base[c])[p] for c, p in zip(neighbor_cols, picks)], dtype=np.float64).T
        ctx = NeighborContext(raw / np.linalg.norm(raw, axis=0), support)
        neighbors.append(neighbor_cols.tolist())
        samples.append(picks)
        w_unit = w_raw / np.linalg.norm(w_raw)
        feature, tape = extrapolate(ctx, w_unit, state.params)
        ce, d_feat, d_union = ce_fn(feature, union, cfg.tau, int(u))
        synth_ce += ce
        upstream = cfg.lambda_syn * d_feat
        emb_grad += cfg.lambda_syn * d_union[:, :c_b]
        if teacher is not None:
            t_feature, _ = extrapolate(ctx, w_unit, teacher)
            m, dm_feat, dm_union = mse_fn(prob_fn(t_feature, union, cfg.tau), feature, union, cfg.tau)
            mse += m
            upstream = upstream + cfg.lambda_distill * dm_feat
            emb_grad += cfg.lambda_distill * dm_union[:, :c_b]
        ggrads, igrads = backward(tape, upstream)
        for name in _TENSOR_FIELDS:
            gen_grads[name] += getattr(ggrads, name)
        emb_grad[:, u] += unit_vector_vjp(w_raw, igrads.w_n)
        for j, col in enumerate(neighbor_cols):
            emb_grad[:, col] += unit_vector_vjp(emb[:, col], igrads.neighbor_embeddings[:, j])
    n = unknown_cols.size
    gen_grads = {name: g / n for name, g in gen_grads.items()}
    return gen_grads, emb_grad / n, synth_ce / n, mse / n, neighbors, samples


def spied_synthesize(monkeypatch, *args):
    """_synthesize(*args), and the neighbor and sample ids of the one
    context it builds."""
    calls = []

    def spy(neighbor_ids, neighbor_embeddings, rows, starts, sample_ids):
        calls.append((neighbor_ids.tolist(), sample_ids.tolist()))
        return build_context(neighbor_ids, neighbor_embeddings, rows, starts, sample_ids)

    monkeypatch.setattr(ogen.trainer, "build_context", spy)
    result = _synthesize(*args)
    (ids,) = calls
    return result, ids


def mid_run(scheme, distill, random_neighbors):
    """A dataset, and _synthesize's arguments: a config and the state after
    three epochs (trained generator, filled teacher queue), one pseudo
    split and the base split's stacked rows and offsets."""
    ds = make_synthetic(
        SynthConfig(num_classes=16, dim=16, per_class=6, image_noise=0.15, base_fraction=0.5, seed=3)
    )
    cfg = TrainConfig(
        epochs=3, batch_size=16, scheme=scheme, distill=distill, random_neighbors=random_neighbors, seed=1
    )
    state = train(ds, cfg).state
    base = list(ds.split.base)
    perm = np.random.default_rng(7).permutation(len(base))
    n_unk = 3
    unknown_cols, known_cols = np.sort(perm[:n_unk]), np.sort(perm[n_unk:])
    rows, _, _, _, starts = ds._split_features
    frozen_new = ds.embedding_columns(ds.split.new)
    _, teacher, _ = _resolve_teacher(state, cfg, state.next_epoch)
    return ds, (state, cfg, teacher, frozen_new, known_cols, unknown_cols, rows, starts)


@pytest.mark.parametrize("random_neighbors", [False, True])
@pytest.mark.parametrize("distill", ["none", "almt", "mt"])
@pytest.mark.parametrize("scheme", ["joint", "per_class"])
def test_batched_step_matches_per_class_loop(monkeypatch, scheme, distill, random_neighbors):
    ds, args = mid_run(scheme, distill, random_neighbors)
    state, cfg, teacher, frozen_new, known_cols, unknown_cols = args[:6]
    assert (teacher is None) == (distill == "none")
    ref_state = dataclasses.replace(state, rng=copy.deepcopy(state.rng))
    emb_before = state.embeddings.copy()

    (gen, emb_grad, synth_ce, mse), (neighbors, samples) = spied_synthesize(monkeypatch, *args)
    r_gen, r_emb_grad, r_synth_ce, r_mse, r_neighbors, r_samples = reference_step(
        ref_state, cfg, teacher, frozen_new, known_cols, unknown_cols, ds
    )

    assert neighbors == r_neighbors
    assert samples == r_samples
    assert state.rng.bit_generator.state == ref_state.rng.bit_generator.state
    np.testing.assert_array_equal(state.embeddings, emb_before)
    assert abs(synth_ce - r_synth_ce) <= TOL
    assert abs(mse - r_mse) <= TOL
    assert (mse > 0.0) == (teacher is not None)
    for name in _TENSOR_FIELDS:
        np.testing.assert_allclose(getattr(gen, name), r_gen[name], rtol=0, atol=TOL, err_msg=name)
    np.testing.assert_allclose(emb_grad, r_emb_grad, rtol=0, atol=TOL)
    assert np.abs(emb_grad).max() > 1e-3  # the comparison is not between zeros


def test_shared_neighbors_accumulate(monkeypatch):
    # 3 classes x 3 neighbors out of 5 known classes: some neighbor serves
    # two classes, and its gradient must be the sum of both contributions
    ds, args = mid_run("joint", "almt", False)
    state, cfg, teacher, frozen_new, known_cols, unknown_cols = args[:6]
    assert known_cols.size == 5
    ref_state = dataclasses.replace(state, rng=copy.deepcopy(state.rng))
    (_, emb_grad, _, _), (neighbors, _) = spied_synthesize(monkeypatch, *args)
    _, r_emb_grad, *_ = reference_step(ref_state, cfg, teacher, frozen_new, known_cols, unknown_cols, ds)
    flat = [c for row in neighbors for c in row]
    shared = sorted({c for c in flat if flat.count(c) > 1})
    assert shared
    np.testing.assert_allclose(emb_grad[:, shared], r_emb_grad[:, shared], rtol=0, atol=TOL)
