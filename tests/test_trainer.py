"""Training loop behavior, evaluation, persistence, and the ablation grid."""

import dataclasses
import math
import os
import zlib

import numpy as np
import pytest
from conftest import class_rows, file_tree

import ogen._tensorio
import ogen.objective
import ogen.trainer
from ogen.embedding_store import SynthConfig, load_embeddings, make_synthetic, save_embeddings
from ogen.errors import ConfigError, DataError, NumericalError
from ogen.generator import _TENSOR_FIELDS, extrapolate_per_class, init_params, load_checkpoint, save_checkpoint
from ogen.objective import prob_per_class_scheme
from ogen.retrieval import build_context, retrieve_knn
from ogen.trainer import (
    TrainConfig,
    _EvalCache,
    ablate,
    ablation_workers,
    evaluate,
    harmonic_mean,
    load_state,
    save_state,
    train,
)


def tiny_dataset(seed=0, classes=8, dim=16, per_class=6, text_noise=0.4):
    return make_synthetic(
        SynthConfig(
            num_classes=classes,
            dim=dim,
            per_class=per_class,
            image_noise=0.15,
            text_noise=text_noise,
            base_fraction=0.5,
            seed=seed,
        )
    )


def tiny_config(**kw):
    defaults = dict(epochs=4, batch_size=16, seed=0)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestHarmonicMean:
    def test_published_aggregates(self):
        assert abs(harmonic_mean(82.69, 63.22) - 71.66) < 0.01
        assert abs(harmonic_mean(83.47, 69.54) - 75.87) < 0.01
        assert abs(harmonic_mean(80.47, 71.69) - 75.83) < 0.01

    def test_equal_inputs(self):
        for x in (0.0, 0.37, 55.5, 100.0):
            assert harmonic_mean(x, x) == pytest.approx(x)

    def test_zero_kills_everything(self):
        assert harmonic_mean(100.0, 0.0) == 0.0
        assert harmonic_mean(0.0, 0.0) == 0.0

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a, b = rng.uniform(0, 1, size=2)
            h = harmonic_mean(a, b)
            assert h == harmonic_mean(b, a)
            assert h <= (a + b) / 2 + 1e-15
            assert h <= 2 * min(a, b) + 1e-15

    def test_negative_rejected(self):
        with pytest.raises(DataError):
            harmonic_mean(-0.1, 0.5)


def union_accuracies(ds, emb):
    """(base_acc, new_acc) of the argmax over all C_b + C_f union columns,
    learnable first, as one product per split: the brute-force oracle.
    Also returns each split's (predictions, labels)."""
    base, new = list(ds.split.base), list(ds.split.new)
    union = np.concatenate([emb, ds.embedding_columns(new)], axis=1) if new else emb
    unit = union / np.linalg.norm(union, axis=0)
    accs, preds = [], []
    for classes, offset in ((base, 0), (new, len(base))):
        feats = np.concatenate([class_rows(ds, c) for c in classes] or [np.empty((0, ds.dim))], dtype=np.float64)
        labels = np.repeat(np.arange(offset, offset + len(classes)), [ds.counts[c] for c in classes])
        pred = np.argmax(feats @ unit, axis=1)
        accs.append(float(np.mean(pred == labels)) if len(pred) else 0.0)
        preds.append((pred, labels))
    return tuple(accs), preds


def row_major_reference(ds, emb):
    """The frozen verdict and the accuracies as evaluation scored them
    row-major, (N, C) blocks reduced along axis 1, before it went
    class-major: (base_best, candidates, candidate_best, (base_acc, new_acc))."""
    cache = _EvalCache.of(ds)
    units, new = cache.units, list(ds.split.new)
    stack = np.concatenate([class_rows(ds, c) for c in new] or [np.empty((0, ds.dim))]).astype(np.float64)
    own = np.repeat(np.arange(len(new)), [ds.counts[c] for c in new]).astype(int)
    base_best, candidates, candidate_best = np.full(len(units), -np.inf), stack, np.empty(0)
    if new:
        unit = ogen.objective._unit_columns(np.ascontiguousarray(ds.embedding_columns(new)))[0]
        base_best = (units @ unit).max(axis=1)
        scores = stack @ unit
        hit = np.flatnonzero(scores.argmax(axis=1) == own)
        candidates, candidate_best = stack[hit], scores[hit, own[hit]]
    unit, _ = ogen.objective._unit_columns(np.ascontiguousarray(emb))
    scores = units @ unit
    pred = np.argmax(scores, axis=1)
    best = np.take_along_axis(scores, pred[:, None], axis=1)[:, 0]
    base_acc = float(np.count_nonzero((pred == cache.positions) & (best >= base_best)) / len(pred))
    new_acc = 0.0
    if len(candidates):
        new_acc = float(np.count_nonzero((candidates @ unit).max(axis=1) < candidate_best) / len(stack))
    return base_best, candidates, candidate_best, (base_acc, new_acc)


class TestEvaluate:
    def test_matches_brute_force_oracle(self):
        ds = tiny_dataset(seed=4)
        base = list(ds.split.base)
        emb = ds.embedding_columns(base)
        base_acc, new_acc, h = evaluate(None, emb, ds)

        union_classes = base + list(ds.split.new)
        union = ds.embedding_columns(union_classes)
        unit = union / np.linalg.norm(union, axis=0)

        def split_acc(classes, offset):
            hits = total = 0
            for pos, c in enumerate(classes):
                for row in class_rows(ds, c):
                    scores = unit.T @ row.astype(np.float64)
                    hits += int(int(np.argmax(scores)) == offset + pos)
                    total += 1
            return hits / total

        assert base_acc == split_acc(base, 0)
        assert new_acc == split_acc(list(ds.split.new), len(base))
        assert h == harmonic_mean(base_acc, new_acc)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_the_union_argmax_mid_run(self, seed):
        ds = tiny_dataset(seed=seed, classes=12, per_class=10)
        seen = []

        def check(state, row):
            (base_acc, new_acc), _ = union_accuracies(ds, state.embeddings)
            assert (row.base_acc, row.new_acc) == (base_acc, new_acc)
            assert evaluate(None, state.embeddings, ds)[:2] == (base_acc, new_acc)
            seen.append(row.epoch)

        train(ds, tiny_config(epochs=6, seed=seed), on_epoch=check)
        assert seen == list(range(6))

    def test_tie_with_a_frozen_column_goes_to_the_learnable_column(self):
        ds = tiny_dataset(seed=4, text_noise=0.0)
        base, new = list(ds.split.base), list(ds.split.new)
        emb = ds.embedding_columns(base)
        _, (_, (before, labels)) = union_accuracies(ds, emb)
        hits = (labels == len(base)) & (before == labels)  # new class 0's features predicted right
        assert hits.any()
        emb = emb.copy()
        emb[:, 1] = 2.0 * ds.embedding_columns(new[:1])[:, 0]  # parallel: the same unit column
        accs, (_, (pred, _)) = union_accuracies(ds, emb)
        assert np.all(pred[hits] == 1)
        assert evaluate(None, emb, ds)[:2] == accs

    def test_tie_of_a_base_feature_goes_to_its_learnable_column(self):
        ds = tiny_dataset(seed=4, text_noise=0.0)
        base, new = list(ds.split.base), list(ds.split.new)
        emb = ds.class_embeddings.copy()
        emb[new[0]] = emb[base[1]]  # a frozen column equal to learnable column 1
        ds = dataclasses.replace(ds, class_embeddings=emb)
        accs, ((pred, labels), _) = union_accuracies(ds, ds.embedding_columns(base))
        assert np.any((labels == 1) & (pred == 1))
        assert evaluate(None, ds.embedding_columns(base), ds)[:2] == accs

    def test_equal_columns_the_first_wins(self):
        ds = tiny_dataset(seed=4, text_noise=0.0)
        base, new = list(ds.split.base), list(ds.split.new)
        emb = ds.embedding_columns(base)
        (before, labels), (new_before, new_labels) = union_accuracies(ds, emb)[1]
        hits = (labels == 3) & (before == 3)
        new_hits = (new_labels == len(base) + 2) & (new_before == new_labels)
        assert hits.any() and new_hits.any()
        # learnable column 0 equals learnable column 3, frozen column 1 equals frozen column 2
        emb = emb.copy()
        emb[:, 0] = emb[:, 3]
        classes = ds.class_embeddings.copy()
        classes[new[1]] = classes[new[2]]
        ds = dataclasses.replace(ds, class_embeddings=classes)
        accs, ((pred, _), (new_pred, _)) = union_accuracies(ds, emb)
        assert np.all(pred[hits] == 0)
        assert np.all(new_pred[new_hits] == len(base) + 1)
        assert evaluate(None, emb, ds)[:2] == accs

    def test_no_new_classes(self):
        # base_fraction=1.0: base_best is -inf, there are no candidates, and
        # the tie rule holds among the learnable columns alone
        ds = make_synthetic(SynthConfig(num_classes=8, dim=16, per_class=6, base_fraction=1.0, seed=1))
        emb = ds.embedding_columns(list(ds.split.base)) + 0.3 * np.random.default_rng(0).standard_normal((16, 8))
        for tie in (False, True):
            if tie:
                emb[:, 5] = emb[:, 2]
            (base_acc, new_acc), ((pred, labels), _) = union_accuracies(ds, emb)
            assert 0.0 < base_acc < 1.0
            assert not tie or (not np.any(pred == 5) and np.any((labels == 2) & (pred == 2)))
            assert evaluate(None, emb, ds)[:2] == (base_acc, 0.0) and new_acc == 0.0
        cache = _EvalCache.of(ds)
        assert cache.n_new == 0 and cache.candidates.shape == (0, ds.dim)
        assert len(cache.base_best) == len(cache.units) and np.all(cache.base_best == -np.inf)

    def test_two_equal_learnable_columns_the_first_ones_rows_count_right(self):
        # base class 3 takes class 1's embedding and, as its only feature, a
        # copy of a feature of class 1 that class 1's column wins: the tie
        # goes to column 1, so that row counts right for class 1 and wrong
        # for class 3. Had it gone to the later column, class 1's right rows
        # would count wrong and class 3's one row right
        ds = tiny_dataset(seed=4, text_noise=0.0)
        base = list(ds.split.base)
        (pred, labels), _ = union_accuracies(ds, ds.embedding_columns(base))[1]
        right = np.flatnonzero((labels == 1) & (pred == 1))
        assert right.size >= 2
        rows = [class_rows(ds, c) for c in range(ds.num_classes)]
        rows[base[3]] = rows[base[1]][right[:1] - np.flatnonzero(labels == 1)[0]]
        classes = ds.class_embeddings.copy()
        classes[base[3]] = classes[base[1]]
        ds = dataclasses.replace(ds, class_embeddings=classes, image_features=np.concatenate(rows),
                                 counts=tuple(len(r) for r in rows))
        emb = ds.embedding_columns(base)
        accs, ((pred, labels), _) = union_accuracies(ds, emb)
        ones = np.count_nonzero((labels == 1) & (pred == 1))
        assert np.all(pred[labels == 3] == 1) and ones >= right.size
        first_wins = np.count_nonzero(pred == labels)
        last_wins = first_wins - ones + 1
        assert evaluate(None, emb, ds)[0] == accs[0] == first_wins / len(labels) != last_wins / len(labels)

    def test_matches_the_union_argmax_at_the_wide_shape(self):
        # C=300, d=128, 4 per class: 150 learnable columns against 600 base rows
        ds = make_synthetic(SynthConfig(num_classes=300, dim=128, per_class=4, seed=2))
        rng = np.random.default_rng(0)
        base, new = list(ds.split.base), list(ds.split.new)
        for trial in range(6):
            emb = ds.embedding_columns(base) + 0.02 * trial * rng.standard_normal((128, len(base)))
            emb[:, 7] = emb[:, 3]  # equal learnable columns
            emb[:, 9] = 2.0 * ds.embedding_columns(new[:1])[:, 0]  # a learnable column equal to a frozen one
            (base_acc, new_acc), _ = union_accuracies(ds, emb)
            assert evaluate(None, emb, ds) == (base_acc, new_acc, harmonic_mean(base_acc, new_acc))

    @pytest.mark.parametrize("shape", [(50, 64, 40), (300, 128, 4)], ids=["desk", "wide"])
    def test_class_major_scores_equal_the_row_major_reference(self, shape):
        # perturbed class and learnable embeddings, each trial with two equal
        # frozen columns, two equal learnable columns and a learnable column
        # equal to a frozen one: the frozen verdict has the reference's bits
        # and every accuracy is the reference's
        classes, dim, per_class = shape
        ds = make_synthetic(SynthConfig(num_classes=classes, dim=dim, per_class=per_class, seed=5))
        base, new = list(ds.split.base), list(ds.split.new)
        rng = np.random.default_rng(1)
        for trial in range(100):
            ce = ds.class_embeddings + 0.002 * (trial % 10) * rng.standard_normal(ds.class_embeddings.shape)
            ce[new[1]] = ce[new[0]]
            ce = (ce / np.linalg.norm(ce, axis=1, keepdims=True)).astype(np.float32)
            trial_ds = dataclasses.replace(ds, class_embeddings=ce)
            emb = trial_ds.embedding_columns(base) + 0.01 * (trial % 7) * rng.standard_normal((dim, len(base)))
            emb[:, trial % 5 + 5] = emb[:, trial % 5]
            emb[:, trial % 3 + 1] = 2.0 * trial_ds.embedding_columns(new[trial % 2:trial % 2 + 1])[:, 0]
            base_best, candidates, candidate_best, accs = row_major_reference(trial_ds, emb)
            cache = _EvalCache.of(trial_ds)
            assert cache.base_best.tobytes() == base_best.tobytes()
            assert cache.candidates.tobytes() == candidates.tobytes()
            assert cache.candidate_best.tobytes() == candidate_best.tobytes()
            assert evaluate(None, emb, trial_ds)[:2] == accs

    def test_no_frozen_argmax_is_right(self):
        ds = tiny_dataset(seed=4, text_noise=0.0)
        new = list(ds.split.new)
        # each new class takes the embedding of the next one, so each new
        # feature's best frozen column is another class's
        emb = ds.class_embeddings.copy()
        emb[new] = emb[np.roll(new, 1)]
        ds = dataclasses.replace(ds, class_embeddings=emb)
        cols = ds.embedding_columns(list(ds.split.base))
        (base_acc, new_acc), _ = union_accuracies(ds, cols)
        assert new_acc == 0.0
        assert len(_EvalCache.of(ds).candidates) == 0
        assert evaluate(None, cols, ds)[:2] == (base_acc, 0.0)

    def test_split_cache_is_built_once_per_dataset(self):
        # the base stack, the frozen verdict and the score blocks serve every
        # run and evaluate() of the dataset: the one cache the dataset keeps
        ds = tiny_dataset(seed=2)
        cfg = tiny_config(epochs=3)
        train(ds, cfg)
        (cache,) = ds._caches.values()
        result = train(ds, dataclasses.replace(cfg, scheme="none", distill="none"))
        evaluate(None, result.embeddings, ds)
        assert ds._caches == {_EvalCache: cache} and _EvalCache.of(ds) is cache
        # a dataset of other class embeddings builds its own
        other = dataclasses.replace(ds, class_embeddings=ds.class_embeddings[::-1].copy())
        assert _EvalCache.of(other) is not cache and ds._caches == {_EvalCache: cache}
        # the per-epoch score blocks have the learnable columns only, class-major,
        # the base split's and the candidates' at the start of one buffer
        scores, candidates = cache._base, cache._new
        assert scores.shape == (len(ds.split.base), len(cache.units))
        assert candidates.shape == (len(ds.split.base), len(cache.candidates))
        assert np.shares_memory(scores, candidates) and scores.flags.c_contiguous and candidates.flags.c_contiguous

    def test_eval_cache_is_built_once_per_dataset(self, monkeypatch):
        # a run, a second run of another configuration and a later
        # evaluate() of one dataset build its cache once, in the first run
        init, calls = _EvalCache.__init__, []

        def spy(self, dataset):
            calls.append(dataset)
            init(self, dataset)

        monkeypatch.setattr(_EvalCache, "__init__", spy)
        ds = tiny_dataset(seed=2)
        cfg = tiny_config(epochs=2)
        train(ds, cfg)
        assert calls == [ds]
        result = train(ds, dataclasses.replace(cfg, scheme="none", distill="none", tau=0.05))
        evaluate(None, result.embeddings, ds)
        assert len(calls) == 1 and calls[0] is ds

    def test_caches_hold_no_array_of_the_new_split(self):
        # the new split is stacked once, for the frozen verdict, and of its
        # features the dataset keeps only the candidates; of the base split
        # it keeps one float64 copy, the unit rows, and no run leaves its
        # (C_f, N_base) frozen cosines behind, only their log-sum-exp at the
        # runs' one tau (the validated row norms, that vector, the positions
        # and the flat index of each row's own score are one value per row).
        # Splits of unequal size tell a new-split array from a base-split one
        ds = make_synthetic(SynthConfig(num_classes=10, per_class=6, base_fraction=0.3))
        n_base, n_new = (sum(ds.counts[c] for c in classes) for classes in (ds.split.base, ds.split.new))
        evaluate(None, train(ds, tiny_config(epochs=2)).embeddings, ds)
        train(ds, tiny_config(epochs=1, scheme="none", distill="none"))

        def arrays(value):
            if isinstance(value, np.ndarray):
                yield value
            elif isinstance(value, (tuple, dict, _EvalCache)):
                items = vars(value) if isinstance(value, _EvalCache) else value
                for item in items.values() if isinstance(items, dict) else items:
                    yield from arrays(item)

        fields = {f.name for f in dataclasses.fields(ds)}
        caches = {name: value for name, value in vars(ds).items() if name not in fields}
        cached = list(arrays(tuple(caches.values())))
        cache = _EvalCache.of(ds)
        assert n_base != n_new and [a.shape for a in cached if a.shape[:1] == (n_new,)] == []
        assert set(caches) == {"_feature_norms", "_caches"} and list(ds._caches.values()) == [cache]
        assert len(cached) == 12  # the row norms, eight split arrays, two score blocks and one tau's vector
        assert list(cache.frozen_lse) == [tiny_config().tau] and cache.frozen_lse[tiny_config().tau].shape == (n_base,)
        assert cache.n_new == n_new and 0 < len(cache.candidates) < n_new
        (rows,) = [a for a in cached if a.shape == (n_base, ds.dim)]
        assert rows is cache.units and rows.dtype == np.float64 and not rows.flags.writeable
        assert [a for a in cached if a.shape == (len(ds.split.new), n_base)] == []

    def test_unit_rows_are_built_once_and_each_run_takes_its_frozen_lse(self, monkeypatch):
        # the base features' unit rows serve every run of the dataset, the
        # ablation grid's included; the frozen columns' share of the known
        # loss's denominators is built once per tau and serves every run at it
        init, calls, batches, built = _EvalCache.__init__, [], [], []
        known_batch_ce = ogen.objective.known_batch_ce

        class Built(dict):
            def __setitem__(self, tau, lse):
                built.append(tau)
                super().__setitem__(tau, lse)

        def spy(self, dataset):
            calls.append(dataset)
            init(self, dataset)
            self.frozen_lse = Built()

        def known_spy(features, class_matrix, tau, targets, frozen_lse):
            batches.append((features, tau, frozen_lse))
            return known_batch_ce(features, class_matrix, tau, targets, frozen_lse)

        monkeypatch.setattr(_EvalCache, "__init__", spy)
        monkeypatch.setattr(ogen.objective, "known_batch_ce", known_spy)
        ds = tiny_dataset(seed=2)
        cfg = tiny_config(epochs=2)
        cache = _EvalCache.of(ds)
        frozen_new = ds.embedding_columns(ds.split.new)
        lse = ogen.trainer._frozen_lse(cache, frozen_new, cfg.tau)
        assert ogen.trainer._frozen_lse(cache, frozen_new, cfg.tau) is lse
        first = train(ds, cfg)
        assert train(ds, cfg).metrics == first.metrics
        assert train(ds, dataclasses.replace(cfg, tau=0.05)).metrics != first.metrics
        ablate(ds, cfg, seeds=1)
        assert len(calls) == 1 and calls[0] is ds
        assert built == [cfg.tau, 0.05]
        # each kept vector has the bits of the one each run built for itself:
        # the (C_f, N) frozen cosines over tau, reduced along the frozen axis
        unit = ogen.objective._unit_columns(ds.embedding_columns(ds.split.new))[0]
        for tau, lse in cache.frozen_lse.items():
            assert not lse.flags.writeable
            scores = unit.T @ cache.units.T
            scores /= tau
            assert np.array_equal(lse, np.logaddexp.reduce(scores, axis=0, initial=-np.inf))
        # log sum_f exp(cos_f / tau) over the frozen columns, one feature at a time
        frozen = ds.embedding_columns(ds.split.new)
        frozen = frozen / np.linalg.norm(frozen, axis=0)
        assert {tau for _, tau, _ in batches} == {cfg.tau, 0.05}
        for features, tau, frozen_lse in batches:
            brute = [np.logaddexp.reduce(frozen.T @ f / tau) for f in features.T]
            np.testing.assert_allclose(frozen_lse, brute, rtol=1e-13)

    def test_no_new_classes_leave_the_known_loss_as_without_frozen_columns(self, monkeypatch):
        # base_fraction 1.0 makes the frozen log-sum-exp -inf: it adds
        # exp(-inf) = 0 to each denominator with no RuntimeWarning (an error
        # under the test configuration) and leaves the loss as without it
        ds = make_synthetic(SynthConfig(num_classes=6, dim=16, per_class=6, base_fraction=1.0, seed=3))
        assert not ds.split.new
        real, calls = ogen.objective.known_batch_ce, []

        def spy(*args):
            calls.append((real(*args), real(*args[:4]), args[4]))
            return calls[-1][0]

        monkeypatch.setattr(ogen.objective, "known_batch_ce", spy)
        train(ds, tiny_config(epochs=2))
        (loss, grad), (plain_loss, plain_grad), lse = calls[0]
        assert lse.shape == (16,) and np.all(lse == -np.inf)
        assert loss == plain_loss
        np.testing.assert_array_equal(grad, plain_grad)

    def test_shape_check(self):
        ds = tiny_dataset()
        with pytest.raises(DataError):
            evaluate(None, np.zeros((ds.dim, 1)), ds)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_embeddings_rejected(self, value):
        ds = tiny_dataset()
        emb = ds.embedding_columns(list(ds.split.base)).copy()
        emb[0, 0] = value
        with pytest.raises(DataError, match="non-finite"):
            evaluate(None, emb, ds)

    def test_embeddings_whose_squared_norms_overflow_are_rejected(self):
        # a cosine does not change when a column is scaled, but past about
        # 1e154 its squared norm is inf and the unit column would be zeros
        ds = tiny_dataset()
        emb = ds.embedding_columns(list(ds.split.base)) * 1e160
        with pytest.raises(DataError, match="^embeddings hold non-finite values or a column whose squared norm "
                                            "overflows$"):
            evaluate(None, emb, ds)
        assert evaluate(None, emb / 1e160, ds) == evaluate(None, ds.embedding_columns(list(ds.split.base)), ds)


class TestConfigValidation:
    def test_scheme_none_forces_distill_none(self):
        with pytest.raises(ConfigError, match="distill"):
            TrainConfig(scheme="none", distill="almt").validate()

    def test_fixed_is_no_distill_mode(self):
        # a constant window is almt with m_min = m_max
        with pytest.raises(ConfigError, match="unknown distill mode 'fixed'"):
            TrainConfig(distill="fixed").validate()

    @pytest.mark.parametrize(
        "field, value",
        [("epochs", 6.0), ("k", 2.5), ("heads", 4.0), ("k", True), ("random_neighbors", "no"),
         ("random_neighbors", 1), ("scheme", None), ("tau", "0.1"), ("d_ff", 8.0)],
    )
    def test_value_of_another_type_is_config_error(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be of type"):
            TrainConfig(**{field: value}).validate()

    @pytest.mark.parametrize("field, value", [("heads", 0), ("heads", -2), ("d_ff", 0), ("d_ff", -1)])
    def test_width_below_one_is_config_error(self, field, value):
        # checked without a dataset, so a stored run state cannot carry one
        with pytest.raises(ConfigError, match=f"{field} must be >= 1"):
            TrainConfig(**{field: value}).validate()

    @pytest.mark.parametrize(
        "field, value, message",
        [("epochs", 0, "epochs must be >= 1, got 0"),
         ("batch_size", 0, "batch_size must be >= 1, got 0"),
         ("k", 0, "k must be >= 1, got 0"),
         ("tau", 0.0, "tau must be positive, got 0.0"),
         ("learning_rate", -0.1, "learning rates must be non-negative"),
         ("generator_lr", -0.1, "learning rates must be non-negative"),
         ("momentum", 1.0, "momentum must be in [0, 1), got 1.0"),
         ("momentum", -0.5, "momentum must be in [0, 1), got -0.5"),
         ("lambda_syn", -1.0, "loss weights must be non-negative"),
         ("lambda_distill", -1.0, "loss weights must be non-negative")],
    )
    def test_value_out_of_range_is_config_error(self, field, value, message):
        with pytest.raises(ConfigError) as exc:
            TrainConfig(**{field: value}).validate()
        assert str(exc.value) == message

    def test_negative_seed_is_config_error(self):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            TrainConfig(seed=-1).validate()

    def test_int_for_float_and_none_where_allowed_are_accepted(self):
        TrainConfig(tau=1, momentum=0, d_ff=None).validate()
        TrainConfig(d_ff=16).validate()

    def test_unknown_scheme(self):
        with pytest.raises(ConfigError):
            TrainConfig(scheme="both").validate()

    def test_pseudo_fraction_must_leave_known_classes(self):
        ds = tiny_dataset()
        with pytest.raises(ConfigError, match="no known classes"):
            TrainConfig(pseudo_unknown_fraction=0.99, epochs=1).validate(ds)

    def test_heads_must_divide_dim(self):
        ds = tiny_dataset(dim=18)
        with pytest.raises(ConfigError, match="heads"):
            TrainConfig(heads=4, epochs=1).validate(ds)

    def test_base_classes_need_two_examples(self):
        ds = make_synthetic(SynthConfig(num_classes=4, dim=8, per_class=1, seed=0))
        with pytest.raises(DataError, match=">= 2 image features"):
            TrainConfig(epochs=1, heads=2).validate(ds)


class TestTrainLoop:
    def test_deterministic_metrics(self):
        ds = tiny_dataset()
        cfg = tiny_config(scheme="joint", distill="almt", epochs=5)
        a = train(ds, cfg).metrics
        b = train(ds, cfg).metrics
        assert a == b  # dataclass equality is exact float equality

    def test_baseline_never_builds_neighbor_context(self, monkeypatch):
        ds = tiny_dataset()
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return build_context(*args, **kwargs)

        monkeypatch.setattr(ogen.trainer, "build_context", spy)
        result = train(ds, tiny_config(scheme="none", distill="none"))
        assert calls == []
        train(ds, tiny_config(scheme="joint", distill="none", epochs=2))
        assert len(calls) == 2  # one batched context per epoch once a generator trains
        assert all(m.synth_ce == 0.0 and m.distill_mse == 0.0 for m in result.metrics)
        assert result.params is None

    def test_zero_learning_rates_freeze_dynamics(self):
        # accuracies stay frozen; loss columns still vary with the
        # per-epoch pseudo-split resampling, so they are not asserted
        ds = tiny_dataset()
        cfg = tiny_config(scheme="none", distill="none", learning_rate=0.0, epochs=5)
        result = train(ds, cfg)
        first = result.metrics[0]
        for m in result.metrics[1:]:
            assert m.base_acc == first.base_acc
            assert m.new_acc == first.new_acc
        np.testing.assert_array_equal(
            result.embeddings, ds.embedding_columns(list(ds.split.base))
        )

    def test_optimization_makes_progress(self):
        # the synthesis term oscillates by design (persistent pressure on
        # the embeddings), so the seeded sanity check asserts the two
        # robust trends: the known-class loss falls across the first ten
        # epochs and the weighted total collapses from start to finish
        ds = make_synthetic(SynthConfig(num_classes=50, dim=64, per_class=40, seed=0))
        cfg = TrainConfig(epochs=200)
        metrics = train(ds, cfg).metrics
        total = [
            m.known_ce + cfg.lambda_syn * m.synth_ce + cfg.lambda_distill * m.distill_mse
            for m in metrics
        ]
        assert metrics[9].known_ce < metrics[0].known_ce
        assert np.mean(total[-10:]) < 0.2 * np.mean(total[:10])

    def test_teacher_params_never_updated_in_place(self):
        ds = tiny_dataset()
        cfg = tiny_config(scheme="joint", distill="almt", epochs=3)
        seen = {}

        def on_epoch(state, row):
            if state.queue is not None and len(state.queue):
                epoch0 = state.queue.entries[0]
                key = epoch0[0]
                snap = {k: getattr(epoch0[1], k).copy() for k in _TENSOR_FIELDS}
                if key in seen:
                    for name, v in seen[key].items():
                        np.testing.assert_array_equal(v, snap[name])
                seen[key] = snap

        train(ds, cfg, on_epoch=on_epoch)
        assert seen  # the queue was populated and re-checked

    def test_distill_modes_report_window_column(self):
        ds = tiny_dataset()
        almt = train(ds, tiny_config(scheme="joint", distill="almt", epochs=3)).metrics
        constant = train(ds, tiny_config(scheme="joint", distill="almt", m_min=4, m_max=4, epochs=3)).metrics
        none = train(ds, tiny_config(scheme="joint", distill="none", epochs=3)).metrics
        mt = train(ds, tiny_config(scheme="joint", distill="mt", epochs=3)).metrics
        assert [m.m_t for m in constant] == [4, 4, 4]
        assert all(m.m_t == 0 for m in none)
        assert all(m.m_t == 0 for m in mt)
        assert almt[0].m_t == 2  # cosine ramp starts at the minimum window
        # no teacher exists at epoch 0; afterwards the window range is logged
        assert almt[0].teacher_lo is None and almt[0].distill_mse == 0.0
        assert almt[1].teacher_lo == 0 and almt[1].teacher_hi == 0

    @pytest.mark.parametrize(
        "head, term, scheme, distill, epoch",
        [
            ("known_batch_ce", "known_ce", "none", "none", 0),
            ("synth_ce_joint", "synth_ce", "joint", "none", 0),
            # the first teacher exists once epoch 0 has pushed its checkpoint
            ("distill_grad_joint", "distill_mse", "joint", "almt", 1),
        ],
        ids=["known_batch_ce", "synth_ce_joint", "distill_grad_joint"],
    )
    def test_non_finite_loss_aborts_with_diagnostics(self, monkeypatch, head, term, scheme, distill, epoch):
        ds = tiny_dataset()
        real = getattr(ogen.objective, head)

        def poisoned(*args):
            _, *grads = real(*args)
            return (float("nan"), *grads)

        monkeypatch.setattr(ogen.objective, head, poisoned)
        with pytest.raises(NumericalError, match=f"epoch {epoch}: .*{term}=nan"):
            train(ds, tiny_config(scheme=scheme, distill=distill))


    @pytest.mark.parametrize(
        "model, scheme, distill, value, epoch",
        [
            ("student", "joint", "none", 0.0, 0),
            ("student", "per_class", "none", np.nan, 0),
            ("student", "joint", "none", 1e160, 0),  # finite, but its squared norm overflows
            # the first teacher exists once epoch 0 has ended
            ("teacher", "joint", "mt", 0.0, 1),
            ("teacher", "per_class", "almt", np.inf, 1),
        ],
        ids=["student_zero", "student_nan", "student_overflow", "teacher_zero", "teacher_inf"],
    )
    def test_bad_synthesized_feature_aborts_before_a_head_reads_it(self, monkeypatch, model, scheme, distill,
                                                                   value, epoch):
        name = "extrapolate_jointly" if scheme == "joint" else "extrapolate_per_class"
        real, calls, poisoned, read = getattr(ogen.trainer, name), [], [], []

        def extrapolate(ctx, w_n, params):
            features, tape = real(ctx, w_n, params)
            calls.append(params)  # the student's params are one object all run; a teacher is another
            if (params is calls[0]) == (model == "student"):
                features = features.copy()
                features[..., 0] = value  # the first column, a whole synthesized feature
                poisoned.append(features)
            return features, tape

        def spy(head):
            def reading(features, *args):
                read.append(features)
                return head(features, *args)
            return reading

        monkeypatch.setattr(ogen.trainer, name, extrapolate)
        for head in ("synth_ce_joint", "synth_ce_per_class", "prob_joint_scheme", "prob_per_class_scheme"):
            monkeypatch.setattr(ogen.objective, head, spy(getattr(ogen.objective, head)))
        with pytest.raises(NumericalError, match=f"^the {model} synthesized a feature of zero or non-finite "
                                                 f"norm at epoch {epoch}: squared norms "):
            train(tiny_dataset(), tiny_config(scheme=scheme, distill=distill))
        assert poisoned and not any(features is bad for features in read for bad in poisoned)


class TestTrainedGeneratorImproves:
    def test_per_class_beats_normalized_supports_on_fresh_contexts(self):
        # after a toy run (d=16, K=3), the trained generator assigns the
        # conditioning class higher probability than the init generator
        # (whose output is exactly the layer-normalized supports) on fresh
        # support batches of the classes it trained over
        ds = make_synthetic(
            SynthConfig(num_classes=16, dim=16, per_class=12, image_noise=0.15,
                        text_noise=0.1, base_fraction=0.5, seed=4)
        )
        cfg = TrainConfig(epochs=80, scheme="per_class", distill="none", batch_size=32, seed=0)
        result = train(ds, cfg)
        params_init = init_params(cfg.heads, ds.dim, 2 * ds.dim, seed=0)
        base = list(ds.split.base)
        base_emb = result.embeddings
        union = np.concatenate([base_emb, ds.embedding_columns(ds.split.new)], axis=1)
        rows, firsts = ds.image_features, _EvalCache.of(ds).firsts
        rng = np.random.default_rng(99)
        wins = []
        gains = []
        for col, cls in enumerate(base):
            w = base_emb[:, col]
            others = [j for j in range(len(base)) if j != col]
            for _ in range(10):
                picks = retrieve_knn(w, base_emb[:, others], 3)
                ocols = [others[i] for i in picks]
                classes = [base[i] for i in ocols]
                picks = rng.integers([ds.counts[c] for c in classes])
                raw = base_emb[:, ocols]
                ctx = build_context(ocols, raw / np.linalg.norm(raw, axis=0), rows, firsts, picks)
                wq = w / np.linalg.norm(w)
                z_tr, _ = extrapolate_per_class(ctx, wq, result.params)
                z_ln, _ = extrapolate_per_class(ctx, wq, params_init)
                p_tr = prob_per_class_scheme(z_tr, union, cfg.tau)[col]
                p_ln = prob_per_class_scheme(z_ln, union, cfg.tau)[col]
                wins.append(p_tr > p_ln)
                gains.append(math.log(p_tr + 1e-300) - math.log(p_ln + 1e-300))
        assert np.mean(wins) > 0.75
        assert np.mean(gains) > 0.0


class TestStatePersistence:
    @pytest.mark.parametrize(
        "scheme,distill,m_max",
        [("joint", "almt", 9), ("joint", "mt", 9), ("joint", "almt", 2), ("per_class", "almt", 9)],
        ids=["almt", "mt", "fixed2", "per_class_almt"],  # fixed2: a constant window, m_min = m_max = 2
    )
    def test_resumed_run_matches_unbroken_run(self, tmp_path, scheme, distill, m_max):
        ds = tiny_dataset()
        cfg = tiny_config(scheme=scheme, distill=distill, m_max=m_max, epochs=8)
        full = train(ds, cfg)

        state_path = tmp_path / "state.bin"

        def snapshot(state, row):
            if row.epoch == 3:
                save_state(state_path, state, cfg)

        train(ds, cfg, on_epoch=snapshot)
        state, cfg_loaded = load_state(state_path)
        assert cfg_loaded == cfg
        resumed = train(ds, cfg, state=state)
        assert resumed.metrics == full.metrics[4:]
        assert np.array_equal(resumed.params.flat, full.params.flat)

    def test_state_saved_to_a_second_path_loads_and_resumes(self, tmp_path):
        # a trained state saved to two paths, and a loaded state saved to a
        # third: each save writes the checkpoints its path lists
        ds = tiny_dataset()
        cfg = tiny_config(scheme="joint", distill="almt", epochs=8)
        full = train(ds, cfg)
        paths = [tmp_path / name / "state.bin" for name in ("a", "b", "c")]
        for path in paths:
            path.parent.mkdir()

        def snapshot(state, row):
            if row.epoch == 3:
                save_state(paths[0], state, cfg)
                save_state(paths[1], state, cfg)

        train(ds, cfg, on_epoch=snapshot)
        save_state(paths[2], load_state(paths[0])[0], cfg)
        for path in paths:
            state, cfg_loaded = load_state(path)
            resumed = train(ds, cfg_loaded, state=state)
            assert resumed.metrics == full.metrics[4:]
            assert np.array_equal(resumed.params.flat, full.params.flat)

    @pytest.mark.parametrize("target", ["state.bin", "checkpoint.bin", "d.oef"])
    def test_failed_write_keeps_the_previous_file(self, tmp_path, monkeypatch, target):
        ds = tiny_dataset()
        cfg = tiny_config(scheme="joint", distill="almt", epochs=3)
        result = train(ds, cfg)
        path = tmp_path / target
        first, second, read = {
            "state.bin": (
                lambda: save_state(path, result.state, cfg),
                lambda: save_state(path, dataclasses.replace(result.state, next_epoch=1), cfg),
                lambda: load_state(path)[0].next_epoch,
            ),
            "checkpoint.bin": (
                lambda: save_checkpoint(path, result.params, "joint", 2),
                lambda: save_checkpoint(path, result.params, "joint", 1),
                lambda: load_checkpoint(path)[1]["epoch"],
            ),
            "d.oef": (
                lambda: save_embeddings(ds, path),
                lambda: save_embeddings(tiny_dataset(seed=1), path),
                lambda: load_embeddings(path).class_embeddings.tobytes(),
            ),
        }[target]
        first()
        old = read()
        # an almt state.bin also has its teacher checkpoints, in state.queue/
        before = file_tree(tmp_path)

        class Torn:
            """A file whose write stores half its bytes, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, chunk):
                self.fh.write(chunk[: len(chunk) // 2])
                raise OSError("disk full")

        monkeypatch.setattr(ogen._tensorio, "open", lambda p, mode: Torn(open(p, mode)), raising=False)
        with pytest.raises(OSError, match="disk full"):
            second()
        assert file_tree(tmp_path) == before
        checkpoints = [f"state.queue/{epoch}.f8" for epoch in range(3)]
        assert sorted(before) == ([target, *checkpoints] if target == "state.bin" else [target])
        monkeypatch.undo()

        # a write killed between its two renames: the old file is set aside,
        # the new one is not in yet, and the loader reads the one set aside
        real_replace = os.replace

        def killed_before_the_rename_in(src, dst):
            if os.fspath(dst) == os.fspath(path):
                raise OSError("killed between the renames")
            return real_replace(src, dst)

        aside = ogen._tensorio.aside_path(path)
        monkeypatch.setattr(os, "replace", killed_before_the_rename_in)
        with pytest.raises(OSError, match="killed"):
            second()
        monkeypatch.undo()
        assert not path.exists() and aside.read_bytes() == before[target]
        assert read() == old
        second()
        new = path.read_bytes()
        assert new != before[target]
        if target != "state.bin":
            assert not aside.exists()
            return

        # a save keeps the old state aside and rewrites it in place the next
        # time; a rewrite that fails part-way deletes the torn aside
        assert aside.read_bytes() == before[target]
        kept = file_tree(tmp_path)
        monkeypatch.setattr(ogen._tensorio, "open", lambda p, mode: Torn(open(p, mode)), raising=False)
        with pytest.raises(OSError, match="disk full"):
            first()
        monkeypatch.undo()
        del kept[aside.name]
        assert file_tree(tmp_path) == kept
        # then a save sets state.bin aside again, and the next one swaps the
        # rewritten aside in, the old state.bin becoming the aside
        first()
        second()
        assert (path.read_bytes(), aside.read_bytes()) == (new, before[target])

    @pytest.mark.parametrize(
        "distill,window,bundles",
        [
            ("none", None, []),
            ("mt", None, ["mt"]),
            ("almt", None, []),  # the queue goes to state.queue/
            pytest.param("almt", 2, [], id="fixed-2-bundles3"),  # a constant window, m_min = m_max = 2
        ],
    )
    def test_state_holds_one_flat_vector_per_bundle(self, tmp_path, distill, window, bundles):
        ds = tiny_dataset()
        cfg = tiny_config(scheme="joint", distill=distill, m_min=window or 2, m_max=window or 3, epochs=7)
        result = train(ds, cfg)
        save_state(tmp_path / "state.bin", result.state, cfg)
        tensors, meta = ogen._tensorio.read_tensor_file(tmp_path / "state.bin")
        assert meta["version"] == 6
        # an almt run's params are its newest checkpoint, stored in state.queue/ only
        params = [] if distill == "almt" else ["params"]
        assert list(tensors) == ["embeddings", "emb_velocity", *params, "velocity", *bundles]
        # each stored vector comes back as the bundle it was saved from
        state, _ = load_state(tmp_path / "state.bin")
        assert np.array_equal(state.params.flat, result.params.flat)
        loaded = {"params": state.params, "velocity": state.gen_velocity, "mt": state.mt_teacher}
        for name in list(tensors)[2:]:
            assert np.array_equal(loaded[name].flat, tensors[name])
        if distill != "almt":
            assert meta["queue_epochs"] is meta["queue_crc32"] is None
            assert [p.name for p in tmp_path.iterdir()] == ["state.bin"]
            return
        # the queue holds its teacher's widest window, m_max + 1: 4 for the
        # window growing to 3 and 3 for the constant window of 2, one
        # headerless file of little-endian float64 per checkpoint, epoch e's
        # in ring file e mod (m_max + 2)
        capacity = 3 if window == 2 else 4
        epochs = list(range(7 - capacity, 7))
        assert meta["queue_epochs"] == epochs == [e for e, _ in state.queue.entries]
        files = file_tree(tmp_path)
        ring = {epoch: f"state.queue/{epoch % (capacity + 1)}.f8" for epoch in epochs}
        assert sorted(files) == sorted(["state.bin", *ring.values()])
        for (epoch, saved), (_, params), crc in zip(result.state.queue.entries, state.queue.entries, meta["queue_crc32"]):
            raw = files[ring[epoch]]
            assert raw == saved.flat.astype("<f8").tobytes()
            assert zlib.crc32(raw) == crc
            assert np.array_equal(params.flat, saved.flat)
        assert files[ring[state.next_epoch - 1]] == state.params.flat.astype("<f8").tobytes()
        # the loaded params are a copy: training them leaves the teacher's checkpoint as it was
        assert not np.shares_memory(state.params.flat, state.queue.entries[-1][1].flat)
        # before its first checkpoint, an almt state stores its params itself
        save_state(tmp_path / "first.bin", ogen.trainer._init_state(ds, cfg), cfg)
        tensors, meta = ogen._tensorio.read_tensor_file(tmp_path / "first.bin")
        assert list(tensors) == ["embeddings", "emb_velocity", "params", "velocity"] and meta["queue_epochs"] == []
        assert np.array_equal(load_state(tmp_path / "first.bin")[0].params.flat, tensors["params"])

    def test_state_files_in_one_directory_keep_their_own_queue(self, tmp_path):
        ds = tiny_dataset()
        runs = {}
        for name, cfg in (("a", tiny_config(distill="almt")), ("b", tiny_config(distill="almt", m_min=1, m_max=1))):
            runs[name] = train(ds, cfg)
            save_state(tmp_path / f"{name}.bin", runs[name].state, cfg)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.bin", "a.queue", "b.bin", "b.queue"]
        for name, result in runs.items():
            state, _ = load_state(tmp_path / f"{name}.bin")
            saved = result.state.queue.entries
            assert [e for e, _ in state.queue.entries] == [e for e, _ in saved]
            for (_, params), (_, expected) in zip(state.queue.entries, saved):
                assert np.array_equal(params.flat, expected.flat)

    def test_almt_epoch_writes_the_state_and_one_slot(self, tmp_path, monkeypatch):
        # every epoch writes state.bin and the new checkpoint's 8 * P bytes,
        # nothing more, and computes one crc32: that of the new checkpoint.
        # Once the first m_max + 2 saves have made the ring of m_max + 2
        # files, a save creates, renames and deletes no file in state.queue/,
        # and lists no directory, for a growing window and a fixed one
        ds = tiny_dataset()
        real_open, real_crc32 = open, zlib.crc32
        written, crcs, churn = [], [], []

        class Counted:
            def __init__(self, fh):
                self.fh = fh

            def __getattr__(self, name):
                return getattr(self.fh, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                written[-1] += memoryview(data).nbytes
                return self.fh.write(data)

        def opened(file, *args):
            if not isinstance(file, int):  # by name: a new file, as write_in_place opens a descriptor
                churn.append(("open", file))
            return Counted(real_open(file, *args))

        def spied(name, real):
            def call(*args, **kwargs):
                churn.append((name, *args[:2]))
                return real(*args, **kwargs)
            return call

        for module in (ogen._tensorio, ogen.trainer):
            monkeypatch.setattr(module, "open", opened, raising=False)
        monkeypatch.setattr(zlib, "crc32", lambda data: crcs.append(1) or real_crc32(data))
        for name in ("replace", "rename", "unlink", "remove", "rmdir", "mkdir", "listdir", "scandir"):
            monkeypatch.setattr(os, name, spied(name, getattr(os, name)))
        real_os_open = os.open
        monkeypatch.setattr(os, "open", lambda file, flags, *args: (
            flags & os.O_CREAT and churn.append(("create", file))) or real_os_open(file, flags, *args))
        for m_min, m_max in ((2, 3), (2, 2)):
            cfg = tiny_config(scheme="joint", distill="almt", m_min=m_min, m_max=m_max, epochs=9)
            path, sizes, inodes = tmp_path / f"{m_max}" / "state.bin", [], []
            queue = path.parent / "state.queue"
            path.parent.mkdir()
            written.clear()
            crcs.clear()

            def save(state, row):
                written.append(0)
                churn.clear()
                save_state(path, state, cfg)
                sizes.append(path.stat().st_size)
                if row.epoch >= m_max + 2:
                    assert [call for call in churn if "state.queue" in str(call) or call[0] in ("listdir", "scandir")] == []
                    inodes.append({entry.name: entry.stat().st_ino for entry in os.scandir(queue)})

            result = train(ds, cfg, on_epoch=save)
            row = 8 * result.params.flat.size
            assert len(crcs) == cfg.epochs
            assert len(written) == cfg.epochs
            assert written == [size + row for size in sizes]
            # the saves of the full ring kept its files, by name and inode
            assert len(inodes) == cfg.epochs - m_max - 2 and all(names == inodes[0] for names in inodes)
            assert sorted(inodes[0]) == [f"{slot}.f8" for slot in range(m_max + 2)]

    @pytest.mark.parametrize("distill, calls", [
        ("none", {"stat": 1, "lstat": 1, "open": 1, "fstat": 1, "replace": 3}),
        ("almt", {"stat": 1, "lstat": 2, "open": 2, "fstat": 2, "replace": 3}),
    ])
    def test_steady_save_makes_a_fixed_set_of_os_calls(self, tmp_path, monkeypatch, distill, calls):
        # a save runs every epoch: once the aside is kept and the ring of
        # m_max + 2 files is full, it checks state.bin and state.queue, opens
        # the aside and the ring file it rewrites in place, and swaps the
        # aside in with three renames
        ds = tiny_dataset()
        cfg = tiny_config(scheme="joint", distill=distill, m_min=2, m_max=2, epochs=8)
        live, counts = [], []

        def spied(name, real):
            def call(*args, **kwargs):
                for count in live:
                    count[name] += 1
                return real(*args, **kwargs)
            return call

        for name in calls:
            monkeypatch.setattr(os, name, spied(name, getattr(os, name)))

        def save(state, row):
            live.append(dict.fromkeys(calls, 0))
            save_state(tmp_path / "state.bin", state, cfg)
            counts.append(live.pop())

        train(ds, cfg, on_epoch=save)
        assert counts[4:] == [calls] * 4

    @pytest.mark.parametrize("occupant", ["symlink", "file"])
    def test_save_into_a_queue_path_of_no_directory_is_data_error_and_changes_no_file(self, tmp_path, occupant):
        # a save writes its ring files into state.queue: through a symlink,
        # they would land in another directory
        ds = tiny_dataset()
        cfg = tiny_config(distill="almt", epochs=2)
        lib, target = tmp_path / "lib", tmp_path / "target"
        lib.mkdir()
        target.mkdir()
        (target / "precious.txt").write_bytes(b"not a checkpoint")
        if occupant == "symlink":
            (lib / "state.queue").symlink_to(target, target_is_directory=True)
        else:
            (lib / "state.queue").write_bytes(b"not a directory")
        before = file_tree(lib), file_tree(target)
        with pytest.raises(DataError, match=f"{lib / 'state.queue'} is not a directory of the run's own"):
            train(ds, cfg, on_epoch=lambda state, row: save_state(lib / "state.bin", state, cfg))
        assert (file_tree(lib), file_tree(target)) == before
        assert [p.name for p in lib.iterdir()] == ["state.queue"]

    def test_state_file_round_trip(self, tmp_path):
        ds = tiny_dataset()
        cfg = tiny_config(scheme="joint", distill="mt", epochs=3)
        result = train(ds, cfg)
        p1 = tmp_path / "a.bin"
        p2 = tmp_path / "b.bin"
        save_state(p1, result.state, cfg)
        state, cfg2 = load_state(p1)
        save_state(p2, state, cfg2)
        assert p1.read_bytes() == p2.read_bytes()


class TestAblate:
    @pytest.mark.parametrize("seeds", [0, -1])
    def test_seeds_below_one_is_config_error(self, seeds):
        with pytest.raises(ConfigError) as exc:
            ablate(tiny_dataset(), tiny_config(), seeds=seeds)
        assert str(exc.value) == f"seeds must be >= 1, got {seeds}"

    def test_grid_structure_and_bookkeeping(self):
        ds = tiny_dataset()
        base_cfg = tiny_config(epochs=2)
        report = ablate(ds, base_cfg, seeds=2)
        tables = report.tables()
        assert set(tables) == {"component", "schemes", "k_sweep", "distill"}
        assert [r["variant"] for r in report.component] == [
            "generator=off distill=off",
            "generator=on distill=off",
            "generator=on distill=on",
        ]
        assert [r["variant"] for r in report.schemes] == ["none", "per_class", "joint"]
        assert [r["variant"] for r in report.k_sweep] == [
            "knn k=1", "knn k=2", "knn k=3", "knn k=4", "random k=3",
        ]
        assert [r["variant"] for r in report.distill] == [
            "none", "mt", "fixed m=2", "fixed m=9", "almt",
        ]
        # a fixed window of w is almt with m_min = m_max = w
        for row, w in zip(report.distill[2:4], (2, 9)):
            runs = [
                train(ds, dataclasses.replace(base_cfg, scheme="joint", distill="almt", m_min=w, m_max=w, seed=seed))
                for seed in (base_cfg.seed, base_cfg.seed + 1)
            ]
            finals = [(r.metrics[-1].base_acc, r.metrics[-1].new_acc, r.metrics[-1].harmonic_mean) for r in runs]
            assert row == {"variant": f"fixed m={w}", **ogen.trainer._cell_stats(finals)}
        for rows in tables.values():
            for row in rows:
                assert row["seeds"] == 2
                for key in ("base_mean", "new_mean", "h_mean"):
                    assert 0.0 <= row[key] <= 1.0

    def test_shared_cells_agree_and_runs_are_deterministic(self):
        ds = tiny_dataset()
        base_cfg = tiny_config(epochs=2)
        r1 = ablate(ds, base_cfg, seeds=2)
        r2 = ablate(ds, base_cfg, seeds=2)
        assert r1.tables() == r2.tables()
        # the joint/no-distill cell appears in three tables; identical runs
        assert r1.component[1]["h_mean"] == r1.schemes[2]["h_mean"] == r1.distill[0]["h_mean"]

    def test_tables_do_not_depend_on_the_thread_count(self, monkeypatch):
        # the grid runs serially whatever OGEN_THREADS once asked for; each
        # fresh dataset builds its own stacked rows and offsets, and reusing
        # the built ones gives the same tables
        ds = tiny_dataset()
        tables = {}
        for threads in ("2", "1"):
            monkeypatch.setenv("OGEN_THREADS", threads)
            tables[threads] = ablate(tiny_dataset(), tiny_config(epochs=2), seeds=2).tables()
        tables["reused"] = ablate(ds, tiny_config(epochs=2), seeds=2).tables()
        assert ablate(ds, tiny_config(epochs=2), seeds=2).tables() == tables["reused"]
        assert tables["1"] == tables["2"] == tables["reused"]

    def test_grid_runs_serially_and_fills_one_score_buffer(self, monkeypatch):
        # ablate starts no thread: its runs go one after another in the
        # caller's, and every run and evaluate() of the dataset fills the
        # dataset's one pair of score blocks, built once
        import threading

        monkeypatch.setattr(threading.Thread, "start", lambda self: pytest.fail("ablate started a thread"))
        workers, filled, accuracies = [], [], ogen.trainer._EvalCache.accuracies
        monkeypatch.setattr(ogen.trainer, "ablation_workers", lambda: workers.append(ablation_workers()) or 1)

        def spy(self, base_embeddings):
            filled.append((self._base, self._new))
            return accuracies(self, base_embeddings)

        monkeypatch.setattr(ogen.trainer._EvalCache, "accuracies", spy)
        ds = tiny_dataset()
        ablate(ds, tiny_config(epochs=2), seeds=1)
        evaluate(None, ds.embedding_columns(ds.split.base), ds)
        assert workers == [1]  # one call per grid: the benchmark records its result
        assert len(filled) == 11 * 2 + 1
        cache = _EvalCache.of(ds)
        assert all(base is cache._base and new is cache._new for base, new in filled)
