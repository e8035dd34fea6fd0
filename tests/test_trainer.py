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
        ds = make_synthetic(SynthConfig(num_classes=8, dim=16, per_class=6, base_fraction=1.0, seed=1))
        emb = ds.embedding_columns(list(ds.split.base)) + 0.3 * np.random.default_rng(0).standard_normal((16, 8))
        (base_acc, new_acc), _ = union_accuracies(ds, emb)
        assert 0.0 < base_acc < 1.0
        assert evaluate(None, emb, ds)[:2] == (base_acc, 0.0) and new_acc == 0.0
        assert len(ogen.trainer._EvalCache(ds).candidates) == 0

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
        assert len(ogen.trainer._EvalCache(ds).candidates) == 0
        assert evaluate(None, cols, ds)[:2] == (base_acc, 0.0)

    def test_frozen_verdict_is_computed_once_per_dataset(self, monkeypatch):
        from functools import cached_property

        from ogen.embedding_store import EmbeddingSet

        verdict, calls = EmbeddingSet.__dict__["_frozen_verdict"].func, []

        def spy(dataset):
            calls.append(dataset)
            return verdict(dataset)

        prop = cached_property(spy)
        prop.__set_name__(EmbeddingSet, "_frozen_verdict")
        monkeypatch.setattr(EmbeddingSet, "_frozen_verdict", prop)
        ds = tiny_dataset(seed=2)
        cfg = tiny_config(epochs=3)
        train(ds, cfg)
        result = train(ds, dataclasses.replace(cfg, scheme="none", distill="none"))
        evaluate(None, result.embeddings, ds)
        assert len(calls) == 1 and calls[0] is ds
        # the per-epoch score matrix has the learnable columns only
        (scores,) = ds._score_scratch.values()
        assert scores.shape[1] == len(ds.split.base)

    def test_known_loss_inputs_are_computed_once_per_dataset(self, monkeypatch):
        # the base features' unit columns and their frozen-column scores
        # serve every run of the dataset, the ablation grid's included
        from functools import cached_property

        from ogen.embedding_store import EmbeddingSet

        inputs, calls = EmbeddingSet.__dict__["_known_loss_inputs"].func, []

        def spy(dataset):
            calls.append(dataset)
            return inputs(dataset)

        prop = cached_property(spy)
        prop.__set_name__(EmbeddingSet, "_known_loss_inputs")
        monkeypatch.setattr(EmbeddingSet, "_known_loss_inputs", prop)
        monkeypatch.setenv("OGEN_THREADS", "2")
        ds = tiny_dataset(seed=2)
        cfg = tiny_config(epochs=2)
        first = train(ds, cfg)
        assert train(ds, cfg).metrics == first.metrics
        ablate(ds, cfg, seeds=1)
        assert len(calls) == 1 and calls[0] is ds
        units, frozen_scores = ds._known_loss_inputs
        n = len(ds._split_features[0])
        assert units.shape == (ds.dim, n) and frozen_scores.shape == (len(ds.split.new), n)
        assert not (units.flags.writeable or frozen_scores.flags.writeable)

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
        rows, _, _, _, starts = ds._split_features
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
                ctx = build_context(ocols, raw / np.linalg.norm(raw, axis=0), rows, starts, picks)
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
        assert meta["version"] == 5
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
        # headerless file of little-endian float64 per checkpoint
        capacity = 3 if window == 2 else 4
        epochs = list(range(7 - capacity, 7))
        assert meta["queue_epochs"] == epochs == [e for e, _ in state.queue.entries]
        files = file_tree(tmp_path)
        assert sorted(files) == ["state.bin", *(f"state.queue/{e}.f8" for e in epochs)]
        for (epoch, saved), (_, params), crc in zip(result.state.queue.entries, state.queue.entries, meta["queue_crc32"]):
            raw = files[f"state.queue/{epoch}.f8"]
            assert raw == saved.flat.astype("<f8").tobytes()
            assert zlib.crc32(raw) == crc
            assert np.array_equal(params.flat, saved.flat)
        assert files[f"state.queue/{state.next_epoch - 1}.f8"] == state.params.flat.astype("<f8").tobytes()
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
        # nothing more, and computes one crc32: that of the new checkpoint
        ds = tiny_dataset()
        cfg = tiny_config(scheme="joint", distill="almt", m_max=3, epochs=9)
        real_open, real_crc32 = open, zlib.crc32
        written, crcs = [], []

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

        for module in (ogen._tensorio, ogen.trainer):
            monkeypatch.setattr(module, "open", lambda *args: Counted(real_open(*args)), raising=False)
        monkeypatch.setattr(zlib, "crc32", lambda data: crcs.append(1) or real_crc32(data))
        path, sizes = tmp_path / "state.bin", []

        def save(state, row):
            written.append(0)
            save_state(path, state, cfg)
            sizes.append(path.stat().st_size)

        result = train(ds, cfg, on_epoch=save)
        row = 8 * result.params.flat.size
        assert len(crcs) == cfg.epochs
        assert len(written) == cfg.epochs
        assert written == [size + row for size in sizes]

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
        # results do not depend on scheduling; two workers also build and
        # share a fresh dataset's stacked rows and offsets
        tables = {}
        for threads in ("2", "1"):
            monkeypatch.setenv("OGEN_THREADS", threads)
            tables[threads] = ablate(tiny_dataset(), tiny_config(epochs=2), seeds=2).tables()
        assert tables["1"] == tables["2"]

    def test_worker_cap_env(self, monkeypatch):
        monkeypatch.setenv("OGEN_THREADS", "1")
        assert ablation_workers() == 1
        assert ablation_workers(8) == 1
        monkeypatch.setenv("OGEN_THREADS", "0")
        with pytest.raises(ConfigError):
            ablation_workers()
        monkeypatch.setenv("OGEN_THREADS", "two")
        with pytest.raises(ConfigError, match="integer"):
            ablation_workers()
