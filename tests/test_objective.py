"""Probability heads, losses, and their gradients through the cosine chain."""

import numpy as np
import pytest
from conftest import central_diff, rel_err

from ogen.errors import DataError
from ogen.objective import (
    CosineGraph,
    _softmax,
    _unit_columns,
    class_probabilities,
    distill_grad_joint,
    distill_grad_per_class,
    distill_mse,
    known_batch_ce,
    prob_joint_scheme,
    prob_per_class_scheme,
    synth_ce_joint,
    synth_ce_per_class,
)


class TestProbabilityHeads:
    def test_joint_equals_class_probabilities(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal(8)
        W = rng.standard_normal((8, 5))
        np.testing.assert_array_equal(
            prob_joint_scheme(z, W, 0.07), class_probabilities(z, W, 0.07)
        )

    def test_single_column_equals_joint(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal(8)
        W = rng.standard_normal((8, 5))
        np.testing.assert_array_equal(prob_per_class_scheme(z[:, None], W, 0.07), prob_joint_scheme(z, W, 0.07))

    @pytest.mark.parametrize(
        "head, batched",
        [("probabilities", True), ("ce", False), ("ce", True), ("distill", False), ("distill", True)],
    )
    def test_one_column_banks_equal_the_joint_heads(self, head, batched):
        # a joint feature is a bank of one column: (d,) is (d, 1) and
        # (d, U) is (U, d, 1), and the results agree bit for bit
        rng = np.random.default_rng(1)
        W = rng.standard_normal((8, 5))
        if batched:
            z, t, teacher = rng.standard_normal((8, 3)), rng.integers(0, 5, size=3), rng.standard_normal((8, 3))
            bank, unbank = (lambda a: a.T[:, :, None]), (lambda g: g[:, :, 0].T)
        else:
            z, t, teacher = rng.standard_normal(8), 2, rng.standard_normal(8)
            bank, unbank = (lambda a: a[:, None]), (lambda g: g[:, 0])
        if head == "probabilities":
            np.testing.assert_array_equal(prob_per_class_scheme(bank(z), W, 0.07), prob_joint_scheme(z, W, 0.07))
            return
        if head == "ce":
            joint, per_class = synth_ce_joint(z, W, 0.07, t), synth_ce_per_class(bank(z), W, 0.07, t)
        else:
            pt = prob_joint_scheme(teacher, W, 0.07)
            joint, per_class = distill_grad_joint(pt, z, W, 0.07), distill_grad_per_class(pt, bank(z), W, 0.07)
        assert per_class[0] == joint[0]
        np.testing.assert_array_equal(unbank(per_class[1]), joint[1])
        np.testing.assert_array_equal(per_class[2], joint[2])

    @pytest.mark.parametrize("batch", [5, 8])
    def test_known_batch_ce_is_joint_ce_over_batch(self, batch):
        rng = np.random.default_rng(6)
        F = rng.standard_normal((8, batch))
        W = rng.standard_normal((8, 5))
        targets = rng.integers(0, 5, size=batch)
        # known_batch_ce takes unit features; the joint head normalizes its own
        loss, dW = known_batch_ce(_unit_columns(F)[0], W, 0.07, targets)
        joint_loss, _, joint_dW = synth_ce_joint(F, W, 0.07, targets)
        assert loss == joint_loss / batch
        np.testing.assert_allclose(dW, joint_dW / batch, rtol=1e-12, atol=1e-15)

    def test_identical_columns_collapse(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal(8)
        W = rng.standard_normal((8, 5))
        two = np.stack([z, z], axis=1)
        np.testing.assert_allclose(
            prob_per_class_scheme(two, W, 0.1),
            prob_per_class_scheme(z[:, None], W, 0.1),
            rtol=1e-14,
        )

    def test_average_of_per_column_softmaxes(self):
        rng = np.random.default_rng(3)
        Z = rng.standard_normal((8, 3))
        W = rng.standard_normal((8, 6))
        expected = np.mean(
            [class_probabilities(Z[:, k], W, 0.2) for k in range(3)], axis=0
        )
        np.testing.assert_allclose(prob_per_class_scheme(Z, W, 0.2), expected, rtol=1e-12)

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(4)
        Z = rng.standard_normal((8, 4))
        W = rng.standard_normal((8, 6))
        p1 = prob_per_class_scheme(Z, W, 0.1)
        p2 = prob_per_class_scheme(Z[:, [3, 0, 2, 1]], W, 0.1)
        np.testing.assert_allclose(p1, p2, rtol=1e-13)

    def test_normalization_and_positivity(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            d, C, K = (int(rng.integers(2, 12)) for _ in range(3))
            K = max(K, 1)
            Z = rng.standard_normal((d, K))
            W = rng.standard_normal((d, C))
            tau = float(rng.uniform(1e-4, 1.0))
            for p in (prob_per_class_scheme(Z, W, tau), prob_joint_scheme(Z[:, 0], W, tau)):
                assert abs(p.sum() - 1.0) < 1e-9
                assert np.all(p >= 0.0)


def unit(mat):
    return mat / np.linalg.norm(mat, axis=0)


def frozen_lse(scores, tau):
    """log sum_f exp(scores_f / tau) over the rows of (C_f, B) frozen
    cosine scores, as train builds it: (B,), -inf without rows."""
    return np.logaddexp.reduce(scores / tau, axis=0, initial=-np.inf)


class TestKnownBatchCe:
    """The known-class loss scores only the learnable columns; frozen
    columns join its softmax as one log-sum-exp per feature."""

    @staticmethod
    def inputs(seed, batch=6, learnable=5, frozen=4, dim=8):
        rng = np.random.default_rng(seed)
        F = unit(rng.standard_normal((dim, batch)))
        W = rng.standard_normal((dim, learnable)) * 1.5
        Wn = rng.standard_normal((dim, frozen))
        targets = rng.integers(0, learnable, size=batch)
        return F, W, Wn, targets

    @pytest.mark.parametrize("tau", [0.01, 0.1])
    def test_frozen_block_equals_the_union_matrix(self, tau):
        F, W, Wn, targets = self.inputs(20)
        loss, dW = known_batch_ce(F, W, tau, targets, frozen_lse=frozen_lse(unit(Wn).T @ unit(F), tau))
        union_loss, d_union = known_batch_ce(F, np.concatenate([W, Wn], axis=1), tau, targets)
        assert dW.shape == W.shape
        assert abs(loss - union_loss) <= 1e-12 * max(1.0, abs(union_loss))
        np.testing.assert_allclose(dW, d_union[:, : W.shape[1]], rtol=1e-12, atol=1e-12)

    def test_frozen_log_sum_exp_stays_finite_where_exp_overflows(self):
        # at tau = 1e-3 a frozen column close to a feature scores
        # exp(cos / tau) > exp(709), past float64; its log-sum-exp does not
        F, W, Wn, targets = self.inputs(26)
        Wn[:, :2] = F[:, :2] + 0.01 * Wn[:, :2]
        scores, tau = unit(Wn).T @ F, 1e-3
        with np.errstate(over="ignore"):
            assert np.isinf(np.exp(scores / tau)).any()
        lse = frozen_lse(scores, tau)
        assert np.all(np.isfinite(lse)) and lse.max() > 900
        loss, dW = known_batch_ce(F, W, tau, targets, lse)
        union_loss, d_union = known_batch_ce(F, np.concatenate([W, Wn], axis=1), tau, targets)
        assert abs(loss - union_loss) <= 1e-12 * max(1.0, abs(union_loss))
        np.testing.assert_allclose(dW, d_union[:, : W.shape[1]], rtol=1e-12, atol=1e-12)

    def test_class_gradient_with_frozen_block(self):
        F, W, Wn, targets = self.inputs(21)
        lse = frozen_lse(unit(Wn).T @ F, 0.1)
        _, dW = known_batch_ce(F, W, 0.1, targets, lse)
        fd = central_diff(lambda: known_batch_ce(F, W, 0.1, targets, lse)[0], W, 1e-4)
        assert rel_err(fd, dW) < 1e-4

    def test_class_gradient_with_more_columns_and_dims_than_features(self):
        # the shape of runs at scale, C_l > B and d > B: (d, C_l), (C_l, B)
        # and (d, B) all differ, so no product can be taken over a wrong axis
        F, W, Wn, targets = self.inputs(27, batch=5, learnable=12, frozen=7, dim=24)
        lse = frozen_lse(unit(Wn).T @ F, 0.1)
        _, dW = known_batch_ce(F, W, 0.1, targets, lse)
        assert dW.shape == (24, 12)
        fd = central_diff(lambda: known_batch_ce(F, W, 0.1, targets, lse)[0], W, 1e-4)
        assert rel_err(fd, dW) < 1e-4

    @staticmethod
    def reference(features, class_matrix, tau, targets, frozen_scores=None):
        """The loss as first written: raw features normalized per batch,
        the (C_f, B) frozen score block concatenated, full softmax and
        log-softmax."""
        graph = CosineGraph(features, class_matrix)
        scores = graph.scores
        c_l, b = scores.shape
        if frozen_scores is not None:
            scores = np.concatenate([scores, frozen_scores])
        probs, log_probs = _softmax(scores / tau)
        rows = np.arange(b)
        loss = float(-log_probs[targets, rows].sum() / b)
        d_scores = probs[:c_l]
        d_scores[targets, rows] -= 1.0
        d_scores /= tau * b
        return loss, graph.backward(d_scores)[1]

    @pytest.mark.parametrize("union", [True, False], ids=["union", "known_only"])
    @pytest.mark.parametrize("tau", [0.01, 0.1])
    def test_unit_rows_equal_the_per_batch_formula_bit_for_bit(self, tau, union):
        # train normalizes the (N, d) base features once and hands each
        # minibatch its rows of the unit matrix; every result must equal
        # that of normalizing the raw rows of the batch, and agree with the
        # formula as first written
        rng = np.random.default_rng(25)
        raw_rows = rng.standard_normal((150, 16)) * rng.uniform(0.5, 3.0, size=(150, 1))
        W, Wn = rng.standard_normal((16, 7)) * 1.5, rng.standard_normal((16, 4))
        labels = rng.integers(0, 7, size=150)
        units = _unit_columns(raw_rows.T)[0]
        unit_rows = units.T
        frozen = _unit_columns(Wn)[0].T @ units if union else None
        lse = frozen_lse(frozen, tau) if union else None
        shuffled = rng.permutation(150)
        batches = [shuffled[start : start + 64] for start in range(0, 150, 64)]
        assert [b.size for b in batches] == [64, 64, 22]
        for batch in batches:
            block, lse_block = (None, None) if frozen is None else (frozen[:, batch], lse[batch])
            loss, dW = known_batch_ce(unit_rows[batch].T, W, tau, labels[batch], lse_block)
            per_batch = known_batch_ce(_unit_columns(raw_rows[batch].T)[0], W, tau, labels[batch], lse_block)
            assert loss == per_batch[0]
            np.testing.assert_array_equal(dW, per_batch[1])
            # targets of any integer dtype index the same scores: t * B
            # would wrap in int8 or uint8 once it passes 127 or 255
            for dtype in (np.int8, np.uint8, np.uint64):
                narrow = known_batch_ce(unit_rows[batch].T, W, tau, labels[batch].astype(dtype), lse_block)
                assert narrow[0] == loss
                np.testing.assert_array_equal(narrow[1], dW)
            ref_loss, ref_dW = self.reference(raw_rows[batch].T, W, tau, labels[batch], block)
            assert abs(loss - ref_loss) <= 1e-12 * max(1.0, abs(ref_loss))
            np.testing.assert_allclose(dW, ref_dW, rtol=1e-12, atol=1e-12)

    def test_target_outside_the_learnable_columns_is_data_error(self):
        F, W, Wn, targets = self.inputs(22)
        lse = frozen_lse(unit(Wn).T @ F, 0.1)
        for bad in (W.shape[1], W.shape[1] + Wn.shape[1] - 1, -1):
            wrong = targets.copy()
            wrong[2] = bad
            with pytest.raises(DataError, match="learnable columns"):
                known_batch_ce(F, W, 0.1, wrong, lse)
        with pytest.raises(DataError, match="learnable columns"):
            known_batch_ce(F, W, 0.1, targets[:-1], lse)
        with pytest.raises(DataError, match="frozen log-sum-exp"):
            known_batch_ce(F, W, 0.1, targets, lse[:-1])
        # a mean over an empty batch is undefined
        for block in (None, lse[:0]):
            with pytest.raises(DataError, match="learnable columns in a nonempty batch"):
                known_batch_ce(F[:, :0], W, 0.1, targets[:0], block)

    @pytest.mark.parametrize("tau", [0.0, -0.1])
    def test_non_positive_temperature_is_value_error(self, tau):
        F, W, Wn, targets = self.inputs(23)
        with pytest.raises(ValueError, match="temperature"):
            known_batch_ce(F, W, tau, targets)
        with pytest.raises(ValueError, match="temperature"):
            known_batch_ce(F, W, tau, targets, frozen_lse(unit(Wn).T @ F, 0.1))

    def test_zero_class_column_is_data_error(self):
        F, W, _, targets = self.inputs(24)
        W[:, 1] = 0.0
        with pytest.raises(DataError, match="zero-norm"):
            known_batch_ce(F, W, 0.1, targets)


class TestUnitColumns:
    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: rng.standard_normal((64, 40)),
            lambda rng: rng.standard_normal((40, 64)).T,
            lambda rng: rng.standard_normal((7, 64, 3)),
            lambda rng: rng.standard_normal((64, 1000)) * 1e-3,
        ],
        ids=["columns", "transposed", "stack", "small_wide"],
    )
    def test_bit_equal_to_linalg_norm(self, make):
        m = make(np.random.default_rng(25))
        norms = np.linalg.norm(m, axis=-2, keepdims=True)
        got, got_norms = _unit_columns(m)
        np.testing.assert_array_equal(got_norms, norms)
        np.testing.assert_array_equal(got, m / norms)

    def test_zero_column_is_data_error(self):
        m = np.random.default_rng(26).standard_normal((3, 8, 4))
        m[2, :, 1] = 0.0
        with pytest.raises(DataError, match="zero-norm"):
            _unit_columns(m)


class TestDistillMse:
    def test_identical_vectors_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        loss, grad = distill_mse(p, p.copy())
        assert loss == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_opposite_one_hots(self):
        loss, _ = distill_mse(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert loss == 1.0

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            distill_mse(np.ones(3) / 3, np.ones(4) / 4)

    def test_teacher_side_receives_no_gradient(self):
        # contract: the returned gradient is for the student only; the
        # teacher vector is a constant and stays bit-identical
        rng = np.random.default_rng(7)
        pt = rng.dirichlet(np.ones(5))
        ps = rng.dirichlet(np.ones(5))
        pt_before = pt.copy()
        loss, grad = distill_mse(pt, ps)
        np.testing.assert_array_equal(pt, pt_before)
        np.testing.assert_allclose(grad, 2.0 * (ps - pt) / 5.0, rtol=1e-15)


class TestGradientChains:
    """Finite differences through softmax + cosine + normalization."""

    def test_known_batch_ce(self):
        rng = np.random.default_rng(8)
        F = rng.standard_normal((8, 5))
        F /= np.linalg.norm(F, axis=0)
        W = rng.standard_normal((8, 6))
        targets = rng.integers(0, 6, size=5)
        _, dW = known_batch_ce(F, W, 0.1, targets)
        fd = central_diff(lambda: known_batch_ce(F, W, 0.1, targets)[0], W, 1e-4)
        assert rel_err(fd, dW) < 1e-4

    @pytest.mark.parametrize("tau", [0.05, 0.2])
    def test_synth_ce_joint(self, tau):
        rng = np.random.default_rng(9)
        for trial in range(4):
            z = rng.standard_normal(8) * 2.0
            W = rng.standard_normal((8, 6))
            t = int(rng.integers(6))
            _, dz, dW = synth_ce_joint(z, W, tau, t)
            fd_z = central_diff(lambda: synth_ce_joint(z, W, tau, t)[0], z, 1e-4)
            fd_W = central_diff(lambda: synth_ce_joint(z, W, tau, t)[0], W, 1e-4)
            assert rel_err(fd_z, dz) < 1e-4
            assert rel_err(fd_W, dW) < 1e-4

    def test_synth_ce_per_class(self):
        rng = np.random.default_rng(10)
        Z = rng.standard_normal((8, 3)) * 1.5
        W = rng.standard_normal((8, 6))
        _, dZ, dW = synth_ce_per_class(Z, W, 0.1, 2)
        fd_Z = central_diff(lambda: synth_ce_per_class(Z, W, 0.1, 2)[0], Z, 1e-4)
        fd_W = central_diff(lambda: synth_ce_per_class(Z, W, 0.1, 2)[0], W, 1e-4)
        assert rel_err(fd_Z, dZ) < 1e-4
        assert rel_err(fd_W, dW) < 1e-4

    def test_distill_joint(self):
        rng = np.random.default_rng(11)
        z = rng.standard_normal(8)
        W = rng.standard_normal((8, 6))
        pt = prob_joint_scheme(rng.standard_normal(8), W, 0.1)
        _, dz, dW = distill_grad_joint(pt, z, W, 0.1)
        fd_z = central_diff(lambda: distill_grad_joint(pt, z, W, 0.1)[0], z, 1e-4)
        fd_W = central_diff(lambda: distill_grad_joint(pt, z, W, 0.1)[0], W, 1e-4)
        assert rel_err(fd_z, dz) < 1e-4
        assert rel_err(fd_W, dW) < 1e-4

    def test_distill_per_class(self):
        rng = np.random.default_rng(12)
        Z = rng.standard_normal((8, 3))
        W = rng.standard_normal((8, 6))
        pt = prob_per_class_scheme(rng.standard_normal((8, 3)), W, 0.1)
        _, dZ, dW = distill_grad_per_class(pt, Z, W, 0.1)
        fd_Z = central_diff(lambda: distill_grad_per_class(pt, Z, W, 0.1)[0], Z, 1e-4)
        fd_W = central_diff(lambda: distill_grad_per_class(pt, Z, W, 0.1)[0], W, 1e-4)
        assert rel_err(fd_Z, dZ) < 1e-4
        assert rel_err(fd_W, dW) < 1e-4


class TestBatchedHeads:
    """U conditioning classes in one call: losses add up, feature
    gradients stay per class, the class-matrix gradient sums over U."""

    @staticmethod
    def inputs(seed, joint):
        rng = np.random.default_rng(seed)
        Z = rng.standard_normal((8, 4) if joint else (4, 8, 3))
        W = rng.standard_normal((8, 6))
        targets = rng.integers(0, 6, size=4)
        teacher = rng.standard_normal(Z.shape)
        return Z, W, targets, teacher

    @pytest.mark.parametrize("joint", [True, False])
    def test_heads_match_separate_calls(self, joint):
        Z, W, targets, teacher = self.inputs(14, joint)
        ce, prob, distill = (
            (synth_ce_joint, prob_joint_scheme, distill_grad_joint)
            if joint
            else (synth_ce_per_class, prob_per_class_scheme, distill_grad_per_class)
        )
        column = (lambda a, u: a[:, u]) if joint else (lambda a, u: a[u])
        pt = prob(teacher, W, 0.1)
        assert pt.shape == (6, 4)
        loss, dZ, dW = ce(Z, W, 0.1, targets)
        mse, dmZ, dmW = distill(pt, Z, W, 0.1)
        sums = np.zeros(2)
        dW_sum, dmW_sum = np.zeros_like(W), np.zeros_like(W)
        for u in range(4):
            np.testing.assert_allclose(pt[:, u], prob(column(teacher, u), W, 0.1), rtol=1e-12)
            l_u, dz_u, dw_u = ce(column(Z, u), W, 0.1, int(targets[u]))
            m_u, dmz_u, dmw_u = distill(pt[:, u], column(Z, u), W, 0.1)
            sums += (l_u, m_u)
            dW_sum += dw_u
            dmW_sum += dmw_u
            np.testing.assert_allclose(column(dZ, u), dz_u, rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(column(dmZ, u), dmz_u, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose((loss, mse), sums, rtol=1e-12)
        np.testing.assert_allclose(dW, dW_sum, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(dmW, dmW_sum, rtol=1e-12, atol=1e-14)


class TestExtremeTemperature:
    def test_losses_finite_down_to_tau_1e4(self):
        # at tau=1e-4 the target probability itself underflows float64;
        # the log-space losses and ratio-form gradients must stay finite
        rng = np.random.default_rng(13)
        for _ in range(20):
            z = rng.standard_normal(8)
            Z = rng.standard_normal((8, 3))
            W = rng.standard_normal((8, 10))
            t = int(rng.integers(10))
            for tau in (1e-4, 1e-3, 0.01):
                loss, dz, dW = synth_ce_joint(z, W, tau, t)
                assert np.isfinite(loss) and np.all(np.isfinite(dz)) and np.all(np.isfinite(dW))
                loss, dZ, dW = synth_ce_per_class(Z, W, tau, t)
                assert np.isfinite(loss) and np.all(np.isfinite(dZ)) and np.all(np.isfinite(dW))
                F = rng.standard_normal((8, 4))
                F /= np.linalg.norm(F, axis=0)
                targets = rng.integers(0, 10, size=4)
                loss, dW = known_batch_ce(F, W, tau, targets)
                assert np.isfinite(loss) and np.all(np.isfinite(dW))
