"""Probabilities and losses of the one cosine-softmax head.

Known-class image features and synthesized features are scored by one
head: the cosine against the (d, C) class-embedding columns, then one
temperature softmax over the C classes. The head scores U banks of K
feature columns, a (U, d, K) stack, as (d, U*K) bank-major columns in one
product, giving (C, U, K) probabilities. A bank's probability vector is
the average of its K column softmaxes, its cross-entropy is
-log mean_k p_k[target], and its distillation loss is the squared error
of that average against a teacher's.

The per-class heads take one (d, K) bank or a (U, d, K) stack. The joint
heads are the same head with banks of one column: a (d,) feature is a
(d, 1) bank and (d, U) columns are a (U, d, 1) stack. Losses and the
class-matrix gradient add up over the U banks; probabilities come back as
(C,) for one bank or (C, U). Both sides of the cosine are normalized
inside, and the gradients chain through that normalization into the raw
features and class matrix (class embeddings drift off the unit sphere
while learning).

known_batch_ce, the known-class loss, scores a (d, B) batch of fixed
unit image features, which the trainer normalizes once per dataset,
against the learnable class columns only. Frozen columns join each
feature's softmax denominator as one number, log sum_f exp(cos_f / tau),
that gets no gradient; the trainer builds it for all its features once
per run. Without it the loss is the joint cross-entropy of the
normalized batch divided by B.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError


def _unit_columns(mat):
    """Columns of a (..., d, n) array scaled to unit norm, and the norms."""
    m = np.asarray(mat, dtype=np.float64)
    # np.linalg.norm's own reduction, without its Python overhead
    norms = np.sqrt(np.add.reduce(m * m, axis=-2, keepdims=True))
    if not norms.all():
        raise DataError("zero-norm column in cosine input")
    return m / norms, norms


def _unit_columns_vjp(unit, norms, d_unit):
    # w -> w/|w| per column: J^T g = (g - u (u . g)) / |w|
    return (d_unit - unit * (unit * d_unit).sum(axis=-2, keepdims=True)) / norms


class CosineGraph:
    """Cosine scores (C, N) of (d, N) raw feature columns against (d, C)
    raw class columns. backward(d_scores) returns the gradients w.r.t.
    the raw features and the raw classes."""

    def __init__(self, features, classes):
        self.fu, self.fnorms = _unit_columns(features)
        self.wu, self.wnorms = _unit_columns(classes)
        if self.fu.ndim != 2 or self.fu.shape[0] != self.wu.shape[0]:
            raise DataError(f"feature columns {self.fu.shape} do not match class dim {self.wu.shape[0]}")
        self.scores = self.wu.T @ self.fu

    def backward(self, d_scores):
        d_classes = _unit_columns_vjp(self.wu, self.wnorms, self.fu @ d_scores.T)
        return _unit_columns_vjp(self.fu, self.fnorms, self.wu @ d_scores), d_classes


def _softmax(logits):
    """Softmax and log-softmax over the class axis 0, from one exp pass."""
    shifted = logits - logits.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=0, keepdims=True)
    return e / total, shifted - np.log(total)


def softmax_vjp(probs, d_probs, tau: float):
    """Pull a gradient on softmax outputs (normalized along axis 0) back
    to the score inputs."""
    inner = (probs * d_probs).sum(axis=0, keepdims=True)
    return probs * (d_probs - inner) / tau


class _Head:
    """Per-class features (d, K) or (U, d, K), or joint features (d,) or
    (d, U), scored as a (U, d, K) stack: probs and log_probs are
    (C, U, K). Results for one bank (single) drop the U axis."""

    def __init__(self, features, class_matrix, tau: float, joint: bool):
        if tau <= 0:
            raise ValueError(f"temperature must be positive, got {tau}")
        f = np.asarray(features, dtype=np.float64)
        ndim = 1 if joint else 2
        if f.ndim not in (ndim, ndim + 1):
            raise DataError(f"expected a {ndim}-D feature bank or a stack of them, got shape {f.shape}")
        self.single, self.joint, self.tau = f.ndim == ndim, joint, tau
        if joint:
            f = f.T[..., None]
        if self.single:
            f = f[None]
        self.shape = U, d, K = f.shape
        self.graph = CosineGraph(np.moveaxis(f, 0, 1).reshape(d, U * K), class_matrix)
        self.probs, self.log_probs = _softmax(self.graph.scores.reshape(-1, U, K) / tau)

    def probabilities(self):
        pbar = self.probs.mean(axis=2)
        return pbar[:, 0] if self.single else pbar

    def backward(self, d_scores):
        """Gradients w.r.t. the features, in their own layout, and the
        class matrix."""
        U, d, K = self.shape
        d_cols, d_classes = self.graph.backward(d_scores.reshape(-1, U * K))
        d_feats = np.moveaxis(d_cols.reshape(d, U, K), 1, 0)
        if self.single:
            d_feats = d_feats[0]
        return (d_feats[..., 0].T if self.joint else d_feats), d_classes

    def cross_entropy(self, targets):
        """-log mean_k p_k[target] summed over the banks, and its
        gradients. Column k gets weight_k (p_k - onehot) / tau with
        weight_k = p_k[target] / sum_j p_j[target], a ratio that stays
        bounded when target probabilities underflow. The loss is taken in
        log space, so it stays finite there too."""
        t = np.reshape(targets, -1)
        rows = np.arange(t.size)
        log_target = self.log_probs[t, rows]  # (U, K)
        shift = log_target.max(axis=1, keepdims=True)
        e = np.exp(log_target - shift)
        total = e.sum(axis=1, keepdims=True)
        log_mean = shift[:, 0] + np.log(total[:, 0])
        loss = float(-(log_mean - np.log(self.shape[2])).sum())
        d_scores = self.probs
        d_scores[t, rows] -= 1.0
        d_scores *= e / total
        d_scores /= self.tau
        return (loss, *self.backward(d_scores))

    def distillation(self, p_teacher):
        """distill_mse of the bank averages against fixed teacher
        probabilities, and its gradients."""
        loss, d_pbar = distill_mse(p_teacher, self.probabilities())
        C, U, K = self.probs.shape
        d_probs = np.broadcast_to(np.reshape(d_pbar, (C, U, 1)), self.probs.shape) / K
        return (loss, *self.backward(softmax_vjp(self.probs, d_probs, self.tau)))


def class_probabilities(features, class_matrix, tau: float) -> np.ndarray:
    """Softmax over the cosine scores of one (d,) feature, or of each
    column of (d, U) features, against the (d, C) class columns: (C,) or
    (C, U). Invariant to positive rescaling of either side."""
    return _Head(features, class_matrix, tau, joint=True).probabilities()


# the joint scheme scores its one synthesized feature per class directly
prob_joint_scheme = class_probabilities


def prob_per_class_scheme(features, class_matrix, tau: float) -> np.ndarray:
    """Average of the per-column softmax vectors of a (d, K) feature bank,
    (C,); or of each bank of a (U, d, K) stack, (C, U)."""
    return _Head(features, class_matrix, tau, joint=False).probabilities()


def distill_mse(p_teacher, p_student):
    """Mean squared error between probability vectors (C,), or summed over
    the columns of (C, U) probability matrices.

    The teacher is a constant target: the returned gradient is w.r.t. the
    student only.
    """
    pt = np.asarray(p_teacher, dtype=np.float64)
    ps = np.asarray(p_student, dtype=np.float64)
    if pt.shape != ps.shape:
        raise DataError(f"probability shapes differ: {pt.shape} vs {ps.shape}")
    diff = ps - pt
    loss = float((diff * diff).sum() / ps.shape[0])
    return loss, 2.0 * diff / ps.shape[0]


def known_batch_ce(features, class_matrix, tau: float, targets, frozen_lse=None):
    """Mean cross-entropy of fixed (d, B) unit feature columns, normalized
    by the caller, toward targets among the learnable (d, C_l) class
    columns, with no feature gradient. frozen_lse, the (B,) values
    log sum_f exp(cos_f / tau) of the same features' cosines against
    frozen columns (-inf for none), joins every softmax denominator and
    gets no gradient. Returns (loss, d class_matrix)."""
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    fu = np.asarray(features, dtype=np.float64)
    w = np.asarray(class_matrix, dtype=np.float64)
    if fu.ndim != 2 or w.ndim != 2 or fu.shape[0] != w.shape[0]:
        raise DataError(f"feature columns {fu.shape} do not match class columns {w.shape}")
    sq_norms = np.einsum("ij,ij->j", w, w)
    if not sq_norms.all():
        raise DataError("zero-norm column in cosine input")
    c_l, b = w.shape[1], fu.shape[1]
    t = np.asarray(targets)
    if not b or t.shape != (b,) or t.dtype.kind not in "iu" or not 0 <= t.min() <= t.max() < c_l:
        raise DataError(f"targets {t!r} are not {b} indices of the {c_l} learnable columns in a nonempty batch")
    lse = np.full(b, -np.inf) if frozen_lse is None else np.asarray(frozen_lse, dtype=np.float64)
    if lse.shape != (b,):
        raise DataError(f"frozen log-sum-exp of shape {lse.shape} is not ({b},)")
    # (W^T F) r / tau with r = 1/|w|, and the frozen log-sum-exp as one more row
    r = 1.0 / np.sqrt(sq_norms)
    raw = w.T @ fu
    logits = np.empty((c_l + 1, b))
    np.multiply(raw, (r / tau)[:, None], out=logits[:c_l])
    logits[c_l] = lse
    logits -= logits.max(axis=0)
    flat, hit = logits.reshape(-1), np.ravel_multi_index((t, np.arange(b)), logits.shape)
    target_logits = flat[hit]
    total = np.exp(logits, out=logits).sum(axis=0)
    loss = float((np.log(total) - target_logits).sum()) / b
    # g = d loss / d cos = (p - onehot) / (tau B); through cos = (w . f) r,
    # d w_c = (F g_c - w_c r_c sum_b g_cb cos_cb) r_c with cos_cb = raw_cb r_c
    g = logits[:c_l]
    g /= total * (tau * b)
    flat[hit] -= 1.0 / (tau * b)
    grad = fu @ g.T
    grad -= w * (r * r * np.einsum("cb,cb->c", g, raw))
    grad *= r
    return loss, grad


def synth_ce_joint(features, class_matrix, tau: float, targets):
    """Cross-entropy of synthesized features toward their conditioning
    classes: one (d,) feature and target, or (d, U) feature columns and U
    targets. Returns (summed loss, d features, d class_matrix)."""
    return _Head(features, class_matrix, tau, joint=True).cross_entropy(targets)


def synth_ce_per_class(features, class_matrix, tau: float, targets):
    """Cross-entropy -log mean_k p_k[target] of the score-level average
    over K synthesized columns: one (d, K) bank and target, or (U, d, K)
    banks and U targets. Returns (summed loss, d features, d class_matrix)."""
    return _Head(features, class_matrix, tau, joint=False).cross_entropy(targets)


def distill_grad_joint(p_teacher, features, class_matrix, tau: float):
    """Consistency loss of student features, (d,) or (d, U), against fixed
    teacher probabilities of the same layout; returns (summed loss,
    d features, d class_matrix)."""
    return _Head(features, class_matrix, tau, joint=True).distillation(p_teacher)


def distill_grad_per_class(p_teacher, features, class_matrix, tau: float):
    """Consistency loss of K-column student banks, (d, K) or (U, d, K)
    (score-level average), against fixed teacher probabilities, (C,) or
    (C, U); returns (summed loss, d features, d class_matrix)."""
    return _Head(features, class_matrix, tau, joint=False).distillation(p_teacher)
