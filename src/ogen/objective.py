"""Probabilities and losses for joint known/synthesized discrimination.

All probability heads share one primitive: cosine similarity between a
feature and a matrix of class-embedding columns (CosineGraph), followed
by a stable temperature softmax. class_probabilities is that primitive
on its own, the scorer of the joint scheme. Both sides of the cosine are
normalized internally, and the backward helpers chain gradients through
that normalization into the raw feature and raw class matrix, which is
what training needs (class embeddings drift off the unit sphere while
learning).

Two heads exist for synthesized features: the joint scheme scores one
feature; the multi-column scheme averages the per-column softmax vectors
(score-level aggregation over the K synthesized features). Each head also
takes U classes at once, (d, U) or (U, d, K) features: losses add up over
U, the class-matrix gradient too, and probabilities come back as (C, U).
"""

from __future__ import annotations

import numpy as np

from .errors import DataError


# ---------------------------------------------------------------------------
# Cosine-score graph with hand-chained gradients
# ---------------------------------------------------------------------------


def _unit_columns(mat):
    """Columns of a (..., d, n) array scaled to unit norm, and the norms."""
    m = np.asarray(mat, dtype=np.float64)
    norms = np.linalg.norm(m, axis=-2, keepdims=True)
    if np.any(norms == 0.0):
        raise DataError("zero-norm column in cosine input")
    return m / norms, norms


def _unit_columns_vjp(unit, norms, d_unit):
    # w -> w/|w| per column: J^T g = (g - u (u . g)) / |w|
    return (d_unit - unit * (unit * d_unit).sum(axis=-2, keepdims=True)) / norms


class CosineGraph:
    """Cosine scores of feature columns against class columns.

    features: (d,), (d, K) or (U, d, K) raw vectors; classes: (d, C) raw
    columns. scores has shape (C,), (C, K) or (U, C, K). backward(d_scores)
    returns gradients w.r.t. the raw features and the raw class matrix,
    the latter summed over U.
    """

    def __init__(self, features, classes):
        feats = np.asarray(features, dtype=np.float64)
        self._single = feats.ndim == 1
        if self._single:
            feats = feats[:, None]
        self.fu, self.fnorms = _unit_columns(feats)
        self.wu, self.wnorms = _unit_columns(classes)
        if self.fu.shape[-2] != self.wu.shape[0]:
            raise DataError(
                f"feature dim {self.fu.shape[-2]} != class dim {self.wu.shape[0]}"
            )
        scores = self.wu.T @ self.fu
        self.scores = scores[:, 0] if self._single else scores

    def backward(self, d_scores):
        ds = np.asarray(d_scores, dtype=np.float64)
        if self._single:
            ds = ds[:, None]
        d_fu = self.wu @ ds                      # (..., d, K)
        d_wu = self.fu @ np.swapaxes(ds, -1, -2)  # (..., d, C)
        if d_wu.ndim == 3:
            d_wu = d_wu.sum(axis=0)
        d_feat = _unit_columns_vjp(self.fu, self.fnorms, d_fu)
        d_classes = _unit_columns_vjp(self.wu, self.wnorms, d_wu)
        if self._single:
            d_feat = d_feat[:, 0]
        return d_feat, d_classes


def _stable_softmax(logits, axis=0):
    shifted = logits - logits.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def _log_softmax(logits, axis=0):
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def softmax_vjp(probs, d_probs, tau: float, axis: int = 0):
    """Pull a gradient on softmax outputs (normalized along axis) back to
    the score inputs."""
    inner = (probs * d_probs).sum(axis=axis, keepdims=True)
    return probs * (d_probs - inner) / tau


# ---------------------------------------------------------------------------
# Probability heads
# ---------------------------------------------------------------------------


def class_probabilities(features, class_matrix, tau: float) -> np.ndarray:
    """Softmax over the cosine scores of one (d,) feature, or of each
    column of (d, U) features, against the (d, C) class columns: (C,) or
    (C, U). Invariant to positive rescaling of either side."""
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    return _stable_softmax(CosineGraph(features, class_matrix).scores / tau)


# the joint scheme scores its one synthesized feature per class directly
prob_joint_scheme = class_probabilities


def prob_per_class_scheme(features, class_matrix, tau: float) -> np.ndarray:
    """Average of the per-column softmax vectors of a (d, K) feature bank,
    (C,); or of each bank of a (U, d, K) stack, (C, U)."""
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim not in (2, 3):
        raise DataError(f"expected a (d, K) or (U, d, K) feature bank, got shape {feats.shape}")
    graph = CosineGraph(feats, class_matrix)
    probs = _stable_softmax(graph.scores / tau, axis=-2)
    return probs.mean(axis=-1).T


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


# ---------------------------------------------------------------------------
# Fused loss paths used by the trainer (loss + raw-input gradients)
# ---------------------------------------------------------------------------


def known_batch_ce(features, class_matrix, tau: float, targets):
    """Mean cross-entropy of fixed feature columns against class columns.

    features (d, B) are data (no gradient); returns (loss, d class_matrix).
    Loss is evaluated in log space, so it stays finite even when the
    target probability underflows at extreme temperatures.
    """
    t = np.asarray(targets, dtype=int)
    graph = CosineGraph(features, class_matrix)
    logits = graph.scores / tau
    log_probs = _log_softmax(logits, axis=0)
    B = logits.shape[1]
    loss = float(-log_probs[t, np.arange(B)].mean())
    d_scores = _stable_softmax(logits, axis=0)
    d_scores[t, np.arange(B)] -= 1.0
    d_scores /= tau * B
    _, d_classes = graph.backward(d_scores)
    return loss, d_classes


def synth_ce_joint(features, class_matrix, tau: float, targets):
    """Cross-entropy of synthesized features toward their conditioning
    classes: one (d,) feature and target, or (d, U) feature columns and U
    targets. Returns (summed loss, d features, d class_matrix). Log-space
    loss, fused softmax gradient."""
    graph = CosineGraph(features, class_matrix)
    logits = graph.scores.reshape(len(graph.scores), -1) / tau
    t = np.reshape(targets, -1)
    cols = np.arange(t.size)
    loss = float(-_log_softmax(logits)[t, cols].sum())
    d_scores = _stable_softmax(logits)
    d_scores[t, cols] -= 1.0
    d_scores /= tau
    d_feat, d_classes = graph.backward(d_scores.reshape(graph.scores.shape))
    return loss, d_feat, d_classes


def synth_ce_per_class(features, class_matrix, tau: float, targets):
    """Cross-entropy of the score-level average over K synthesized
    columns: one (d, K) bank and target, or (U, d, K) banks and U targets.
    Returns (summed loss, d features, d class_matrix).

    The average enters in log space: -log mean_k p_k[target]. The
    gradient for column k is weight_k * (p_k - onehot) / tau with
    weight_k = p_k[target] / sum_j p_j[target], a ratio that stays
    bounded when the per-column target probabilities underflow.
    """
    graph = CosineGraph(features, class_matrix)
    logits = graph.scores.reshape((-1,) + graph.scores.shape[-2:]) / tau  # (U, C, K)
    K = logits.shape[2]
    t = np.reshape(targets, -1)
    rows = np.arange(t.size)
    log_target = _log_softmax(logits, axis=1)[rows, t]  # (U, K)
    shift = log_target.max(axis=1, keepdims=True)
    log_mean = shift[:, 0] + np.log(np.exp(log_target - shift).sum(axis=1))
    loss = float((-log_mean + np.log(K)).sum())
    weights = _stable_softmax(log_target, axis=1)  # p_k[target] / sum_j p_j[target]
    d_scores = _stable_softmax(logits, axis=1)
    d_scores[rows, t] -= 1.0
    d_scores *= weights[:, None, :] / tau
    d_feats, d_classes = graph.backward(d_scores.reshape(graph.scores.shape))
    return loss, d_feats, d_classes


def distill_grad_joint(p_teacher, features, class_matrix, tau: float):
    """Consistency loss of student features, (d,) or (d, U), against fixed
    teacher probabilities of the same layout; returns (summed loss,
    d features, d class_matrix)."""
    graph = CosineGraph(features, class_matrix)
    probs = _stable_softmax(graph.scores / tau)
    loss, d_probs = distill_mse(p_teacher, probs)
    d_scores = softmax_vjp(probs, d_probs, tau)
    d_feat, d_classes = graph.backward(d_scores)
    return loss, d_feat, d_classes


def distill_grad_per_class(p_teacher, features, class_matrix, tau: float):
    """Consistency loss of K-column student banks, (d, K) or (U, d, K)
    (score-level average), against fixed teacher probabilities, (C,) or
    (C, U); returns (summed loss, d features, d class_matrix)."""
    graph = CosineGraph(features, class_matrix)
    probs = _stable_softmax(graph.scores / tau, axis=-2)
    K = probs.shape[-1]
    loss, d_pbar = distill_mse(p_teacher, probs.mean(axis=-1).T)
    d_probs = np.broadcast_to(d_pbar.T[..., None], probs.shape) / K
    d_scores = softmax_vjp(probs, d_probs, tau, axis=-2)
    d_feats, d_classes = graph.backward(d_scores)
    return loss, d_feats, d_classes
