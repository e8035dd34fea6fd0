"""The class-conditional feature generator and its exact backward pass.

Architecture: one multi-head cross-attention layer plus column-wise layer
normalization; the joint extrapolation variant adds a two-layer ReLU
feed-forward projection of the conditioning embedding. Everything uses a
columns-as-vectors convention: a (d, K) matrix holds K feature columns.

Two synthesis schemes share the attention core:

  per-class  Z = LN(S + MHCA(w 1^T, E, S))       -> (d, K), one column
             per neighbor; the residual extrapolates each support toward
             the conditioning class.
  joint      z = LN(FFN(w) + MHCA(w, E, S))      -> (d,), a single
             feature attending over all neighbors, anchored at a learned
             text-to-image projection of w.

Both read the K neighbors through a NeighborContext: unit text
embeddings E and one unit image feature per neighbor, S. Both take one
conditioning class, or U at once: (d, U) columns of w and a (U, d, K)
context give (d, U) joint or (U, d, K) outputs.

Gradients are derived by hand for exactly this architecture (no general
autodiff): each forward returns a tape consumed once by backward(), which
yields gradients for every parameter (summed over the batch) and for the
inputs, including the conditioning embeddings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from ._tensorio import check_format, read_tensor_file, write_tensor_file
from .errors import ConfigError, DataError
from .retrieval import NeighborContext

LN_EPS = 1e-5


@lru_cache(maxsize=16)
def _spans(heads: int, dim: int, d_ff: int) -> tuple:
    """(name, start, stop, shape) of every generator tensor in the flat
    vector, in storage order; rejects an architecture the generator
    cannot have."""
    if min(heads, dim, d_ff) < 1 or dim % heads != 0:
        raise ConfigError(f"need heads dividing dim and d_ff >= 1, got heads={heads}, dim={dim}, d_ff={d_ff}")
    d, f = dim, d_ff
    shapes = {
        "wq": (d, d), "wk": (d, d), "wv": (d, d), "wo": (d, d),
        "ln_gain": (d,), "ln_bias": (d,),
        "ffn_w1": (f, d), "ffn_b1": (f,), "ffn_w2": (d, f), "ffn_b2": (d,),
    }
    spans, stop = [], 0
    for name, shape in shapes.items():
        start, stop = stop, stop + math.prod(shape)
        spans.append((name, start, stop, shape))
    return tuple(spans)


_TENSOR_FIELDS = tuple(name for name, *_ in _spans(1, 1, 1))


@dataclass
class GeneratorParams:
    """All learnable tensors of the feature generator: one contiguous
    float64 vector `flat`, with every tensor of the layout (wq ... ffn_b2)
    an attribute holding a reshaped view of it."""

    heads: int
    dim: int
    d_ff: int
    flat: np.ndarray

    def __post_init__(self):
        spans = _spans(self.heads, self.dim, self.d_ff)
        size = spans[-1][2]
        flat = self.flat
        if not (isinstance(flat, np.ndarray) and flat.dtype == np.float64 and flat.ndim == 1
                and flat.flags.c_contiguous and flat.size == size):
            raise ConfigError(f"generator parameters must be one contiguous float64 vector of {size} values")
        for name, start, stop, shape in spans:
            setattr(self, name, flat[start:stop].reshape(shape))

    def __reduce__(self):
        # pickle and deepcopy rebuild the views from the (copied) vector
        return GeneratorParams, (self.heads, self.dim, self.d_ff, self.flat)

    def copy(self) -> "GeneratorParams":
        return replace(self, flat=self.flat.copy())

    def zeros_like(self) -> "GeneratorParams":
        """All-zero tensors of the same shapes: a gradient or momentum
        accumulator."""
        return replace(self, flat=np.zeros_like(self.flat))


@dataclass
class InputGrads:
    """Gradients w.r.t. the non-parameter inputs of a forward call, shaped
    like those inputs."""

    w_n: np.ndarray
    neighbor_embeddings: np.ndarray
    support_features: np.ndarray


@dataclass
class ForwardTape:
    """Cached activations of one forward call; consumed exactly once."""

    kind: str
    params: GeneratorParams
    cache: dict = field(repr=False, default_factory=dict)
    consumed: bool = False


def init_params(heads: int, dim: int, d_ff: int, seed: int) -> GeneratorParams:
    """Uniform(+-1/sqrt(d)) projection and FFN weights, zero output
    projection (so the attention residual vanishes at step 0), identity
    layer norm. Deterministic per seed."""
    size = _spans(heads, dim, d_ff)[-1][2]
    params = GeneratorParams(heads=heads, dim=dim, d_ff=d_ff, flat=np.zeros(size))
    rng = np.random.default_rng(seed)
    bound = 1.0 / math.sqrt(dim)
    for name in ("wq", "wk", "wv", "ffn_w1", "ffn_w2"):  # the draw order fixes the values
        tensor = getattr(params, name)
        tensor[...] = rng.uniform(-bound, bound, size=tensor.shape)
    params.ln_gain[...] = 1.0
    return params


# ---------------------------------------------------------------------------
# Attention core
# ---------------------------------------------------------------------------


def _sum_outer(a, b):
    """Sum of a @ b.T over any leading batch axes: (..., m, n) and
    (..., p, n) -> (m, p), the weight gradient of a shared linear map."""
    axes = [i for i in range(a.ndim) if i != a.ndim - 2]
    return np.tensordot(a, b, (axes, axes))


def _mhca_forward(params: GeneratorParams, query, keys, values):
    """Scaled dot-product cross-attention, heads as row blocks.

    query (..., d, Q), keys/values (..., d, K), with the same leading
    batch axes (none, or U). Per-head projections come from the column
    blocks of wq/wk/wv (applied transposed); softmax runs over the K key
    positions; concatenated heads go through the output projection.
    """
    h, d = params.heads, params.dim
    dh = d // h
    q = np.asarray(query, dtype=np.float64)
    k = np.asarray(keys, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    if q.ndim not in (2, 3) or k.ndim != q.ndim or k.shape != v.shape or k.shape[:-2] != q.shape[:-2]:
        raise DataError("attention inputs must be column matrices with one shared batch shape, keys like values")
    if q.shape[-2] != d or k.shape[-2] != d:
        raise DataError(f"attention inputs must have {d} rows")
    if k.shape[-1] < 1:
        raise DataError("attention needs at least one key/value column")

    batch, nq, nk = q.shape[:-2], q.shape[-1], k.shape[-1]
    pq = (params.wq.T @ q).reshape(batch + (h, dh, nq))
    pk = (params.wk.T @ k).reshape(batch + (h, dh, nk))
    pv = (params.wv.T @ v).reshape(batch + (h, dh, nk))
    scale = 1.0 / math.sqrt(dh)
    logits = scale * np.einsum("...hdk,...hdq->...hkq", pk, pq)
    logits -= logits.max(axis=-2, keepdims=True)
    attn = np.exp(logits)
    attn /= attn.sum(axis=-2, keepdims=True)
    heads_out = np.einsum("...hdk,...hkq->...hdq", pv, attn)
    concat = heads_out.reshape(batch + (d, nq))
    out = params.wo @ concat
    cache = {
        "query": q, "keys": k, "values": v,
        "pq": pq, "pk": pk, "pv": pv,
        "attn": attn, "concat": concat, "scale": scale,
    }
    return out, cache


def _mhca_backward(params: GeneratorParams, cache, d_out, grads: GeneratorParams):
    attn, scale = cache["attn"], cache["scale"]

    grads.wo += _sum_outer(d_out, cache["concat"])
    d_heads = (params.wo.T @ d_out).reshape(cache["pq"].shape)

    d_pv = np.einsum("...hdq,...hkq->...hdk", d_heads, attn)
    d_attn = np.einsum("...hdk,...hdq->...hkq", cache["pv"], d_heads)
    # softmax over the key axis: dS = A * (dA - sum_k A*dA)
    d_logits = attn * (d_attn - (attn * d_attn).sum(axis=-2, keepdims=True))
    d_pq = scale * np.einsum("...hdk,...hkq->...hdq", cache["pk"], d_logits)
    d_pk = scale * np.einsum("...hdq,...hkq->...hdk", cache["pq"], d_logits)

    d_pq = d_pq.reshape(cache["query"].shape)
    d_pk = d_pk.reshape(cache["keys"].shape)
    d_pv = d_pv.reshape(cache["values"].shape)
    grads.wq += _sum_outer(cache["query"], d_pq)
    grads.wk += _sum_outer(cache["keys"], d_pk)
    grads.wv += _sum_outer(cache["values"], d_pv)
    d_query = params.wq @ d_pq
    d_keys = params.wk @ d_pk
    d_values = params.wv @ d_pv
    return d_query, d_keys, d_values


# ---------------------------------------------------------------------------
# Layer norm (independent statistics per column) and FFN
# ---------------------------------------------------------------------------


def _ln_forward(params: GeneratorParams, x):
    """x is (..., d, n); every column is normalized on its own."""
    mu = x.mean(axis=-2, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-2, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    y = params.ln_gain[:, None] * xhat + params.ln_bias[:, None]
    return y, {"xhat": xhat, "inv": inv}


def _ln_backward(params: GeneratorParams, cache, dy, grads: GeneratorParams):
    xhat, inv = cache["xhat"], cache["inv"]
    column_axes = tuple(i for i in range(dy.ndim) if i != dy.ndim - 2)
    grads.ln_gain += (dy * xhat).sum(axis=column_axes)
    grads.ln_bias += dy.sum(axis=column_axes)
    dxhat = dy * params.ln_gain[:, None]
    return inv * (
        dxhat
        - dxhat.mean(axis=-2, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-2, keepdims=True)
    )


def _ffn_forward(params: GeneratorParams, x):
    a1 = params.ffn_w1 @ x + params.ffn_b1[:, None]
    hidden = np.maximum(a1, 0.0)
    y = params.ffn_w2 @ hidden + params.ffn_b2[:, None]
    return y, {"x": x, "a1": a1, "hidden": hidden}


def _ffn_backward(params: GeneratorParams, cache, dy, grads: GeneratorParams):
    grads.ffn_w2 += dy @ cache["hidden"].T
    grads.ffn_b2 += dy.sum(axis=1)
    d_hidden = params.ffn_w2.T @ dy
    d_a1 = d_hidden * (cache["a1"] > 0.0)
    grads.ffn_w1 += d_a1 @ cache["x"].T
    grads.ffn_b1 += d_a1.sum(axis=1)
    return params.ffn_w1.T @ d_a1


# ---------------------------------------------------------------------------
# Public forward operations
# ---------------------------------------------------------------------------


def _batched_inputs(ctx: NeighborContext, w_n, params: GeneratorParams):
    """(d, U) conditioning columns, the (U, d, K) neighbor and support
    stacks, and whether the call is unbatched (a (d,) conditioning vector
    with a (d, K) context, handled as a batch of one)."""
    w = np.asarray(w_n, dtype=np.float64)
    single = ctx.neighbor_embeddings.ndim == 2
    keys = ctx.neighbor_embeddings.reshape((-1,) + ctx.neighbor_embeddings.shape[-2:])
    values = ctx.support_features.reshape(keys.shape)
    if w.shape != ((params.dim,) if single else (params.dim, keys.shape[0])):
        raise DataError(f"conditioning embedding shape {w.shape} does not fit a context of shape {keys.shape}")
    return w.reshape(params.dim, -1), keys, values, single


def extrapolate_per_class(ctx: NeighborContext, w_n, params: GeneratorParams):
    """One synthesized feature per neighbor: layer-normalized supports plus
    an attention residual driven by the conditioning embedding. Output is
    (d, K), or (U, d, K) for a batched context."""
    w, keys, values, single = _batched_inputs(ctx, w_n, params)
    query = np.broadcast_to(w.T[:, :, None], values.shape)
    resid, mc = _mhca_forward(params, query, keys, values)
    out, lc = _ln_forward(params, values + resid)
    tape = ForwardTape(kind="per_class", params=params, cache={"mhca": mc, "ln": lc, "single": single})
    return (out[0] if single else out), tape


def extrapolate_jointly(ctx: NeighborContext, w_n, params: GeneratorParams):
    """A single synthesized feature per conditioning class: layer-normalized
    sum of the projected conditioning embedding and a one-query attention
    readout. Output is (d,), or (d, U) for a batched context."""
    w, keys, values, single = _batched_inputs(ctx, w_n, params)
    resid, mc = _mhca_forward(params, w.T[:, :, None], keys, values)
    anchor, fc = _ffn_forward(params, w)
    out, lc = _ln_forward(params, anchor + resid[:, :, 0].T)
    tape = ForwardTape(kind="joint", params=params, cache={"mhca": mc, "ffn": fc, "ln": lc, "single": single})
    return (out[:, 0] if single else out), tape


def backward(tape: ForwardTape, upstream):
    """Exact reverse pass for the forward call that produced the tape.

    upstream matches the forward output shape. Returns (GeneratorParams,
    InputGrads): a parameter bundle holding the gradient of each tensor,
    summed over the batch, and the gradients w.r.t. w_n,
    neighbor_embeddings and support_features in the shapes the forward
    call took them.
    """
    if tape.consumed:
        raise DataError("forward tape already consumed by a backward call")
    tape.consumed = True
    params, cache = tape.params, tape.cache
    grads = params.zeros_like()
    up = np.asarray(upstream, dtype=np.float64)
    mc = cache["mhca"]

    if tape.kind == "per_class":
        d_pre = _ln_backward(params, cache["ln"], up.reshape(mc["values"].shape), grads)
        d_query, d_keys, d_values = _mhca_backward(params, mc, d_pre, grads)
        d_w = d_query.sum(axis=2).T
        d_values = d_values + d_pre  # residual connection to the supports
    elif tape.kind == "joint":
        d_pre = _ln_backward(params, cache["ln"], up.reshape(params.dim, -1), grads)
        d_query, d_keys, d_values = _mhca_backward(params, mc, d_pre.T[:, :, None], grads)
        d_w = _ffn_backward(params, cache["ffn"], d_pre, grads) + d_query[:, :, 0].T
    else:
        raise DataError(f"unknown tape kind {tape.kind!r}")

    if cache["single"]:
        return grads, InputGrads(w_n=d_w[:, 0], neighbor_embeddings=d_keys[0], support_features=d_values[0])
    return grads, InputGrads(w_n=d_w, neighbor_embeddings=d_keys, support_features=d_values)


# ---------------------------------------------------------------------------
# Checkpoint files (float32 at rest, bit-exact round-trip)
# ---------------------------------------------------------------------------


def save_checkpoint(path, params: GeneratorParams, scheme: str, epoch: int) -> None:
    """Version 2: one float32 tensor, params, holding the flat vector."""
    meta = {
        "format": "ogen-generator",
        "version": 2,
        "heads": params.heads,
        "dim": params.dim,
        "d_ff": params.d_ff,
        "scheme": scheme,
        "epoch": epoch,
    }
    write_tensor_file(path, {"params": params.flat.astype(np.float32)}, meta)


def load_checkpoint(path):
    """Returns (GeneratorParams, metadata dict). Tensors come back float64
    in memory; re-saving reproduces the file byte-for-byte."""
    tensors, meta = read_tensor_file(path)
    check_format(path, meta, "ogen-generator", 2, "train the run again to write it")
    # a missing or misshapen vector and bad sizes are the file's fault
    try:
        sizes = [int(meta[key]) for key in ("heads", "dim", "d_ff")]
        params = GeneratorParams(*sizes, tensors["params"].astype(np.float64))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{path}: malformed checkpoint ({type(exc).__name__}: {exc})") from exc
    if not np.all(np.isfinite(params.flat)):
        raise DataError(f"{path}: generator parameters contain non-finite values")
    return params, meta
