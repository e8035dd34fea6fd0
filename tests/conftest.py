"""Shared test helpers: random instances, finite-difference oracles and
snapshots of run directories."""

import numpy as np

from ogen.generator import _TENSOR_FIELDS, init_params
from ogen.retrieval import NeighborContext


def file_tree(root):
    """Every file under root, by its path relative to root, mapped to its bytes."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def rel_err(a, b):
    """Guarded per-coordinate relative error between two gradient arrays.

    Each coordinate's denominator is floored at 1% of the array-wide
    gradient scale: coordinates whose true gradient is orders of magnitude
    below the dominant ones would otherwise compare finite-difference
    truncation noise against a vanishing denominator.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-8)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 0.01 * scale)
    return np.max(np.abs(a - b) / denom)


def central_diff(f, arr, h):
    """Central finite differences of scalar f() w.r.t. every entry of arr,
    mutating arr in place and restoring it."""
    grads = np.zeros_like(arr, dtype=np.float64)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + h
        fp = f()
        arr[idx] = orig - h
        fm = f()
        arr[idx] = orig
        grads[idx] = (fp - fm) / (2.0 * h)
    return grads


def random_params(rng, heads=2, dim=8, d_ff=16, scale=0.5):
    """Generator parameters with every tensor (including the output
    projection) drawn random, for gradient checks."""
    params = init_params(heads, dim, d_ff, seed=int(rng.integers(2**31)))
    for name in _TENSOR_FIELDS:
        tensor = getattr(params, name)
        tensor[...] = rng.uniform(-scale, scale, size=tensor.shape)
    return params


def random_context(rng, dim=8, k=3):
    emb = rng.standard_normal((dim, k))
    emb /= np.linalg.norm(emb, axis=0)
    sup = rng.standard_normal((dim, k))
    sup /= np.linalg.norm(sup, axis=0)
    return NeighborContext(
        conditioning=None,
        neighbor_indices=list(range(k)),
        neighbor_embeddings=emb,
        support_features=sup,
        sample_ids=[0] * k,
    )


def screened_instances(count, heads=2, dim=8, d_ff=16, k=3, start_seed=0, kink_margin=5e-3):
    """Deterministic random (params, ctx, w) triples whose ReLU
    pre-activations all sit farther than kink_margin from zero; central
    differences are not a valid oracle across the kink, so such instances
    are skipped during generation."""
    out = []
    seed = start_seed
    while len(out) < count:
        rng = np.random.default_rng(seed)
        seed += 1
        params = random_params(rng, heads=heads, dim=dim, d_ff=d_ff)
        ctx = random_context(rng, dim=dim, k=k)
        w = rng.standard_normal(dim)
        w /= np.linalg.norm(w)
        a1 = params.ffn_w1 @ w + params.ffn_b1
        if np.abs(a1).min() <= kink_margin:
            continue
        out.append((params, ctx, w))
    return out


def stack_contexts(contexts):
    """One batched (U, d, K) NeighborContext from U single contexts."""
    return NeighborContext(
        conditioning=None,
        neighbor_indices=[c.neighbor_indices for c in contexts],
        neighbor_embeddings=np.stack([c.neighbor_embeddings for c in contexts]),
        support_features=np.stack([c.support_features for c in contexts]),
        sample_ids=[c.sample_ids for c in contexts],
    )


def screened_batches(count, batch=3, heads=2, dim=8, d_ff=16, k=3, start_seed=0, kink_margin=5e-3):
    """Deterministic random (params, batched ctx, (d, U) w) triples: U =
    batch conditioning classes sharing one parameter set, screened like
    screened_instances so that no ReLU pre-activation of any column sits
    near its kink."""
    out = []
    seed = start_seed
    while len(out) < count:
        rng = np.random.default_rng(seed)
        seed += 1
        params = random_params(rng, heads=heads, dim=dim, d_ff=d_ff)
        ctx = stack_contexts([random_context(rng, dim=dim, k=k) for _ in range(batch)])
        w = rng.standard_normal((dim, batch))
        w /= np.linalg.norm(w, axis=0)
        a1 = params.ffn_w1 @ w + params.ffn_b1[:, None]
        if np.abs(a1).min() <= kink_margin:
            continue
        out.append((params, ctx, w))
    return out
