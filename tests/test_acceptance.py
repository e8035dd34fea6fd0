"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `[acceptance] criterion N: PASS/FAIL` line (visible
with `pytest -s` or on failure). Criteria 6-8 share one module-scoped
grid of 200-epoch benchmark runs (about a minute of compute).
"""

import numpy as np
import pytest
from conftest import (
    central_diff,
    random_context,
    random_params,
    rel_err,
    screened_batches,
    screened_instances,
)
from dataclasses import replace

from ogen.distillation import (
    ScheduleConfig,
    TeacherQueue,
    almt_teacher,
    ema_mean_teacher,
    push_checkpoint,
    window_size,
)
from ogen.embedding_store import (
    SynthConfig,
    class_probabilities,
    load_embeddings,
    make_synthetic,
    save_embeddings,
)
from ogen.generator import (
    _TENSOR_FIELDS,
    backward,
    extrapolate_jointly,
    extrapolate_per_class,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from ogen.objective import (
    distill_grad_joint,
    distill_grad_per_class,
    known_batch_ce,
    prob_joint_scheme,
    prob_per_class_scheme,
    synth_ce_joint,
    synth_ce_per_class,
)
from ogen.retrieval import NeighborContext, retrieve_knn
from ogen.trainer import TrainConfig, harmonic_mean, train

BENCHMARK = SynthConfig(num_classes=50, dim=64, per_class=40, image_noise=0.15, seed=0)
SEEDS = (0, 1, 2)


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} — {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def grid():
    """Final-epoch stats and new-accuracy series for the benchmark grid."""
    dataset = make_synthetic(BENCHMARK)
    variants = {
        "none": TrainConfig(scheme="none", distill="none"),
        "per_class": TrainConfig(scheme="per_class", distill="none"),
        "joint": TrainConfig(scheme="joint", distill="none"),
        "joint+almt": TrainConfig(scheme="joint", distill="almt"),
    }
    out = {}
    for name, cfg in variants.items():
        runs = []
        for seed in SEEDS:
            metrics = train(dataset, replace(cfg, seed=seed)).metrics
            runs.append(
                {
                    "new_series": [m.new_acc for m in metrics],
                    "base": metrics[-1].base_acc,
                    "new": metrics[-1].new_acc,
                    "h": metrics[-1].harmonic_mean,
                }
            )
        out[name] = runs
    return out


def test_criterion_1_harmonic_mean_oracle():
    cases = [(82.69, 63.22, 71.66), (83.47, 69.54, 75.87), (80.47, 71.69, 75.83)]
    errs = [abs(harmonic_mean(a, b) - h) for a, b, h in cases]
    report(1, all(e < 0.01 for e in errs), f"published aggregates, max err {max(errs):.4f}")


def test_criterion_2_schedule_endpoints():
    ok = True
    for t_max in (5, 10, 100, 200):
        cfg = ScheduleConfig(t_max=t_max)
        values = [window_size(t, cfg) for t in range(t_max + 1)]
        ok &= values[0] == 2 and values[-1] == 9
        ok &= all(b >= a for a, b in zip(values, values[1:]))
    report(2, ok, "m_0=2, m_tmax=9, monotone for t_max in {5,10,100,200}")


def test_criterion_3_gradient_suite():
    worst = 0.0
    # both extrapolation schemes: every parameter group plus all inputs,
    # central differences with step 1e-3 on screened d=8 instances, one
    # conditioning class per call and U=3 classes in one batched call
    for scheme, fn, instances in (
        ("joint", extrapolate_jointly, screened_instances(10, start_seed=0)),
        ("per_class", extrapolate_per_class, screened_instances(10, start_seed=1000)),
        ("joint", extrapolate_jointly, screened_batches(5, start_seed=2000)),
        ("per_class", extrapolate_per_class, screened_batches(5, start_seed=3000)),
    ):
        for params, ctx, w in instances:
            rng = np.random.default_rng(42)
            probe = rng.standard_normal(w.shape if scheme == "joint" else ctx.support_features.shape)

            def loss():
                return float(np.sum(probe * fn(ctx, w, params)[0]))

            _, tape = fn(ctx, w, params)
            grads, igrads = backward(tape, probe)
            for name in _TENSOR_FIELDS:
                worst = max(worst, rel_err(central_diff(loss, getattr(params, name), 1e-3), getattr(grads, name)))
            worst = max(worst, rel_err(central_diff(loss, w, 1e-3), igrads.w_n))
            worst = max(worst, rel_err(central_diff(loss, ctx.neighbor_embeddings, 1e-3), igrads.neighbor_embeddings))
            worst = max(worst, rel_err(central_diff(loss, ctx.support_features, 1e-3), igrads.support_features))

    # cross-entropy and consistency paths through softmax + cosine
    rng = np.random.default_rng(7)
    for _ in range(20):
        z = rng.standard_normal(8) * 1.5
        Z = rng.standard_normal((8, 3)) * 1.5
        W = rng.standard_normal((8, 6))
        t = int(rng.integers(6))
        tau = 0.1
        _, dz, dW = synth_ce_joint(z, W, tau, t)
        worst = max(worst, rel_err(central_diff(lambda: synth_ce_joint(z, W, tau, t)[0], z, 1e-4), dz))
        worst = max(worst, rel_err(central_diff(lambda: synth_ce_joint(z, W, tau, t)[0], W, 1e-4), dW))
        _, dZ, dWp = synth_ce_per_class(Z, W, tau, t)
        worst = max(worst, rel_err(central_diff(lambda: synth_ce_per_class(Z, W, tau, t)[0], Z, 1e-4), dZ))
        worst = max(worst, rel_err(central_diff(lambda: synth_ce_per_class(Z, W, tau, t)[0], W, 1e-4), dWp))
        F = rng.standard_normal((8, 4))
        F /= np.linalg.norm(F, axis=0)
        targets = rng.integers(0, 6, size=4)
        _, dWk = known_batch_ce(F, W, tau, targets)
        worst = max(worst, rel_err(central_diff(lambda: known_batch_ce(F, W, tau, targets)[0], W, 1e-4), dWk))
        pt = prob_per_class_scheme(rng.standard_normal((8, 3)), W, tau)
        _, dzm, dWm = distill_grad_joint(pt, z, W, tau)
        worst = max(worst, rel_err(central_diff(lambda: distill_grad_joint(pt, z, W, tau)[0], z, 1e-4), dzm))
        worst = max(worst, rel_err(central_diff(lambda: distill_grad_joint(pt, z, W, tau)[0], W, 1e-4), dWm))

    # the same heads over U=3 conditioning classes in one call: (d, U)
    # joint features and (U, d, K) per-class banks, summed losses
    for _ in range(5):
        Zj = rng.standard_normal((8, 3)) * 1.5
        Zp = rng.standard_normal((3, 8, 3)) * 1.5
        W = rng.standard_normal((8, 6))
        ts = rng.integers(0, 6, size=3)
        tau = 0.1
        ptj = prob_joint_scheme(rng.standard_normal((8, 3)), W, tau)
        ptp = prob_per_class_scheme(rng.standard_normal((3, 8, 3)), W, tau)
        for head, Z, args in (
            (synth_ce_joint, Zj, lambda Z: (Z, W, tau, ts)),
            (synth_ce_per_class, Zp, lambda Z: (Z, W, tau, ts)),
            (distill_grad_joint, Zj, lambda Z: (ptj, Z, W, tau)),
            (distill_grad_per_class, Zp, lambda Z: (ptp, Z, W, tau)),
        ):
            _, dZ, dW = head(*args(Z))
            worst = max(worst, rel_err(central_diff(lambda: head(*args(Z))[0], Z, 1e-4), dZ))
            worst = max(worst, rel_err(central_diff(lambda: head(*args(Z))[0], W, 1e-4), dW))
    report(3, worst < 1e-4, f"worst relative error {worst:.2e} over schemes, CE and MSE paths, single and batched")


def test_criterion_4_knn_oracle():
    rng = np.random.default_rng(11)
    mismatches = 0
    for case in range(1000):
        d = int(rng.integers(2, 24))
        cb = int(rng.integers(1, 201))
        k = int(rng.integers(1, min(cb, 5) + 1))
        emb = rng.standard_normal((d, cb))
        if case % 5 == 0 and cb >= 2:
            emb[:, 0] = emb[:, cb - 1]  # force exact ties
        q = rng.standard_normal(d)
        qn = q / np.linalg.norm(q)
        cols = emb / np.linalg.norm(emb, axis=0)
        scores = cols.T @ qn
        oracle = sorted(range(cb), key=lambda i: (-scores[i], i))[:k]
        if retrieve_knn(q, emb, k) != oracle:
            mismatches += 1
    report(4, mismatches == 0, f"{mismatches} mismatches in 1000 instances (ties included)")


def test_criterion_5_structural_invariants():
    rng = np.random.default_rng(23)
    ok = True
    detail = []

    # permutation behavior of both schemes
    params = random_params(rng)
    ctx = random_context(rng, k=4)
    w = rng.standard_normal(8)
    w /= np.linalg.norm(w)
    perm = [2, 3, 1, 0]
    ctx_p = NeighborContext(
        neighbor_embeddings=ctx.neighbor_embeddings[:, perm],
        support_features=ctx.support_features[:, perm],
    )
    z, _ = extrapolate_jointly(ctx, w, params)
    z_p, _ = extrapolate_jointly(ctx_p, w, params)
    inv_err = float(np.max(np.abs(z - z_p)))
    ok &= inv_err < 1e-12
    detail.append(f"joint perm invariance {inv_err:.1e}")
    Z, _ = extrapolate_per_class(ctx, w, params)
    Z_p, _ = extrapolate_per_class(ctx_p, w, params)
    eqv_err = float(np.max(np.abs(Z_p - Z[:, perm])))
    ok &= eqv_err < 1e-10
    detail.append(f"per-class equivariance {eqv_err:.1e}")

    # softmax normalization
    worst_sum = 0.0
    for _ in range(50):
        d, C = int(rng.integers(2, 16)), int(rng.integers(2, 12))
        p1 = class_probabilities(rng.standard_normal(d), rng.standard_normal((d, C)), 0.05)
        p2 = prob_per_class_scheme(rng.standard_normal((d, 3)), rng.standard_normal((d, C)), 0.05)
        worst_sum = max(worst_sum, abs(p1.sum() - 1.0), abs(p2.sum() - 1.0))
    ok &= worst_sum < 1e-9
    detail.append(f"softmax sums within {worst_sum:.1e}")

    # EMA fixed point and convexity
    fixed = random_params(rng)
    teacher = ema_mean_teacher([fixed, fixed.copy(), fixed.copy()], alpha=0.7)
    fixed_ok = all(
        np.array_equal(getattr(teacher, n), getattr(fixed, n)) for n in _TENSOR_FIELDS
    )
    checkpoints = [random_params(rng) for _ in range(5)]
    mix = ema_mean_teacher(checkpoints, alpha=0.8)
    convex_ok = True
    for n in _TENSOR_FIELDS:
        stack = np.stack([getattr(c, n) for c in checkpoints])
        convex_ok &= bool(
            np.all(getattr(mix, n) >= stack.min(axis=0) - 1e-12)
            and np.all(getattr(mix, n) <= stack.max(axis=0) + 1e-12)
        )
    ok &= fixed_ok and convex_ok
    detail.append(f"EMA fixed point {fixed_ok}, convexity {convex_ok}")

    # ALMT locality: perturbing out-of-window checkpoints changes nothing
    schedule = ScheduleConfig(t_max=100)
    q1 = TeacherQueue(schedule=schedule)
    q2 = TeacherQueue(schedule=schedule)
    history = [random_params(rng) for _ in range(8)]
    for epoch, p in enumerate(history):
        push_checkpoint(q1, epoch, p)
        push_checkpoint(q2, epoch, p)
    t = 7
    m_t = window_size(t, schedule)
    for i in range(len(q2.entries) - (m_t + 1)):
        q2.entries[i][1].wq[...] = 777.0
    t1, t2 = almt_teacher(q1, t), almt_teacher(q2, t)
    local_ok = all(np.array_equal(getattr(t1, n), getattr(t2, n)) for n in _TENSOR_FIELDS)
    ok &= local_ok
    detail.append(f"ALMT locality {local_ok}")

    report(5, ok, "; ".join(detail))


def test_criterion_6_overfitting_phenomenon(grid):
    series = grid["none"][0]["new_series"]  # seed 0 baseline
    final, peak = series[-1], max(series)
    report(
        6,
        final < peak,
        f"baseline new accuracy at epoch 200 {final:.4f} < running max {peak:.4f}",
    )


def test_criterion_7_improvement_direction(grid):
    mean = lambda name, key: float(np.mean([r[key] for r in grid[name]]))
    new_almt, new_none = mean("joint+almt", "new"), mean("none", "new")
    h_almt, h_joint, h_none = (
        mean("joint+almt", "h"),
        mean("joint", "h"),
        mean("none", "h"),
    )
    ok = new_almt > new_none and h_almt > h_none and h_almt >= h_joint >= h_none
    report(
        7,
        ok,
        f"new {new_almt:.4f} > {new_none:.4f}; H {h_almt:.4f} >= {h_joint:.4f} >= {h_none:.4f}",
    )


def test_criterion_8_scheme_ablation_direction(grid):
    mean_new = lambda name: float(np.mean([r["new"] for r in grid[name]]))
    joint, per_class, none = mean_new("joint"), mean_new("per_class"), mean_new("none")
    report(
        8,
        joint > per_class > none,
        f"mean new accuracy joint {joint:.4f} > per_class {per_class:.4f} > none {none:.4f}",
    )


def test_criterion_9_determinism_and_round_trips(tmp_path):
    dataset = make_synthetic(SynthConfig(num_classes=10, dim=16, per_class=6, seed=3))
    cfg = TrainConfig(epochs=5, batch_size=16, seed=0)
    metrics_a = train(dataset, cfg).metrics
    metrics_b = train(dataset, cfg).metrics
    deterministic = metrics_a == metrics_b

    oef1, oef2 = tmp_path / "a.oef", tmp_path / "b.oef"
    save_embeddings(dataset, oef1)
    save_embeddings(load_embeddings(oef1), oef2)
    oef_ok = oef1.read_bytes() == oef2.read_bytes()

    ck1, ck2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    params = init_params(4, 16, 32, seed=9)
    save_checkpoint(ck1, params, scheme="joint", epoch=4)
    loaded, meta = load_checkpoint(ck1)
    save_checkpoint(ck2, loaded, scheme=meta["scheme"], epoch=meta["epoch"])
    ckpt_ok = ck1.read_bytes() == ck2.read_bytes()

    report(
        9,
        deterministic and oef_ok and ckpt_ok,
        f"metrics bit-identical {deterministic}, OEF round-trip {oef_ok}, checkpoint round-trip {ckpt_ok}",
    )
