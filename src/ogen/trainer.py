"""Finetuning loop with learnable class embeddings, synthesized-unknown
regularization, and self-distillation.

The text-encoder side of the original setting is emulated by one learnable
embedding per base class (initialized at the dataset's class embeddings);
new-class embeddings stay frozen. Each epoch the base classes are
reshuffled into pseudo-known/pseudo-unknown roles: pseudo-known image
features drive a cosine-softmax cross-entropy over the base and frozen
new columns, pseudo-unknown classes get features synthesized from their
nearest pseudo-known neighbors (all classes in one batched pass),
optionally held consistent with an EMA teacher of the generator.
Optimization is SGD with momentum and cosine learning-rate decay. Runs
are deterministic per seed.

Each epoch ends with the argmax accuracy of each split over the base and
frozen new columns; the frozen columns are scored once per dataset, so
each evaluation scores only the C_b learnable ones (see _EvalCache).
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

from . import objective
from ._tensorio import check_format, check_kind, current, open_regular, read_tensor_file
from ._tensorio import write_atomically, write_in_place, write_tensor_file
from .distillation import (
    ScheduleConfig,
    TeacherQueue,
    almt_teacher,
    ema_mean_teacher,  # unused here; the benchmark wraps this name until it times the library's own phases
    push_checkpoint,
    window_size,
)
from .embedding_store import EmbeddingSet
from .errors import ConfigError, DataError, NumericalError
from .generator import (
    GeneratorParams,
    backward,
    extrapolate_jointly,
    extrapolate_per_class,
    init_params,
)
from .retrieval import build_context, retrieve_knn

SCHEMES = ("none", "per_class", "joint")
DISTILL_MODES = ("none", "mt", "almt")
# the Python types each TrainConfig annotation admits: a bool is no int, an int is a float
_FIELD_TYPES = {"int": (int,), "float": (int, float), "str": (str,), "bool": (bool,), "None": (type(None),)}


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    batch_size: int = 64
    k: int = 3
    scheme: str = "joint"
    distill: str = "almt"
    tau: float = 0.01
    learning_rate: float = 0.02
    generator_lr: float = 0.02
    momentum: float = 0.9
    lambda_syn: float = 2.0
    lambda_distill: float = 1.0
    pseudo_unknown_fraction: float = 0.3
    seed: int = 0
    heads: int = 4
    d_ff: int | None = None
    m_min: int = ScheduleConfig.m_min
    m_max: int = ScheduleConfig.m_max
    ema_alpha: float = ScheduleConfig.ema_alpha
    random_neighbors: bool = False

    def validate(self, dataset: "EmbeddingSet | None" = None) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not any(type(value) in _FIELD_TYPES[name] for name in f.type.split(" | ")):
                raise ConfigError(f"{f.name} must be of type {f.type}, got {value!r}")
            if type(value) is float and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        if self.distill not in DISTILL_MODES:
            raise ConfigError(f"unknown distill mode {self.distill!r}, expected one of {DISTILL_MODES}")
        if self.scheme == "none" and self.distill != "none":
            raise ConfigError("scheme=none has no generator to distill; use distill=none")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        self.schedule()
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.heads < 1:
            raise ConfigError(f"heads must be >= 1, got {self.heads}")
        if self.d_ff is not None and self.d_ff < 1:
            raise ConfigError(f"d_ff must be >= 1, got {self.d_ff}")
        if self.tau <= 0:
            raise ConfigError(f"tau must be positive, got {self.tau}")
        if self.learning_rate < 0 or self.generator_lr < 0:
            raise ConfigError("learning rates must be non-negative")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.lambda_syn < 0 or self.lambda_distill < 0:
            raise ConfigError("loss weights must be non-negative")
        if not 0.0 < self.pseudo_unknown_fraction < 1.0:
            raise ConfigError(
                f"pseudo_unknown_fraction must be in (0, 1), got {self.pseudo_unknown_fraction}"
            )
        if dataset is not None:
            c_b = len(dataset.split.base)  # ClassSplit.validate rejects an empty base split
            if dataset.dim % self.heads != 0:
                raise ConfigError(f"heads={self.heads} does not divide dim={dataset.dim}")
            n_unk = self.pseudo_unknown_count(dataset)
            if n_unk >= c_b:
                raise ConfigError(
                    f"pseudo split leaves no known classes ({n_unk} of {c_b} unknown)"
                )
            for c in dataset.split.base:
                if dataset.counts[c] < 2:
                    raise DataError(f"base class {c} ({dataset.class_names[c]!r}) needs >= 2 image features")

    def schedule(self) -> ScheduleConfig:
        """The teacher's window schedule over the run's epochs."""
        return ScheduleConfig(t_max=self.epochs, m_min=self.m_min, m_max=self.m_max, ema_alpha=self.ema_alpha)

    def pseudo_unknown_count(self, dataset: EmbeddingSet) -> int:
        """How many base classes take the pseudo-unknown role each epoch."""
        return math.ceil(self.pseudo_unknown_fraction * len(dataset.split.base))

    def effective_k(self, dataset: EmbeddingSet) -> int:
        """k after clamping to the pseudo-known class count (recorded in
        run metadata when it differs from the requested k)."""
        return min(self.k, len(dataset.split.base) - self.pseudo_unknown_count(dataset))

    def ffn_width(self, dim: int) -> int:
        """The generator's FFN width: d_ff, or 2 * dim when it is None."""
        return 2 * dim if self.d_ff is None else self.d_ff


@dataclass
class EpochMetrics:
    epoch: int
    base_acc: float
    new_acc: float
    harmonic_mean: float
    known_ce: float
    synth_ce: float
    distill_mse: float
    m_t: int
    teacher_lo: "int | None" = None
    teacher_hi: "int | None" = None


@dataclass
class TrainState:
    """Everything needed to continue a run exactly where it stopped."""

    next_epoch: int
    embeddings: np.ndarray              # (d, C_b) float64, base-split order
    emb_velocity: np.ndarray
    params: "GeneratorParams | None"
    gen_velocity: "GeneratorParams | None"
    rng: np.random.Generator
    queue: "TeacherQueue | None"
    mt_teacher: "GeneratorParams | None"


@dataclass
class TrainResult:
    params: "GeneratorParams | None"
    embeddings: np.ndarray
    metrics: list
    state: TrainState


def harmonic_mean(a: float, b: float) -> float:
    """2ab/(a+b) for finite non-negative inputs (accuracies or percentages);
    zero when both are zero."""
    if not (0 <= a < math.inf and 0 <= b < math.inf):
        raise DataError(f"harmonic mean needs finite non-negative inputs, got {a}, {b}")
    if a + b == 0:
        return 0.0
    return 2.0 * a * b / (a + b)


class _EvalCache:
    """Argmax accuracy of each split over the learnable base columns and,
    after them, the frozen new-class columns. What the frozen columns
    decide is scored once per dataset (EmbeddingSet._split_cache), so each
    accuracies() call scores the C_b learnable columns only, class-major:
    one (C_b, N) block per split, filled in place and reduced along its
    contiguous axis 0, the dataset's one pair (EmbeddingSet._score_scratch).
    Argmax takes the first of equal maxima, so a learnable column wins a
    tie with a frozen one."""

    def __init__(self, dataset: EmbeddingSet):
        self.cache = dataset._split_cache
        self._base, self._new = dataset._score_scratch

    def accuracies(self, base_embeddings: np.ndarray):
        # C order, as the frozen columns are normalized: its column norms sum
        # the d rows in turn, a transposed matrix's pairwise, and equal
        # columns must score equal bits for the tie rule to hold
        unit, _ = objective._unit_columns(np.ascontiguousarray(base_embeddings))
        scores = np.matmul(unit.T, self.cache.units.T, out=self._base)
        flat = scores.ravel()
        own = flat[self.cache.own_index]
        flat[self.cache.own_index] = -np.inf
        other = scores.max(axis=0)  # each row's best score at another learnable column
        right = own > other
        if (tied := np.flatnonzero(own == other)).size:  # an earlier tied column wins; own's entry is -inf here
            right[tied] = np.argmax(scores[:, tied] == own[tied], axis=0) > self.cache.positions[tied]
        base_acc = float(np.count_nonzero(right & (own >= self.cache.base_best)) / len(own))
        if not len(self.cache.candidates):
            return base_acc, 0.0
        scores = np.matmul(unit.T, self.cache.candidates.T, out=self._new)
        return base_acc, float(np.count_nonzero(scores.max(axis=0) < self.cache.candidate_best) / self.cache.n_new)


def evaluate(params, embeddings, dataset: EmbeddingSet):
    """Argmax accuracy per split over the learnable base columns and the
    frozen new-class embeddings, plus the harmonic mean, scored as each
    training epoch is (_EvalCache). The generator does not participate at
    evaluation time (params is accepted for checkpoint-eval symmetry).
    """
    del params
    emb = np.asarray(embeddings, dtype=np.float64)
    if emb.shape != (dataset.dim, len(dataset.split.base)):
        raise DataError(
            f"embeddings shape {emb.shape} != ({dataset.dim}, {len(dataset.split.base)})"
        )
    if not np.all(np.isfinite(emb)):
        raise DataError("embeddings hold non-finite values")
    base_acc, new_acc = _EvalCache(dataset).accuracies(emb)
    return base_acc, new_acc, harmonic_mean(base_acc, new_acc)


def _sgd_step(value: np.ndarray, grad: np.ndarray, velocity: np.ndarray, lr: float, momentum: float):
    velocity *= momentum
    velocity += grad
    value -= lr * velocity


def _init_state(dataset: EmbeddingSet, cfg: TrainConfig) -> TrainState:
    init_ss, loop_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    embeddings = dataset.embedding_columns(dataset.split.base).copy()
    params = None
    gen_velocity = None
    if cfg.scheme != "none":
        params = init_params(cfg.heads, dataset.dim, cfg.ffn_width(dataset.dim), seed=int(init_ss.generate_state(1)[0]))
        gen_velocity = params.zeros_like()
    queue = TeacherQueue(cfg.schedule()) if cfg.distill == "almt" else None
    return TrainState(
        next_epoch=0,
        embeddings=embeddings,
        emb_velocity=np.zeros_like(embeddings),
        params=params,
        gen_velocity=gen_velocity,
        rng=np.random.default_rng(loop_ss),
        queue=queue,
        mt_teacher=None,
    )


def _resolve_teacher(state: TrainState, cfg: TrainConfig, epoch: int):
    """(m_t, teacher params, (lo, hi) checkpoint epochs used) for this
    epoch, almt's teacher the EMA of the last m_t + 1 checkpoints; the
    teacher and its range are None while there is no teacher."""
    if cfg.distill == "mt":
        return 0, state.mt_teacher, None if state.mt_teacher is None else (0, epoch - 1)
    if cfg.distill == "none":
        return 0, None, None
    m_t = window_size(epoch, state.queue.schedule)
    if len(state.queue) == 0:
        return m_t, None, None
    used = state.queue.last(m_t + 1)
    return m_t, almt_teacher(state.queue, epoch), (used[0][0], used[-1][0])


def _mt_update(state: TrainState, cfg: TrainConfig) -> None:
    if state.mt_teacher is None:
        state.mt_teacher = state.params.copy()
        return
    state.mt_teacher.flat *= cfg.ema_alpha
    state.mt_teacher.flat += (1.0 - cfg.ema_alpha) * state.params.flat


def _synthesize(state: TrainState, cfg: TrainConfig, teacher, frozen_new, known_cols, unknown_cols, dataset):
    """Synthesized-unknown losses and gradients in one batched pass over
    the U pseudo-unknown classes: one retrieval, one context, one student
    forward, one teacher forward and one backward. The supports are rows
    of dataset.image_features (EmbeddingSet._split_cache's firsts, counts).

    Returns (generator grads, embedding grad, synth_ce, distill_mse),
    each averaged over the U classes. Draws from state.rng in the order of
    one class at a time: class u's neighbors (random mode), then its k
    support rows.
    """
    rng, emb = state.rng, state.embeddings
    c_b, n_unk = emb.shape[1], unknown_cols.size
    cache = dataset._split_cache
    k_eff = min(cfg.k, known_cols.size)
    if cfg.random_neighbors:
        neighbor_cols = np.empty((n_unk, k_eff), dtype=int)
        sample_ids = np.empty_like(neighbor_cols)
        for i in range(n_unk):
            neighbor_cols[i] = known_cols[rng.choice(known_cols.size, size=k_eff, replace=False)]
            sample_ids[i] = rng.integers(cache.counts[neighbor_cols[i]])
    else:
        neighbor_cols = known_cols[retrieve_knn(emb[:, unknown_cols], emb[:, known_cols], k_eff)]
        sample_ids = rng.integers(cache.counts[neighbor_cols])
    # the (U, d, k) neighbor stack, normalized once for the forward and its VJP
    n_unit, n_norms = objective._unit_columns(np.swapaxes(emb.T[neighbor_cols], 1, 2))
    ctx = build_context(neighbor_cols, n_unit, dataset.image_features, cache.firsts, sample_ids)
    w_unit, w_norms = objective._unit_columns(emb[:, unknown_cols])

    extrapolate = extrapolate_jointly if cfg.scheme == "joint" else extrapolate_per_class
    if cfg.scheme == "joint":
        ce_fn, mse_fn, prob_fn = objective.synth_ce_joint, objective.distill_grad_joint, objective.prob_joint_scheme
    else:
        ce_fn, mse_fn, prob_fn = objective.synth_ce_per_class, objective.distill_grad_per_class, objective.prob_per_class_scheme
    union = np.concatenate([emb, frozen_new], axis=1)
    # the heads sum over the U classes; these weights make the step's
    # gradients those of the mean loss
    w_syn, w_distill = cfg.lambda_syn / n_unk, cfg.lambda_distill / n_unk
    features, tape = extrapolate(ctx, w_unit, state.params)
    synth_ce, d_feat, d_union = ce_fn(features, union, cfg.tau, unknown_cols)
    upstream = w_syn * d_feat
    emb_grad = w_syn * d_union[:, :c_b]
    mse = 0.0
    if teacher is not None:
        t_features, _ = extrapolate(ctx, w_unit, teacher)
        mse, dm_feat, dm_union = mse_fn(prob_fn(t_features, union, cfg.tau), features, union, cfg.tau)
        upstream = upstream + w_distill * dm_feat
        emb_grad += w_distill * dm_union[:, :c_b]
    gen_grads, igrads = backward(tape, upstream)
    # the input gradients go through the column normalization; neighbors
    # repeat across classes, so theirs accumulate
    emb_grad[:, unknown_cols] += objective._unit_columns_vjp(w_unit, w_norms, igrads.w_n)
    d_neighbors = objective._unit_columns_vjp(n_unit, n_norms, igrads.neighbor_embeddings)
    np.add.at(emb_grad.T, neighbor_cols, np.swapaxes(d_neighbors, 1, 2))
    return gen_grads, emb_grad, synth_ce / n_unk, mse / n_unk


def _frozen_lse(dataset: EmbeddingSet, frozen_new: np.ndarray, tau: float) -> np.ndarray:
    """Each unit row's log sum_f exp(cos_f / tau) over the frozen columns
    frozen_new, from (C_f, N) cosines that no one keeps: the first run at a
    tau builds the (N,) vector, which the dataset keeps, read-only, for the
    later ones."""
    if (lse := dataset._frozen_lse.get(tau)) is None:
        scores = objective._unit_columns(frozen_new)[0].T @ dataset._split_cache.units.T
        scores /= tau
        lse = dataset._frozen_lse[tau] = np.logaddexp.reduce(scores, axis=0, initial=-np.inf)
        lse.setflags(write=False)
    return lse


def check_state(state: TrainState, dataset: EmbeddingSet) -> None:
    """Reject a run state whose embeddings are not (dim, C_base) of the dataset."""
    expected = (dataset.dim, len(dataset.split.base))
    if state.embeddings.shape != expected:
        raise DataError(f"state embeddings shape {state.embeddings.shape} != {expected}")


def train(dataset: EmbeddingSet, cfg: TrainConfig, state: "TrainState | None" = None, on_epoch=None) -> TrainResult:
    """Run (or continue) a finetuning run; returns the metric rows
    produced by this call along with the final parameters and state."""
    cfg.validate(dataset)
    c_b = len(dataset.split.base)
    if state is None:
        state = _init_state(dataset, cfg)
    else:
        check_state(state, dataset)
    n_unk = cfg.pseudo_unknown_count(dataset)
    eval_cache = _EvalCache(dataset)
    # the base image features are fixed, so each minibatch takes its (d, B)
    # unit columns from the dataset's (N, d) unit rows. Frozen new-class
    # columns join every softmax denominator, as in synthesis and evaluation;
    # they never receive updates, so each base feature's share of the
    # denominator, log sum_f exp(cos_f / tau), is built once per dataset and tau
    cache = dataset._split_cache
    frozen_new = dataset.embedding_columns(dataset.split.new)
    frozen_lse = _frozen_lse(dataset, frozen_new, cfg.tau)
    rng = state.rng
    rows = []

    for epoch in range(state.next_epoch, cfg.epochs):
        decay = 0.5 * (1.0 + math.cos(math.pi * epoch / cfg.epochs))
        lr_emb = cfg.learning_rate * decay
        lr_gen = cfg.generator_lr * decay

        # fresh pseudo known/unknown roles for the base classes
        perm = rng.permutation(c_b)
        unknown_cols = np.sort(perm[:n_unk])
        known_cols = np.sort(perm[n_unk:])

        # -- known-class cross-entropy, minibatch SGD on the embeddings --
        is_known = np.zeros(c_b, dtype=bool)
        is_known[known_cols] = True
        rows_known = np.flatnonzero(is_known[cache.positions])
        shuffled = rows_known[rng.permutation(rows_known.size)]
        known_loss_sum = 0.0
        for start in range(0, shuffled.size, cfg.batch_size):
            batch = shuffled[start : start + cfg.batch_size]
            loss, grad = objective.known_batch_ce(
                cache.units[batch].T, state.embeddings, cfg.tau, cache.positions[batch], frozen_lse[batch]
            )
            _sgd_step(state.embeddings, grad, state.emb_velocity, lr_emb, cfg.momentum)
            known_loss_sum += loss * batch.size
        known_ce = known_loss_sum / max(rows_known.size, 1)

        # -- synthesized-unknown losses, one batched step --
        synth_ce = mse = 0.0
        m_t, teacher, teacher_range = _resolve_teacher(state, cfg, epoch)
        if cfg.scheme != "none":
            gen_grads, emb_grad, synth_ce, mse = _synthesize(
                state, cfg, teacher, frozen_new, known_cols, unknown_cols, dataset
            )
            _sgd_step(state.params.flat, gen_grads.flat, state.gen_velocity.flat, lr_gen, cfg.momentum)
            _sgd_step(state.embeddings, emb_grad, state.emb_velocity, lr_emb, cfg.momentum)

        # -- teacher bookkeeping, evaluation, metrics --
        if cfg.distill == "almt":
            push_checkpoint(state.queue, epoch, state.params)
        elif cfg.distill == "mt":
            _mt_update(state, cfg)

        if not (
            np.all(np.isfinite((known_ce, synth_ce, mse))) and np.all(np.isfinite(state.embeddings))
        ):
            raise NumericalError(
                f"non-finite state at epoch {epoch}: known_ce={known_ce!r} "
                f"synth_ce={synth_ce!r} distill_mse={mse!r}"
            )
        base_acc, new_acc = eval_cache.accuracies(state.embeddings)
        row = EpochMetrics(
            epoch=epoch,
            base_acc=base_acc,
            new_acc=new_acc,
            harmonic_mean=harmonic_mean(base_acc, new_acc),
            known_ce=known_ce,
            synth_ce=synth_ce,
            distill_mse=mse,
            m_t=m_t,
            teacher_lo=teacher_range[0] if teacher_range else None,
            teacher_hi=teacher_range[1] if teacher_range else None,
        )
        rows.append(row)
        state.next_epoch = epoch + 1
        if on_epoch is not None:
            on_epoch(state, row)

    return TrainResult(
        params=state.params, embeddings=state.embeddings, metrics=rows, state=state
    )


# ---------------------------------------------------------------------------
# Run-state persistence (full precision; resume is bit-exact)
# ---------------------------------------------------------------------------


def save_state(path, state: TrainState, cfg: TrainConfig) -> None:
    """Version 6: one tensor per generator bundle, holding its flat vector,
    but for an almt run's params, which its newest teacher checkpoint holds.
    The checkpoints are a ring of m_max + 2 files in the directory beside
    path (run/state.queue/ for run/state.bin), epoch e's in <e mod
    (m_max + 2)>.f8, each written before the state file that lists it,
    which then replaces the old one. Writing epoch n's overwrites epoch
    n - m_max - 2's, which no state on disk lists: state.bin lists epochs
    >= n - m_max - 1, and between the swap renames, while it is missing,
    the aside already holds the new state, listing epochs >= n - m_max. The
    old state file stays set aside (run/.state.bin.prev), and the next save
    rewrites it in place (write_atomically's reuse_aside): a caller that
    saves no more deletes it, as `ogen train` does after its last save."""
    tensors = {"embeddings": state.embeddings, "emb_velocity": state.emb_velocity}
    queue = state.queue
    meta = {
        "format": "ogen-run-state",
        "version": 6,
        "next_epoch": state.next_epoch,
        "rng": state.rng.bit_generator.state,
        "config": vars(cfg),  # scalar fields, which asdict would deep-copy one by one, every epoch
        "queue_epochs": None if queue is None else [e for e, _ in queue.entries],
        "queue_crc32": None if queue is None else _save_queue(_queue_path(path), queue),
        "gen_meta": None,
    }
    if state.params is not None:
        meta["gen_meta"] = {key: getattr(state.params, key) for key in ("heads", "dim", "d_ff")}
        if not queue:  # no queue, or one before its first checkpoint
            tensors["params"] = state.params.flat
        tensors["velocity"] = state.gen_velocity.flat
        if state.mt_teacher is not None:
            tensors["mt"] = state.mt_teacher.flat
    write_tensor_file(path, tensors, meta, reuse_aside=True)


def _queue_path(path) -> Path:
    """The teacher-checkpoint directory of the state file at path: run/state.bin
    has run/state.queue, so state files in one directory never share one."""
    path = Path(path)
    return path.with_name(f"{path.stem}.queue")


def _ring_file(directory: Path, queue: TeacherQueue, epoch: int) -> Path:  # one of m_max + 2, reused in turn
    return directory / f"{epoch % (queue.capacity + 1)}.f8"


def _save_queue(directory: Path, queue: TeacherQueue) -> list:
    """Write each checkpoint of the queue not in directory yet over its ring
    file (write_in_place), or in its place: its 8 * P bytes of little-endian
    float64, with no header. Returns the crc32s, oldest first. A checkpoint
    has a crc32 once this process has written it to queue.crc_dir or read
    it whole from there, so a save to any other directory writes every one."""
    if not check_kind(directory, "own"):  # before the first write
        directory.mkdir()
    if queue.crc_dir != directory:
        queue.crcs.clear()
        queue.crc_dir = directory
    for epoch, params in queue.entries:
        if epoch not in queue.crcs:
            row, file = params.flat.astype("<f8", copy=False), _ring_file(directory, queue, epoch)
            if not write_in_place(file, [row.data]):
                write_atomically(file, [row.data])
            queue.crcs[epoch] = zlib.crc32(row)
    return [queue.crcs[epoch] for epoch, _ in queue.entries]


def _load_queue(directory: Path, queue: TeacherQueue, epochs: list, crcs: list, bundle, size: int) -> None:
    """Fill queue with the checkpoints of these epochs from their ring files
    in directory; each file must hold size values with the listed crc32."""
    check_kind(directory, "own")
    for epoch, crc in zip(epochs, crcs):
        file, row = _ring_file(directory, queue, epoch), np.empty(size, dtype="<f8")
        try:
            with open_regular(file) as fh:  # no more than a checkpoint's bytes, however long the file
                whole = fh.readinto(row) == 8 * size and not fh.read(1)
        except OSError as exc:
            raise DataError(f"no teacher checkpoint {file} ({exc.strerror})") from exc
        if not whole:
            raise DataError(f"{file}: not the {8 * size} bytes of a checkpoint of {size} values")
        if zlib.crc32(row) != crc:
            raise DataError(f"{file}: crc32 {zlib.crc32(row)} is not {crc}, the crc32 listed for epoch {epoch}")
        if not np.all(np.isfinite(row)):
            raise DataError(f"{file}: the checkpoint of epoch {epoch} holds non-finite values")
        queue.entries.append((epoch, bundle(row)))
        queue.crcs[epoch] = crc
    queue.crc_dir = directory


def load_state(path):
    """Returns (TrainState, TrainConfig) from the state file at current(path) and its checkpoints."""
    source = current(path)
    tensors, meta = read_tensor_file(source)
    check_format(source, meta, "ogen-run-state", 6, "start a new run")
    try:
        return _state_from(tensors, meta, _queue_path(path))
    except DataError as exc:
        raise DataError(f"{source}: {exc}") from exc
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{source}: malformed run state ({type(exc).__name__}: {exc})") from exc


def _state_from(tensors: dict, meta: dict, queue_dir: Path):
    cfg = TrainConfig(**meta["config"])
    cfg.validate()
    rng = np.random.default_rng()
    rng.bit_generator.state = meta["rng"]
    params = gen_velocity = queue = mt_teacher = None
    next_epoch, emb, emb_velocity = meta["next_epoch"], tensors["embeddings"], tensors["emb_velocity"]
    if not (type(next_epoch) is int and next_epoch >= 0):
        raise DataError(f"next_epoch {next_epoch!r} is not an epoch")
    if not (emb.dtype == emb_velocity.dtype == np.float64 and emb.ndim == 2 and emb_velocity.shape == emb.shape):
        raise DataError(f"embeddings {emb.dtype}{emb.shape} and emb_velocity {emb_velocity.dtype}"
                        f"{emb_velocity.shape} are not float64 matrices of one shape")
    non_finite = [name for name, t in tensors.items() if not np.all(np.isfinite(t))]
    if non_finite:
        raise DataError(f"tensors {', '.join(non_finite)} hold non-finite values")
    gen_meta = meta.get("gen_meta")
    if (gen_meta is None) != (cfg.scheme == "none"):
        raise DataError(f"generator tensors do not match scheme {cfg.scheme!r}")
    # the mean teacher is made at the end of epoch 0
    if ("mt" in tensors) != (cfg.distill == "mt" and next_epoch >= 1):
        raise DataError(f"a state of distill={cfg.distill} before epoch {next_epoch} "
                        f"{'has' if 'mt' in tensors else 'lacks'} an mt tensor")
    if gen_meta is not None:
        shape = {"heads": cfg.heads, "dim": emb.shape[0], "d_ff": cfg.ffn_width(emb.shape[0])}
        if gen_meta != shape:
            raise DataError(f"gen_meta {gen_meta!r} is not the configured generator {shape}")
        bundle = partial(GeneratorParams, *shape.values())
        gen_velocity = bundle(tensors["velocity"])
        if cfg.distill == "almt":
            queue = TeacherQueue(cfg.schedule())
            epochs, crcs = meta.get("queue_epochs"), meta.get("queue_crc32")
            window = list(range(max(0, next_epoch - queue.capacity), next_epoch))
            if not (epochs == window and all(type(e) is int for e in epochs)):
                raise DataError(f"queue_epochs {epochs!r} are not {window}, the epochs that a queue "
                                f"of {queue.capacity} holds before epoch {next_epoch}")
            if not (isinstance(crcs, list) and len(crcs) == len(epochs)
                    and all(type(c) is int and 0 <= c < 2**32 for c in crcs)):
                raise DataError(f"queue_crc32 {crcs!r} is not one crc32 per queue epoch")
            if epochs:
                _load_queue(queue_dir, queue, epochs, crcs, bundle, gen_velocity.flat.size)
        # a teacher checkpoint holds the params of its epoch: the newest is the state's, stored only there
        if ("params" in tensors) == bool(queue):
            raise DataError(f"a state of distill={cfg.distill} before epoch {next_epoch} "
                            f"{'has' if queue else 'lacks'} a params tensor")
        params = queue.entries[-1][1].copy() if queue else bundle(tensors["params"])
        if "mt" in tensors:
            mt_teacher = bundle(tensors["mt"])
    state = TrainState(
        next_epoch=next_epoch,
        embeddings=emb,
        emb_velocity=emb_velocity,
        params=params,
        gen_velocity=gen_velocity,
        rng=rng,
        queue=queue,
        mt_teacher=mt_teacher,
    )
    return state, cfg


# ---------------------------------------------------------------------------
# Ablation grid
# ---------------------------------------------------------------------------


@dataclass
class AblationReport:
    """Mean +- std of final base/new/H per grid cell, one list per table."""

    component: list = field(default_factory=list)
    schemes: list = field(default_factory=list)
    k_sweep: list = field(default_factory=list)
    distill: list = field(default_factory=list)

    def tables(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _cell_stats(finals):
    arr = np.array(finals, dtype=np.float64)  # rows: (base, new, H)
    mean = arr.mean(axis=0)
    std = arr.std(axis=0, ddof=1) if arr.shape[0] > 1 else np.zeros(3)
    return {
        "base_mean": float(mean[0]),
        "base_std": float(std[0]),
        "new_mean": float(mean[1]),
        "new_std": float(std[1]),
        "h_mean": float(mean[2]),
        "h_std": float(std[2]),
        "seeds": arr.shape[0],
    }


def ablation_workers() -> int:  # the grid's one thread; the benchmark wraps this name until it times the library's own phases
    return 1


def ablate(dataset: EmbeddingSet, base_cfg: TrainConfig, seeds: int = 3) -> AblationReport:
    """Run the standard ablation grid and aggregate final-epoch metrics.

    Tables: component on/off, extrapolation schemes, neighbor-count sweep
    with a random-neighbor row, and distillation variants. Cells sharing a
    configuration reuse the same runs. The runs go one after another, in
    the calling thread and in table order, and share the dataset's caches.
    """
    if seeds < 1:
        raise ConfigError(f"seeds must be >= 1, got {seeds}")
    base_cfg.validate(dataset)

    def variant(**kw) -> TrainConfig:
        return replace(base_cfg, **kw)

    plan = {
        "component": [
            ("generator=off distill=off", variant(scheme="none", distill="none")),
            ("generator=on distill=off", variant(scheme="joint", distill="none")),
            ("generator=on distill=on", variant(scheme="joint", distill="almt")),
        ],
        "schemes": [
            ("none", variant(scheme="none", distill="none")),
            ("per_class", variant(scheme="per_class", distill="none")),
            ("joint", variant(scheme="joint", distill="none")),
        ],
        "k_sweep": [
            (f"knn k={k}", variant(scheme="joint", distill="none", k=k)) for k in (1, 2, 3, 4)
        ]
        + [(f"random k={base_cfg.k}", variant(scheme="joint", distill="none", random_neighbors=True))],
        "distill": [
            ("none", variant(scheme="joint", distill="none")),
            ("mt", variant(scheme="joint", distill="mt")),
            ("fixed m=2", variant(scheme="joint", distill="almt", m_min=2, m_max=2)),
            ("fixed m=9", variant(scheme="joint", distill="almt", m_min=9, m_max=9)),
            ("almt", variant(scheme="joint", distill="almt")),
        ],
    }

    @lru_cache(maxsize=None)  # one run per configuration, started by the first cell that needs it
    def final(cfg: TrainConfig) -> tuple:
        last = train(dataset, cfg).metrics[-1]
        return last.base_acc, last.new_acc, last.harmonic_mean

    ablation_workers()  # once per grid, for the benchmark's record of it
    report = AblationReport()
    for table, rows in plan.items():
        for label, cfg in rows:
            finals = [final(replace(cfg, seed=base_cfg.seed + i)) for i in range(seeds)]
            getattr(report, table).append({"variant": label, **_cell_stats(finals)})
    return report
