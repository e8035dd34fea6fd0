"""Checkpoint queue, EMA teachers, and the adaptive window schedule.

The teacher for self-distillation is an exponential moving average over
historical generator checkpoints. The adaptive variant restricts the
average to a recent window whose size grows on a cosine curve from m_min
to m_max over the run: small early (excludes underfit checkpoints), wide
late (reaches back past the overfit recent ones); constant if m_min = m_max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import ConfigError, DataError
from .generator import GeneratorParams


@dataclass(frozen=True)
class ScheduleConfig:
    t_max: int
    m_min: int = 2
    m_max: int = 9
    ema_alpha: float = 0.9

    def __post_init__(self):
        if not 1 <= self.m_min <= self.m_max:
            raise ConfigError(f"need 1 <= m_min <= m_max, got {self.m_min}, {self.m_max}")
        if self.t_max < 1:
            raise ConfigError(f"t_max must be >= 1, got {self.t_max}")
        if not 0.0 < self.ema_alpha < 1.0:
            raise ConfigError(f"ema_alpha must be in (0, 1), got {self.ema_alpha}")


def window_size(t: int, cfg: ScheduleConfig) -> int:
    """Window size m_t at epoch t: floor of a half-cosine ramp from m_min
    (t = 0) to m_max (t = t_max), monotone non-decreasing."""
    if not 0 <= t <= cfg.t_max:
        raise ConfigError(f"epoch {t} outside [0, {cfg.t_max}]")
    ramp = 1.0 + math.cos((cfg.t_max + t) / cfg.t_max * math.pi)
    return int(math.floor(ramp * 0.5 * (cfg.m_max - cfg.m_min) + cfg.m_min))


@dataclass
class TeacherQueue:
    """FIFO of the (epoch, params) checkpoints of the last m_max + 1 epochs,
    newest last; a save keeps them in a ring of m_max + 2 files, epoch e's
    in file e mod (m_max + 2) (trainer.save_state). crcs maps the epoch of
    a checkpoint to the crc32 of its bytes once a save has written it to
    the directory crc_dir, or a load has read it from there, until the
    checkpoint is evicted."""

    schedule: ScheduleConfig
    entries: list = field(default_factory=list)
    crcs: dict = field(default_factory=dict)
    crc_dir: Path | None = None

    @property
    def capacity(self) -> int:
        return self.schedule.m_max + 1

    def __len__(self) -> int:
        return len(self.entries)

    def last(self, n: int) -> list:
        """The most recent n entries, oldest first."""
        return self.entries[-n:]


def push_checkpoint(queue: TeacherQueue, epoch: int, params: GeneratorParams) -> None:
    """Append a deep copy; evict the oldest entry beyond capacity."""
    if queue.entries and epoch != queue.entries[-1][0] + 1:
        raise DataError(
            f"checkpoint epochs must increase by one: got {epoch} after {queue.entries[-1][0]}"
        )
    queue.entries.append((epoch, params.copy()))
    while len(queue.entries) > queue.capacity:
        queue.crcs.pop(queue.entries.pop(0)[0], None)


def ema_mean_teacher(checkpoints, alpha: float) -> GeneratorParams:
    """EMA over an ordered checkpoint list, oldest first.

    The accumulator starts at the first checkpoint, then folds each
    subsequent one with weight (1 - alpha). alpha in [0, 1]: 0 returns the
    last checkpoint, 1 the first.
    """
    if len(checkpoints) == 0:
        raise DataError("cannot build a teacher from an empty checkpoint list")
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"alpha must be in [0, 1], got {alpha}")
    first = checkpoints[0]
    acc = first.flat.copy()
    for ckpt in checkpoints[1:]:
        if (ckpt.heads, ckpt.dim, ckpt.d_ff) != (first.heads, first.dim, first.d_ff):
            raise DataError(f"checkpoint changed shape: heads={ckpt.heads}, dim={ckpt.dim}, d_ff={ckpt.d_ff}")
        acc *= alpha
        acc += (1.0 - alpha) * ckpt.flat
    return replace(first, flat=acc)


def almt_teacher(queue: TeacherQueue, t: int) -> GeneratorParams:
    """Adaptive local teacher: EMA over the last m_t + 1 checkpoints
    (truncated to available history); older checkpoints contribute nothing."""
    if len(queue) == 0:
        raise DataError("teacher queue is empty")
    m_t = window_size(t, queue.schedule)
    window = [params for _, params in queue.last(m_t + 1)]
    return ema_mean_teacher(window, queue.schedule.ema_alpha)

