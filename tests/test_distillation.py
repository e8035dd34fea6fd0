"""Window schedule, EMA teachers, and the checkpoint queue."""

import numpy as np
import pytest
from conftest import random_params

from ogen.distillation import (
    ScheduleConfig,
    TeacherQueue,
    almt_teacher,
    ema_mean_teacher,
    push_checkpoint,
    window_size,
)
from ogen.errors import ConfigError, DataError
from ogen.generator import _TENSOR_FIELDS


def params_filled(value, rng=None):
    p = random_params(rng or np.random.default_rng(0))
    for name in _TENSOR_FIELDS:
        getattr(p, name)[...] = value
    return p


class TestWindowSchedule:
    @pytest.mark.parametrize("t_max", [5, 10, 100, 200])
    def test_endpoints(self, t_max):
        cfg = ScheduleConfig(t_max=t_max)
        assert window_size(0, cfg) == 2
        assert window_size(t_max, cfg) == 9

    def test_midpoint(self):
        cfg = ScheduleConfig(t_max=100)
        # ramp value at t_max/2 is exactly (1 + cos(3*pi/2))/2 * 7 + 2 = 5.5
        assert window_size(50, cfg) == 5

    @pytest.mark.parametrize("t_max", [7, 100, 10_000])
    def test_monotone_and_bounded(self, t_max):
        cfg = ScheduleConfig(t_max=t_max)
        values = [window_size(t, cfg) for t in range(t_max + 1)]
        assert values[0] == 2 and values[-1] == 9
        assert all(2 <= v <= 9 for v in values)
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_out_of_range(self):
        cfg = ScheduleConfig(t_max=10)
        with pytest.raises(ConfigError):
            window_size(11, cfg)
        with pytest.raises(ConfigError):
            window_size(-1, cfg)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ScheduleConfig(t_max=0)
        with pytest.raises(ConfigError):
            ScheduleConfig(t_max=10, m_min=5, m_max=3)
        with pytest.raises(ConfigError):
            ScheduleConfig(t_max=10, ema_alpha=1.0)


class TestEmaMeanTeacher:
    def test_identical_checkpoints_fixed_point(self):
        p = params_filled(0.25)
        teacher = ema_mean_teacher([p, p.copy(), p.copy()], alpha=0.7)
        for name in _TENSOR_FIELDS:
            np.testing.assert_array_equal(getattr(teacher, name), getattr(p, name))

    def test_alpha_zero_returns_last(self):
        a, b = params_filled(1.0), params_filled(5.0)
        teacher = ema_mean_teacher([a, b], alpha=0.0)
        for name in _TENSOR_FIELDS:
            np.testing.assert_array_equal(getattr(teacher, name), getattr(b, name))

    def test_two_checkpoints_half_alpha(self):
        # hand-unrolled: init at a, then 0.5*a + 0.5*b
        rng = np.random.default_rng(1)
        a = random_params(rng)
        b = random_params(rng)
        teacher = ema_mean_teacher([a, b], alpha=0.5)
        for name in _TENSOR_FIELDS:
            np.testing.assert_allclose(
                getattr(teacher, name),
                0.5 * getattr(a, name) + 0.5 * getattr(b, name),
                rtol=1e-15,
            )

    def test_convex_combination_bounds(self):
        rng = np.random.default_rng(2)
        checkpoints = [random_params(rng) for _ in range(5)]
        teacher = ema_mean_teacher(checkpoints, alpha=0.8)
        for name in _TENSOR_FIELDS:
            stack = np.stack([getattr(c, name) for c in checkpoints])
            assert np.all(getattr(teacher, name) >= stack.min(axis=0) - 1e-12)
            assert np.all(getattr(teacher, name) <= stack.max(axis=0) + 1e-12)

    def test_empty_list_rejected(self):
        with pytest.raises(DataError):
            ema_mean_teacher([], alpha=0.5)

    @pytest.mark.parametrize(
        "last_d_ff, alpha, error, message",
        [
            (16, -0.1, ConfigError, "alpha must be in [0, 1], got -0.1"),
            (16, 1.5, ConfigError, "alpha must be in [0, 1], got 1.5"),
            (8, 0.5, DataError, "checkpoint changed shape: heads=2, dim=8, d_ff=8"),
        ],
        ids=["alpha_below_0", "alpha_above_1", "checkpoint_of_another_shape"],
    )
    def test_bad_alpha_or_checkpoint_is_rejected(self, last_d_ff, alpha, error, message):
        rng = np.random.default_rng(3)
        with pytest.raises(error) as exc:
            ema_mean_teacher([random_params(rng), random_params(rng, d_ff=last_d_ff)], alpha=alpha)
        assert str(exc.value) == message


class TestTeacherQueue:
    @staticmethod
    def queue(t_max=20):
        return TeacherQueue(schedule=ScheduleConfig(t_max=t_max))

    def test_capacity_eviction(self):
        q = self.queue()
        for epoch in range(12):  # capacity is m_max + 1 = 10
            push_checkpoint(q, epoch, params_filled(float(epoch)))
        assert len(q) == 10
        assert q.entries[0][0] == 2 and q.entries[-1][0] == 11

    def test_deep_copy_on_push(self):
        q = self.queue()
        live = params_filled(1.0)
        push_checkpoint(q, 0, live)
        live.wq[...] = 99.0
        assert np.all(q.entries[0][1].wq == 1.0)

    def test_monotone_epochs_required(self):
        q = self.queue()
        push_checkpoint(q, 0, params_filled(0.0))
        push_checkpoint(q, 1, params_filled(1.0))
        push_checkpoint(q, 2, params_filled(2.0))
        with pytest.raises(DataError, match="increase"):
            push_checkpoint(q, 1, params_filled(9.0))

    def test_consecutive_epochs_required(self):
        # epoch e has slot e % (capacity + 1) in the slot file: a gap would
        # give the new checkpoint a slot that the saved state still uses
        q = self.queue()
        push_checkpoint(q, 3, params_filled(3.0))
        with pytest.raises(DataError, match="by one: got 5 after 3"):
            push_checkpoint(q, 5, params_filled(5.0))
        assert [e for e, _ in q.entries] == [3]

    def test_eviction_drops_the_checkpoint_crc(self):
        q = self.queue()  # capacity m_max + 1 = 10
        for epoch in range(10):
            push_checkpoint(q, epoch, params_filled(float(epoch)))
            q.crcs[epoch] = epoch
        push_checkpoint(q, 10, params_filled(10.0))
        assert sorted(q.crcs) == list(range(1, 10))


class TestAlmtTeacher:
    def test_single_checkpoint_is_teacher(self):
        q = TeacherQueue(schedule=ScheduleConfig(t_max=10))
        p = params_filled(3.0)
        push_checkpoint(q, 0, p)
        teacher = almt_teacher(q, 0)
        for name in _TENSOR_FIELDS:
            np.testing.assert_array_equal(getattr(teacher, name), getattr(p, name))

    def test_startup_truncation(self):
        q = TeacherQueue(schedule=ScheduleConfig(t_max=10))
        push_checkpoint(q, 0, params_filled(1.0))
        # m_0 = 2 wants 3 checkpoints; only 1 exists and that is fine
        teacher = almt_teacher(q, 0)
        assert np.all(teacher.wq == 1.0)

    def test_out_of_window_checkpoints_ignored(self):
        rng = np.random.default_rng(3)
        schedule = ScheduleConfig(t_max=100)
        q1 = TeacherQueue(schedule=schedule)
        q2 = TeacherQueue(schedule=schedule)
        checkpoints = [random_params(rng) for _ in range(8)]
        for epoch, p in enumerate(checkpoints):
            push_checkpoint(q1, epoch, p)
            push_checkpoint(q2, epoch, p)
        t = 7
        m_t = window_size(t, schedule)
        assert m_t + 1 < len(q2)
        # perturb everything strictly older than the window in q2
        for i in range(len(q2) - (m_t + 1)):
            q2.entries[i][1].wq[...] = 1e6
        t1 = almt_teacher(q1, t)
        t2 = almt_teacher(q2, t)
        for name in _TENSOR_FIELDS:
            np.testing.assert_array_equal(getattr(t1, name), getattr(t2, name))

    def test_empty_queue_rejected(self):
        q = TeacherQueue(schedule=ScheduleConfig(t_max=10))
        with pytest.raises(DataError):
            almt_teacher(q, 0)


class TestRunningMtEquivalence:
    def test_fold_matches_full_recompute(self):
        # a running teacher updated once per checkpoint equals the EMA
        # recomputed over the full history
        rng = np.random.default_rng(4)
        checkpoints = [random_params(rng) for _ in range(6)]
        alpha = 0.9
        running = checkpoints[0].copy()
        for ckpt in checkpoints[1:]:
            for name in _TENSOR_FIELDS:
                t = getattr(running, name)
                t *= alpha
                t += (1.0 - alpha) * getattr(ckpt, name)
        full = ema_mean_teacher(checkpoints, alpha=alpha)
        for name in _TENSOR_FIELDS:
            np.testing.assert_allclose(getattr(running, name), getattr(full, name), rtol=1e-14)
