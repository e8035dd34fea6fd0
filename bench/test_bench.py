"""Tests of the benchmark's own helpers: python3 -m pytest bench -q"""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import probe  # noqa: E402
import run  # noqa: E402


@pytest.mark.parametrize(
    "n, expected",
    [
        (19, None),
        (20, 50.0),
        (99, 50.0),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (999, 95.0),
        (1000, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    samples = list(range(n, 0, -1))  # unsorted on purpose
    found = probe.tail_percentile(samples)
    if expected is None:
        assert found is None
        return
    p, value = found
    assert p == expected
    assert sum(1 for x in samples if x > value) >= 10


def test_tail_percentile_value_is_nearest_rank():
    assert probe.tail_percentile(list(range(1, 21))) == (50.0, 10)
    assert probe.tail_percentile(list(range(1, 101))) == (90.0, 90)


def test_patches_restore_names_in_reverse_order_even_on_error():
    mod = types.SimpleNamespace(f=lambda: "f")

    class Owner:
        def method(self):
            return "method"

    f, method = mod.f, Owner.method
    with pytest.raises(RuntimeError):
        with probe.Patches() as patches:
            patches.wrap(mod, "f", lambda orig: lambda: "outer " + orig())
            patches.wrap(mod, "f", lambda orig: lambda: "inner " + orig())
            patches.wrap(Owner, "method", lambda orig: lambda self: "wrapped " + orig(self))
            assert mod.f() == "inner outer f"
            assert Owner().method() == "wrapped method"
            raise RuntimeError
    assert mod.f is f and Owner.method is method


def test_timed_spans_nest_and_record_nothing_when_inactive():
    tracer = probe.Tracer()
    inner = tracer.timed("b.inner")(lambda: 1)
    outer = tracer.timed("a.outer")(lambda: inner() + 1)
    assert outer() == 2 and tracer.spans == []
    tracer.active = True
    assert outer() == 2
    first, second = tracer.spans
    assert (first.name, second.name) == ("a.outer", "b.inner")
    assert second.parent is first and first.parent is None
    assert first.start <= second.start <= second.end <= first.end
    by_layer = probe.self_time_by_layer(tracer.spans)
    assert by_layer["a"] == pytest.approx(first.duration - second.duration)
    assert by_layer["b"] == pytest.approx(second.duration)


def test_scored_marks_the_same_array_as_redundant_until_reset():
    import numpy as np

    tracer = probe.Tracer()
    tracer.active = True
    score = tracer.scored("objective.x", 0)(lambda m: float(m.sum()))
    a, b = np.ones(3), np.ones(3)
    score(a), score(a), score(b)
    tracer.reset_seen()
    score(a)
    assert [s.attrs["redundant"] for s in tracer.spans] == [False, True, False, False]


def test_tracing_restores_every_wrapped_ogen_name():
    ogen = run.import_ogen()
    session = run.Session(ogen, "desk", seed=0, seconds=1, traced=True)
    with probe.Patches() as recorder:
        recorder.wrap(ogen.trainer, "train", session.record_runs)
        listed = probe.Patches()
        session.trace_patches(listed)
        targets = [(owner, name) for owner, name, _ in listed._saved]
        listed.restore()
        before = {(id(o), n): getattr(o, n) for o, n in targets}
        with session.tracing():
            assert all(getattr(o, n) is not before[(id(o), n)] for o, n in targets)
        assert all(getattr(o, n) is before[(id(o), n)] for o, n in targets)
    assert ogen.trainer.train is ogen.cli.train


def test_traced_run_splits_the_epoch_without_gaps():
    ogen = run.import_ogen()
    session = run.Session(ogen, "desk", seed=0, seconds=1, traced=True)
    cfg = run.replace(session.cfgs["joint_almt"], epochs=3)
    session.cfgs["joint_almt"] = cfg
    dataset = ogen.make_synthetic(session.synth_config(0))
    session.context = run.Context(dataset="seeded", timed=True, traced=True)
    with probe.Patches() as patches:
        patches.wrap(ogen.trainer, "train", session.record_runs)
        with session.tracing():
            ogen.trainer.train(dataset, cfg)
    out = run.epoch_breakdown(session.tracer.spans, "joint_almt")
    assert out["epochs"] == 3
    parts = sum(out[f"{k}.ms_per_epoch"] for k in run.EPOCH_KEYS) + out["trainer.loop_self.ms_per_epoch"]
    assert parts == pytest.approx(out["epoch_ms"])
    # 8 pseudo-unknown classes: one student forward each, plus a teacher
    # forward each once a checkpoint exists (epochs 1 and 2).
    assert out["generator.forward_student.calls_per_epoch"] == 8
    assert out["generator.forward_teacher.calls_per_epoch"] == pytest.approx(16 / 3)
    assert 0 < out["objective.class_matrix.redundant_share"] < 1


def test_self_time_counts_parallel_children_once():
    grid = probe.Span("trainer.ablate", 0.0, None, 1)
    first = probe.Span("trainer.train", 1.0, grid, 2)
    second = probe.Span("trainer.train", 2.0, grid, 3)
    grid.end, first.end, second.end = 10.0, 6.0, 8.0
    assert probe.self_time(grid, probe.children([grid, first, second])) == pytest.approx(3.0)
