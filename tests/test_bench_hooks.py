"""The names the benchmark's traced run wraps exist, and come back unwrapped.

bench/run.py times the program by replacing module attributes such as
ogen.trainer.almt_teacher with timing wrappers. Renaming or deleting one
of those names breaks `bench/run.py --trace 1`; this test makes it break
tier-1 as well.
"""

import importlib.util
import sys
from pathlib import Path

import ogen
import ogen.cli
import ogen.distillation
import ogen.embedding_store
import ogen.generator
import ogen.objective
import ogen.trainer

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports its sibling probe.py
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look themselves up there
    spec.loader.exec_module(run)
    return run


def test_trace_patches_wrap_existing_names_and_restore_them(monkeypatch):
    run = load_bench(monkeypatch)
    session = run.Session(ogen, "desk", 0, 1.0, True)
    wrapped = []

    class Recorded(run.probe.Patches):
        def wrap(self, owner, name, make):
            wrapped.append((owner, name, getattr(owner, name)))
            super().wrap(owner, name, make)

    with Recorded() as patches:
        session.trace_patches(patches)
        assert wrapped
        for owner, name, original in wrapped:
            assert getattr(owner, name) is not original, name
    for owner, name, original in wrapped:
        assert getattr(owner, name) is original, name


def test_objective_spans_never_nest(monkeypatch):
    # every objective head the benchmark wraps does its own arithmetic; a
    # head calling another wrapped head would count that call twice
    run = load_bench(monkeypatch)
    session = run.Session(ogen, "desk", 0, 1.0, True)
    dataset = ogen.embedding_store.make_synthetic(session.synth_config(0))
    with session.tracing():
        for scheme, distill in (("joint", "almt"), ("per_class", "none")):
            cfg = ogen.trainer.TrainConfig(epochs=3, scheme=scheme, distill=distill)
            ogen.trainer.train(dataset, cfg)
    spans = [s for s in session.tracer.spans if s.name.startswith("objective.")]
    assert {s.name for s in spans} >= {"objective.known_batch_ce", "objective.synth_ce", "objective.distill"}
    for span in spans:
        parent = span.parent
        while parent is not None:
            assert not parent.name.startswith("objective."), f"{span.name} inside {parent.name}"
            parent = parent.parent


def test_every_traced_save_leaves_a_file_at_its_path(monkeypatch, tmp_path):
    # the traced run sizes the file at save_state's path after each save
    run = load_bench(monkeypatch)
    session = run.Session(ogen, "cli", 0, 1.0, True)
    data = tmp_path / "d.oef"
    assert ogen.cli.main(["gen-data", "--classes", "8", "--dim", "16", "--per-class", "6", "--out", str(data)]) == 0
    with session.tracing():
        for distill in ("almt", "mt"):
            args = ["train", "--data", data, "--out", tmp_path / distill, "--epochs", "3", "--distill", distill]
            assert ogen.cli.main([str(a) for a in args]) == 0
    saves = [s for s in session.tracer.spans if s.name == "cli.save_state"]
    assert len(saves) == 6
    assert all(s.attrs["bytes"] > 0 for s in saves)
