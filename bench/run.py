#!/usr/bin/env python3
"""Benchmark for ogen: two workloads, end-to-end metrics, a traced run.

    python3 bench/run.py --workload desk|cli --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout; it imports ogen from ``src/`` of that
checkout and from nowhere else. Each invocation is one workload in one
fresh process, a closed loop with one caller: it repeats the workload's
job (one round of training runs) while the next round is expected to
end within ``--seconds``, and always completes one. Every round works
on the dataset seeded with ``--seed``; training seeds are fixed. The
quality metrics come from a fixed suite of datasets, the same for every
``--seed``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and prints per-layer metrics taken from the
traced ones, plus the tracing overhead (traced minus untraced epoch
time). Correctness checks run outside the timed region. The last stdout
line is one JSON object with the keys correct, attempted, failed and
metrics; the exit code is 1 when a check or a run failed. A fuller
record (machine facts, tail percentiles, per-variant layer breakdowns)
goes to ``bench/out/<workload>-seed<N>-trace<T>.json``, and a traced run
writes its spans to ``bench/out/spans-<workload>-seed<N>.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import probe
from probe import Patches, Tracer, clock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# Every workload runs at the README's default scale.
CLASSES, DIM, PER_CLASS, EPOCHS = 50, 64, 40, 60
# final_hmean and final_new_acc are means over the joint_almt runs of this
# fixed suite of dataset seeds. They do not depend on --seed, so a given
# version of the code gives the same figures on every run and a small
# bound catches a loss of quality; one dataset alone says little (C=50
# has 25 new classes).
QUALITY_SEEDS = tuple(range(1_000_000, 1_000_008))
# Timing metrics are scaled by CALIBRATION_REF_S over the median of
# probe.calibration_seconds() taken through the run: the shared host this
# was built on runs for minutes at a time up to 1.7x slower, and those
# loops slow down with it. On cli, whose epochs also wait for the disk to
# take state.bin, a third of the scale comes instead from WRITE_REF_S
# over the median of probe.write_seconds(): rewriting state.bin is about
# a third of a CLI epoch. The references are the probes' times on that
# host when quiet; raw times are printed and recorded next to the
# scaled ones.
CALIBRATION_REF_S, WRITE_REF_S = 0.00215, 0.003
# Set-up repeats until it has run SETUP_MIN_REPEATS times and for
# SETUP_MIN_SECONDS, at most SETUP_MAX_REPEATS times; setup_s is the median.
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_MIN_SECONDS = 5, 100, 1.0

# name -> (scheme, distill); every workload trains all five.
VARIANTS = {
    "none": ("none", "none"),
    "per_class": ("per_class", "none"),
    "joint": ("joint", "none"),
    "joint_mt": ("joint", "mt"),
    "joint_almt": ("joint", "almt"),
}
FULL_VARIANT = "joint_almt"  # the variant that exercises every layer

# Per-epoch keys of the traced breakdown, in report order.
EPOCH_KEYS = (
    "objective.known_batch_ce",
    "retrieval.retrieve_knn",
    "retrieval.build_context",
    "generator.forward_student",
    "generator.forward_teacher",
    "generator.backward",
    "objective.synth_ce",
    "objective.distill",
    "distillation.teacher",
    "distillation.push_checkpoint",
    "trainer.eval",
    "cli.save_state",
)
COUNTED_KEYS = {
    "retrieval.retrieve_knn.calls_per_epoch": ("retrieval.retrieve_knn",),
    "retrieval.build_context.calls_per_epoch": ("retrieval.build_context",),
    "generator.forward.calls_per_epoch": ("generator.forward_student", "generator.forward_teacher"),
    "generator.backward.calls_per_epoch": ("generator.backward",),
    "objective.known_batch_ce.calls_per_epoch": ("objective.known_batch_ce",),
}
# Per-layer metrics every workload produces (BENCHMARK.json per_layer).
PER_LAYER_MS = (
    "retrieval.retrieve_knn",
    "retrieval.build_context",
    "generator.forward_student",
    "generator.forward_teacher",
    "generator.backward",
    "objective.synth_ce",
    "objective.distill",
    "objective.known_batch_ce",
    "distillation.teacher",
    "distillation.push_checkpoint",
    "trainer.eval",
)


def import_ogen():
    """Import ogen from this checkout's src/, or stop with exit code 1."""
    src = ROOT / "src"
    if not (src / "ogen" / "__init__.py").is_file():
        raise SystemExit(f"bench: no ogen sources under {src}; run from a checkout")
    sys.path.insert(0, str(src))
    import ogen
    import ogen.cli
    import ogen.distillation
    import ogen.embedding_store
    import ogen.generator
    import ogen.objective
    import ogen.trainer

    if Path(ogen.__file__).resolve().parent != (src / "ogen").resolve():
        raise SystemExit(f"bench: imported ogen from {ogen.__file__}, not from {src}")
    return ogen


def machine_facts() -> dict:
    """What can be read without root about the machine and the build."""
    import numpy as np

    cpu = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    blas = None
    with contextlib.suppress(Exception):
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    thread_vars = (
        "OGEN_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ[k] for k in thread_vars if k in os.environ},
        "commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout, or None when it is not a git repository. git
    does not look for a repository above the checkout."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


@dataclass
class Context:
    dataset: str  # "seeded", or "quality<i>" for QUALITY_SEEDS[i]
    timed: bool
    traced: bool = False


@dataclass
class RunRecord:
    """One call of trainer.train, stamped at the end of every epoch."""

    variant: str
    context: Context
    start: float
    stamps: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    embeddings: object = None

    def epoch_seconds(self):
        edges = [self.start] + self.stamps
        return [b - a for a, b in zip(edges, edges[1:])]


class Session:
    """State of one benchmark process: what ran, what it measured, and the
    correctness checks it made."""

    def __init__(self, ogen, name, seed, seconds, traced):
        self.og = ogen
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.tracer = Tracer()
        self.context = Context(dataset="seeded", timed=False)
        self.grid_span = None  # parent of the runs ablate() hands to its workers
        self.base_cfg = ogen.trainer.TrainConfig(epochs=EPOCHS)
        self.cfgs = {
            v: replace(self.base_cfg, scheme=s, distill=d) for v, (s, d) in VARIANTS.items()
        }
        self.dataset = None
        self.runs = []
        self.setup = []
        self.calibration = []
        self.writes = []
        self.evals = []
        self.jobs = []
        self.grids = []
        self.finals = {}
        self.attempted = 0
        self.failures = []
        self.workers = []
        self._tapes = {}
        self._lock = threading.Lock()  # ablate records runs from worker threads
        self.tmp = OUT / f"tmp-{name}-{os.getpid()}"

    # -- bookkeeping -------------------------------------------------------

    def calibrate(self, times: int) -> None:
        self.calibration.extend(probe.calibration_seconds() for _ in range(times))
        if self.name == "cli":
            self.writes.extend(probe.write_seconds(self.tmp / "probe.bin") for _ in range(times))

    def speed(self) -> float:
        """What the timing metrics are multiplied by: reference time of
        the probes over their time in this run."""
        speed = CALIBRATION_REF_S / statistics.median(self.calibration)
        if not self.writes:
            return speed
        return speed ** (2 / 3) * (WRITE_REF_S / statistics.median(self.writes)) ** (1 / 3)

    def attempt(self) -> None:
        with self._lock:
            self.attempted += 1

    def check(self, ok: bool, what: str) -> None:
        self.attempt()
        if not ok:
            self.failures.append(what)

    def variant_of(self, cfg) -> str:
        for v, known in self.cfgs.items():
            if cfg == known:
                return v
        return "other"

    def note_final(self, dataset: str, rows) -> None:
        """Keep the joint_almt metric rows of a dataset; a later run of the
        same dataset and config must give the same rows."""
        rows = tuple(rows)
        with self._lock:
            known = self.finals.setdefault(dataset, rows)
        if known is not rows:
            self.check(known == rows, f"dataset {dataset}: joint_almt rows differ between runs")

    def synth_config(self, seed: int):
        return self.og.embedding_store.SynthConfig(
            num_classes=CLASSES, dim=DIM, per_class=PER_CLASS, seed=seed
        )

    def row_tuple(self, row):
        return tuple(getattr(row, c) for c in self.og.cli.METRIC_COLUMNS)

    # -- the names the benchmark wraps --------------------------------------

    def record_runs(self, train):
        """Wrap trainer.train: stamp each epoch end, record the run and,
        while tracing, open run and epoch spans."""
        tracer = self.tracer

        @functools.wraps(train)
        def recorded(dataset, cfg, state=None, on_epoch=None):
            self.attempt()
            rec = RunRecord(self.variant_of(cfg), self.context, start=0.0)
            traced = tracer.active
            if traced:
                run_span = tracer.open("trainer.train", parent=self.grid_span)
                run_span.attrs.update(variant=rec.variant, timed=rec.context.timed)
                tracer.reset_seen()
                epoch = [tracer.open("trainer.epoch")]

            def stamp(st, row):
                if on_epoch is not None:
                    on_epoch(st, row)
                rec.stamps.append(clock())
                rec.rows.append(self.row_tuple(row))
                if traced:
                    tracer.close(epoch[0])
                    tracer.reset_seen()
                    epoch[0] = tracer.open("trainer.epoch")

            rec.start = clock()
            try:
                result = train(dataset, cfg, state=state, on_epoch=stamp)
            finally:
                if traced:
                    epoch[0].name = "trainer.return"
                    tracer.close(epoch[0])
                    tracer.close(run_span)
                self.runs.append(rec)
            rec.embeddings = result.embeddings
            if rec.variant == FULL_VARIANT:
                self.note_final(rec.context.dataset, rec.rows)
            # Only the last row is read from here on; what the record keeps
            # must not grow with the rounds that fit, or peak_rss_mb would.
            rec.rows = rec.rows[-1:]
            return result

        return recorded

    def remember_tape(self, span, args, result):
        self._tapes[id(result[1])] = span

    def consume_tape(self, args):
        # A forward whose tape backward() consumes is the student's; the
        # teacher's tape is dropped unconsumed.
        span = self._tapes.pop(id(args[0]), None)
        if span is not None:
            span.attrs["student"] = True
        return None

    def trace_patches(self, patches: Patches) -> None:
        og, t = self.og, self.tracer
        tr, obj, cli = og.trainer, og.objective, og.cli

        def folded(args):
            return {"folded": len(args[0])}

        def file_bytes(span, args, result):
            span.attrs["bytes"] = os.path.getsize(args[0])

        def workers(span, args, result):
            self.workers.append(result)

        patches.wrap(tr, "retrieve_knn", t.timed("retrieval.retrieve_knn"))
        patches.wrap(tr, "build_context", t.timed("retrieval.build_context"))
        for name in ("extrapolate_jointly", "extrapolate_per_class"):
            patches.wrap(tr, name, t.timed("generator.forward", after=self.remember_tape))
        patches.wrap(tr, "backward", t.timed("generator.backward", before=self.consume_tape))
        patches.wrap(obj, "known_batch_ce", t.scored("objective.known_batch_ce", 1))
        for name in ("synth_ce_joint", "synth_ce_per_class"):
            patches.wrap(obj, name, t.scored("objective.synth_ce", 1))
        for name in ("prob_joint_scheme", "prob_per_class_scheme"):
            patches.wrap(obj, name, t.scored("objective.distill", 1))
        for name in ("distill_grad_joint", "distill_grad_per_class"):
            patches.wrap(obj, name, t.scored("objective.distill", 2))
        patches.wrap(tr, "almt_teacher", t.timed("distillation.teacher"))
        patches.wrap(tr, "ema_mean_teacher", t.timed("distillation.teacher", before=folded))
        patches.wrap(tr, "_mt_update", t.timed("distillation.teacher", before=lambda a: {"folded": 1}))
        patches.wrap(og.distillation, "ema_mean_teacher", t.timed("distillation.ema_mean_teacher", before=folded))
        patches.wrap(tr, "push_checkpoint", t.timed("distillation.push_checkpoint"))
        patches.wrap(tr._EvalCache, "accuracies", t.timed("trainer.eval"))
        patches.wrap(tr, "ablation_workers", t.timed("trainer.ablation_workers", after=workers))
        patches.wrap(cli, "save_state", t.timed("cli.save_state", after=file_bytes))
        patches.wrap(cli, "load_state", t.timed("cli.load_state"))
        patches.wrap(cli, "load_embeddings", t.timed("cli.load_embeddings"))
        patches.wrap(cli, "save_embeddings", t.timed("cli.save_embeddings"))
        patches.wrap(cli, "save_checkpoint", t.timed("cli.save_checkpoint"))
        patches.wrap(cli, "make_synthetic", t.timed("embedding_store.make_synthetic"))
        patches.wrap(og.embedding_store, "make_synthetic", t.timed("embedding_store.make_synthetic"))
        for owner in (tr, og.generator):
            patches.wrap(owner, "write_tensor_file", t.timed("_tensorio.write_tensor_file"))
            patches.wrap(owner, "read_tensor_file", t.timed("_tensorio.read_tensor_file"))

    @contextlib.contextmanager
    def tracing(self):
        with Patches() as patches:
            self.trace_patches(patches)
            self.tracer.active = True
            try:
                yield
            finally:
                self.tracer.active = False

    # -- actions -----------------------------------------------------------

    def cli(self, args) -> str:
        """Run one ogen command in-process; returns its stdout."""
        self.attempt()
        out, err = io.StringIO(), io.StringIO()
        args = [str(a) for a in args]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if self.tracer.active:
                span = self.tracer.open("cli.command")
                span.attrs["command"] = args[0]
            try:
                code = self.og.cli.main(args)
            finally:
                if self.tracer.active:
                    self.tracer.close(span)
        if code != 0:
            self.failures.append(f"ogen {' '.join(args)} exited {code}: {err.getvalue().strip()}")
        return out.getvalue()

    def evaluate(self, dataset, rec: RunRecord) -> None:
        """Time the library evaluation of a finished run; it must agree
        with the run's last metrics row. Drops the run's embeddings."""
        embeddings, rec.embeddings = rec.embeddings, None
        t0 = clock()
        base, new, h = self.og.trainer.evaluate(None, embeddings, dataset)
        self.evals.append(clock() - t0)
        cols = self.og.cli.METRIC_COLUMNS
        expect = tuple(rec.rows[-1][cols.index(c)] for c in ("base_acc", "new_acc", "harmonic_mean"))
        self.check((base, new, h) == expect, f"evaluate() {(base, new, h)} != last row {expect}")


# ---------------------------------------------------------------------------
# Set-up and jobs
# ---------------------------------------------------------------------------


def measure_setup(s: Session) -> None:
    """Dataset generation (or gen-data plus load) and validation, repeated;
    setup_s is the median."""
    es = s.og.embedding_store
    start = clock()
    while len(s.setup) < SETUP_MAX_REPEATS and (
        len(s.setup) < SETUP_MIN_REPEATS or clock() - start < SETUP_MIN_SECONDS
    ):
        t0 = clock()
        if s.name == "cli":
            path = s.tmp / "setup.oef"
            s.cli(_gen_data_args(s, path))
            dataset = es.load_embeddings(path)
        else:
            dataset = es.make_synthetic(s.synth_config(s.seed))
        s.base_cfg.validate(dataset)
        s.setup.append(clock() - t0)
    s.dataset = es.make_synthetic(s.synth_config(s.seed))


def _gen_data_args(s: Session, path):
    return [
        "gen-data", "--classes", CLASSES, "--dim", DIM, "--per-class", PER_CLASS,
        "--seed", s.seed, "--out", path,
    ]


def library_job(s: Session, r: int) -> float:
    t0 = clock()
    for v in VARIANTS:
        s.og.trainer.train(s.dataset, s.cfgs[v])
        s.evaluate(s.dataset, s.runs[-1])
    return clock() - t0


def parse_metrics_csv(s: Session, text: str):
    cols = s.og.cli.METRIC_COLUMNS
    ints = {"epoch", "m_t", "teacher_lo", "teacher_hi"}
    lines = text.splitlines()
    if tuple(lines[0].split(",")) != tuple(cols):
        raise ValueError(f"unexpected metrics.csv header {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        rows.append(
            tuple(
                None if cell == "" else int(cell) if col in ints else float(cell)
                for col, cell in zip(cols, cells)
            )
        )
    return tuple(rows)


def cli_job(s: Session, r: int) -> float:
    work = s.tmp / f"round{r}"
    data = work / "data.oef"
    t0 = clock()
    s.cli(_gen_data_args(s, data))
    for v, (scheme, distill) in VARIANTS.items():
        run = work / v
        s.cli([
            "train", "--data", data, "--out", run, "--epochs", EPOCHS,
            "--scheme", scheme, "--distill", distill,
        ])
        t1 = clock()
        text = s.cli(["eval", "--run", run, "--csv"])
        s.evals.append(clock() - t1)
        rows = parse_metrics_csv(s, (run / "metrics.csv").read_text())
        last = rows[-1]
        expect = f"base_acc,new_acc,harmonic_mean\n{last[1]!r},{last[2]!r},{last[3]!r}\n"
        s.check(text == expect, f"ogen eval --csv printed {text!r}, last metrics row gives {expect!r}")
        if v == FULL_VARIANT:
            s.note_final("seeded", rows)
    elapsed = clock() - t0
    shutil.rmtree(work)
    return elapsed


WORKLOADS = {
    # Default scale: Python overhead of the per-class synthesis loop
    # dominates, so batching it shows here and epoch_ms.none stays put.
    "desk": library_job,
    # The only workload that writes and reads files (.oef, state.bin per
    # epoch, checkpoint.bin), all through ogen.cli.main in-process.
    "cli": cli_job,
}


def check_ablation(s: Session) -> None:
    """One ablation grid, untimed, with ablate()'s default workers: its
    11 runs must agree with evaluate(), and its almt cell and almt rows
    with the serial joint_almt runs of the timed rounds (note_final
    compares the rows). The traced run takes trainer.ablate.* from it."""
    first = len(s.runs)
    s.context = Context(dataset="seeded", timed=False, traced=s.traced)
    if s.tracer.active:
        s.grid_span = s.tracer.open("trainer.ablate")
    t0 = clock()
    try:
        report = s.og.trainer.ablate(s.dataset, s.base_cfg, seeds=1)
    finally:
        elapsed = clock() - t0
        if s.grid_span is not None:
            s.tracer.close(s.grid_span)
            s.grid_span = None
    grid_runs = s.runs[first:]
    s.grids.append({"start": t0, "seconds": elapsed, "runs": grid_runs})
    s.check(len(grid_runs) == 11, f"ablation grid ran {len(grid_runs)} runs, expected 11")
    for rec in grid_runs:
        s.evaluate(s.dataset, rec)
    cols = s.og.cli.METRIC_COLUMNS
    last = s.finals["seeded"][-1]
    want = tuple(last[cols.index(c)] for c in ("base_acc", "new_acc", "harmonic_mean"))
    cell = next(c for c in report.distill if c["variant"] == "almt")
    got = (cell["base_mean"], cell["new_mean"], cell["h_mean"])
    s.check(got == want, f"ablation almt cell {got} != serial train {want}")


def timed_loop(s: Session) -> None:
    """Repeat the job while the next round is expected to end within
    --seconds; at least one round (two when tracing: one untraced, one
    traced, alternating)."""
    job = WORKLOADS[s.name]
    start = clock()
    rounds = []
    r = 0
    while True:
        traced = s.traced and r % 2 == 1
        s.context = Context(dataset="seeded", timed=True, traced=traced)
        t0 = clock()
        if traced:
            with s.tracing():
                job_seconds = job(s, r)
        else:
            job_seconds = job(s, r)
        rounds.append(clock() - t0)
        if not traced:
            s.jobs.append(job_seconds)
        r += 1
        s.calibrate(5)
        if r >= (2 if s.traced else 1) and clock() - start + statistics.median(rounds) > s.seconds:
            break


def verify(s: Session) -> None:
    """Untimed checks and the quality runs."""
    train = s.og.trainer.train
    if s.name == "cli":
        # A library run on the in-memory dataset must repeat the rows of
        # the CLI's metrics.csv (the .oef round trip); note_final compares.
        s.context = Context(dataset="seeded", timed=False)
        train(s.dataset, s.cfgs[FULL_VARIANT])
    elif s.traced:
        with s.tracing():
            check_ablation(s)
    else:
        check_ablation(s)
    if s.traced:
        return
    es = s.og.embedding_store
    for i, seed in enumerate(QUALITY_SEEDS):
        s.context = Context(dataset=f"quality{i}", timed=False)
        train(es.make_synthetic(s.synth_config(seed)), s.cfgs[FULL_VARIANT])


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def epoch_samples(s: Session, variant: str, traced: bool):
    return [
        dt
        for rec in s.runs
        if rec.variant == variant and rec.context.timed and rec.context.traced == traced
        for dt in rec.epoch_seconds()
    ]


def tail(samples, scale=1.0):
    out = {"n": len(samples), "median": statistics.median(samples) * scale}
    found = probe.tail_percentile(samples)
    if found is not None:
        out["percentile"], out["value"] = found[0], found[1] * scale
    return out


def end_to_end(s: Session) -> tuple:
    metrics, tails = {}, {}
    speed = s.speed()

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def put_time(name, unit, samples, scale=1.0):
        t = tail(samples, scale)
        put(name, t["median"] * speed, unit)
        tails[name] = t

    put_time("setup_s", "s", s.setup)
    for v in VARIANTS:
        put_time(f"epoch_ms.{v}", "ms", epoch_samples(s, v, traced=False), 1000)
    put_time("eval_s", "s", s.evals)
    put_time("job_s", "s", s.jobs)
    cols = s.og.cli.METRIC_COLUMNS
    finals = [s.finals[f"quality{i}"][-1] for i in range(len(QUALITY_SEEDS))]
    put("final_hmean", statistics.fmean(f[cols.index("harmonic_mean")] for f in finals), "fraction")
    put("final_new_acc", statistics.fmean(f[cols.index("new_acc")] for f in finals), "fraction")
    put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics, tails


def epoch_breakdown(spans, variant: str) -> dict:
    """Mean per-epoch ms and calls of every wrapped call directly inside
    the epochs of the traced runs of one variant, plus the epoch's own
    loop time, checkpoints folded and the redundant objective share."""
    kids = probe.children(spans)
    epochs = [
        ep
        for run in spans
        if run.name == "trainer.train" and run.attrs.get("variant") == variant and run.attrs.get("timed")
        for ep in kids.get(run, ())
        if ep.name == "trainer.epoch"
    ]
    if not epochs:
        return {}
    ms = dict.fromkeys(EPOCH_KEYS, 0.0)
    calls = dict.fromkeys(EPOCH_KEYS, 0)
    loop_self = folded = objective = redundant = save_bytes = 0.0
    for ep in epochs:
        direct = kids.get(ep, ())
        for child in direct:
            key = child.name
            if key == "generator.forward":
                key = "generator.forward_student" if child.attrs.get("student") else "generator.forward_teacher"
            ms[key] = ms.get(key, 0.0) + 1000 * child.duration
            calls[key] = calls.get(key, 0) + 1
            save_bytes += child.attrs.get("bytes", 0)
        loop_self += 1000 * probe.self_time(ep, kids)
        stack = list(direct)
        while stack:
            span = stack.pop()
            folded += span.attrs.get("folded", 0)
            if "redundant" in span.attrs:
                objective += 1
                redundant += span.attrs["redundant"]
            stack.extend(kids.get(span, ()))
    n = len(epochs)
    out = {"epochs": n, "epoch_ms": 1000 * sum(ep.duration for ep in epochs) / n}
    for key in ms:
        out[f"{key}.ms_per_epoch"] = ms[key] / n
        out[f"{key}.calls_per_epoch"] = calls[key] / n
    out["trainer.loop_self.ms_per_epoch"] = loop_self / n
    out["distillation.teacher.checkpoints_folded_per_epoch"] = folded / n
    out["objective.class_matrix.redundant_share"] = redundant / objective if objective else 0.0
    out["cli.save_state.bytes_per_epoch"] = save_bytes / n
    return out


def per_layer(s: Session) -> tuple:
    spans = [span for span in s.tracer.spans if span.end is not None]
    breakdowns = {v: epoch_breakdown(spans, v) for v in VARIANTS}
    full = breakdowns[FULL_VARIANT]
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for key in PER_LAYER_MS:
        put(f"{key}.ms_per_epoch", full[f"{key}.ms_per_epoch"], "ms")
    for name, keys in COUNTED_KEYS.items():
        put(name, sum(full[f"{k}.calls_per_epoch"] for k in keys), "count")
    put("objective.class_matrix.redundant_share", full["objective.class_matrix.redundant_share"], "fraction")
    put("distillation.teacher.checkpoints_folded_per_epoch", full["distillation.teacher.checkpoints_folded_per_epoch"], "count")
    put("trainer.loop_self.ms_per_epoch", full["trainer.loop_self.ms_per_epoch"], "ms")
    synth = [span.duration for span in spans if span.name == "embedding_store.make_synthetic"]
    put("embedding_store.make_synthetic.ms", 1000 * statistics.median(synth), "ms")
    untraced = epoch_samples(s, FULL_VARIANT, traced=False)
    put("trace.epoch_ms", full["epoch_ms"], "ms")
    put("trace.overhead_ms_per_epoch", full["epoch_ms"] - 1000 * statistics.fmean(untraced), "ms")

    # Workload-specific layer figures (zero elsewhere, so not in the JSON line).
    extra = {"breakdown": breakdowns, "self_time_s": probe.self_time_by_layer(spans)}
    for name in ("cli.load_state", "cli.load_embeddings", "cli.save_embeddings", "cli.save_checkpoint"):
        durations = [span.duration for span in spans if span.name == name]
        if durations:
            extra[f"{name}.ms"] = 1000 * statistics.median(durations)
    if s.name == "cli":
        extra["cli.save_state.ms_per_epoch"] = full["cli.save_state.ms_per_epoch"]
        extra["cli.save_state.bytes_per_epoch"] = full["cli.save_state.bytes_per_epoch"]
    if s.grids:
        grid = s.grids[-1]
        extra["trainer.ablate.runs"] = len(grid["runs"])
        extra["trainer.ablate.workers"] = s.workers[-1] if s.workers else None
        extra["trainer.ablate.run_s"] = sum(rec.stamps[-1] - rec.start for rec in grid["runs"])
        extra["trainer.ablate.wait_s"] = sum(rec.start - grid["start"] for rec in grid["runs"])
        extra["trainer.ablate.seconds"] = grid["seconds"]
    return metrics, extra


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def report_end_to_end(s, metrics, tails):
    cal = statistics.median(s.calibration)
    probes = f"calibration loops {1000 * cal:.4g} ms against {1000 * CALIBRATION_REF_S:g} ms"
    if s.writes:
        probes += f", state.bin rewrite {1000 * statistics.median(s.writes):.4g} ms against {1000 * WRITE_REF_S:g} ms"
    lines = [f"# {probes}: timings are raw x {s.speed():.4g}"]
    for name, m in metrics.items():
        t = tails.get(name, {})
        detail = f"raw median {t['median']:.6g} of n={t['n']}" if t else ""
        if "percentile" in t:
            detail += f"; raw p{t['percentile']:g} {t['value']:.6g}"
        lines.append(f"{name:<24} {m['value']:>12.6g} {m['unit']:<8} {detail}")
    if s.name == "cli":
        m = metrics["epoch_ms.joint_almt"]
        lines.append(f"{'cli_epoch_ms':<24} {m['value']:>12.6g} {m['unit']:<8} (= epoch_ms.joint_almt on cli)")
    for grid in s.grids:
        lines.append(f"{'ablate_s':<24} {grid['seconds']:>12.6g} {'s':<8} raw, one untimed grid (the ablation check)")
    failed = len(s.failures)
    lines.append(f"{'failed_share':<24} {failed / max(s.attempted, 1):>12.6g} {'fraction':<8} ({failed} of {s.attempted})")
    return lines


def report_per_layer(s, metrics, extra):
    full = extra["breakdown"][FULL_VARIANT]
    epoch_ms = full["epoch_ms"]
    lines = [f"per-layer, traced {FULL_VARIANT} epochs (n={full['epochs']}, {epoch_ms:.4g} ms/epoch):"]
    for name, m in metrics.items():
        share = f"{100 * m['value'] / epoch_ms:5.1f}% of epoch" if name.endswith(".ms_per_epoch") else ""
        lines.append(f"  {name:<52} {m['value']:>10.4g} {m['unit']:<8} {share}")
    covered = full["trainer.loop_self.ms_per_epoch"] + sum(full[f"{k}.ms_per_epoch"] for k in EPOCH_KEYS)
    overhead = metrics["trace.overhead_ms_per_epoch"]["value"]
    lines.append(
        f"  sum of ms_per_epoch incl. loop_self {covered:.4g} ms = traced epoch {epoch_ms:.4g} ms; "
        f"untraced epoch {epoch_ms - overhead:.4g} ms; tracing overhead {overhead:.4g} ms"
    )
    for name, value in extra.items():
        if name not in ("breakdown", "self_time_s"):
            lines.append(f"  {name:<52} {value:>10.6g}")
    total = sum(extra["self_time_s"].values())
    lines.append("self time per layer over the traced rounds:")
    for layer, sec in sorted(extra["self_time_s"].items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<16} {sec:>9.4f} s {100 * sec / total:5.1f}%")
    lines.append("per-variant ms/epoch (traced):")
    for v, b in extra["breakdown"].items():
        if b:
            parts = ", ".join(
                f"{k}={b[f'{k}.ms_per_epoch']:.3g}" for k in EPOCH_KEYS if b[f"{k}.calls_per_epoch"]
            )
            lines.append(f"  {v}: epoch={b['epoch_ms']:.4g} loop_self={b['trainer.loop_self.ms_per_epoch']:.3g} {parts}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    ogen = import_ogen()
    OUT.mkdir(exist_ok=True)
    s = Session(ogen, args.workload, args.seed, args.seconds, bool(args.trace))
    facts = machine_facts()
    print(f"# ogen benchmark: workload={s.name} seed={s.seed} seconds={s.seconds:g} trace={args.trace}")
    print("# machine: " + json.dumps(facts, sort_keys=True))
    record = {"workload": s.name, "seed": s.seed, "seconds": s.seconds, "trace": args.trace, "machine": facts}
    metrics = None
    try:
        s.tmp.mkdir(parents=True, exist_ok=True)
        s.calibrate(10)
        with Patches() as patches:
            for owner in (ogen.trainer, ogen.cli):
                patches.wrap(owner, "train", s.record_runs)
            if s.traced:
                with s.tracing():
                    measure_setup(s)
            else:
                measure_setup(s)
            timed_loop(s)
            verify(s)
        if s.traced:
            metrics, extra = per_layer(s)
            lines = report_per_layer(s, metrics, extra)
            record["layers"] = extra
            probe.write_spans(s.tracer.spans, OUT / f"spans-{s.name}-seed{s.seed}.jsonl")
        else:
            metrics, tails = end_to_end(s)
            lines = report_end_to_end(s, metrics, tails)
            record["tails"] = tails
    except Exception:
        traceback.print_exc()
        s.failures.append("benchmark raised:\n" + traceback.format_exc())
        lines = []
    finally:
        shutil.rmtree(s.tmp, ignore_errors=True)
    for line in lines:
        print(line)
    for failure in s.failures:
        print(f"# FAILED: {failure}")
    result = {
        "correct": not s.failures,
        "attempted": max(s.attempted, 1),
        "failed": len(s.failures),
        "metrics": metrics or {},
    }
    record["runs"] = [
        {
            "variant": rec.variant,
            "dataset": rec.context.dataset,
            "timed": rec.context.timed,
            "traced": rec.context.traced,
            "start": rec.start,
            "epoch_s": rec.epoch_seconds(),
        }
        for rec in s.runs
    ]
    record["calibration_s"] = statistics.median(s.calibration)
    record["write_s"] = statistics.median(s.writes) if s.writes else None
    record.update(result, failures=s.failures)
    (OUT / f"{s.name}-seed{s.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
