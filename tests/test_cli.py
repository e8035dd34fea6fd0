"""Command-line behavior: files, exit codes, determinism, resume."""

import csv
import dataclasses
import json
import os
import pathlib
import shutil
import stat
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from conftest import file_tree

import ogen
from ogen._tensorio import read_tensor_file, write_tensor_file
from ogen.cli import main
from ogen.embedding_store import load_embeddings
from ogen.generator import _TENSOR_FIELDS, GeneratorParams, init_params, load_checkpoint, save_checkpoint


def gen_args(path, classes=8, dim=16, per_class=6, seed=0):
    return [
        "gen-data",
        "--classes", str(classes),
        "--dim", str(dim),
        "--per-class", str(per_class),
        "--seed", str(seed),
        "--out", str(path),
    ]


def train_args(data, out, epochs=3, extra=()):
    return [
        "train",
        "--data", str(data),
        "--out", str(out),
        "--epochs", str(epochs),
        "--batch-size", "16",
        "--seed", "0",
        *extra,
    ]


def resume_args(data, out):
    return ["train", "--data", str(data), "--out", str(out), "--resume"]


def rewrite_as_version_1(state_path):
    """Rewrite a run state in the layout of version 1: one entry per named
    generator tensor, prefixed by its bundle, and a has_mt flag."""
    tensors, meta = read_tensor_file(state_path)
    sizes = [meta["gen_meta"][key] for key in ("heads", "dim", "d_ff")]
    old = {}
    for name, t in tensors.items():
        if name in ("embeddings", "emb_velocity"):
            old[name] = t
        else:
            bundle = GeneratorParams(*sizes, t)
            old.update({f"{name}.{k}": getattr(bundle, k) for k in _TENSOR_FIELDS})
    meta.update(version=1, has_mt="mt" in tensors)
    write_tensor_file(state_path, old, meta)


def rewrite_manifest(raw, edit):
    """The bytes of a tensor file whose JSON manifest edit() has changed."""
    (mlen,) = struct.unpack("<I", raw[:4])
    manifest = json.loads(raw[4 : 4 + mlen])
    edit(manifest)
    mbytes = json.dumps(manifest).encode()
    return struct.pack("<I", len(mbytes)) + mbytes + raw[4 + mlen :]


def record_renames(monkeypatch):
    """A list that gets each later rename's destination, and whether a file was there at the call."""
    seen = []

    def recorded(real):
        def rename(src, dst, *args, **kwargs):
            seen.append((pathlib.Path(dst), os.path.lexists(dst)))
            return real(src, dst, *args, **kwargs)

        return rename

    monkeypatch.setattr(os, "replace", recorded(os.replace))
    monkeypatch.setattr(os, "rename", recorded(os.rename))
    return seen


@pytest.fixture()
def dataset_path(tmp_path):
    path = tmp_path / "d.oef"
    assert main(gen_args(path)) == 0
    return path


class TestGenData:
    def test_writes_loadable_file_and_summary(self, tmp_path, capsys):
        path = tmp_path / "data.oef"
        assert main(gen_args(path, classes=10, dim=16, per_class=4)) == 0
        out = capsys.readouterr().out
        assert "10 classes" in out and "dim 16" in out and "base=5 new=5" in out
        ds = load_embeddings(path)
        assert ds.num_classes == 10

    def test_missing_out_is_usage_error(self, capsys):
        assert main(["gen-data", "--classes", "8", "--dim", "16", "--per-class", "4"]) == 1

    def test_too_few_classes_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "x.oef"
        assert main(gen_args(path, classes=1)) == 2
        assert "error:" in capsys.readouterr().err

    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.oef", tmp_path / "b.oef"
        main(gen_args(p1, seed=5))
        main(gen_args(p2, seed=5))
        assert p1.read_bytes() == p2.read_bytes()

    def test_directory_where_the_old_file_is_set_aside_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "d.oef"
        assert main(gen_args(path)) == 0
        (tmp_path / ".d.oef.prev").mkdir()
        before = path.read_bytes()
        capsys.readouterr()
        assert main(gen_args(path, seed=1)) == 2
        assert f"{tmp_path / '.d.oef.prev'} is a directory" in capsys.readouterr().err
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [".d.oef.prev", "d.oef"]


def cli_command(*args, **env):
    """The argv of `python -m ogen.cli` with these arguments, and an
    environment that adds env to this one's."""
    path = os.pathsep.join([str(pathlib.Path(ogen.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    return [sys.executable, "-m", "ogen.cli", *map(str, args)], {**os.environ, "PYTHONPATH": path, **env}


def run_cli(*args, **env):
    """`python -m ogen.cli` with these arguments, in a child process whose
    environment adds env to this one's."""
    argv, environ = cli_command(*args, **env)
    return subprocess.run(argv, env=environ, capture_output=True, text=True, timeout=120)


def test_python_m_ogen_cli_runs_commands(tmp_path):
    data = tmp_path / "data.oef"
    done = run_cli(*gen_args(data))
    assert done.returncode == 0, done.stderr
    assert load_embeddings(data).num_classes == 8
    done = run_cli("train", "--data", tmp_path / "missing.oef", "--out", tmp_path / "run")
    assert done.returncode == 2
    assert done.stderr.startswith("error:")


def test_runs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # desk scale: the default dataset (C=50, d=64)
    data = tmp_path / "data.oef"
    assert run_cli("gen-data", "--out", data).returncode == 0
    for flags in (["--scheme", "joint", "--distill", "almt"], ["--scheme", "per_class", "--distill", "none"]):
        trees = []
        for threads in ("1", "2"):
            out = tmp_path / flags[1] / threads
            done = run_cli("train", "--data", data, "--out", out, "--epochs", "20", *flags,
                           OPENBLAS_NUM_THREADS=threads)
            assert done.returncode == 0, done.stderr
            trees.append(file_tree(out))
        assert trees[0] == trees[1], flags


@pytest.mark.parametrize("command", ["gen-data", "train", "ablate"])
def test_negative_seed_is_rejected_before_any_write(dataset_path, tmp_path, capsys, command):
    new = tmp_path / "new"
    if command == "gen-data":
        args = gen_args(new / "d.oef", seed=-1)
    else:
        args = [command, "--data", str(dataset_path), "--out", str(new), "--seed", "-1"]
    capsys.readouterr()
    assert main(args) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not new.exists()


@pytest.mark.parametrize(
    "command, flag, value",
    [("gen-data", "--image-noise", "nan"), ("gen-data", "--text-noise", "nan"), ("gen-data", "--text-noise", "inf"),
     ("train", "--tau", "inf"), ("train", "--tau", "nan"), ("train", "--lr", "nan"), ("train", "--gen-lr", "inf"),
     ("train", "--lambda-syn", "inf"), ("train", "--lambda-distill", "nan"), ("ablate", "--tau", "inf")],
)
def test_non_finite_float_flag_is_rejected_before_any_write(dataset_path, tmp_path, capsys, command, flag, value):
    new = tmp_path / "new"
    if command == "gen-data":
        args = [*gen_args(new / "d.oef"), flag, value]
    else:
        args = [command, "--data", str(dataset_path), "--out", str(new), flag, value]
    capsys.readouterr()
    assert main(args) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not new.exists()


def test_train_options_are_train_config_fields_with_its_defaults():
    from ogen.cli import cmd_ablate, cmd_train
    from ogen.trainer import TrainConfig

    defaults = {f.name: f.default for f in dataclasses.fields(TrainConfig)}
    options = {p.name: p for p in cmd_train.params if p.name not in ("data", "out", "resume", "plot")}
    assert {name: p.default for name, p in options.items()} == defaults
    shared = [p for p in cmd_ablate.params if p.name in defaults]
    assert [p.name for p in shared] == ["epochs", "batch_size", "k", "tau", "learning_rate", "generator_lr", "seed"]
    assert all(p is options[p.name] for p in shared)


def test_gen_data_options_are_synth_config_fields_with_its_defaults():
    from ogen.cli import gen_data
    from ogen.embedding_store import SynthConfig

    defaults = {f.name: f.default for f in dataclasses.fields(SynthConfig)}
    assert {p.name: p.default for p in gen_data.params if p.name != "out"} == defaults


def test_teacher_defaults_are_the_schedule_defaults():
    from ogen.distillation import ScheduleConfig
    from ogen.trainer import TrainConfig

    for name in ("m_min", "m_max", "ema_alpha"):
        assert getattr(TrainConfig(), name) == getattr(ScheduleConfig(t_max=1), name)
    assert ScheduleConfig(t_max=1).ema_alpha == 0.9


@pytest.mark.parametrize("command", ["gen-data", "train", "ablate"])
def test_output_under_a_regular_file_is_data_error_before_any_work(dataset_path, tmp_path, capsys, monkeypatch,
                                                                   command):
    # a path through a regular file can be no directory: the command names
    # it before it computes or writes anything, with no traceback
    (tmp_path / "afile").write_bytes(b"")
    out = tmp_path / "afile" / "out"
    for name in ("make_synthetic", "load_embeddings"):
        monkeypatch.setattr(ogen.cli, name, lambda *args: pytest.fail(f"{command} went on to work"))
    before = file_tree(tmp_path)
    args = {"gen-data": gen_args(out), "train": train_args(dataset_path, out),
            "ablate": ["ablate", "--data", str(dataset_path), "--out", str(out), "--seeds", "1", "--epochs", "1"]}
    assert main(args[command]) == 2
    err = capsys.readouterr().err
    assert f"error: cannot write {out}: {tmp_path / 'afile'} is not a directory" in err and "Traceback" not in err
    assert file_tree(tmp_path) == before


@pytest.mark.parametrize("command,wrong,out", [
    pytest.param("train", "afile", "afile", id="train"),
    pytest.param("resume", "afile", "afile", id="resume"),
    pytest.param("ablate", "afile", "afile", id="ablate"),
    pytest.param("eval", "afile", "afile", id="eval"),
    pytest.param("gen-data", "adir/", "adir", id="gen-data"),
    pytest.param("gen-data", ".d.oef.prev/", "d.oef", id="gen-data-aside"),
    pytest.param("ablate", "reports/.schemes.csv.prev/", "reports", id="ablate-aside"),
    pytest.param("train", "dangling@", "dangling", id="train-dangling"),
    pytest.param("ablate", "dangling@", "dangling", id="ablate-dangling"),
    pytest.param("eval", "dangling@", "dangling", id="eval-dangling"),
    pytest.param("train", "dangling@", "dangling/run", id="train-under-dangling"),
    pytest.param("gen-data", "dangling@", "dangling/d.oef", id="gen-data-under-dangling"),
])
def test_path_of_the_wrong_kind_is_data_error_before_any_work(dataset_path, tmp_path, capsys, monkeypatch, command,
                                                              wrong, out):
    # a regular file where a command takes a directory, a directory (a
    # trailing /) where it writes a file or sets an old one aside, or a
    # dangling symlink (@) where it makes a directory or one above it, is a
    # data error that names the path (click's own check exits 1), found
    # before the command computes or writes anything
    path, out = tmp_path / wrong.rstrip("/@"), tmp_path / out
    if wrong.endswith("/"):
        path.mkdir(parents=True)
    elif wrong.endswith("@"):
        path.symlink_to(tmp_path / "nowhere")
    else:
        path.write_bytes(b"")
    for name in ("make_synthetic", "load_embeddings", "load_state"):
        monkeypatch.setattr(ogen.cli, name, lambda *args: pytest.fail(f"{command} went on to work"))
    before, entries = file_tree(tmp_path), sorted(tmp_path.rglob("*"))
    args = {"train": train_args(dataset_path, out), "resume": resume_args(dataset_path, out),
            "ablate": ["ablate", "--data", str(dataset_path), "--out", str(out), "--seeds", "1", "--epochs", "1"],
            "eval": ["eval", "--run", str(out)], "gen-data": gen_args(out)}
    assert main(args[command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{path} is" in err and "Traceback" not in err
    assert file_tree(tmp_path) == before and sorted(tmp_path.rglob("*")) == entries


class TestTrain:
    def test_run_directory_contents(self, dataset_path, tmp_path):
        run = tmp_path / "run"
        assert main(train_args(dataset_path, run, epochs=3)) == 0
        config = json.loads((run / "config.json").read_text())
        assert config["config"]["epochs"] == 3
        assert config["k_effective"] <= config["k_requested"]
        with open(run / "metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert [int(r["epoch"]) for r in rows] == [0, 1, 2]
        assert (run / "state.bin").exists()
        params, meta = load_checkpoint(run / "checkpoint.bin")
        assert meta["scheme"] == "joint" and meta["epoch"] == 2

    def test_baseline_run_has_no_generator_checkpoint(self, dataset_path, tmp_path):
        run = tmp_path / "run"
        assert main(train_args(dataset_path, run, extra=["--scheme", "none", "--distill", "none"])) == 0
        assert not (run / "checkpoint.bin").exists()

    def test_invalid_scheme_distill_combination(self, dataset_path, tmp_path, capsys):
        run = tmp_path / "run"
        code = main(train_args(dataset_path, run, extra=["--scheme", "none", "--distill", "almt"]))
        assert code == 2
        assert "distill" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scheme,distill,flag",
        [pytest.param("none" if distill == "none" else "joint", distill, [flag, "9"], id=f"{flag}-{distill}")
         for distill in ("none", "mt") for flag in ("--m-min", "--m-max")]
        + [pytest.param("joint", "none", flag, id=f"{flag[0]}-none")
           for flag in (["--ema-alpha", "0.5"], ["--lambda-distill", "5"])]
        + [pytest.param("none", "none", flag, id=f"{flag[0]}-scheme-none")
           for flag in (["--random-neighbors"], ["--gen-lr", "0.5"], ["--k", "2"], ["--lambda-syn", "1"],
                        ["--heads", "2"], ["--d-ff", "8"])],
    )
    def test_window_bounds_require_almt(self, dataset_path, tmp_path, capsys, scheme, distill, flag):
        # a training flag that the run's scheme or distill mode ignores is
        # rejected before the run directory is made, as --m-min and --m-max
        # are without almt's window
        run = tmp_path / "run"
        args = train_args(dataset_path, run, extra=["--scheme", scheme, "--distill", distill, *flag])
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"error: {flag[0]} " in err and "Traceback" not in err
        if flag[0] in ("--m-min", "--m-max"):
            assert f"{flag[0]} bound the window of distill=almt, not distill={distill}" in err
        else:
            assert f"not {'scheme' if scheme == 'none' else 'distill'}=none" in err
        assert not run.exists()

    @pytest.mark.parametrize("flag", ["--heads", "--d-ff"])
    def test_width_below_one_is_config_error(self, dataset_path, tmp_path, capsys, flag):
        assert main(train_args(dataset_path, tmp_path / "run", extra=[flag, "0"])) == 2
        assert f"{flag[2:].replace('-', '_')} must be >= 1" in capsys.readouterr().err

    def test_missing_data_file(self, tmp_path):
        assert main(train_args(tmp_path / "absent.oef", tmp_path / "run")) == 2

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda raw: raw.replace(b'"synth_000"', b'"synth_\xff00"', 1),  # a manifest that is not UTF-8
            lambda raw: rewrite_manifest(raw, lambda m: m["tensors"][1].update(shape=[2**32 - 1] * 2)),  # image_features
            lambda raw: rewrite_manifest(raw, lambda m: m.update(counts=[1 << 20] * len(m["counts"]))),
            lambda raw: b"OGEN" + struct.pack("<III", 1, 0xFFFFFFFF, 0xFFFFFFFF) + raw,
            "oversized",
        ],
        ids=["name_not_utf8", "huge_header", "oversized_header", "version_1", "oversized"],
    )
    def test_hostile_dataset_is_data_error_without_allocating(self, dataset_path, tmp_path, capsys, corrupt):
        raw = dataset_path.read_bytes()
        assert read_tensor_file(dataset_path)[1]["format"] == "ogen-embeddings"
        if corrupt == "oversized":
            os.truncate(dataset_path, 64 * 2**20)  # sparse: the extra zeros take no disk
        else:
            dataset_path.write_bytes(corrupt(raw))
        tracemalloc.start()
        try:
            code = main(train_args(dataset_path, tmp_path / "run"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 16 * 2**20
        assert "error:" in capsys.readouterr().err

    def test_identical_flags_identical_outputs(self, dataset_path, tmp_path):
        r1, r2 = tmp_path / "r1", tmp_path / "r2"
        assert main(train_args(dataset_path, r1, epochs=4)) == 0
        assert main(train_args(dataset_path, r2, epochs=4)) == 0
        assert (r1 / "metrics.csv").read_bytes() == (r2 / "metrics.csv").read_bytes()
        assert (r1 / "state.bin").read_bytes() == (r2 / "state.bin").read_bytes()
        assert (r1 / "checkpoint.bin").read_bytes() == (r2 / "checkpoint.bin").read_bytes()
        c1 = json.loads((r1 / "config.json").read_text())
        c2 = json.loads((r2 / "config.json").read_text())
        assert c1 == c2

    def test_no_save_renames_onto_an_existing_file(self, dataset_path, tmp_path, monkeypatch):
        # on ext4 a rename over an existing file starts the new file's
        # writeback at once: a disk write on every epoch's save of state.bin
        renames = record_renames(monkeypatch)
        for distill in ("almt", "mt"):
            assert main(train_args(dataset_path, tmp_path / distill, extra=["--distill", distill])) == 0
        assert sum(dst.name == "state.bin" for dst, _ in renames) == 6
        assert [dst for dst, existed in renames if existed] == []

    @pytest.mark.parametrize("job", ["gen_data_twice", "resume", "checkpoint_twice"])
    def test_no_rewrite_renames_onto_an_existing_file(self, dataset_path, tmp_path, monkeypatch, job):
        # a rewrite first moves the old file aside to .<name>.prev
        from ogen.trainer import TrainConfig, save_state, train

        renames = record_renames(monkeypatch)
        if job == "gen_data_twice":
            target = tmp_path / "again.oef"
            assert main(gen_args(target)) == 0
            assert main(gen_args(target, seed=1)) == 0
            moved = [target.name, f".{target.name}.prev", target.name]
        elif job == "resume":  # an almt run rewound by one epoch
            run = tmp_path / "run"
            assert main(train_args(dataset_path, run, epochs=3)) == 0
            cfg = TrainConfig(**json.loads((run / "config.json").read_text())["config"])
            assert cfg.distill == "almt"
            train(load_embeddings(dataset_path), cfg,
                  on_epoch=lambda state, row: row.epoch == 1 and save_state(run / "state.bin", state, cfg))
            assert main(resume_args(dataset_path, run)) == 0
            target, moved = run / "metrics.csv", [".metrics.csv.prev", "metrics.csv"]
        else:
            target = tmp_path / "checkpoint.bin"
            params = init_params(2, 16, 32, seed=0)
            save_checkpoint(target, params, "joint", 1)
            save_checkpoint(target, params, "joint", 2)
            moved = [target.name, f".{target.name}.prev", target.name]
        monkeypatch.undo()
        assert [dst for dst, existed in renames if existed] == []
        assert [dst.name for dst, _ in renames if dst.name.endswith((target.name, f"{target.name}.prev"))] == moved
        if job == "resume":
            # the run's three saves: to a new file, setting the old one aside,
            # and swapping in the kept aside, rewritten; the run then deletes
            # the aside, so the rewind sets one aside and the resumed epoch swaps
            states = [dst.name for dst, _ in renames if "state.bin" in dst.name]
            set_aside, swap = [".state.bin.prev", "state.bin"], [f".state.bin.{os.getpid()}.tmp", "state.bin", ".state.bin.prev"]
            assert states == ["state.bin"] + set_aside + swap + set_aside + swap

    def test_fresh_run_over_another_runs_queue_file(self, dataset_path, tmp_path):
        # the other run left checkpoints 0-5; a fresh 4-epoch run writes 0-3
        # and must leave no trace of the other run's 4 and 5
        other, clean, dirty = tmp_path / "other", tmp_path / "clean", tmp_path / "dirty"
        assert main(train_args(dataset_path, other, epochs=6, extra=["--lr", "0.05"])) == 0
        shutil.copytree(other / "state.queue", dirty / "state.queue")
        assert main(train_args(dataset_path, clean, epochs=4)) == 0
        assert main(train_args(dataset_path, dirty, epochs=4)) == 0
        files = file_tree(clean)
        assert [name for name in files if name.startswith("state.queue/")] == [f"state.queue/{e}.f8" for e in range(4)]
        assert file_tree(dirty) == files

    @pytest.mark.parametrize("stray", ["file", "symlink_to_a_directory", "dangling_symlink"])
    def test_fresh_run_over_a_stray_queue_path(self, dataset_path, tmp_path, stray):
        # a fresh run unlinks whatever occupies state.queue and is not a real
        # directory; a symlink goes, the directory it points to stays as it was
        clean, run, target = tmp_path / "clean", tmp_path / "run", tmp_path / "target"
        assert main(train_args(dataset_path, clean, epochs=4)) == 0
        run.mkdir()
        target.mkdir()
        (target / "0.f8").write_bytes(b"not this run's")
        if stray == "file":
            (run / "state.queue").write_bytes(b"not a directory")
        else:
            (run / "state.queue").symlink_to(target if stray == "symlink_to_a_directory" else tmp_path / "missing")
        assert main(train_args(dataset_path, run, epochs=4)) == 0
        assert not (run / "state.queue").is_symlink()
        assert file_tree(run) == file_tree(clean)
        assert file_tree(target) == {"0.f8": b"not this run's"}

    @pytest.mark.parametrize("name", ["state.bin", ".state.bin.prev", "checkpoint.bin", "curves.svg",
                                      ".metrics.csv.99999.tmp"])
    def test_fresh_run_over_a_directory_at_a_run_file(self, dataset_path, tmp_path, capsys, name):
        # a fresh run deletes an earlier run's files, but a directory in the
        # place of one is not the run's: it names it and changes no file
        run = tmp_path / "run"
        assert main(train_args(dataset_path, run, extra=["--plot"])) == 0
        (run / name).unlink(missing_ok=True)
        (run / name).mkdir()
        (run / name / "kept").write_bytes(b"not the run's")
        before = file_tree(run)
        capsys.readouterr()
        assert main(train_args(dataset_path, run, epochs=4)) == 2
        assert f"{run / name} is a directory" in capsys.readouterr().err
        assert file_tree(run) == before

    def test_interrupted_fresh_run_keeps_no_state_of_the_earlier_run(self, dataset_path, tmp_path, monkeypatch):
        run = tmp_path / "run"
        assert main(train_args(dataset_path, run, epochs=4, extra=["--plot"])) == 0

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        # and what killed saves leave: the old state moved aside, a temp file
        shutil.copy(run / "state.bin", run / ".state.bin.prev")
        (run / ".state.bin.99999.tmp").write_bytes(b"\0" * 100)
        monkeypatch.setattr("ogen.cli.train", interrupted)
        assert main(["train", "--data", str(dataset_path), "--out", str(run), "--seed", "7"]) == 1
        monkeypatch.undo()
        assert sorted(p.name for p in run.iterdir()) == ["config.json", "metrics.csv"]
        assert main(["eval", "--run", str(run)]) == 2
        assert main(resume_args(dataset_path, run)) == 2

    def test_fresh_run_deletes_the_temp_files_of_killed_writes(self, dataset_path, tmp_path):
        # a killed write leaves .NAME.<pid>.tmp beside each file it replaces
        clean, run = tmp_path / "clean", tmp_path / "run"
        assert main(train_args(dataset_path, clean, extra=["--plot"])) == 0
        assert main(train_args(dataset_path, run, extra=["--plot"])) == 0
        for name in ("state.bin", "checkpoint.bin", "metrics.csv"):
            (run / f".{name}.99999.tmp").write_bytes(b"\0" * 100)
        assert main(train_args(dataset_path, run, extra=["--plot"])) == 0
        assert file_tree(run) == file_tree(clean)

    def test_plot_writes_svg(self, dataset_path, tmp_path):
        run = tmp_path / "run"
        assert main(train_args(dataset_path, run, extra=["--plot"])) == 0
        svg = (run / "curves.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_numerical_failure_exit_code(self, dataset_path, tmp_path, monkeypatch, capsys):
        import ogen.objective

        real = ogen.objective.known_batch_ce

        def poisoned(*args, **kwargs):
            loss, grad = real(*args, **kwargs)
            return float("inf"), grad

        monkeypatch.setattr(ogen.objective, "known_batch_ce", poisoned)
        code = main(train_args(dataset_path, tmp_path / "run", extra=["--scheme", "none", "--distill", "none"]))
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err


class TestResume:
    @staticmethod
    def rewound_run(dataset_path, run, extra=()):
        """A finished 4-epoch run whose state is rewound to epoch 1."""
        from ogen.trainer import TrainConfig, save_state, train

        assert main(train_args(dataset_path, run, epochs=4, extra=extra)) == 0
        cfg = TrainConfig(**json.loads((run / "config.json").read_text())["config"])

        def keep(state, row):
            if row.epoch == 1:
                save_state(run / "state.bin", state, cfg)

        train(load_embeddings(dataset_path), cfg, on_epoch=keep)

    def test_resume_matches_unbroken_run(self, dataset_path, tmp_path, capsys):
        from ogen.trainer import TrainConfig, save_state, train

        full = tmp_path / "full"
        assert main(train_args(dataset_path, full, epochs=6)) == 0

        # rewind a copy of the run to its epoch-2 snapshot, as if the
        # process had died there, then resume through the CLI
        part = tmp_path / "part"
        assert main(train_args(dataset_path, part, epochs=6)) == 0
        ds = load_embeddings(dataset_path)
        cfg = TrainConfig(**json.loads((full / "config.json").read_text())["config"])

        def keep(state, row):
            if row.epoch == 2:
                save_state(part / "state.bin", state, cfg)

        train(ds, cfg, on_epoch=keep)
        lines = (full / "metrics.csv").read_text().splitlines()
        (part / "metrics.csv").write_text("\n".join(lines[:4]) + "\n")

        assert main(["train", "--data", str(dataset_path), "--out", str(part), "--resume"]) == 0
        assert "resuming from epoch 3" in capsys.readouterr().out
        assert file_tree(part) == file_tree(full)

    @pytest.mark.parametrize("state_in_aside", [False, True], ids=["state", "aside"])
    def test_resume_deletes_the_temp_files_of_killed_writes(self, dataset_path, tmp_path, monkeypatch,
                                                            state_in_aside):
        # a killed write leaves .NAME.<pid>.tmp, and maybe the state only in
        # its aside, which the resume must read, not delete
        full, run = tmp_path / "full", tmp_path / "run"
        assert main(train_args(dataset_path, full, epochs=4)) == 0
        self.rewound_run(dataset_path, run)
        for name in ("state.bin", "metrics.csv", "checkpoint.bin", "config.json"):
            (run / f".{name}.12345.tmp").write_bytes(b"\0" * 100)
        if state_in_aside:
            os.replace(run / "state.bin", run / ".state.bin.prev")

            def killed(*args):
                raise OSError("killed")

            # a resume killed right after its clean-up, at the write that cuts
            # metrics.csv back, leaves the state where it was
            monkeypatch.setattr("ogen.rundir.write_atomically", killed)
            with pytest.raises(OSError, match="killed"):
                main(resume_args(dataset_path, run))
            monkeypatch.undo()
            assert sorted(p.name for p in run.glob(".*")) == [".state.bin.prev"]
        assert main(resume_args(dataset_path, run)) == 0
        assert file_tree(run) == file_tree(full)

    def test_resume_without_state_fails(self, dataset_path, tmp_path):
        assert main(["train", "--data", str(dataset_path), "--out", str(tmp_path / "nope"), "--resume"]) == 2

    @pytest.mark.parametrize("lost", ["metrics.csv", "config.json"])
    def test_resume_without_run_file_is_data_error(self, dataset_path, tmp_path, capsys, lost):
        run = tmp_path / "run"
        self.rewound_run(dataset_path, run)  # so that --resume has epochs left
        (run / lost).unlink()
        capsys.readouterr()
        assert main(["train", "--data", str(dataset_path), "--out", str(run), "--resume"]) == 2
        assert lost in capsys.readouterr().err

    # fixed: a constant window, m_min = m_max = 2
    @pytest.mark.parametrize("distill", [["--distill", "almt"], ["--m-min", "2", "--m-max", "2"]], ids=["almt", "fixed"])
    @pytest.mark.parametrize(
        "next_epoch, queue_epochs",
        [
            (2, "missing"),
            (2, None),
            (2, {"0": 0}),
            (2, [0.0, 1.0]),
            (2, [True]),
            (2, [1, 0]),
            (2, [1, 1]),
            (2, [-1, 0]),
            (2, [0, 2]),
            (11, list(range(11))),  # one more than the queue holds
            (3, [0]),  # epochs 1 and 2 lost
        ],
        ids=["missing", "null", "not_a_list", "floats", "bool", "decreasing", "repeated",
             "negative", "not_below_next_epoch", "longer_than_capacity", "truncated"],
    )
    def test_bad_queue_epochs_is_data_error(self, dataset_path, tmp_path, capsys, distill, next_epoch, queue_epochs):
        # the checkpoints live in state.queue.bin, which the run left whole
        run = tmp_path / "run"
        assert main(train_args(dataset_path, run, epochs=12, extra=distill)) == 0
        tensors, meta = read_tensor_file(run / "state.bin")
        meta["next_epoch"] = next_epoch
        if queue_epochs == "missing":
            del meta["queue_epochs"]
        else:
            meta["queue_epochs"] = queue_epochs
        write_tensor_file(run / "state.bin", tensors, meta)
        capsys.readouterr()
        assert main(train_args(dataset_path, run, epochs=12, extra=[*distill, "--resume"])) == 2
        assert "queue_epochs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda tensors, meta: meta["config"].update(epochs="4"),
            lambda tensors, meta: meta["config"].update(tau="x"),
            lambda tensors, meta: meta["config"].update(batch_size=None),
            lambda tensors, meta: meta.update(next_epoch=-1),
            lambda tensors, meta: tensors.update(emb_velocity=tensors["emb_velocity"][:, :-1]),
            lambda tensors, meta: tensors.update(
                embeddings=tensors["embeddings"][:, :-1], emb_velocity=tensors["emb_velocity"][:, :-1]
            ),
            lambda tensors, meta: tensors.update(embeddings=tensors["embeddings"].astype(np.float32)),
            lambda tensors, meta: meta["config"].update(epochs=6.0),
            lambda tensors, meta: meta["config"].update(k=2.5),
            lambda tensors, meta: meta["config"].update(heads=4.0),
            lambda tensors, meta: meta["config"].update(random_neighbors="no"),
            lambda tensors, meta: meta["config"].update(heads=0),
            lambda tensors, meta: meta["config"].update(d_ff=0),
            lambda tensors, meta: meta["config"].update(seed=-1),
            lambda tensors, meta: meta["config"].update(tau=float("nan")),
        ],
        ids=["epochs_a_string", "tau_a_string", "batch_size_null", "negative_next_epoch",
             "velocity_of_another_shape", "embeddings_not_of_the_dataset", "float32_embeddings",
             "epochs_a_float", "k_a_float", "heads_a_float", "random_neighbors_a_string",
             "heads_zero", "d_ff_zero", "negative_seed", "tau_nan"],
    )
    def test_inconsistent_state_is_data_error(self, dataset_path, tmp_path, capsys, corrupt):
        run = tmp_path / "run"
        self.rewound_run(dataset_path, run, extra=["--distill", "mt"])
        tensors, meta = read_tensor_file(run / "state.bin")
        corrupt(tensors, meta)
        write_tensor_file(run / "state.bin", tensors, meta)
        metrics = (run / "metrics.csv").read_bytes()
        capsys.readouterr()
        assert main(resume_args(dataset_path, run)) == 2
        assert "error:" in capsys.readouterr().err
        assert (run / "metrics.csv").read_bytes() == metrics  # rejected before any rewrite

    @pytest.mark.parametrize(
        "distill, corrupt",
        [
            ("mt", lambda tensors: tensors.pop("mt")),
            ("almt", lambda tensors: tensors.update(mt=tensors["velocity"])),  # its params are in state.queue/
            ("none", lambda tensors: tensors.update(mt=tensors["params"])),
        ],
        ids=["mt_without_teacher", "almt_with_mt_teacher", "none_with_mt_teacher"],
    )
    def test_mean_teacher_of_another_distill_is_data_error(self, dataset_path, tmp_path, capsys, distill, corrupt):
        # without the check, an mt run re-seeds its teacher from the current
        # parameters and an almt run carries a teacher it never reads
        run = tmp_path / "run"
        self.rewound_run(dataset_path, run, extra=["--distill", distill])
        tensors, meta = read_tensor_file(run / "state.bin")
        corrupt(tensors)
        write_tensor_file(run / "state.bin", tensors, meta)
        metrics = (run / "metrics.csv").read_bytes()
        capsys.readouterr()
        assert main(resume_args(dataset_path, run)) == 2
        assert "mt tensor" in capsys.readouterr().err
        assert (run / "metrics.csv").read_bytes() == metrics

    @pytest.mark.parametrize("key, value", [("heads", 2), ("d_ff", 48), ("dim", 8)])
    def test_generator_other_than_configured_is_data_error(self, dataset_path, tmp_path, capsys, key, value):
        # heads=2 has the vector length of the configured heads=4
        run = tmp_path / "run"
        self.rewound_run(dataset_path, run)
        tensors, meta = read_tensor_file(run / "state.bin")
        meta["gen_meta"][key] = value
        write_tensor_file(run / "state.bin", tensors, meta)
        capsys.readouterr()
        assert main(resume_args(dataset_path, run)) == 2
        assert "gen_meta" in capsys.readouterr().err

    @pytest.mark.parametrize("step", ["slot_write", "state_write", "moved_aside", "rewrite",
                                      "renamed_away", "renamed_in", "renamed_aside", "slot_create"])
    def test_killed_save_keeps_the_resume_point(self, dataset_path, tmp_path, monkeypatch, step):
        # a window of 2 keeps 3 checkpoints in a ring of 4 files; the sixth
        # save (epoch 5) dies in one of its steps: half way through rewriting
        # ring file 1 (epoch 1's) with checkpoint 5 or rewriting the kept
        # .state.bin.prev in place, or after one of the three renames that
        # swap it in (state.bin to a temp name, the aside to state.bin, the
        # temp name to the aside). The fourth save (epoch 3) dies half way
        # through writing the temp file of ring file 3, its first write. The
        # second save (epoch 1), the first to set an old state.bin aside,
        # dies half way through writing its temp file or after it moved the
        # old state.bin aside but before it renamed the new one in
        import builtins

        import ogen._tensorio
        from ogen.trainer import load_state

        full, run, window = tmp_path / "full", tmp_path / "run", ["--m-min", "2", "--m-max", "2"]
        assert main(train_args(dataset_path, full, epochs=8, extra=window)) == 0
        calls = []

        class Killed:
            def __init__(self, fh):
                self.fh = fh

            def __getattr__(self, attr):
                return getattr(self.fh, attr)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                data = memoryview(data).cast("B")
                self.fh.write(data[: len(data) // 2])
                raise OSError("killed mid-write")

        # write_atomically opens a temp file by its name, and write_in_place
        # a file through a descriptor: each save from the third on rewrites
        # the kept aside, and from the fifth on first a ring file
        opened, nth = {
            "slot_create": (lambda path: "state.queue" in str(path), 4),
            "state_write": (lambda path: ".state.bin." in str(path), 2),
            "slot_write": (lambda path: isinstance(path, int), 5),
            "rewrite": (lambda path: isinstance(path, int), 6),
        }.get(step, (None, 0))

        def killing_open(path, how="r", *args):
            fh = builtins.open(path, how, *args)
            if how == "wb" and opened(path):
                calls.append(path)
                if len(calls) == nth:
                    return Killed(fh)
            return fh

        # the first save renames one state file, the second two, each later one three
        real_replace, renamed = os.replace, {"moved_aside": 3, "renamed_away": 13, "renamed_in": 14,
                                             "renamed_aside": 15}.get(step)

        def killing_replace(src, dst):
            if "state.bin" in os.path.basename(dst):
                calls.append(dst)
                if len(calls) == renamed:
                    if step == "moved_aside":
                        raise OSError("killed between the renames")
                    real_replace(src, dst)
                    raise OSError("killed after a rename")
            return real_replace(src, dst)

        if renamed:
            monkeypatch.setattr(os, "replace", killing_replace)
        else:
            monkeypatch.setattr(ogen._tensorio, "open", killing_open, raising=False)
        with pytest.raises(OSError, match="killed"):
            main(train_args(dataset_path, run, epochs=8, extra=window))
        monkeypatch.undo()
        # a torn write deletes its file: the ring file, the temp file or the aside
        queue = run / "state.queue"
        assert not {"slot_write": queue / "1.f8", "slot_create": queue / "3.f8",
                    "rewrite": run / ".state.bin.prev"}.get(step, run / "absent").exists()
        if step == "slot_write":
            # a process killed outright leaves the torn ring file
            (queue / "1.f8").write_bytes(b"\0" * 100)
        if step == "slot_create":
            # and skips write_atomically's cleanup
            (queue / ".3.f8.99999.tmp").write_bytes(b"\0" * 100)
        # the new state is whole from the end of the rewrite on, in the aside
        # until the second rename
        killed_epoch = {"state_write": 1, "moved_aside": 1, "slot_create": 3}.get(step, 5)
        saved = step in ("renamed_away", "renamed_in", "renamed_aside")
        assert load_state(run / "state.bin")[0].next_epoch == killed_epoch + saved
        assert (run / "state.bin").exists() == (step not in ("moved_aside", "renamed_away"))
        assert main(["eval", "--run", str(run)]) == 0
        assert main(resume_args(dataset_path, run)) == 0
        assert file_tree(run) == file_tree(full)

    @pytest.mark.parametrize("hostile", ["symlink", "hard_link", "fifo", "directory"])
    def test_save_rewrites_only_its_own_aside(self, dataset_path, tmp_path, capsys, hostile):
        # a save rewrites .state.bin.prev in place only if it is a regular
        # file of one link, not followed through a symlink; any other file
        # there is unlinked, the file outside the run is left as it was, and
        # no save waits on a FIFO
        import signal

        full, run, outside = tmp_path / "full", tmp_path / "run", tmp_path / "outside.bin"
        assert main(train_args(dataset_path, full, epochs=4)) == 0
        self.rewound_run(dataset_path, run)
        outside.write_bytes(b"not the run's")
        aside = run / ".state.bin.prev"
        aside.unlink()
        if hostile == "symlink":
            aside.symlink_to(outside)
        elif hostile == "hard_link":
            os.link(outside, aside)
        elif hostile == "fifo":
            os.mkfifo(aside)
        else:
            aside.mkdir()
            (aside / "kept").write_bytes(b"not the run's")

        def waited(signum, frame):  # no OSError, which the save would take for a failed open
            pytest.fail("a save waited on .state.bin.prev")

        previous = signal.signal(signal.SIGALRM, waited)
        signal.alarm(10)
        try:
            code = main(resume_args(dataset_path, run))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert outside.read_bytes() == b"not the run's"
        if hostile == "directory":
            assert code == 2
            assert f"{aside} is a directory" in capsys.readouterr().err
            assert file_tree(aside) == {"kept": b"not the run's"}
            return
        assert code == 0
        assert file_tree(run) == file_tree(full)

    def test_process_killed_at_any_moment_resumes_as_the_unbroken_run(self, dataset_path, tmp_path):
        # SIGKILL reaches steps that no monkeypatch names; a run killed
        # before its first save has nothing to resume. Starting Python is
        # about half of the run's lifetime, so most kills land in training
        import time

        full = tmp_path / "full"
        start = time.monotonic()
        assert run_cli(*train_args(dataset_path, full, epochs=150)).returncode == 0
        lifetime = time.monotonic() - start
        resumed = set()
        for k in range(6):
            run = tmp_path / f"killed{k}"
            argv, environ = cli_command(*train_args(dataset_path, run, epochs=150))
            child = subprocess.Popen(argv, env=environ, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            time.sleep(lifetime * (0.4 + 0.1 * k))
            child.kill()
            child.wait(timeout=60)
            saved = any((run / name).exists() for name in ("state.bin", ".state.bin.prev"))
            code = main(resume_args(dataset_path, run))
            assert code == (0 if saved else 2), k
            if saved:
                resumed.add(k)
                for name in ("metrics.csv", "state.bin"):
                    assert (run / name).read_bytes() == (full / name).read_bytes(), (k, name)
        assert resumed, "no kill came after the first save"

    @pytest.mark.parametrize(
        "text",
        [b"epoch,base_acc\n0,0.5\none,0.5\n", b"", b"epoch,base_acc\n\xff\n",
         b"epoch,base_acc\n0,0.5\n2,0.5\n3,0.5\n", b"epoch,base_acc\n0,0.5\n0,0.5\n1,0.5\n"],
        ids=["epoch_not_an_integer", "empty", "not_text", "missing_row", "duplicated_row"],
    )
    def test_bad_metrics_table_is_data_error(self, dataset_path, tmp_path, capsys, text):
        # the state is at epoch 2, so the table must begin with one row each of
        # epochs 0 and 1; a rejected resume changes no file, temp files included
        run = tmp_path / "run"
        self.rewound_run(dataset_path, run)
        (run / "metrics.csv").write_bytes(text)
        (run / ".metrics.csv.12345.tmp").write_bytes(b"\0" * 100)
        before = file_tree(run)
        capsys.readouterr()
        assert main(resume_args(dataset_path, run)) == 2
        assert f"error: {run / 'metrics.csv'}: " in capsys.readouterr().err
        assert file_tree(run) == before

    def test_killed_truncation_leaves_metrics_intact(self, dataset_path, tmp_path, monkeypatch):
        # the kept rows go to a temp file that replaces metrics.csv; a kill
        # before the rename leaves the old table, so the run still resumes
        run = tmp_path / "run"
        self.rewound_run(dataset_path, run)
        before = (run / "metrics.csv").read_bytes()

        def killed(src, dst):
            raise OSError("killed before the rename")

        monkeypatch.setattr("os.replace", killed)
        with pytest.raises(OSError, match="killed"):
            main(resume_args(dataset_path, run))
        assert (run / "metrics.csv").read_bytes() == before
        # and no file beside it; the rewind's save keeps the old state aside
        assert sorted(p.name for p in run.iterdir()) == [
            ".state.bin.prev", "checkpoint.bin", "config.json", "metrics.csv", "state.bin", "state.queue"
        ]

    @pytest.mark.parametrize(
        "flags",
        [
            ["--epochs", "5"],
            ["--tau", "0.02"],
            ["--scheme", "per_class"],
            ["--m-min", "3", "--m-max", "3"],
            ["--random-neighbors"],
            ["--lr", "0.5"],
        ],
        ids=["epochs", "tau", "scheme", "window", "random_neighbors", "lr"],
    )
    def test_conflicting_flag_is_config_error(self, dataset_path, tmp_path, capsys, flags):
        run = tmp_path / "run"
        self.rewound_run(dataset_path, run)
        before = {name: (run / name).read_bytes() for name in ("state.bin", "metrics.csv")}
        capsys.readouterr()
        assert main(["train", "--data", str(dataset_path), "--out", str(run), "--resume", *flags]) == 2
        assert flags[0] in capsys.readouterr().err
        assert {name: (run / name).read_bytes() for name in before} == before

    @pytest.mark.parametrize("flags", [["--m-min", "2"], ["--m-max", "9"]], ids=["m_min", "m_max"])
    @pytest.mark.parametrize("distill", ["mt", "none"])
    def test_window_bounds_are_checked_against_the_stored_distill(self, dataset_path, tmp_path, capsys,
                                                                  distill, flags):
        # the values equal the stored ones, yet bound no window of the stored run
        run = tmp_path / "run"
        self.rewound_run(dataset_path, run, extra=["--scheme", "joint" if distill == "mt" else "none",
                                                   "--distill", distill])
        before = {name: (run / name).read_bytes() for name in ("state.bin", "metrics.csv")}
        capsys.readouterr()
        assert main([*resume_args(dataset_path, run), *flags]) == 2
        assert f"{flags[0]} bound the window of distill=almt, not distill={distill}" in capsys.readouterr().err
        assert {name: (run / name).read_bytes() for name in before} == before

    @pytest.mark.parametrize("kind", ["fifo", "directory"])
    @pytest.mark.parametrize("name", ["curves.svg", "checkpoint.bin"])
    def test_resume_over_a_run_file_of_another_kind(self, dataset_path, tmp_path, capsys, monkeypatch, name, kind):
        # a resume writes curves.svg and checkpoint.bin by the atomic rule, so
        # a FIFO there is replaced, never opened; a directory there is found
        # before any work, and the resume trains nothing and changes no file
        import signal

        full, run = tmp_path / "full", tmp_path / "run"
        assert main(train_args(dataset_path, full, epochs=4, extra=["--plot"])) == 0
        self.rewound_run(dataset_path, run, extra=["--plot"])
        (run / name).unlink()
        if kind == "fifo":
            os.mkfifo(run / name)
        else:
            (run / name).mkdir()
            (run / name / "kept").write_bytes(b"not the run's")
            monkeypatch.setattr(ogen.cli, "train", lambda *args, **kwargs: pytest.fail("the resume trained"))
        before = file_tree(run)

        def waited(signum, frame):
            pytest.fail(f"the resume waited on {name}")

        capsys.readouterr()
        previous = signal.signal(signal.SIGALRM, waited)
        signal.alarm(10)
        try:
            code = main([*resume_args(dataset_path, run), "--plot"])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        if kind == "directory":
            assert code == 2
            err = capsys.readouterr().err
            assert f"{run / name} is a directory" in err and "Traceback" not in err
            assert file_tree(run) == before
            return
        assert code == 0
        assert stat.S_ISREG(os.lstat(run / name).st_mode)
        assert file_tree(run) == file_tree(full)

    def test_resume_deletes_an_unlisted_subdirectory_of_the_queue(self, dataset_path, tmp_path):
        # a resume deletes every entry of state.queue/ that the resumed state
        # does not list, a directory with all it holds too
        run, full = tmp_path / "run", tmp_path / "full"
        assert main(train_args(dataset_path, full, epochs=4)) == 0
        self.rewound_run(dataset_path, run)
        (run / "state.queue" / "stray" / "deeper").mkdir(parents=True)
        (run / "state.queue" / "stray" / "deeper" / "9.f8").write_bytes(b"\0" * 8)
        assert main(resume_args(dataset_path, run)) == 0
        assert file_tree(run) == file_tree(full)
        assert not (run / "state.queue" / "stray").exists()

    def test_other_dataset_is_config_error(self, dataset_path, tmp_path, capsys):
        run = tmp_path / "run"
        self.rewound_run(dataset_path, run)
        other = tmp_path / "other.oef"
        other.write_bytes(dataset_path.read_bytes())
        capsys.readouterr()
        assert main(["train", "--data", str(other), "--out", str(run), "--resume"]) == 2
        assert "--data" in capsys.readouterr().err

    def test_flags_equal_to_the_stored_run_are_accepted(self, dataset_path, tmp_path, capsys):
        run, full = tmp_path / "run", tmp_path / "full"
        assert main(train_args(dataset_path, full, epochs=4)) == 0
        self.rewound_run(dataset_path, run)
        same_file = tmp_path / "sub" / ".." / dataset_path.name
        (tmp_path / "sub").mkdir()
        extra = ["--tau", "0.01", "--distill", "almt", "--m-min", "2", "--m-max", "9", "--resume"]
        args = train_args(same_file, run, epochs=4, extra=extra)
        capsys.readouterr()
        assert main(args) == 0
        assert "resuming from epoch 2" in capsys.readouterr().out
        assert (run / "metrics.csv").read_bytes() == (full / "metrics.csv").read_bytes()

    def test_resume_of_complete_run_is_noop(self, dataset_path, tmp_path, capsys, monkeypatch):
        run = tmp_path / "run"
        assert main(train_args(dataset_path, run, epochs=2, extra=["--plot"])) == 0
        before = file_tree(run)
        monkeypatch.setattr(ogen.cli, "train", lambda *args, **kwargs: pytest.fail("a complete run trained"))
        assert main(["train", "--data", str(dataset_path), "--out", str(run), "--resume", "--plot"]) == 0
        assert "already complete" in capsys.readouterr().out
        assert file_tree(run) == before

    @pytest.mark.parametrize("stop, extra", [
        ("ogen.cli.save_checkpoint", ["--plot"]),
        ("ogen.cli.save_checkpoint", ["--distill", "mt"]),
        ("ogen.rundir._render_curves_svg", ["--plot", "--scheme", "none", "--distill", "none"]),
    ], ids=["checkpoint", "checkpoint_mt", "plot"])
    def test_run_stopped_before_its_last_writes_resumes_to_the_unbroken_run(
        self, dataset_path, tmp_path, monkeypatch, capsys, stop, extra
    ):
        # a process stopped after its last save but before checkpoint.bin or
        # curves.svg: the state is complete, and its resume makes those writes
        run, full = tmp_path / "run", tmp_path / "full"
        assert main(train_args(dataset_path, full, extra=extra)) == 0

        def stopped(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(stop, stopped)
        assert main(train_args(dataset_path, run, extra=extra)) == 1
        monkeypatch.undo()
        missing = "curves.svg" if stop.endswith("svg") else "checkpoint.bin"
        assert not (run / missing).exists() and (full / missing).exists()
        # the resume goes straight to the last writes, with no training set-up
        monkeypatch.setattr(ogen.cli, "train", lambda *args, **kwargs: pytest.fail("a complete run trained"))
        capsys.readouterr()
        assert main(resume_args(dataset_path, run) + [a for a in extra if a == "--plot"]) == 0
        assert "already complete" in capsys.readouterr().out
        assert (run / missing).read_bytes() == (full / missing).read_bytes()
        assert file_tree(run) == file_tree(full)


# holds the flock of the directory argv[1] until its stdin closes
HOLD_LOCK = """import fcntl, os, sys
fd = os.open(sys.argv[1], os.O_RDONLY)
fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
print("locked", flush=True)
sys.stdin.read()
"""


@pytest.mark.parametrize("resume", [False, True], ids=["train", "resume"])
def test_second_writer_of_a_run_is_data_error_and_changes_no_file(dataset_path, tmp_path, capsys, resume):
    run = tmp_path / "run"
    TestResume.rewound_run(dataset_path, run)  # so that --resume has epochs left
    before = file_tree(run)
    args = resume_args(dataset_path, run) if resume else train_args(dataset_path, run)
    holder = subprocess.Popen([sys.executable, "-c", HOLD_LOCK, str(run)],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        # LOCK_NB fails in the holder if a command of this process kept the lock
        assert holder.stdout.readline() == "locked\n"
        capsys.readouterr()
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: run directory {run} is in use by another ogen train\n"
        assert file_tree(run) == before
    finally:
        holder.stdin.close()
        holder.stdout.close()
        holder.wait(timeout=30)
    assert main(args) == 0


class TestEval:
    def test_prints_accuracies(self, dataset_path, tmp_path, capsys):
        run = tmp_path / "run"
        main(train_args(dataset_path, run, epochs=2))
        capsys.readouterr()
        assert main(["eval", "--run", str(run)]) == 0
        out = capsys.readouterr().out
        assert "base accuracy" in out and "harmonic mean" in out

    def test_csv_row(self, dataset_path, tmp_path, capsys):
        run = tmp_path / "run"
        main(train_args(dataset_path, run, epochs=2))
        capsys.readouterr()
        assert main(["eval", "--run", str(run), "--csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "base_acc,new_acc,harmonic_mean"
        base, new, h = (float(x) for x in lines[1].split(","))
        assert 0.0 <= base <= 1.0 and 0.0 <= new <= 1.0
        assert h == pytest.approx(2 * base * new / (base + new) if base + new else 0.0)

    def test_missing_run_is_data_error(self, tmp_path):
        assert main(["eval", "--run", str(tmp_path / "ghost")]) == 2

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda meta: meta.pop("rng"),
            lambda meta: meta["config"].update(bogus=1),
            lambda meta: meta.update(rng={"garbage": 1}),
            lambda meta: meta.update(config=[1, 2]),
            lambda meta: meta["rng"].update(has_uint32=2**70),
            lambda meta: meta["rng"].update(uinteger=2**40),
            lambda meta: meta.update(gen_meta=None),
            lambda meta: meta["config"].update(epochs=6.0),
            lambda meta: meta["config"].update(k=2.5),
            lambda meta: meta["config"].update(heads=4.0),
            lambda meta: meta["config"].update(random_neighbors="no"),
        ],
        ids=["missing_rng", "unknown_config_key", "garbage_rng", "config_not_a_dict",
             "rng_flag_overflow", "rng_word_overflow", "generator_missing",
             "epochs_a_float", "k_a_float", "heads_a_float", "random_neighbors_a_string"],
    )
    def test_malformed_state_manifest_is_data_error(self, dataset_path, tmp_path, capsys, corrupt):
        run = tmp_path / "run"
        assert main(train_args(dataset_path, run, epochs=1)) == 0
        tensors, meta = read_tensor_file(run / "state.bin")
        corrupt(meta)
        write_tensor_file(run / "state.bin", tensors, meta)
        capsys.readouterr()
        assert main(["eval", "--run", str(run)]) == 2
        # a DataError of the state's own checks reads once, without the wrapper
        expected = "generator tensors do not match scheme" if meta["gen_meta"] is None else "malformed run state"
        assert expected in capsys.readouterr().err


    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda entry: "embeddings",
            lambda entry: {k: v for k, v in entry.items() if k != "name"},
            lambda entry: {**entry, "name": ["embeddings"]},
            lambda entry: {k: v for k, v in entry.items() if k != "shape"},
            lambda entry: {**entry, "shape": 16},
            lambda entry: {**entry, "shape": [-1, 4]},
            lambda entry: {**entry, "shape": [1.5, 4]},
            lambda entry: {**entry, "dtype": ["f8"]},
        ],
        ids=["not_a_dict", "missing_name", "name_not_a_string", "missing_shape",
             "shape_not_a_list", "negative_size", "non_integer_size", "dtype_not_a_string"],
    )
    def test_malformed_tensor_entry_is_data_error(self, dataset_path, tmp_path, capsys, corrupt):
        run = tmp_path / "run"
        assert main(train_args(dataset_path, run, epochs=1)) == 0
        raw = (run / "state.bin").read_bytes()
        (mlen,) = struct.unpack("<I", raw[:4])
        manifest = json.loads(raw[4 : 4 + mlen])
        manifest["tensors"][0] = corrupt(manifest["tensors"][0])
        mbytes = json.dumps(manifest).encode()
        (run / "state.bin").write_bytes(struct.pack("<I", len(mbytes)) + mbytes + raw[4 + mlen :])
        capsys.readouterr()
        assert main(["eval", "--run", str(run)]) == 2
        assert "malformed tensor entry" in capsys.readouterr().err

    def test_tensor_listed_twice_is_data_error(self, dataset_path, tmp_path, capsys):
        # a second entry of one name must not load as if it were the only one
        run = tmp_path / "run"
        assert main(train_args(dataset_path, run, epochs=1)) == 0
        tensors, _ = read_tensor_file(run / "state.bin")
        raw = rewrite_manifest((run / "state.bin").read_bytes(), lambda m: m["tensors"].append(m["tensors"][0]))
        (run / "state.bin").write_bytes(raw + tensors["embeddings"].tobytes())
        capsys.readouterr()
        assert main(["eval", "--run", str(run)]) == 2
        assert "tensor 'embeddings' is listed twice" in capsys.readouterr().err


class TestHostileRunFiles:
    """Run files that `eval --run` and `train --resume` both read."""

    @staticmethod
    def command(name, dataset_path, run):
        if name == "train":  # a fresh run over the run's files, of the dataset at run/data.oef
            return train_args(run / "data.oef", run)
        return ["eval", "--run", str(run)] if name == "eval" else resume_args(dataset_path, run)

    @pytest.mark.parametrize("command", ["eval", "resume"])
    @pytest.mark.parametrize("distill", ["almt", "mt"])
    def test_version_1_state_is_data_error(self, dataset_path, tmp_path, capsys, command, distill):
        run = tmp_path / "run"
        TestResume.rewound_run(dataset_path, run, extra=["--distill", distill])
        rewrite_as_version_1(run / "state.bin")
        capsys.readouterr()
        assert main(self.command(command, dataset_path, run)) == 2
        assert "version 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "resume"])
    def test_version_2_state_is_data_error(self, dataset_path, tmp_path, capsys, command):
        run = tmp_path / "run"
        TestResume.rewound_run(dataset_path, run)
        tensors, meta = read_tensor_file(run / "state.bin")
        meta["version"] = 2
        write_tensor_file(run / "state.bin", tensors, meta)
        capsys.readouterr()
        assert main(self.command(command, dataset_path, run)) == 2
        assert "version 2 is not version 6" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "resume"])
    def test_version_3_state_is_data_error(self, dataset_path, tmp_path, capsys, command):
        # version 3 kept its checkpoints in a slot file, state.queue.bin
        run = tmp_path / "run"
        TestResume.rewound_run(dataset_path, run)
        tensors, meta = read_tensor_file(run / "state.bin")
        meta["version"] = 3
        write_tensor_file(run / "state.bin", tensors, meta)
        capsys.readouterr()
        assert main(self.command(command, dataset_path, run)) == 2
        assert "version 3 is not version 6, the only one this ogen reads; start a new run" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "resume"])
    def test_version_4_state_is_data_error(self, dataset_path, tmp_path, capsys, command):
        # version 4 stored an almt run's params twice: in state.bin and as its newest checkpoint
        run = tmp_path / "run"
        TestResume.rewound_run(dataset_path, run)
        tensors, meta = read_tensor_file(run / "state.bin")
        params = np.fromfile(run / "state.queue" / "1.f8", dtype="<f8")
        tensors = {"embeddings": tensors["embeddings"], "emb_velocity": tensors["emb_velocity"],
                   "params": params, "velocity": tensors["velocity"]}
        meta["version"] = 4
        write_tensor_file(run / "state.bin", tensors, meta)
        before = file_tree(run)
        capsys.readouterr()
        assert main(self.command(command, dataset_path, run)) == 2
        assert "version 4 is not version 6, the only one this ogen reads; start a new run" in capsys.readouterr().err
        assert file_tree(run) == before

    @pytest.mark.parametrize("command", ["eval", "resume"])
    def test_version_5_state_is_data_error(self, dataset_path, tmp_path, capsys, command):
        # version 5 kept epoch e's checkpoint in state.queue/<e>.f8, and only
        # the listed ones, where version 6 keeps it in ring file e mod (m_max + 2)
        run = tmp_path / "run"
        assert main(train_args(dataset_path, run, epochs=5, extra=["--m-min", "2", "--m-max", "2"])) == 0
        tensors, meta = read_tensor_file(run / "state.bin")
        meta["version"] = 5
        write_tensor_file(run / "state.bin", tensors, meta)
        (run / "state.queue" / "1.f8").unlink()
        (run / "state.queue" / "0.f8").rename(run / "state.queue" / "4.f8")
        before = file_tree(run)
        capsys.readouterr()
        assert main(self.command(command, dataset_path, run)) == 2
        assert "version 5 is not version 6, the only one this ogen reads; start a new run" in capsys.readouterr().err
        assert file_tree(run) == before

    @pytest.mark.parametrize("command", ["eval", "resume"])
    @pytest.mark.parametrize("distill", ["almt", "none"])
    def test_params_tensor_where_the_queue_holds_them_or_none_holds_them_is_data_error(
            self, dataset_path, tmp_path, capsys, command, distill):
        # past epoch 0 an almt state's params are its newest checkpoint, so
        # state.bin holds none; a state of any other run with a generator holds them
        run = tmp_path / "run"
        TestResume.rewound_run(dataset_path, run, extra=["--distill", distill])
        tensors, meta = read_tensor_file(run / "state.bin")
        if distill == "almt":
            tensors = {"params": np.fromfile(run / "state.queue" / "1.f8", dtype="<f8"), **tensors}
        else:
            del tensors["params"]
        write_tensor_file(run / "state.bin", tensors, meta)
        before = file_tree(run)
        capsys.readouterr()
        assert main(self.command(command, dataset_path, run)) == 2
        has = "has" if distill == "almt" else "lacks"
        assert f"a state of distill={distill} before epoch 2 {has} a params tensor" in capsys.readouterr().err
        assert file_tree(run) == before

    @pytest.mark.parametrize("command", ["eval", "resume"])
    @pytest.mark.parametrize(
        "damage",
        ["missing", "another_run", "other_window", "truncated", "wrong_epoch_tag", "wrong_crc_tag", "row_changed",
         "oversized", "oversized_state"],
    )
    def test_bad_queue_file_is_data_error(self, dataset_path, tmp_path, capsys, command, damage):
        # the rewound almt state lists the checkpoints of epochs 0 and 1;
        # the error names the first listed file that is not as listed, and
        # is found without reading more of a file than a checkpoint's bytes;
        # a state.bin longer than its tensors, before any tensor is read
        run, other = tmp_path / "run", tmp_path / "other"
        TestResume.rewound_run(dataset_path, run)
        queue = run / "state.queue"
        bad = queue / ("1.f8" if damage in ("missing", "truncated", "wrong_epoch_tag", "wrong_crc_tag") else "0.f8")
        if damage == "oversized_state":
            bad = run / "state.bin"
        if damage == "missing":
            bad.unlink()
        elif damage.startswith("oversized"):
            os.truncate(bad, 64 * 2**20)  # sparse: the extra zeros take no disk
        elif damage in ("another_run", "other_window"):
            # 6 epochs with a constant window of 2 leave epochs 4, 5, 2, 3 in its ring of 4 files,
            # so its 0.f8 holds epoch 4
            extra = ["--lr", "0.05"] if damage == "another_run" else ["--m-min", "2", "--m-max", "2"]
            epochs = 4 if damage == "another_run" else 6
            assert main(train_args(dataset_path, other, epochs=epochs, extra=extra)) == 0
            shutil.rmtree(queue)
            shutil.copytree(other / "state.queue", queue)
        elif damage == "wrong_epoch_tag":  # another epoch's checkpoint under this epoch's name
            bad.write_bytes((queue / "0.f8").read_bytes())
        elif damage == "wrong_crc_tag":  # a queue_crc32 that its file does not have
            tensors, meta = read_tensor_file(run / "state.bin")
            meta["queue_crc32"][1] ^= 1
            write_tensor_file(run / "state.bin", tensors, meta)
        else:
            raw = bytearray(bad.read_bytes())
            if damage == "truncated":
                del raw[-1]
            else:
                raw[0] ^= 1
            bad.write_bytes(raw)
        capsys.readouterr()
        tracemalloc.start()
        try:
            assert main(self.command(command, dataset_path, run)) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        err = capsys.readouterr().err
        assert err.startswith(f"error: {run / 'state.bin'}: ") and str(bad) in err

    @pytest.mark.parametrize("command", ["eval", "resume"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("tensor", ["embeddings", "emb_velocity", "params", "velocity", "mt"])
    def test_non_finite_state_is_data_error(self, dataset_path, tmp_path, capsys, command, value, tensor):
        run = tmp_path / "run"
        TestResume.rewound_run(dataset_path, run, extra=["--distill", "mt"])
        tensors, meta = read_tensor_file(run / "state.bin")
        tensors[tensor].flat[0] = value
        write_tensor_file(run / "state.bin", tensors, meta)
        capsys.readouterr()
        assert main(self.command(command, dataset_path, run)) == 2
        # the path once, and no second DataError wrapped around the first
        assert capsys.readouterr().err == f"error: {run / 'state.bin'}: tensors {tensor} hold non-finite values\n"

    @pytest.mark.parametrize("command", ["eval", "resume"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_queue_checkpoint_is_data_error(self, dataset_path, tmp_path, capsys, command, value):
        from ogen.trainer import load_state, save_state

        # without its crc32, save_state writes the bad checkpoint to its
        # file under a crc32 that matches, as a run that produced it would
        run = tmp_path / "run"
        TestResume.rewound_run(dataset_path, run)
        state, cfg = load_state(run / "state.bin")
        epoch, params = state.queue.entries[-1]
        params.flat[0] = value
        del state.queue.crcs[epoch]
        save_state(run / "state.bin", state, cfg)
        capsys.readouterr()
        assert main(self.command(command, dataset_path, run)) == 2
        bad = run / "state.queue" / f"{epoch}.f8"
        assert f"{bad}: the checkpoint of epoch {epoch} holds non-finite values" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "resume"])
    @pytest.mark.parametrize(
        "text",
        [b"{not json", b"\xff\xfe", b"[1, 2]", b'"d.oef"', b'{"x": 1}', b'{"data": 5}', b'{"data": null}'],
        ids=["not_json", "not_text", "a_list", "a_string", "data_missing", "data_a_number", "data_null"],
    )
    def test_bad_config_json_is_data_error(self, dataset_path, tmp_path, capsys, command, text):
        run = tmp_path / "run"
        TestResume.rewound_run(dataset_path, run)
        (run / "config.json").write_bytes(text)
        capsys.readouterr()
        assert main(self.command(command, dataset_path, run)) == 2
        assert "config.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, name",
        [("eval", "config.json"), ("eval", "state.bin"), ("eval", "state.queue/1.f8"),
         ("resume", "config.json"), ("resume", "metrics.csv"), ("resume", "state.bin"),
         ("resume", "state.queue/1.f8"), ("train", "data.oef")],
    )
    def test_fifo_run_file_is_data_error_without_waiting(self, dataset_path, tmp_path, capsys, command, name):
        # a plain open of a FIFO waits for a writer that never comes; eval
        # reads no metrics.csv, and a fresh run reads its --data before it
        # deletes an earlier run's files
        import signal

        run = tmp_path / "run"
        TestResume.rewound_run(dataset_path, run)
        (run / name).unlink(missing_ok=True)
        os.mkfifo(run / name)
        before = file_tree(run)

        def waited(signum, frame):  # no OSError, which a reader could take for a failed open
            pytest.fail(f"a reader waited on {name}")

        capsys.readouterr()
        previous = signal.signal(signal.SIGALRM, waited)
        signal.alarm(10)
        try:
            code = main(self.command(command, dataset_path, run))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 2
        assert f"{run / name} is not a regular file" in capsys.readouterr().err
        assert file_tree(run) == before and stat.S_ISFIFO(os.lstat(run / name).st_mode)

    @pytest.mark.parametrize("command", ["eval", "resume"])
    def test_symlinked_queue_is_data_error_and_changes_no_file(self, dataset_path, tmp_path, capsys, command):
        # a save writes its ring files into state.queue, and a resume deletes
        # each entry that its state does not list: through a symlink, those
        # would be another directory's files
        run, target = tmp_path / "run", tmp_path / "target"
        TestResume.rewound_run(dataset_path, run)
        shutil.move(run / "state.queue", target)
        (target / "precious.txt").write_bytes(b"not the run's")
        (run / "state.queue").symlink_to(target)
        before, outside = file_tree(run), file_tree(target)
        capsys.readouterr()
        assert main(self.command(command, dataset_path, run)) == 2
        err = capsys.readouterr().err
        assert f"{run / 'state.queue'} is not a directory of the run's own" in err
        assert file_tree(target) == outside and sorted(outside) == ["0.f8", "1.f8", "2.f8", "3.f8", "precious.txt"]
        assert file_tree(run) == before and os.readlink(run / "state.queue") == str(target)


class TestHmean:
    @pytest.mark.parametrize("args", [["nan", "0.5"], ["inf", "0.5"], ["0.5", "nan"], ["0.5", "inf"]])
    def test_non_finite_input_is_data_error(self, capsys, args):
        assert main(["hmean", *args]) == 2
        assert "harmonic mean needs finite non-negative inputs" in capsys.readouterr().err

    def test_published_value(self, capsys):
        assert main(["hmean", "82.69", "63.22"]) == 0
        value = float(capsys.readouterr().out.strip())
        assert abs(value - 71.66) < 0.01

    def test_more_published_values(self, capsys):
        for a, b, expected in [(83.47, 69.54, 75.87), (80.47, 71.69, 75.83)]:
            assert main(["hmean", str(a), str(b)]) == 0
            value = float(capsys.readouterr().out.strip())
            assert abs(value - expected) < 0.01


class TestAblateCommand:
    def test_writes_four_reports(self, dataset_path, tmp_path, capsys):
        out = tmp_path / "reports"
        code = main([
            "ablate", "--data", str(dataset_path), "--out", str(out),
            "--seeds", "2", "--epochs", "2", "--batch-size", "16",
        ])
        assert code == 0
        names = {p.name for p in out.glob("*.csv")}
        assert names == {"component.csv", "schemes.csv", "k_sweep.csv", "distill.csv"}
        with open(out / "k_sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["variant"] for r in rows] == [
            "knn k=1", "knn k=2", "knn k=3", "knn k=4", "random k=3",
        ]
        assert all(int(r["seeds"]) == 2 for r in rows)

    @pytest.mark.parametrize("table", ["component", "distill"])
    def test_directory_at_a_table_is_data_error_before_any_work(self, dataset_path, tmp_path, capsys, monkeypatch,
                                                                table):
        out = tmp_path / "reports"
        (out / f"{table}.csv" / "kept").mkdir(parents=True)
        for name in ("load_embeddings", "ablate"):
            monkeypatch.setattr(ogen.cli, name, lambda *args: pytest.fail("ablate went on to work"))
        before = sorted(tmp_path.rglob("*"))
        assert main(["ablate", "--data", str(dataset_path), "--out", str(out), "--seeds", "1", "--epochs", "1"]) == 2
        err = capsys.readouterr().err
        assert f"error: {out / f'{table}.csv'} is a directory" in err and "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == before

    def test_fifo_at_a_table_is_replaced_without_waiting(self, dataset_path, tmp_path):
        import signal

        clean, out = tmp_path / "clean", tmp_path / "reports"
        args = ["ablate", "--data", str(dataset_path), "--seeds", "1", "--epochs", "2", "--batch-size", "16"]
        assert main([*args, "--out", str(clean)]) == 0
        out.mkdir()
        os.mkfifo(out / "schemes.csv")

        def waited(signum, frame):
            pytest.fail("ablate waited on schemes.csv")

        previous = signal.signal(signal.SIGALRM, waited)
        signal.alarm(30)
        try:
            code = main([*args, "--out", str(out)])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 0
        assert stat.S_ISREG(os.lstat(out / "schemes.csv").st_mode)
        assert file_tree(out) == file_tree(clean)

    def test_base_run_takes_train_defaults(self, dataset_path, tmp_path, monkeypatch):
        from dataclasses import replace

        from ogen.trainer import AblationReport, TrainConfig

        base_cfgs = []

        def capture(dataset, base_cfg, seeds):
            base_cfgs.append(base_cfg)
            return AblationReport()

        monkeypatch.setattr("ogen.cli.ablate", capture)
        args = ["ablate", "--data", str(dataset_path), "--out", str(tmp_path / "reports")]
        assert main(args) == 0
        assert main([*args, "--lr", "0.05", "--seed", "3"]) == 0
        # the base run is joint+almt, so the generator's flags act in it
        assert main([*args, "--k", "2", "--gen-lr", "0.05"]) == 0
        assert base_cfgs == [TrainConfig(), replace(TrainConfig(), learning_rate=0.05, seed=3),
                             replace(TrainConfig(), k=2, generator_lr=0.05)]
