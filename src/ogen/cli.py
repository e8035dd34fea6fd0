"""Command-line surface: data generation, training, evaluation, ablations.

Exit codes: 0 success, 1 usage error, 2 data/validation error,
3 numerical failure. All outputs are deterministic for fixed seeds (no
timestamps), so identical invocations produce byte-identical files.
"""

from __future__ import annotations

import csv
import fcntl
import json
import os
from contextlib import ExitStack
from dataclasses import asdict, fields
from pathlib import Path

import click

from . import __version__
from ._tensorio import aside_path, current, files_only, open_regular, temp_paths, write_atomically
from .embedding_store import SynthConfig, load_embeddings, make_synthetic, save_embeddings
from .errors import ConfigError, DataError, NumericalError
from .generator import save_checkpoint
from .trainer import (
    DISTILL_MODES,
    SCHEMES,
    EpochMetrics,
    TrainConfig,
    ablate,
    check_state,
    evaluate,
    harmonic_mean,
    load_state,
    prune_queue,
    remove_state,
    save_state,
    train,
)

METRIC_COLUMNS = tuple(f.name for f in fields(EpochMetrics))

ABLATION_COLUMNS = (
    "variant", "base_mean", "base_std", "new_mean", "new_std", "h_mean", "h_std", "seeds",
)


@click.group()
@click.version_option(version=__version__, prog_name="ogen")
def cli():
    """Feature-synthesis regularized finetuning on embedding datasets."""


@cli.command("gen-data")
@click.option("--classes", "num_classes", type=int, default=SynthConfig.num_classes, show_default=True,
              help="Number of classes.")
@click.option("--dim", type=int, default=SynthConfig.dim, show_default=True, help="Embedding dimension.")
@click.option("--per-class", type=int, default=SynthConfig.per_class, show_default=True,
              help="Image features per class.")
@click.option("--image-noise", type=float, default=SynthConfig.image_noise, show_default=True)
@click.option("--text-noise", type=float, default=SynthConfig.text_noise, show_default=True)
@click.option("--base-frac", "base_fraction", type=float, default=SynthConfig.base_fraction, show_default=True)
@click.option("--seed", type=int, default=SynthConfig.seed, show_default=True)
@click.option("--out", type=click.Path(), required=True, help="Output .oef path.")
def gen_data(out, **params):
    """Generate a synthetic embedding dataset and write it to disk."""
    out_path = Path(out)
    _makeable(out_path.parent, out_path)
    files_only([out_path])
    dataset = make_synthetic(SynthConfig(**params))
    out_path.parent.mkdir(parents=True, exist_ok=True)
    save_embeddings(dataset, out_path)
    click.echo(
        f"wrote {out_path}: {dataset.num_classes} classes, dim {dataset.dim}, "
        f"{min(dataset.counts)}-{max(dataset.counts)} features/class, "
        f"split base={len(dataset.split.base)} new={len(dataset.split.new)}"
    )


def _makeable(directory: Path, out: Path) -> None:
    """A DataError naming out if the nearest existing one of directory and its
    parents is no directory; a command checks this before any work, in place
    of click's own check of a path's kind, which exits 1."""
    if not (nearest := next(p for p in (directory, *directory.parents) if p.exists())).is_dir():
        raise DataError(f"cannot write {out}: {nearest} is not a directory")


def _format_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _truncate_metrics(path: Path, next_epoch: int) -> None:
    """Keep the header and the rows of the epochs before next_epoch."""
    try:
        with open_regular(source := current(path)) as fh:
            header, *rows = fh.read().decode().splitlines()
        kept = [header] + [line for line in rows if line and int(line.split(",", 1)[0]) < next_epoch]
    except ValueError as exc:  # no header, an epoch that is no integer, or bytes that are no text
        raise DataError(f"{source}: not a metrics table ({exc})") from exc
    write_atomically(path, ["\n".join(kept).encode() + b"\n"])


def _run_data(config_path: Path) -> str:
    """The dataset path that a run's config.json records."""
    try:
        with open_regular(config_path) as fh:
            config = json.loads(fh.read())
    except ValueError as exc:
        raise DataError(f"{config_path}: not JSON ({exc})") from exc
    if not (isinstance(config, dict) and isinstance(config.get("data"), str)):
        raise DataError(f"{config_path}: not an object with a string \"data\" path")
    return config["data"]


# training flags that act only in some runs, each group with the config field and values it acts under and what it
# does there; _train_config rejects a flag given for a run that ignores it
_ACTS_ONLY = (
    (("k", "generator_lr", "lambda_syn", "heads", "d_ff", "random_neighbors"),
     "scheme", ("per_class", "joint"), "configure the generator of scheme=per_class or joint"),
    (("lambda_distill", "ema_alpha"), "distill", ("mt", "almt"), "configure the teacher of distill=mt or almt"),
    (("m_min", "m_max"), "distill", ("almt",), "bound the window of distill=almt"),
)


def _train_config(ctx, stored: TrainConfig | None = None) -> TrainConfig:
    """The configuration of a command's run: on a resume the stored one,
    which each training flag given on the command line must equal; else
    the flags', a field the command has no flag for keeping its default."""
    names = [f.name for f in fields(TrainConfig) if f.name in ctx.params]
    given = [p for p in ctx.command.params if p.name in names
             and ctx.get_parameter_source(p.name) is click.core.ParameterSource.COMMANDLINE]
    if stored is None:
        cfg = TrainConfig(**{name: ctx.params[name] for name in names})
    else:
        cfg = stored
        conflicts = [f"{p.opts[0]} (run has {p.name}={getattr(cfg, p.name)!r})"
                     for p in given if ctx.params[p.name] != getattr(cfg, p.name)]
        if conflicts:
            raise ConfigError("--resume continues the stored run; conflicting flags: " + ", ".join(conflicts))
    for names, field, values, what in _ACTS_ONLY:
        ignored = [p.opts[0] for p in given if p.name in names]
        if ignored and getattr(cfg, field) not in values:
            raise ConfigError(f"{', '.join(ignored)} {what}, not {field}={getattr(cfg, field)}")
    return cfg


def _lock_run(run_dir: Path, held: ExitStack) -> None:
    """Hold an exclusive flock on the run directory itself, which leaves no
    lock file in the run, until held closes; another holder is a DataError."""
    fd = os.open(run_dir, os.O_RDONLY)
    held.callback(os.close, fd)  # closing the descriptor releases the lock
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        raise DataError(f"run directory {run_dir} is in use by another ogen train") from None


@cli.command("train")
@click.option("--data", type=click.Path(exists=False), required=True, help="Dataset (.oef).")
@click.option("--out", type=click.Path(), default="ogen-run", show_default=True)
@click.option("--epochs", type=int, default=TrainConfig.epochs, show_default=True)
@click.option("--batch-size", type=int, default=TrainConfig.batch_size, show_default=True)
@click.option("--k", type=int, default=TrainConfig.k, show_default=True, help="Neighbor classes per synthesis.")
@click.option("--scheme", type=click.Choice(SCHEMES), default=TrainConfig.scheme, show_default=True)
@click.option("--distill", type=click.Choice(DISTILL_MODES), default=TrainConfig.distill, show_default=True,
              help="Teacher: an EMA of all epochs (mt) or of the last m_t + 1, m_t from --m-min to --m-max (almt).")
@click.option("--tau", type=float, default=TrainConfig.tau, show_default=True)
@click.option("--lr", "learning_rate", type=float, default=TrainConfig.learning_rate, show_default=True,
              help="Embedding learning rate.")
@click.option("--gen-lr", "generator_lr", type=float, default=TrainConfig.generator_lr, show_default=True,
              help="Generator learning rate.")
@click.option("--momentum", type=float, default=TrainConfig.momentum, show_default=True)
@click.option("--lambda-syn", type=float, default=TrainConfig.lambda_syn, show_default=True)
@click.option("--lambda-distill", type=float, default=TrainConfig.lambda_distill, show_default=True)
@click.option("--pseudo-unknown-fraction", type=float, default=TrainConfig.pseudo_unknown_fraction, show_default=True)
@click.option("--seed", type=int, default=TrainConfig.seed, show_default=True)
@click.option("--heads", type=int, default=TrainConfig.heads, show_default=True)
@click.option("--d-ff", type=int, default=TrainConfig.d_ff, help="FFN width (default 2*dim).")
@click.option("--m-min", type=int, default=TrainConfig.m_min, show_default=True)
@click.option("--m-max", type=int, default=TrainConfig.m_max, show_default=True)
@click.option("--ema-alpha", type=float, default=TrainConfig.ema_alpha, show_default=True)
@click.option("--random-neighbors", is_flag=True, default=TrainConfig.random_neighbors,
              help="Sample neighbors at random instead of kNN.")
@click.option("--resume", is_flag=True, help="Continue the run stored in --out.")
@click.option("--plot", is_flag=True, help="Write an SVG of the learning curves.")
@click.pass_context
def cmd_train(ctx, data, out, resume, plot, **_):
    """Finetune on the base split of a dataset and log per-epoch metrics.
    One process at a time writes a run directory: the command holds its
    lock from before its first write to its end."""
    run_dir = Path(out)
    state_path = run_dir / "state.bin"
    metrics_path = run_dir / "metrics.csv"
    config_path = run_dir / "config.json"
    run_files = [state_path, config_path, metrics_path, run_dir / "checkpoint.bin", run_dir / "curves.svg"]

    _makeable(run_dir, run_dir)
    with ExitStack() as held:
        if resume:
            for path in (config_path, metrics_path):
                if not current(path).exists():
                    raise DataError(f"cannot resume: {path} does not exist")
            _lock_run(run_dir, held)
            state, stored = load_state(state_path)
            cfg = _train_config(ctx, stored)
            run_data = _run_data(config_path)
            if Path(data).resolve() != Path(run_data).resolve():
                raise ConfigError(f"--data {data} is not the run's dataset {run_data}")
        else:
            state, cfg = None, _train_config(ctx)

        dataset = load_embeddings(data)
        cfg.validate(dataset)

        if resume:
            check_state(state, dataset)  # before metrics.csv loses the rows past the state
            for tmp in files_only(temp_paths(*run_files)):  # not the asides: one may hold the only state
                tmp.unlink()
            _truncate_metrics(metrics_path, state.next_epoch)
            prune_queue(state_path, state)
            # a complete state trains no epoch but makes the last writes, which a stopped process may have missed
            click.echo(f"resuming from epoch {state.next_epoch}" if state.next_epoch < cfg.epochs
                       else f"run already complete at epoch {cfg.epochs}; writing its last files")
        else:
            run_dir.mkdir(parents=True, exist_ok=True)
            _lock_run(run_dir, held)
            # an earlier run's files, and the old files and temp files its killed writes left:
            # a run stopped before its first save must not eval or resume as that run
            files = files_only(run_files + [aside_path(path) for path in run_files] + temp_paths(*run_files))
            remove_state(state_path)
            for path in files:
                path.unlink(missing_ok=True)
            config = {
                "config": asdict(cfg),
                "data": str(data),
                "k_requested": cfg.k,
                "k_effective": cfg.effective_k(dataset),
            }
            if config["k_effective"] != cfg.k:
                config["warnings"] = [
                    f"k clamped from {cfg.k} to {config['k_effective']} (pseudo-known classes)"
                ]
            config_path.write_text(json.dumps(config, sort_keys=True, indent=2) + "\n")
            metrics_path.write_text(",".join(METRIC_COLUMNS) + "\n")

        with open(metrics_path, "a") as fh:

            def on_epoch(state, row):
                fh.write(",".join(_format_cell(getattr(row, col)) for col in METRIC_COLUMNS) + "\n")
                fh.flush()
                save_state(state_path, state, cfg)

            try:
                result = train(dataset, cfg, state=state, on_epoch=on_epoch)
            finally:  # the old state the saves kept aside, unless a killed save left it in place of state.bin
                if state_path.is_file() and (aside := aside_path(state_path)).is_file():
                    aside.unlink()

        if result.params is not None:
            save_checkpoint(run_dir / "checkpoint.bin", result.params, cfg.scheme, cfg.epochs - 1)
        if plot:
            (run_dir / "curves.svg").write_text(_render_curves_svg(metrics_path))
        final = result.metrics[-1] if result.metrics else None
        if final is not None:
            click.echo(
                f"done: epoch {final.epoch} base={final.base_acc:.4f} "
                f"new={final.new_acc:.4f} H={final.harmonic_mean:.4f}"
            )


@cli.command("eval")
@click.option("--run", "run_dir", type=click.Path(), required=True)
@click.option("--data", type=click.Path(), default=None, help="Override the dataset path.")
@click.option("--csv", "as_csv", is_flag=True, help="Emit a machine-readable row.")
def cmd_eval(run_dir, data, as_csv):
    """Evaluate the checkpoint of a finished (or partial) run."""
    run = Path(run_dir)
    if run.exists() and not run.is_dir():
        raise DataError(f"{run} is not a run directory")
    state, cfg = load_state(run / "state.bin")
    if data is None:
        config_path = run / "config.json"
        if not config_path.exists():
            raise DataError(f"{config_path} missing; pass --data explicitly")
        data = _run_data(config_path)
    dataset = load_embeddings(data)
    base_acc, new_acc, h = evaluate(state.params, state.embeddings, dataset)
    if as_csv:
        click.echo("base_acc,new_acc,harmonic_mean")
        click.echo(f"{base_acc!r},{new_acc!r},{h!r}")
    else:
        click.echo(f"epoch {state.next_epoch - 1}")
        click.echo(f"base accuracy     {base_acc:.4f}")
        click.echo(f"new accuracy      {new_acc:.4f}")
        click.echo(f"harmonic mean     {h:.4f}")


@cli.command("hmean")
@click.argument("base", type=float)
@click.argument("new", type=float)
def cmd_hmean(base, new):
    """Harmonic mean of two accuracies (utility)."""
    click.echo(f"{harmonic_mean(base, new):.4f}")


@cli.command("ablate")
@click.option("--data", type=click.Path(), required=True)
@click.option("--out", type=click.Path(), default="ogen-ablation", show_default=True)
@click.option("--seeds", type=int, default=3, show_default=True)
@click.pass_context
def cmd_ablate(ctx, data, out, seeds, **_):
    """Run the ablation grid and write one CSV per table."""
    out_dir = Path(out)
    _makeable(out_dir, out_dir)
    dataset = load_embeddings(data)
    base_cfg = _train_config(ctx)
    report = ablate(dataset, base_cfg, seeds=seeds)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, rows in report.tables().items():
        path = out_dir / f"{name}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(ABLATION_COLUMNS)
            for row in rows:
                writer.writerow([_format_cell(row[col]) for col in ABLATION_COLUMNS])
        click.echo(f"wrote {path}")


# train's own options, so that the grid's base run takes train's defaults
cmd_ablate.params += [
    p for p in cmd_train.params
    if p.name in ("epochs", "batch_size", "k", "tau", "learning_rate", "generator_lr", "seed")
]


def _render_curves_svg(metrics_path) -> str:
    """Minimal SVG line chart of base/new accuracy over epochs."""
    epochs, base, new = [], [], []
    with open(metrics_path) as fh:
        for record in csv.DictReader(fh):
            epochs.append(int(record["epoch"]))
            base.append(float(record["base_acc"]))
            new.append(float(record["new_acc"]))
    width, height, margin = 720, 440, 56
    x_span = max(max(epochs), 1) if epochs else 1
    plot_w, plot_h = width - 2 * margin, height - 2 * margin

    def xy(e, acc):
        x = margin + plot_w * (e / x_span)
        y = margin + plot_h * (1.0 - acc)
        return f"{x:.2f},{y:.2f}"

    def polyline(values, color):
        pts = " ".join(xy(e, v) for e, v in zip(epochs, values))
        return f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'

    ticks = []
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = margin + plot_h * (1.0 - frac)
        ticks.append(
            f'<line x1="{margin}" y1="{y:.2f}" x2="{width - margin}" y2="{y:.2f}" '
            f'stroke="#dddddd" stroke-width="0.5"/>'
            f'<text x="{margin - 8}" y="{y + 4:.2f}" text-anchor="end" font-size="11">{frac:.2f}</text>'
        )
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        '<rect width="100%" height="100%" fill="white"/>',
        *ticks,
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" y2="{height - margin}" stroke="black"/>',
        polyline(base, "#1f77b4"),
        polyline(new, "#ff7f0e"),
        f'<text x="{width - margin - 150}" y="{margin}" font-size="12" fill="#1f77b4">base accuracy</text>',
        f'<text x="{width - margin - 150}" y="{margin + 16}" font-size="12" fill="#ff7f0e">new accuracy</text>',
        f'<text x="{width / 2:.0f}" y="{height - 14}" text-anchor="middle" font-size="12">epoch</text>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def main(argv=None) -> int:
    """Dispatch with the documented exit-code mapping."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.Abort:
        click.echo("aborted", err=True)
        return 1
    except (DataError, ConfigError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except NumericalError as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        return 3
    return 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
