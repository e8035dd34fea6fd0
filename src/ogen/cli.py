"""Command-line surface: data generation, training, evaluation, ablations.

Exit codes: 0 success, 1 usage error, 2 data/validation error,
3 numerical failure. All outputs are deterministic for fixed seeds (no
timestamps), so identical invocations produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
from contextlib import ExitStack
from dataclasses import asdict, fields
from pathlib import Path

import click

from . import __version__, rundir
from ._tensorio import aside_path, check_kind, check_outputs, open_regular, write_atomically
from .embedding_store import SynthConfig, load_embeddings, make_synthetic, save_embeddings
from .errors import ConfigError, DataError, NumericalError
from .generator import save_checkpoint
from .trainer import (
    DISTILL_MODES,
    SCHEMES,
    AblationReport,
    EpochMetrics,
    TrainConfig,
    ablate,
    check_state,
    evaluate,
    harmonic_mean,
    load_state,
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
    check_outputs(out_path)
    check_kind(out_path.parent, "directory")
    dataset = make_synthetic(SynthConfig(**params))
    out_path.parent.mkdir(parents=True, exist_ok=True)
    save_embeddings(dataset, out_path)
    click.echo(
        f"wrote {out_path}: {dataset.num_classes} classes, dim {dataset.dim}, "
        f"{min(dataset.counts)}-{max(dataset.counts)} features/class, "
        f"split base={len(dataset.split.base)} new={len(dataset.split.new)}"
    )


def _format_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


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
    if not check_kind(run_dir, "directory") and resume:
        raise DataError(f"cannot resume: no run directory {run_dir}")
    with ExitStack() as held:
        if resume:
            rundir.lock(run_dir, held)
            state, stored = load_state(state_path)
            cfg = _train_config(ctx, stored)
            run_data = _run_data(run_dir / "config.json")
            if Path(data).resolve() != Path(run_data).resolve():
                raise ConfigError(f"--data {data} is not the run's dataset {run_data}")
        else:
            state, cfg = None, _train_config(ctx)

        dataset = load_embeddings(data)
        cfg.validate(dataset)

        if resume:
            check_state(state, dataset)  # before metrics.csv loses the rows past the state
            rundir.resume(run_dir, state)
            # a complete state goes straight to the last writes, which a stopped process may have missed
            click.echo(f"resuming from epoch {state.next_epoch}" if state.next_epoch < cfg.epochs
                       else f"run already complete at epoch {cfg.epochs}; writing its last files")
        else:
            run_dir.mkdir(parents=True, exist_ok=True)
            rundir.lock(run_dir, held)
            rundir.clear(run_dir)
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
            write_atomically(run_dir / "config.json", [(json.dumps(config, sort_keys=True, indent=2) + "\n").encode()])
            metrics_path.write_text(",".join(METRIC_COLUMNS) + "\n")

        result = None
        try:
            if state is None or state.next_epoch < cfg.epochs:
                with open(metrics_path, "a") as fh:

                    def on_epoch(state, row):
                        fh.write(",".join(_format_cell(getattr(row, col)) for col in METRIC_COLUMNS) + "\n")
                        fh.flush()
                        save_state(state_path, state, cfg)

                    result = train(dataset, cfg, state=state, on_epoch=on_epoch)
                state = result.state
        finally:  # the old state the saves kept aside, unless a killed save left it in place of state.bin
            if state_path.is_file() and (aside := aside_path(state_path)).is_file():
                aside.unlink()

        params = state.params
        rundir.finish(run_dir, plot, None if params is None else
                      lambda path: save_checkpoint(path, params, cfg.scheme, cfg.epochs - 1))
        if result is not None:
            final = result.metrics[-1]
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
    check_kind(run, "directory")
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
    check_kind(out_dir, "directory")
    check_outputs(*(out_dir / f"{table.name}.csv" for table in fields(AblationReport)))
    dataset = load_embeddings(data)
    base_cfg = _train_config(ctx)
    report = ablate(dataset, base_cfg, seeds=seeds)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, rows in report.tables().items():
        path, text = out_dir / f"{name}.csv", io.StringIO()
        writer = csv.writer(text)
        writer.writerow(ABLATION_COLUMNS)
        for row in rows:
            writer.writerow([_format_cell(row[col]) for col in ABLATION_COLUMNS])
        write_atomically(path, [text.getvalue().encode()])
        click.echo(f"wrote {path}")


# train's own options, so that the grid's base run takes train's defaults
cmd_ablate.params += [
    p for p in cmd_train.params
    if p.name in ("epochs", "batch_size", "k", "tau", "learning_rate", "generator_lr", "seed")
]


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
