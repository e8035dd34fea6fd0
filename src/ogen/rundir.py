"""The run directory of `ogen train`: a table of its files, each with its
write rule; metrics.csv's columns, cell format and one reader; and the four
operations on it: lock, clear (a fresh run), resume(state) and finish."""

from __future__ import annotations

import fcntl
import os
import shutil
from dataclasses import fields
from pathlib import Path

from ._tensorio import aside_path, check_kind, current, open_regular, temp_paths, write_atomically
from .errors import DataError
from .trainer import EpochMetrics, _ring_file

# each file of a run and its write rule. aside: write_atomically, keeping the
# old file aside for the next save to rewrite (ogen train deletes the last
# one); atomic: write_atomically, which replaces a FIFO or symlink unopened;
# append: a row per epoch, flushed before its save, cut back atomically by a
# resume; ring: a directory of ring files rewritten in place (trainer._save_queue)
FILES = {"state.bin": "aside", "state.queue": "ring", "config.json": "atomic", "metrics.csv": "append",
         "checkpoint.bin": "atomic", "curves.svg": "atomic"}
METRIC_COLUMNS = tuple(f.name for f in fields(EpochMetrics))  # metrics.csv's header, a column per field
_PARSE = {"int": int, "float": float, "int | None": lambda cell: int(cell) if cell else None}  # by field type


def format_cell(value) -> str:  # a cell of metrics.csv or of an ablation table: "" for None, a float's repr
    return "" if value is None else repr(value) if isinstance(value, float) else str(value)


def metrics_line(row: EpochMetrics | None = None) -> str:  # the header line of metrics.csv, or the line of row
    return ",".join(c if row is None else format_cell(getattr(row, c)) for c in METRIC_COLUMNS) + "\n"


def read_metrics(path, before: int | None = None) -> list:
    """The rows of the metrics table at current(path), as EpochMetrics. Given
    before, those of epochs below it, which must be one each of 0 ... before - 1,
    in order; a later row may be torn by a killed append, so only its epoch is
    read. A DataError names the file unless each row read is one value of each
    column's type, under the exact header."""
    try:
        with open_regular(source := current(path)) as fh:
            header, *lines = fh.read().decode().splitlines()
        rows = [c for c in (line.split(",") for line in lines if line) if before is None or int(c[0]) < before]
        if header != ",".join(METRIC_COLUMNS) or any(len(c) != len(METRIC_COLUMNS) for c in rows):
            raise ValueError(f"not rows of the {len(METRIC_COLUMNS)} columns {','.join(METRIC_COLUMNS)}")
        rows = [EpochMetrics(*(_PARSE[f.type](cell) for f, cell in zip(fields(EpochMetrics), c))) for c in rows]
        if before is not None and [row.epoch for row in rows] != list(range(before)):
            raise ValueError(f"its rows before epoch {before} are not one each of epochs 0 to {before - 1}, in order")
    except ValueError as exc:  # the checks above, no header, a cell not of its type, or bytes that are no text
        raise DataError(f"{source}: not a metrics table ({exc})") from exc
    return rows


def _run_files(run_dir: Path) -> tuple:
    """(each file of the run and its aside, the temp files of its killed
    writes), once none of them is found to be a directory (check_kind)."""
    files = [run_dir / name for name, rule in FILES.items() if rule != "ring"]
    asides, temps = [aside_path(path) for path in files], temp_paths(*files)
    for path in files + asides + temps:
        check_kind(path)
    return files + asides, temps


def lock(run_dir: Path, held) -> None:
    """Hold an exclusive flock on the run directory itself, which leaves no
    lock file in the run, until held (an ExitStack) closes, and check each
    file of the run before any work. Another holder is a DataError."""
    fd = os.open(run_dir, os.O_RDONLY)
    held.callback(os.close, fd)  # closing the descriptor releases the lock
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        raise DataError(f"run directory {run_dir} is in use by another ogen train") from None
    _run_files(run_dir)


def clear(run_dir: Path) -> None:
    """Delete an earlier run's files, with the asides and temp files of its
    killed writes, so that a run stopped before its first save cannot be
    evaluated or resumed as that run. A directory at one of those is a
    DataError and deletes nothing; state.queue goes with all it holds."""
    files, temps = _run_files(run_dir)
    for path in files + temps:
        path.unlink(missing_ok=True)
    _delete(run_dir / "state.queue")


def resume(run_dir: Path, state) -> None:
    """Make run_dir the directory of state. First, changing no file, check
    each file of the run and read_metrics(metrics.csv, state.next_epoch).
    Then delete the temp files of killed writes, but no aside, which may
    hold the only state; cut metrics.csv back to those rows atomically, so
    that a resume killed there can run again; and delete each entry of
    state.queue that state does not list, a directory with all it holds."""
    _, temps = _run_files(run_dir)
    rows = read_metrics(path := run_dir / "metrics.csv", state.next_epoch)
    for tmp in temps:
        tmp.unlink()
    write_atomically(path, ["".join(map(metrics_line, [None, *rows])).encode()])
    if state.queue is not None and check_kind(queue := run_dir / "state.queue", "own"):
        listed = {_ring_file(queue, state.queue, epoch) for epoch, _ in state.queue.entries}
        for entry in set(queue.iterdir()) - listed:  # listed before the first delete
            _delete(entry)


def finish(run_dir: Path, plot: bool, checkpoint=None) -> None:
    """The last writes of a run whose state is complete, the same after a
    fresh run and every resume, so that a resume completes a process
    stopped before them: checkpoint(path of checkpoint.bin) for a run with
    a generator, and curves.svg under plot."""
    if checkpoint is not None:
        checkpoint(run_dir / "checkpoint.bin")
    if plot:
        write_atomically(run_dir / "curves.svg", [_render_curves_svg(read_metrics(run_dir / "metrics.csv")).encode()])


def _delete(path: Path) -> None:
    """Remove whatever occupies path: a real directory with all it holds,
    anything else (a file, a symlink, a dangling one) by unlinking it."""
    if path.is_dir() and not path.is_symlink():
        shutil.rmtree(path)
    else:
        path.unlink(missing_ok=True)


def _render_curves_svg(rows) -> str:
    """Minimal SVG line chart of base/new accuracy over the epochs of rows (EpochMetrics)."""
    epochs, base, new = ([getattr(row, column) for row in rows] for column in ("epoch", "base_acc", "new_acc"))
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
