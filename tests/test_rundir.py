"""The run directory's operations, called as a library."""

import pytest
from conftest import file_tree

from ogen import rundir
from ogen.embedding_store import SynthConfig, make_synthetic
from ogen.errors import DataError
from ogen.trainer import TrainConfig, save_state, train


@pytest.mark.parametrize("name", [".state.bin.prev", ".state.bin.123.tmp"])
def test_clear_refuses_a_directory_and_deletes_nothing(tmp_path, name):
    cfg = TrainConfig(epochs=2, batch_size=16, distill="almt")
    dataset = make_synthetic(SynthConfig(num_classes=8, dim=16, per_class=6))
    save_state(tmp_path / "state.bin", train(dataset, cfg).state, cfg)
    (tmp_path / name).mkdir()
    (tmp_path / name / "kept").write_bytes(b"a file of another program")
    before = file_tree(tmp_path)
    with pytest.raises(DataError, match=f"{tmp_path / name} is a directory"):
        rundir.clear(tmp_path)
    assert file_tree(tmp_path) == before


def test_metrics_table_reads_back_the_rows_it_was_written_from(tmp_path):
    # every float cell is its repr, so the rows come back bit for bit; an
    # almt run has no teacher range at epoch 0 (empty cells) and ints after
    cfg = TrainConfig(epochs=3, batch_size=16, distill="almt")
    rows = train(make_synthetic(SynthConfig(num_classes=8, dim=16, per_class=6)), cfg).metrics
    assert rows[0].teacher_lo is None and rows[1].teacher_lo == 0
    (tmp_path / "metrics.csv").write_text("".join(map(rundir.metrics_line, [None, *rows])))
    assert rundir.read_metrics(tmp_path / "metrics.csv") == rows
    assert rundir.read_metrics(tmp_path / "metrics.csv", before=2) == rows[:2]
