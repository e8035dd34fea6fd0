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
