"""Seeded byte-mutation fuzz of the file loaders.

Each loader reads about 200 mutations of a real file: random byte flips
and truncations; for the three tensor files also flips inside the
manifest length or JSON manifest, and digit swaps inside the manifest
(which keep the JSON readable and so reach the checks behind it); for a
teacher checkpoint, whose file is raw float64, also appended bytes.
Whatever the bytes, a load either succeeds or raises DataError, which
the CLI maps to exit code 2; nothing else may escape. A run state is
read with its teacher-checkpoint directory beside it, and a checkpoint
through the state that lists it. A run state that loads is resumed for
its remaining epochs on the dataset it came from; that may fail only
with DataError or ConfigError (exit 2) or NumericalError (exit 3). A
mutated checkpoint that loads would have to give the intact checkpoints
bit for bit; as its length and crc32 are listed, none loads.
"""

import shutil
import struct

import numpy as np
import pytest

from ogen.cli import main
from ogen.embedding_store import load_embeddings
from ogen.errors import ConfigError, DataError, NumericalError
from ogen.generator import load_checkpoint
from ogen.trainer import TrainConfig, load_state, save_state, train

CASES = 200
LOADERS = {
    "oef": load_embeddings,
    "state": load_state,
    "checkpoint": load_checkpoint,
    "queue": lambda path: load_state(path.parent.with_name("state.bin")),
}


@pytest.fixture(scope="module")
def real_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    data, run = root / "d.oef", root / "run"
    assert main(["gen-data", "--classes", "8", "--dim", "16", "--per-class", "6", "--out", str(data)]) == 0
    assert main(["train", "--data", str(data), "--out", str(run), "--epochs", "4", "--batch-size", "16"]) == 0
    cfg = TrainConfig(epochs=4, batch_size=16)

    def rewind(state, row):  # to the state after epoch 1, so that a resume trains
        if row.epoch == 1:
            save_state(run / "state.bin", state, cfg)

    train(load_embeddings(data), cfg, on_epoch=rewind)
    return {"oef": data, "state": run / "state.bin", "checkpoint": run / "checkpoint.bin",
            "queue": run / "state.queue" / "1.f8"}


def checkpoints(state):
    return [(epoch, params.flat.tobytes()) for epoch, params in state.queue.entries]


def mutate(raw, rng, tensor_file=True):
    """One seeded mutation of raw, and a label for it."""
    data = bytearray(raw)
    how = int(rng.integers(4 if tensor_file else 3))
    if how == 0:
        for pos in rng.integers(len(data), size=int(rng.integers(1, 9))):
            data[pos] ^= int(rng.integers(1, 256))
        return bytes(data), "flip"
    if how == 1:
        return bytes(data[: int(rng.integers(len(data)))]), "truncate"
    if not tensor_file:
        return raw + rng.bytes(int(rng.integers(1, 17))), "append"
    head = 4 + struct.unpack("<I", raw[:4])[0]  # the manifest length and the JSON manifest
    if how == 2:
        for pos in rng.integers(head, size=int(rng.integers(1, 5))):
            data[pos] ^= int(rng.integers(1, 256))
        return bytes(data), "header flip"
    digits = [i for i in range(4, head) if chr(data[i]).isdigit()]
    for pos in rng.choice(digits, size=min(len(digits), int(rng.integers(1, 4))), replace=False):
        data[pos] = ord(str(int(rng.integers(10))))
    return bytes(data), "manifest digits"


# a mutated but finite state can resume with values so large that the
# generator's layer norm overflows; that run ends in the NumericalError the
# test accepts, so its overflow warning is expected, not an error
EXPECTED_OVERFLOW = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")


@pytest.mark.parametrize("kind", [pytest.param(k, marks=EXPECTED_OVERFLOW) if k == "state" else k for k in LOADERS])
def test_mutated_file_loads_or_is_data_error(real_files, tmp_path, kind):
    shutil.copy(real_files["state"], tmp_path)
    shutil.copytree(real_files["queue"].parent, tmp_path / "state.queue")
    raw = real_files[kind].read_bytes()
    rng = np.random.default_rng(list(LOADERS).index(kind))
    path = tmp_path / ("state.queue/1.f8" if kind == "queue" else real_files[kind].name)
    dataset = load_embeddings(real_files["oef"])
    intact = checkpoints(load_state(real_files["state"])[0])
    outcomes = {"ok": 0, "DataError": 0, "resumed": 0}
    for case in range(CASES):
        data, how = mutate(raw, rng, tensor_file=kind != "queue")
        path.write_bytes(data)
        try:
            loaded = LOADERS[kind](path)
        except DataError:
            outcomes["DataError"] += 1
            continue
        except Exception as exc:  # noqa: BLE001 - anything else is the failure under test
            pytest.fail(f"{kind} case {case} ({how}): {type(exc).__name__}: {exc}")
        outcomes["ok"] += 1
        if kind == "queue":
            assert checkpoints(loaded[0]) == intact, f"queue case {case} ({how}) loaded other checkpoints"
        if kind != "state":
            continue
        state, cfg = loaded
        try:
            train(dataset, cfg, state=state)
        except (DataError, ConfigError, NumericalError):
            continue
        except Exception as exc:  # noqa: BLE001
            pytest.fail(f"resume of state case {case} ({how}): {type(exc).__name__}: {exc}")
        outcomes["resumed"] += 1
    assert outcomes["DataError"] > 0
    assert kind != "state" or outcomes["resumed"] > 0
    assert kind != "queue" or outcomes["DataError"] == CASES
