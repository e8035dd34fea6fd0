"""The library example in README.md runs as written and does what it says."""

import re
from pathlib import Path

from conftest import class_rows

from ogen import retrieve_knn

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    text = README.read_text()
    section = text[text.index("## Library use") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_samples_the_retrieved_classes():
    ns = {}
    exec(compile(library_block(), str(README), "exec"), ns)
    dataset, result, ctx = ns["dataset"], ns["result"], ns["ctx"]
    columns = retrieve_knn(dataset.class_embeddings[0], result.embeddings, k=3)
    # each support column is a row of the class retrieved for that column
    for j, col in enumerate(columns):
        rows = class_rows(dataset, dataset.split.base[col])
        assert (rows == ctx.support_features[:, j]).all(axis=1).any()
    assert ns["feature"].shape == (dataset.dim,)
