"""Scale envelope: commands on large graphs answer in bounded time, run in
process through ``cli.main`` so that a traceback fails the test."""

import json
import time

import pytest

from leavitt.cli import main


def _graph_file(tmp_path, name, n, pairs):
    lines = ["vertices: " + " ".join(f"v{i}" for i in range(n))]
    lines += [f"edge e{k}: v{s} -> v{r}" for k, (s, r) in enumerate(pairs)]
    path = tmp_path / f"{name}.graph"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize(
    "name, pairs",
    [
        ("P20000", [(i, i + 1) for i in range(19999)]),
        ("C20000", [(i, (i + 1) % 20000) for i in range(20000)]),
    ],
)
def test_graded_lattice_of_a_20000_vertex_path_or_cycle(tmp_path, capsys, name, pairs):
    """J is one sink or one cycle, so the lattice is 0 < L, read off J with
    no closure."""
    path = _graph_file(tmp_path, name, 20000, pairs)
    start = time.perf_counter()
    code = main(["graded-lattice", "--graph", str(path), "--format", "json"])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert [len(node) for node in payload["nodes"]] == [0, 20000]
    assert payload["covers"] == [[0, 1]]
    assert elapsed < 2.0
