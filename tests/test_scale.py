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


def test_member_budget_refuses_the_reversed_20000_vertex_loop_chain(tmp_path, capsys):
    """Loops at v0..v19999 and an edge from each vertex to the one before:
    the 20,001 nested sets hold 2 x 10^8 members, so both commands, in both
    formats, exit 1 once the members tallied pass 10^7, long before any set
    is made."""
    n = 20000
    pairs = [(i, i) for i in range(n)] + [(i, i - 1) for i in range(1, n)]
    path = _graph_file(tmp_path, "chain20000", n, pairs)
    for command in ("hs-sets", "graded-lattice"):
        for fmt in ("text", "json"):
            start = time.perf_counter()
            code = main([command, "--graph", str(path), "--format", fmt])
            elapsed = time.perf_counter() - start
            out, err = capsys.readouterr()
            assert code == 1 and out == ""
            assert err == "error: more than 10000000 members of hereditary saturated sets\n"
            assert elapsed < 2.0
