"""Scale envelope: commands on large graphs answer in bounded time, run in
process through ``cli.main`` so that a traceback fails the test, and the
library's listing of hereditary saturated sets where printing the names
would be the cost."""

import json
import time

import pytest

from leavitt import all_hereditary_saturated_sets, validate_graph
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


def test_sixteen_sinks_behind_a_2000_vertex_path_list_in_under_a_second():
    """The path's end feeds sinks s0..s15, so every subset of the sinks is
    a down-set of J, 65,536 in all.  The path's vertices share one need-set
    and join each set as one group, so a set costs the same whatever the
    path's length."""
    n = 2000
    vs = [f"s{j}" for j in range(16)] + [f"p{i}" for i in range(n)]
    es = [(f"a{i}", f"p{i}", f"p{i + 1}") for i in range(n - 1)]
    es += [(f"b{j}", f"p{n - 1}", f"s{j}") for j in range(16)]
    g = validate_graph(vs, es)
    start = time.perf_counter()
    sets = all_hereditary_saturated_sets(g)
    elapsed = time.perf_counter() - start
    assert len(sets) == 65536
    assert sets[0].mask == 0 and sets[-1].mask == (1 << (n + 16)) - 1
    assert all(s.mask < 1 << 16 for s in sets[:-1])  # only all 16 sinks pull the path in
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "name, n, pairs",
    [
        ("isolated100000", 100000, []),
        ("star100000", 100001, [(0, i) for i in range(1, 100001)]),
    ],
)
def test_hs_set_budget_refuses_100000_sinks_before_listing(tmp_path, capsys, name, n, pairs):
    """100,000 sinks are pairwise incomparable in J, so they have 2^100000
    down-sets: both commands exit 1 on the sinks' count, before J is built."""
    path = _graph_file(tmp_path, name, n, pairs)
    for command in ("hs-sets", "graded-lattice"):
        start = time.perf_counter()
        code = main([command, "--graph", str(path), "--format", "json"])
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == "error: more than 65536 hereditary saturated sets\n"
        assert elapsed < 2.0
