"""Scale envelope: commands on large graphs answer in bounded time, run in
process through ``cli.main`` so that a traceback fails the test, and the
library's listing of hereditary saturated sets apart from printing it."""

import json
import time

import pytest

from leavitt import all_hereditary_saturated_sets, validate_graph
from leavitt.cli import main


def _write_graph(tmp_path, name, vertices, edges):
    lines = ["vertices: " + " ".join(vertices)]
    lines += [f"edge {e}: {s} -> {r}" for e, s, r in edges]
    path = tmp_path / f"{name}.graph"
    path.write_text("\n".join(lines) + "\n")
    return path


def _graph_file(tmp_path, name, n, pairs):
    edges = [(f"e{k}", f"v{s}", f"v{r}") for k, (s, r) in enumerate(pairs)]
    return _write_graph(tmp_path, name, [f"v{i}" for i in range(n)], edges)


def _sinks_behind_a_path(n=2000):
    """Sinks s0..s15, then a path p0 -> ... -> p(n-1) whose end feeds each sink."""
    vs = [f"s{j}" for j in range(16)] + [f"p{i}" for i in range(n)]
    es = [(f"a{i}", f"p{i}", f"p{i + 1}") for i in range(n - 1)]
    es += [(f"b{j}", f"p{n - 1}", f"s{j}") for j in range(16)]
    return vs, es


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
    g = validate_graph(*_sinks_behind_a_path(n))
    start = time.perf_counter()
    sets = all_hereditary_saturated_sets(g)
    elapsed = time.perf_counter() - start
    assert len(sets) == 65536
    assert sets[0].mask == 0 and sets[-1].mask == (1 << (n + 16)) - 1
    assert all(s.mask < 1 << 16 for s in sets[:-1])  # only all 16 sinks pull the path in
    assert elapsed < 1.0


def test_sixteen_sinks_behind_a_2000_vertex_path_print_in_under_a_second(tmp_path, capsys):
    """The same 65,536 sets through ``lpa hs-sets --format text``, with the
    sinks listed after the path: a set's names are read off its set bits, so
    a set of sinks costs its members, not the 2,000 ids below them."""
    vs, es = _sinks_behind_a_path()
    path = _write_graph(tmp_path, "sinks", vs[16:] + vs[:16], es)
    start = time.perf_counter()
    code = main(["hs-sets", "--graph", str(path), "--format", "text"])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert code == 0 and err == ""
    assert len(lines) == 65536
    assert lines[:3] == ["{}", "{s0}", "{s1}"] and lines[-1].count(", ") == 2015
    assert not any("p" in line for line in lines[:-1])  # only all 16 sinks pull the path in
    assert elapsed < 1.0


def test_a_vertex_at_the_top_of_the_reversed_10000_vertex_loop_chain_drops_2000_polynomials(
    tmp_path, capsys
):
    """Loops at v0..v9999, each vertex feeding the one before, and an ideal
    file with x + 1 on 2,000 of the loops and the vertex v9999, which reaches
    every vertex: both commands reduce it with one closure to the whole
    vertex set and no polynomial."""
    n = 10000
    pairs = [(i, i) for i in range(n)] + [(i, i - 1) for i in range(1, n)]
    path = _graph_file(tmp_path, "chain10000", n, pairs)
    polys = [{"cycle": [f"e{i}"], "base": f"v{i}", "coeffs": ["1", "1"]} for i in range(0, n, 5)]
    ideal = tmp_path / "ideal.json"
    ideal.write_text(json.dumps({"vertices": [f"v{n - 1}"], "polys": polys}))
    top = json.dumps({"vertices": [f"v{n - 1}"]})
    everything = {"vertices": [f"v{i}" for i in range(n)], "polys": []}
    for argv, want in [
        (["lambda-reduce", "--ideal", str(ideal)], everything),
        (["contains", top, str(ideal)], {"contains": True}),  # only if the file holds every vertex
    ]:
        start = time.perf_counter()
        code = main([argv[0], "--graph", str(path), "--format", "json", *argv[1:]])
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        assert json.loads(out) == want
        assert elapsed < 2.0


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
    _both_commands_exit_on_the_set_budget(_graph_file(tmp_path, name, n, pairs), capsys)


def _both_commands_exit_on_the_set_budget(path, capsys):
    for command in ("hs-sets", "graded-lattice"):
        start = time.perf_counter()
        code = main([command, "--graph", str(path), "--format", "json"])
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == "error: more than 65536 hereditary saturated sets\n"
        assert elapsed < 2.0


@pytest.mark.parametrize(
    "name, pairs",
    [
        ("loops100000", [(i, i) for i in range(100000)]),
        ("fan100000", [(i, i) for i in range(100000)] + [(i, 0) for i in range(1, 100000)]),
    ],
)
def test_hs_set_budget_refuses_100000_loops_as_j_is_built(tmp_path, capsys, name, pairs):
    """100,000 isolated loops, or 100,000 loops each with an edge into v0's:
    no sinks, but 100,000 (or 99,999) elements of J at one level, which are
    pairwise incomparable, so both commands exit 1 on the 17th of them,
    before J's masks over all its elements are made."""
    _both_commands_exit_on_the_set_budget(_graph_file(tmp_path, name, 100000, pairs), capsys)


def test_element_commands_on_a_20000_edge_word_of_the_20000_cycle(tmp_path, capsys):
    """The word e0.e1...e19999 once round C_20000 and its ghost: each is its
    own normal form, their sum has two components, and both products are
    the vertex v0: the ghost times the path by one prefix test, the path
    times the ghost by the rewriting, which strips the whole run of sole
    out-edges with one slice.  Each command costs O(1) per edge."""
    n = 20000
    path = _graph_file(tmp_path, "C20000", n, [(i, (i + 1) % n) for i in range(n)])
    word = ".".join(f"e{i}" for i in range(n))
    ghost = ".".join(f"e{i}*'" for i in reversed(range(n)))
    for argv, want in [
        (["normalize", word], {"normal_form": word}),
        (["normalize", ghost], {"normal_form": ghost}),
        (["grade", f"{word} + {ghost}"], {"components": {str(-n): ghost, str(n): word}}),
        (["mul", word, ghost], {"product": "v0"}),
        (["mul", ghost, word], {"product": "v0"}),
    ]:
        start = time.perf_counter()
        code = main([argv[0], "--graph", str(path), "--format", "json", *argv[1:]])
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        assert json.loads(out) == want
        assert elapsed < 1.0, argv[0]
