"""Graph model, cycle machinery, K-classification, hereditary saturated sets."""

import itertools
import os
import pickle
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from helpers import (
    ALL_FIXTURES,
    C2,
    E38,
    G1,
    G4,
    G5,
    G6,
    G7,
    L2,
    R1,
    R2,
    iter_closed_simple_paths,
    serialize_graph,
    simple_cycles_through,
)

import leavitt

from leavitt import (
    Cycle,
    GraphError,
    DomainError,
    all_hereditary_saturated_sets,
    classify_vertex,
    condition_k,
    exit_range,
    graded_lattice,
    hereditary_saturated_closure,
    k1_cycles,
    parse_graph,
    validate_graph,
)


# --- validation and text format ----------------------------------------------


def test_validate_rose():
    g = validate_graph(["v"], [("e", "v", "v")])
    assert g.vertices == ("v",)
    assert g.src("e") == g.rng("e") == "v"


def test_validate_two_line():
    g = validate_graph(["u", "v"], [("a", "u", "v")])
    assert g.edges == ("a",)
    assert g.out_edges("v") == ()


def test_validate_unknown_vertex():
    with pytest.raises(GraphError, match="unknown vertex"):
        validate_graph(["v"], [("e", "v", "w")])


def test_validate_duplicates_rejected():
    with pytest.raises(GraphError, match="duplicate"):
        validate_graph(["v", "v"], [])
    with pytest.raises(GraphError, match="duplicate"):
        validate_graph(["v"], [("e", "v", "v"), ("e", "v", "v")])
    # names are unique across kinds so element expressions stay unambiguous
    with pytest.raises(GraphError, match="duplicate"):
        validate_graph(["v"], [("v", "v", "v")])


def test_validate_empty_vertex_set():
    with pytest.raises(GraphError, match="at least one vertex"):
        validate_graph([], [])


def test_parse_and_serialize_round_trip():
    text = "# fixture\nvertices: u v\nedge e: u -> u\nedge a: u -> v\n"
    g = parse_graph(text)
    assert g == G6
    assert parse_graph(serialize_graph(g)) == g
    assert serialize_graph(g) == "vertices: u v\nedge e: u -> u\nedge a: u -> v\n"


def test_parse_errors():
    with pytest.raises(GraphError):
        parse_graph("edge e: u -> v\nvertices: u v\n")
    with pytest.raises(GraphError):
        parse_graph("vertices: u\nnot an edge line\n")
    with pytest.raises(GraphError):
        parse_graph("")


def test_a_string_is_no_listing():
    # "uv" would be read as the vertices u and v, and "euv" as the edge e: u -> v
    with pytest.raises(GraphError, match="vertices must be a list of names, not a string"):
        validate_graph("uv", [("e", "u", "v")])
    with pytest.raises(GraphError, match="edges must be a list of .* not a string"):
        validate_graph(["e", "u", "v"], "euv")
    for bad in ("euv", ("e", "u", "v", "w"), ("e", "u"), ["e"], 5, None):
        with pytest.raises(GraphError, match=r"is not a \(name, source, range\) triple"):
            validate_graph(["u", "v"], [("a", "u", "v"), bad])
    with pytest.raises(GraphError, match="graph text must be a string, not bytes"):
        parse_graph(b"vertices: u")


@pytest.mark.parametrize("listing", [b"uv", bytearray(b"uv")])
def test_bytes_are_no_listing(listing):
    # b"uv" would be read as the names 117 and 118
    with pytest.raises(GraphError, match="vertices must be a list of names, not a string"):
        validate_graph(listing, [])
    with pytest.raises(GraphError, match="edges must be a list of .* not a string"):
        validate_graph(["u", "v"], listing)


# Each entry point below would read a string as the names of its characters:
# "ab" as the path a.b rather than the edge ab, "uv" as the vertices u and v.
STRING_LISTINGS = {
    "Path.of": lambda g: leavitt.Path.of(g, "ab"),
    "Path.extend": lambda g: leavitt.Path.of(g, [], at="u").extend("ab"),
    "Cycle.of": lambda g: Cycle.of(g, "ab"),
    "HeredSatSet.of": lambda g: leavitt.HeredSatSet.of(g, "uv"),
    "hereditary_saturated_closure": lambda g: hereditary_saturated_closure(g, "uv"),
}


@pytest.mark.parametrize("entry", sorted(STRING_LISTINGS))
def test_a_string_is_no_listing_of_path_cycle_or_vertex_names(entry):
    g = validate_graph(["u", "v"], [("ab", "u", "v"), ("a", "u", "u"), ("b", "u", "u")])
    with pytest.raises(GraphError, match="must be a list of names, not a string"):
        STRING_LISTINGS[entry](g)


def test_validation_reports_the_first_offender_in_input_order():
    with pytest.raises(GraphError, match="bad identifier '1x'"):
        validate_graph(["u", "v"], [("1x", "u", "v"), ("e", "u", "v", "w")])
    with pytest.raises(GraphError, match=r"edge \('e', 'u', 'v', 'w'\) is not"):
        validate_graph(["u", "v"], [("e", "u", "v", "w"), ("1x", "u", "v")])
    with pytest.raises(GraphError, match="duplicate identifier 'v'"):
        validate_graph(["u", "v", "v", "9"], [])
    with pytest.raises(GraphError, match="bad identifier 'a b'"):
        validate_graph(["u", "a b"], [])  # joined, "u a b" would pass as three names
    with pytest.raises(GraphError, match=r"edge 'e' leaves unknown vertex \['u'\]"):
        validate_graph(["u"], [("e", ["u"], "u")])


def test_names_are_ascii_identifiers():
    # every one- and two-character name, against the name grammar
    import re

    grammar = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
    chars = [chr(i) for i in range(1, 128)] + ["\u00e9", "\u0663", "\u00a0"]
    for name in chars + [a + b for a in chars for b in "a_0-. \u00e9\n"] + ["", "a" * 100]:
        ok = grammar.match(name) is not None
        for vs, es in (([name], []), (["x9y"], [(name, "x9y", "x9y")])):
            try:
                validate_graph(vs, es)
                assert ok, name
            except GraphError as exc:
                assert not ok and str(exc).startswith(f"bad identifier {name!r}"), name


def test_edges_may_be_lists_or_tuple_subclasses():
    from collections import namedtuple

    Edge = namedtuple("Edge", "name src rng")
    g = validate_graph(["u", "v"], [("a", "u", "v"), ("b", "v", "u")])
    assert validate_graph(("u", "v"), [["a", "u", "v"], ["b", "v", "u"]]) == g
    assert validate_graph(iter("uv"), (Edge("a", "u", "v"), Edge("b", "v", "u"))) == g


# --- cycles -------------------------------------------------------------------


def test_simple_cycles_rose():
    (c,) = simple_cycles_through(R1, "v")
    assert c.edges == ("e",)


def test_simple_cycles_acyclic():
    assert simple_cycles_through(L2, "u") == ()
    assert simple_cycles_through(L2, "v") == ()


def test_simple_cycles_two_cycle():
    (c,) = simple_cycles_through(C2, "u")
    assert c.edges == ("g", "h")
    (c2,) = simple_cycles_through(C2, "v")
    assert c2.edges == ("h", "g")
    assert c.rotation_key() == c2.rotation_key()
    assert c.canonical() == c2.canonical()


def test_cycle_validation():
    with pytest.raises(DomainError):
        Cycle.of(L2, ("a",))  # not closed
    with pytest.raises(DomainError):
        Cycle.of(C2, ())
    g = validate_graph(["u", "v"], [("a", "u", "v"), ("b", "v", "u"), ("c", "u", "v")])
    with pytest.raises(DomainError):
        Cycle.of(g, ("a", "b", "c", "b"))  # repeats source v


def test_cycle_rotations():
    c = Cycle.of(C2, ("h", "g"))
    assert c.canonical().edges == ("g", "h")


def test_path_construction_errors():
    path = leavitt.Path.of  # Path alone names pathlib's here
    with pytest.raises(DomainError, match="an empty path needs a base vertex"):
        path(L2, [])
    with pytest.raises(DomainError, match="path starts at 'u', not 'v'"):
        path(L2, ["a"], at="v")
    with pytest.raises(DomainError, match="edges do not compose at 'a'"):
        path(L2, ["a"]).extend(["a"])


def test_path_prefixes_and_text():
    path = leavitt.Path.of
    p = path(E38, ["a", "c"])
    assert p.code[:2] == path(E38, ["a"]).code and p.code[:1] == path(E38, [], at="u").code
    assert p.code[:2] != path(E38, ["b"]).code and p.edges[:1] == ("a",)
    assert path(E38, [], at="v").code != path(E38, [], at="u").code
    assert str(p) == "a.c" and str(path(E38, [], at="w")) == "w"


# --- classification -----------------------------------------------------------


def test_classify_examples():
    vc = classify_vertex(R1, "v")
    assert vc.kind == "K1" and vc.cycle.edges == ("e",)
    assert classify_vertex(R2, "v").kind == "K2"
    g = validate_graph(["u", "v"], [("a", "u", "v"), ("b", "v", "u"), ("c", "v", "v")])
    assert classify_vertex(g, "u").kind == "K2"  # detour a.c.b joins the cycle a.b


def test_classify_unknown_vertex():
    with pytest.raises(GraphError):
        classify_vertex(R1, "zzz")


def test_condition_k_examples():
    assert condition_k(L2) == (True, ())
    assert condition_k(R1) == (False, ("v",))
    assert condition_k(G4) == (True, ())


def _csp_count_bounded(g, v, cap=2):
    """Independent oracle: count closed simple paths at v up to length 2|E1|."""
    bound = 2 * len(g.edges)
    # depth-first over edge sequences avoiding v internally
    state = [(v, ())]
    count = 0
    while state:
        here, trail = state.pop()
        for e in g.out_edges(here):
            w = g.rng(e)
            if w == v:
                count += 1
                if count >= cap:
                    return count
            elif len(trail) + 1 < bound:
                state.append((w, trail + (e,)))
    return count


def _all_small_graphs(max_vertices=3, max_edges=4):
    for n in range(1, max_vertices + 1):
        vs = tuple(f"v{i}" for i in range(n))
        pairs = [(a, b) for a in vs for b in vs]
        for k in range(max_edges + 1):
            for combo in itertools.combinations_with_replacement(pairs, k):
                edges = [(f"e{i}", s, r) for i, (s, r) in enumerate(combo)]
                yield validate_graph(vs, edges)


def test_classification_matches_bounded_enumeration():
    """Cycle counting agrees with direct closed-simple-path counting on all
    graphs with at most 3 vertices and 4 edges."""
    checked = 0
    for g in _all_small_graphs():
        for v in g.vertices:
            want = {0: "K0", 1: "K1"}.get(_csp_count_bounded(g, v), "K2")
            got = classify_vertex(g, v).kind
            assert got == want, (serialize_graph(g), v, got, want)
            checked += 1
    assert checked > 1000


def test_k1_carries_a_cycle_with_distinct_sources():
    for g in ALL_FIXTURES.values():
        for v in g.vertices:
            vc = classify_vertex(g, v)
            if vc.kind == "K1":
                srcs = vc.cycle.sources
                assert len(set(srcs)) == len(srcs)
                assert srcs[0] == v


# --- hereditary saturated sets --------------------------------------------------


def test_closure_of_empty_is_empty():
    for g in ALL_FIXTURES.values():
        assert hereditary_saturated_closure(g, []).members == frozenset()


def test_closure_e38():
    assert hereditary_saturated_closure(E38, ["v"]).members == {"u", "v", "w"}


def test_closure_l2():
    assert hereditary_saturated_closure(L2, ["u"]).members == {"u", "v"}


def test_all_hs_sets_disjoint_vertices():
    sets = [s.members for s in all_hereditary_saturated_sets(G1)]
    assert sets == [frozenset(), {"u"}, {"v"}, {"u", "v"}]


def test_all_hs_sets_two_line():
    # u forces v hereditarily and v alone is not saturated (u only feeds v),
    # so only the trivial sets remain: the two-line algebra is simple.
    sets = [s.members for s in all_hereditary_saturated_sets(L2)]
    assert sets == [frozenset(), {"u", "v"}]


def test_all_hs_sets_rose():
    sets = [s.members for s in all_hereditary_saturated_sets(R1)]
    assert sets == [frozenset(), {"v"}]


def test_closure_is_a_closure_operator():
    for g in ALL_FIXTURES.values():
        vs = g.vertices
        subsets = [
            frozenset(c)
            for size in range(len(vs) + 1)
            for c in itertools.combinations(vs, size)
        ]
        for x in subsets:
            tx = hereditary_saturated_closure(g, x).members
            assert x <= tx  # extensive
            assert hereditary_saturated_closure(g, tx).members == tx  # idempotent
            for y in subsets:
                if x <= y:
                    ty = hereditary_saturated_closure(g, y).members
                    assert tx <= ty  # monotone


def test_closure_order_independent():
    """A randomized interleaving of the two closure rules reaches the same
    fixed point."""
    rng = random.Random(7)

    def chaotic_closure(g, xs):
        s = set(xs)
        while True:
            moves = []
            for v in tuple(s):
                for e in g.out_edges(v):
                    if g.rng(e) not in s:
                        moves.append(g.rng(e))
            for v in g.vertices:
                out = g.out_edges(v)
                if out and v not in s and all(g.rng(e) in s for e in out):
                    moves.append(v)
            if not moves:
                return frozenset(s)
            s.add(rng.choice(moves))

    for g in ALL_FIXTURES.values():
        for size in range(len(g.vertices) + 1):
            for x in itertools.combinations(g.vertices, size):
                for _ in range(3):
                    assert chaotic_closure(g, x) == hereditary_saturated_closure(g, x).members


def test_hs_sets_closed_under_intersection():
    for g in ALL_FIXTURES.values():
        sets = [s.members for s in all_hereditary_saturated_sets(g)]
        for a in sets:
            for b in sets:
                assert (a & b) in sets


# --- exit ranges and K1 cycles ---------------------------------------------------


def test_exit_range_examples():
    (c5,) = simple_cycles_through(G5, "u")
    assert exit_range(G5, c5) == frozenset()
    (c6,) = simple_cycles_through(G6, "u")
    assert exit_range(G6, c6) == {"v"}
    (ce,) = simple_cycles_through(E38, "v")
    assert exit_range(E38, ce) == {"w"}


def test_exit_range_disjoint_from_cycle():
    for g in ALL_FIXTURES.values():
        for c in k1_cycles(g):
            assert exit_range(g, c).isdisjoint(c.sources)


def test_exit_range_rejects_foreign_cycle():
    (c,) = simple_cycles_through(R1, "v")
    with pytest.raises((DomainError, GraphError)):
        exit_range(C2, c)


def test_k1_cycles_examples():
    (c,) = k1_cycles(R1)
    assert c.edges == ("e",)
    assert k1_cycles(R2) == ()
    (c2,) = k1_cycles(C2)
    assert c2.edges == ("g", "h")  # canonical rotation, one cycle for both vertices


def test_closed_simple_path_stream_is_shortest_first():
    paths = []
    for p in iter_closed_simple_paths(R2, "v", 3):
        paths.append(p.edges)
    assert paths[:2] == [("e",), ("f",)]
    assert all(len(a) <= len(b) for a, b in zip(paths, paths[1:]))


# --- scale: answers that enumeration could not reach ------------------------------


def _named(n, pairs):
    vs = [f"v{i}" for i in range(n)]
    return validate_graph(vs, [(f"e{k}", vs[s], vs[r]) for k, (s, r) in enumerate(pairs)])


def test_long_cycle_is_classified_without_recursion():
    g = _named(1500, [(i, (i + 1) % 1500) for i in range(1500)])
    assert condition_k(g) == (False, g.vertices)
    vc = classify_vertex(g, "v700")
    assert vc.kind == "K1" and vc.cycle.edges == g.edges[700:] + g.edges[:700]
    (c,) = k1_cycles(g)
    assert c.edges == g.edges
    (c0,) = simple_cycles_through(g, "v0")
    assert c0.edges == g.edges


@pytest.mark.parametrize("shape", ["cycle", "path"])
def test_20000_vertices_are_classified_without_recursion_in_under_a_second(shape):
    n = 20000
    step = [(i, (i + 1) % n) for i in range(n)] if shape == "cycle" else [(i, i + 1) for i in range(n - 1)]
    g = _named(n, step)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 30)  # a recursive search would stop here
    try:
        start = time.perf_counter()
        ok, offenders = condition_k(g)
        vc = classify_vertex(g, "v0")
        cycles = k1_cycles(g)
        elapsed = time.perf_counter() - start
    finally:
        sys.setrecursionlimit(limit)
    assert elapsed < 1.0
    if shape == "cycle":
        assert (ok, offenders) == (False, g.vertices)
        assert vc.kind == "K1" and vc.cycle.edges == g.edges
        assert cycles == (Cycle(g, tuple(range(n))),)
    else:
        assert (ok, offenders, vc.kind, cycles) == (True, (), "K0", ())


def test_complete_digraph_k9_satisfies_condition_k():
    g = _named(9, [(i, j) for i in range(9) for j in range(9) if i != j])
    assert condition_k(g) == (True, ())
    assert classify_vertex(g, "v4").kind == "K2"
    assert k1_cycles(g) == ()


def test_all_hs_sets_long_path():
    g = _named(80, [(i, i + 1) for i in range(79)])
    sets = [s.members for s in all_hereditary_saturated_sets(g)]
    assert sets == [frozenset(), frozenset(g.vertices)]


def test_all_hs_sets_twelve_isolated_vertices():
    g = _named(12, [])
    sets = [s.members for s in all_hereditary_saturated_sets(g)]
    assert len(sets) == 4096
    assert sets == [
        frozenset(c) for size in range(13) for c in itertools.combinations(g.vertices, size)
    ]


def test_all_hs_sets_reversed_loop_chain_are_its_suffixes():
    """A chain x0 -> ... -> x1999 with a loop at every vertex, listed from
    x1999 back to x0: J is a chain of 2,000 loops, so its hereditary
    saturated sets are its 2,001 suffixes, nested, which in vertex order are
    the prefixes of the vertex list.  Breadth first, the down-sets of J come
    in that order, one per level, so about 2M members are listed with no
    sort and no closure."""
    n = 2000
    g = _named(n, [(i, i) for i in range(n)] + [(i, i - 1) for i in range(1, n)])
    start = time.perf_counter()
    sets = all_hereditary_saturated_sets(g)
    elapsed = time.perf_counter() - start
    assert [s.mask for s in sets] == [(1 << k) - 1 for k in range(n + 1)]
    assert [s.sorted_members() for s in sets[:3]] == [(), ("v0",), ("v0", "v1")]
    assert elapsed < 1.0


def test_listing_is_sorted_only_when_breadth_first_order_fails(monkeypatch):
    """v0 -> v1 beside v2: J is the sinks v1 and v2, and breadth first the
    sets come as {}, {v0, v1}, {v2}, all, so the listing sorts them.  With
    v0 -> v2 and v0 -> v1 instead, they come as {}, {v2}, {v1}, all: equal
    sizes whose least differing vertex lies in the later.  On isolated
    vertices breadth-first order is already (size, vertex order)."""
    sorts = []

    def spy(*args, **kw):
        sorts.append(args)
        return sorted(*args, **kw)

    monkeypatch.setattr(leavitt.graphs, "sorted", spy, raising=False)
    cases = [
        ("edge a: v0 -> v1", [(), ("v2",), ("v0", "v1"), ("v0", "v1", "v2")]),
        ("edge a: v0 -> v2\nedge b: v0 -> v1", [(), ("v1",), ("v2",), ("v0", "v1", "v2")]),
    ]
    for edges, want in cases:
        sorts.clear()
        g = parse_graph(f"vertices: v0 v1 v2\n{edges}\n")
        assert [s.sorted_members() for s in all_hereditary_saturated_sets(g)] == want
        assert len(sorts) == 1
        poset = graded_lattice(g)
        assert [node.vertex_part.sorted_members() for node in poset.elements] == want
        assert poset.covers == ((0, 1), (0, 2), (1, 3), (2, 3))
    for n in range(1, 9):
        sorts.clear()
        g = _named(n, [])
        sets = [s.sorted_members() for s in all_hereditary_saturated_sets(g)]
        assert sets == [c for size in range(n + 1) for c in itertools.combinations(g.vertices, size)]
        assert sorts == []


@pytest.mark.parametrize("n", [1, 2, 5, 2000])
def test_paths_and_cycles_have_a_two_element_lattice(n):
    """P_n and C_n: J is the sink or the cycle, so the lattice is 0 < L."""
    path, cycle = [(i, i + 1) for i in range(n - 1)], [(i, (i + 1) % n) for i in range(n)]
    for g in (_named(n, path), _named(n, cycle)):
        poset = graded_lattice(g)
        assert [node.vertex_part.mask for node in poset.elements] == [0, (1 << n) - 1]
        assert poset.covers == ((0, 1),)


def test_graded_lattice_of_the_reversed_loop_chain_is_a_chain():
    """The loop chain of 300, listed from its sink back: J is a chain of 300
    loops, so the lattice is its 301 nested suffixes with 300 covers, read
    off J with no closure."""
    n = 300
    g = _named(n, [(i, i) for i in range(n)] + [(i, i - 1) for i in range(1, n)])
    start = time.perf_counter()
    poset = graded_lattice(g)
    elapsed = time.perf_counter() - start
    assert [node.vertex_part.mask for node in poset.elements] == [(1 << k) - 1 for k in range(n + 1)]
    assert poset.covers == tuple((k, k + 1) for k in range(n))
    assert elapsed < 1.0


def test_hs_set_budget_is_checked_as_the_sets_are_listed(monkeypatch):
    """n isolated vertices have 2^n hereditary saturated sets: 64 fit a
    budget of 100, and the 128 of seven are refused by the count of sinks,
    which are pairwise incomparable, before any set is listed."""
    monkeypatch.setattr(leavitt.graphs, "HS_SET_BUDGET", 100)
    assert len(all_hereditary_saturated_sets(_named(6, []))) == 64
    with pytest.raises(DomainError, match="more than 100 hereditary saturated sets"):
        all_hereditary_saturated_sets(_named(7, []))


def test_hs_set_budget_refuses_by_sinks_addable_sets_and_count(monkeypatch):
    """Seven sinks, seven minimal loops, or seven loops made addable at once
    by the loop they all reach mean at least 2^7 sets; five loops, each above
    its own sink, make 3^5 with at most five sinks or addable elements.  Each
    is refused past a budget of 100, the sinks before the K-classes are
    made, and listed in full when the budget is its exact count."""
    sinks = (_named(7, []), 128)
    loops = (_named(7, [(i, i) for i in range(7)]), 128)
    fan = (_named(8, [(i, i) for i in range(8)] + [(i, 0) for i in range(1, 8)]), 129)
    chains = (_named(10, [(2 * i, 2 * i) for i in range(5)] + [(2 * i, 2 * i + 1) for i in range(5)]), 243)
    for g, count in (sinks, loops, fan, chains):
        monkeypatch.setattr(leavitt.graphs, "HS_SET_BUDGET", 100)
        with pytest.raises(DomainError, match="more than 100 hereditary saturated sets"):
            all_hereditary_saturated_sets(g)
        assert (g._kclass is None) == (g is sinks[0])
        monkeypatch.setattr(leavitt.graphs, "HS_SET_BUDGET", count)
        assert len(all_hereditary_saturated_sets(g)) == count


# --- hashing -----------------------------------------------------------------------


def test_graph_hash_is_cached_and_survives_pickling_across_processes():
    twin = validate_graph(["v"], [("e", "v", "v"), ("f", "v", "v")])
    assert twin is not R2 and hash(twin) == hash(R2) and {R2: 1}[twin] == 1
    assert pickle.loads(pickle.dumps(R2)) == R2
    # A graph pickled after hashing in a process with another string-hash
    # seed must hash like a graph built here.
    src = str(Path(leavitt.__file__).resolve().parents[1])
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
    code = (
        "import pickle, sys\n"
        "from leavitt import validate_graph\n"
        "g = validate_graph(['v'], [('e', 'v', 'v'), ('f', 'v', 'v')])\n"
        "hash(g)\n"
        "sys.stdout.buffer.write(pickle.dumps(g))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, check=True)
    g = pickle.loads(done.stdout)
    assert g == R2 and hash(g) == hash(R2) and {R2: 1}[g] == 1
