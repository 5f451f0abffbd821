"""Property tests: the polynomial-time graph and poset algorithms against
independent oracles on random multigraphs with loops and parallel edges."""

import networkx as nx
from helpers import (
    classify_by_cycle_count,
    covers_by_definition,
    hs_sets_by_brute_force,
    k1_cycles_by_cycle_count,
    rotation_key_by_rotations,
)
from hypothesis import given
from hypothesis import strategies as st

from leavitt import (
    Poset,
    all_hereditary_saturated_sets,
    classify_vertex,
    condition_k,
    graded_lattice,
    k1_cycles,
    validate_graph,
)


@st.composite
def multigraphs(draw, max_vertices=7, max_edges=12):
    """Up to 7 vertices, loops and parallel edges allowed.  A planted cycle
    makes multi-vertex K1 components common.  Edges come in random input
    order, and names are permuted against input order, so code that sorts
    by name instead of by input order shows."""
    n = draw(st.integers(1, max_vertices))
    vnames = [f"v{i}" for i in draw(st.permutations(range(n)))]
    ring = draw(st.permutations(range(n)))[: draw(st.integers(0, n))]
    planted = [(a, ring[(k + 1) % len(ring)]) for k, a in enumerate(ring)]
    extra = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=max_edges)
    )
    pairs = draw(st.permutations(planted + extra))
    enames = [f"e{i}" for i in draw(st.permutations(range(len(pairs))))]
    return validate_graph(
        vnames, [(e, vnames[s], vnames[r]) for e, (s, r) in zip(enames, pairs)]
    )


def _kinds_by_networkx(g):
    h = nx.MultiDiGraph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(g.ends)
    kinds = {}
    for comp in nx.strongly_connected_components(h):
        internal = sum(1 for s, r in g.ends if s in comp and r in comp)
        kind = "K0" if internal == 0 else "K1" if internal == len(comp) else "K2"
        kinds.update((v, kind) for v in comp)
    return kinds


@given(multigraphs())
def test_classifier_matches_cycle_counting_and_networkx(g):
    kinds = _kinds_by_networkx(g)
    for v in g.vertices:
        vc = classify_vertex(g, v)
        assert vc == classify_by_cycle_count(g, v)  # same K1 cycle rotation too
        assert vc.kind == kinds[v]
    offenders = tuple(v for v in g.vertices if kinds[v] == "K1")
    assert condition_k(g) == (not offenders, offenders)


@given(multigraphs())
def test_k1_cycles_match_cycle_counting(g):
    cycles = k1_cycles(g)
    assert tuple(c.edges for c in cycles) == k1_cycles_by_cycle_count(g)
    for c in cycles:
        assert c.rotation_key() == rotation_key_by_rotations(c)
        for v in c.sources:
            rotated = c.based_at(v)
            assert rotated.canonical() == c
            assert rotated.rotation_key() == c.rotation_key()


@given(multigraphs())
def test_next_closure_matches_brute_force(g):
    assert all_hereditary_saturated_sets(g) == hs_sets_by_brute_force(g)


@given(multigraphs(max_vertices=6))
def test_lattice_covers_match_definition(g):
    poset = graded_lattice(g)
    assert poset.covers() == covers_by_definition(poset)


@st.composite
def posets(draw, max_size=9):
    """Transitive closures of random relations oriented along a random
    linear order, so the elements are not listed in a linear extension."""
    n = draw(st.integers(1, max_size))
    rank = draw(st.permutations(range(n)))
    below = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    leq = [[i == j for j in range(n)] for i in range(n)]
    for a, b in below:
        if rank[a] < rank[b]:
            leq[a][b] = True
    for k in range(n):
        for i in range(n):
            if leq[i][k]:
                for j in range(n):
                    leq[i][j] = leq[i][j] or leq[k][j]
    return Poset(tuple(range(n)), tuple(tuple(row) for row in leq))


@given(posets())
def test_covers_match_definition(poset):
    assert poset.covers() == covers_by_definition(poset)
