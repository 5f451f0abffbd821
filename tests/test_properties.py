"""Property tests: the polynomial-time graph and poset algorithms, the
integer element kernel, its parser and the extraction search against
independent oracles on random multigraphs with loops, parallel edges and
sinks, graph and generator ingest against the retired per-item parsers,
plus a closed-form dimension count and the paper's characterization of
graded ideals."""

import copy
import pickle
from fractions import Fraction
from itertools import combinations, islice
from math import gcd

import networkx as nx
import pytest
from helpers import (
    COEFFS,
    E38,
    _is_hereditary,
    _is_saturated,
    canonical_key_by_permutations,
    class_by_marked_poset,
    class_members,
    classify_by_cycle_count,
    coeff,
    collect_by_paths,
    covers_by_definition,
    format_by_terms,
    generator_set_by_fractions,
    generator_set_of,
    hs_sets_by_brute_force,
    hs_subsets_by_brute_force,
    iter_closed_simple_paths,
    k1_cycles_by_cycle_count,
    lattice_by_lindig,
    marked_poset,
    mul_by_paths,
    normalize_by_paths,
    on_graph,
    out_edge_map,
    outcome,
    parse_graph_line_by_line,
    paths_by_range,
    rotation_key_by_rotations,
    skeleton_dot_by_all_pairs,
    skeleton_families_by_closure,
    term_order,
    validate_graph_item_by_item,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leavitt import (
    Cycle,
    CyclePolynomial,
    DomainError,
    Element,
    HeredSatSet,
    contains,
    LambdaGeneratorSet,
    LatticeSkeleton,
    ParseError,
    Poset,
    QPoly,
    TwoVertexShape,
    add,
    all_hereditary_saturated_sets,
    build_skeleton,
    classify,
    classify_vertex,
    condition_k,
    format_element,
    generator_set_from_json,
    graded_components,
    graded_lattice,
    is_graded,
    k1_cycles,
    lambda_reduce,
    monomial,
    monomial_element,
    mul,
    nongraded_witness,
    normalize,
    parse_element,
    parse_graph,
    path_element,
    scale,
    sub,
    vertex_element,
    validate_graph,
)
from leavitt.graphs import _index, _k_classes, _lattice, lattice_label
from leavitt.ideals import _two_closed_simple_paths
from leavitt.twovertex import _SHAPES_16, SkeletonFamily


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


@st.composite
def sinks_against_order(draw, max_sinks=4, max_others=5, max_edges=8):
    """Sinks last in vertex order, every edge into them listed after the
    others and by falling sink id: the Tarjan pass reaches them highest
    first and numbers them against vertex order, so sets that differ by
    which sinks they hold tie in size and come out of J in the wrong order.
    Names are permuted against input order, as in :func:`multigraphs`."""
    k, m = draw(st.integers(2, max_sinks)), draw(st.integers(1, max_others))
    pairs = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)), max_size=max_edges))
    into = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(m, m + k - 1)), max_size=max_edges))
    pairs += sorted(into, key=lambda p: -p[1])
    vnames = [f"v{i}" for i in draw(st.permutations(range(m + k)))]
    enames = [f"e{i}" for i in draw(st.permutations(range(len(pairs))))]
    return validate_graph(
        vnames, [(e, vnames[s], vnames[r]) for e, (s, r) in zip(enames, pairs)]
    )


def _networkx(g):
    h = nx.MultiDiGraph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(g.ends)
    return h


@given(multigraphs())
def test_adjacency_queries_match_a_scan_of_the_edge_list(g):
    """The queries that read the graph's cached index, against its edge list."""
    for v in g.vertices:
        scan = tuple(e for e, (s, _) in zip(g.edges, g.ends) if s == v)
        assert g.out_edges(v) == scan


def _kinds_by_networkx(g):
    h = _networkx(g)
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
        for i in range(len(c.ids)):
            rotated = Cycle(g, c.ids[i:] + c.ids[:i])
            assert rotated.canonical() == c
            assert rotated.rotation_key() == c.rotation_key()


@settings(max_examples=60)
@given(multigraphs())
def test_strong_components_match_networkx(g):
    """The Tarjan pass as a partition of the vertices, not only through the
    K-kinds it decides: its SCC numbers, the vertex lists it keeps per SCC,
    and the numbering, every SCC's successors before it."""
    _, _, comp, members = _k_classes(g)
    parts: dict[int, set] = {}
    for v, c in zip(g.vertices, comp):
        parts.setdefault(c, set()).add(v)
    want = nx.strongly_connected_components(_networkx(g))
    assert sorted(map(sorted, parts.values())) == sorted(map(sorted, want))
    assert [sorted(vs) for vs in members] == [
        sorted(i for i, d in enumerate(comp) if d == c) for c in range(len(members))
    ]
    succ = _index(g).succ
    assert all(comp[w] <= comp[v] for v in range(len(comp)) for w in succ[v])


@given(multigraphs(max_vertices=10, max_edges=16) | sinks_against_order())
def test_hs_sets_match_brute_force(g):
    """Up to ten vertices, so J has many elements and breadth-first order
    often differs from (size, vertex order), which the listing then sorts;
    sinks numbered against vertex order make same-size ties the only
    disorder of some listings."""
    assert all_hereditary_saturated_sets(g) == hs_sets_by_brute_force(g)


@given(multigraphs(max_vertices=6))
def test_hered_sat_set_masks_match_their_names(g):
    """A set's bitmask, read through every query that turns it into names
    or compares it, against the brute-force oracle's set of names."""
    sets, names = hs_sets_by_brute_force(g), hs_subsets_by_brute_force(g)
    for h, s in zip(sets, names):
        ordered = tuple(v for v in g.vertices if v in s)
        assert h.members == s
        assert h.sorted_members() == ordered
        assert str(h) == "{" + ", ".join(ordered) + "}"
        assert [v in h for v in g.vertices] == [v in s for v in g.vertices]
        assert "nowhere" not in h
        label = "0" if not s else "L" if len(s) == len(g.vertices) else "{" + ",".join(ordered) + "}"
        assert lattice_label(h) == label
        named = HeredSatSet.of(g, s)
        assert named == h and hash(named) == hash(h)
    for h1, s1 in zip(sets, names):
        assert [h1 <= h2 for h2 in sets] == [s1 <= s2 for s2 in names]


@given(multigraphs(max_vertices=6))
def test_lattice_covers_match_definition(g):
    poset = graded_lattice(g)
    sets = [node.vertex_part.members for node in poset.elements]
    assert poset.covers == covers_by_definition(sets, lambda a, b: a <= b)


@given(multigraphs(max_vertices=9, max_edges=14) | sinks_against_order())
def test_lattice_matches_the_lindig_oracle(g):
    """Down-sets of J give the sets, their order and their covers that n
    closures per set give."""
    assert _lattice(g)[:2] == lattice_by_lindig(g)


@given(multigraphs(max_vertices=6))
def test_join_irreducible_sets_are_the_closures_of_j(g):
    """Birkhoff: the sets with exactly one lower cover are the least
    hereditary saturated sets holding one sink or cyclic component, all by
    brute force and networkx."""
    sets = hs_subsets_by_brute_force(g)
    covers = covers_by_definition(sets, lambda a, b: a <= b)
    irreducible = {sets[j] for j in range(len(sets)) if [k for _, k in covers].count(j) == 1}
    points, _ = marked_poset(g)
    closures = {min((s for s in sets if vs <= s), key=len) for vs, _ in points}
    assert irreducible == closures


@given(multigraphs(max_vertices=5))
def test_graded_lattice_is_distributive(g):
    """Meets are intersections, joins the least set above a union, and
    meet distributes over join."""
    masks, _, _ = _lattice(g)

    def join(a, b):
        return min((m for m in masks if not (a | b) & ~m), key=int.bit_count)

    assert all(a & b in masks for a in masks for b in masks)
    table = {(a, b): join(a, b) for a in masks for b in masks}
    for a in masks:
        for b in masks:
            for c in masks:
                assert a & table[b, c] == table[a & b, a & c]


@given(multigraphs(max_vertices=6))
def test_skeleton_families_match_the_closure_rule(g):
    assert build_skeleton(g).families == skeleton_families_by_closure(g)


@given(st.lists(st.tuples(st.sampled_from("uv"), st.sampled_from("uv")), max_size=20))
def test_classify_matches_the_marked_poset(pairs):
    """The class of a two-vertex multigraph is the kind of its marked poset
    of sinks and cyclic components."""
    g = validate_graph(["u", "v"], [(f"e{i}", s, r) for i, (s, r) in enumerate(pairs)])
    assert classify(g).label == class_by_marked_poset(g)


@given(multigraphs(max_vertices=5))
def test_hered_sat_set_validation_matches_brute_force(g):
    out = out_edge_map(g)
    for size in range(len(g.vertices) + 1):
        for s in map(frozenset, combinations(g.vertices, size)):
            if not _is_hereditary(g, out, s):
                with pytest.raises(DomainError, match="is not hereditary"):
                    HeredSatSet.of(g, s)
            elif not _is_saturated(g, out, s):
                with pytest.raises(DomainError, match="is not saturated"):
                    HeredSatSet.of(g, s)
            else:
                assert HeredSatSet.of(g, s).members == s


@st.composite
def orders(draw, max_size=9):
    """Reflexive order matrices: transitive closures of random relations
    oriented along a random linear order, so the elements are not listed in
    a linear extension."""
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
    return leq


def posets(max_size=9):
    """Posets on the numbers 0..n-1, built from random order matrices."""
    return orders(max_size).map(_poset_of)


def _poset_of(leq) -> Poset:
    """The poset on 0..n-1 of an order matrix, its covers by definition."""
    els = tuple(range(len(leq)))
    return Poset(els, covers_by_definition(els, lambda a, b: leq[a][b]))


@given(orders())
def test_up_sets_match_the_order(leq):
    n = len(leq)
    assert _poset_of(leq).up_sets() == [sum(1 << j for j in range(n) if row[j]) for row in leq]


TWO_LOOPS = validate_graph(["u", "v"], [("p", "u", "u"), ("q", "v", "v")])
LOOP_CYCLES = (Cycle.of(TWO_LOOPS, ["p"]), Cycle.of(TWO_LOOPS, ["q"]))


def families_on(n):
    """A family on either loop, attached to any of n nodes and contained in
    any set of them."""
    node = st.integers(0, n - 1)
    return st.builds(SkeletonFamily, st.sampled_from(LOOP_CYCLES), node, st.frozensets(node))


@st.composite
def skeletons(draw):
    """Random posets of at most 6 nodes, so that the all-orders oracle stays
    cheap, carrying up to four families."""
    graded = draw(posets(max_size=6))
    families = draw(st.lists(families_on(len(graded.elements)), max_size=4))
    return LatticeSkeleton(TWO_LOOPS, graded, tuple(families))


@st.composite
def relabellings(draw, skel):
    """The same skeleton with its nodes listed in a random order and its
    families shuffled."""
    order = draw(st.permutations(range(len(skel.graded.elements))))
    new = {old: k for k, old in enumerate(order)}
    rows = skel.graded.up_sets()
    # the nodes are their numbers
    graded = Poset(tuple(order), covers_by_definition(order, lambda i, j: rows[i] >> j & 1))
    families = [
        SkeletonFamily(f.cycle, new[f.att], frozenset(new[i] for i in f.inside))
        for f in skel.families
    ]
    return LatticeSkeleton(skel.graph, graded, tuple(draw(st.permutations(families))))


@st.composite
def skeleton_pairs(draw):
    """A skeleton beside a relabelling of itself, of an unrelated skeleton,
    or of itself with one family's cycle or node redrawn or its containing
    nodes moved to as many others."""
    skel = draw(skeletons())
    kind = draw(st.sampled_from(("same", "redrawn", "unrelated")))
    other = skel
    if kind == "unrelated":
        other = draw(skeletons())
    elif kind == "redrawn" and skel.families:
        families = list(skel.families)
        k = draw(st.integers(0, len(families) - 1))
        f, fresh = families[k], draw(families_on(len(skel.graded.elements)))
        moved = draw(st.permutations(range(len(skel.graded.elements))))
        families[k] = draw(st.sampled_from((
            SkeletonFamily(fresh.cycle, f.att, f.inside),
            SkeletonFamily(f.cycle, fresh.att, f.inside),
            SkeletonFamily(f.cycle, f.att, frozenset(moved[i] for i in f.inside)),
        )))
        other = LatticeSkeleton(skel.graph, skel.graded, tuple(families))
    return skel, draw(relabellings(other))


@given(st.data())
def test_skeleton_key_ignores_node_and_family_order(data):
    skel = data.draw(skeletons())
    assert data.draw(relabellings(skel)).canonical_key() == skel.canonical_key()


@given(skeleton_pairs())
def test_skeleton_key_equality_matches_all_orders_oracle(pair):
    a, b = pair
    oracle_equal = canonical_key_by_permutations(a) == canonical_key_by_permutations(b)
    assert (a.canonical_key() == b.canonical_key()) == oracle_equal


@given(st.builds(TwoVertexShape, *[st.integers(0, 30)] * 4))
@example(TwoVertexShape(2, 1, 0, 0))
@example(TwoVertexShape(2, 2, 0, 0))
@example(TwoVertexShape(1, 0, 0, 1))
@example(TwoVertexShape(3, 3, 2, 0))
def test_type_table_class_is_the_skeleton_class(shape):
    """The reduction itself, far past the census's 12 edges: of the nine
    class representatives, the one whose skeleton is isomorphic to the
    shape's is exactly the one of the class the type table reads."""
    key = build_skeleton(shape.to_graph()).canonical_key()
    matching = {
        label for label, ids in class_members().items()
        if build_skeleton(TwoVertexShape(*_SHAPES_16[ids[0]]).to_graph()).canonical_key() == key
    }
    assert matching == {classify(shape.to_graph()).label}


@st.composite
def loop_rich_multigraphs(draw):
    """Up to four vertices, most with one loop and some with two, and up to
    four more edges, in random input order, so that K1 cycles, and
    skeleton families on them, are common."""
    n = draw(st.integers(1, 4))
    pairs = [(v, v) for v in range(n) for _ in range(draw(st.sampled_from((1, 0, 1, 2))))]
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4))
    pairs = draw(st.permutations(pairs))
    return validate_graph(
        [f"v{i}" for i in range(n)], [(f"e{k}", f"v{s}", f"v{r}") for k, (s, r) in enumerate(pairs)]
    )


@given(loop_rich_multigraphs())
def test_each_skeleton_family_splits_one_graded_cover(g):
    """A family's ``inside`` is every node above its least member ``top``,
    ``top`` covers the family's node, and the DOT drawn from those covers
    is the one the all-pairs order gives; the families are the ones the
    closure rule finds."""
    skel = build_skeleton(g)
    assert skel.families == skeleton_families_by_closure(g)
    nodes = skel.graded.elements
    for f in skel.families:
        top = min(f.inside)
        assert f.inside == {j for j, node in enumerate(nodes) if nodes[top] <= node}
        assert (f.att, top) in skel.graded.covers
    assert skel.to_dot() == skeleton_dot_by_all_pairs(skel)


@st.composite
def elements_with_padded_twin(draw):
    """A multigraph, three raw (unnormalized) elements on it with paths of
    up to three edges, and a twin of the graph with isolated vertices put
    between its vertices, which shifts every vertex id."""
    g = draw(multigraphs(max_vertices=5, max_edges=8))
    table = paths_by_range(g, 3)

    def element():
        terms = []
        for _ in range(draw(st.integers(0, 4))):
            w = draw(st.sampled_from(g.vertices))
            (_, a), (_, b) = draw(st.sampled_from(table[w])), draw(st.sampled_from(table[w]))
            terms.append((monomial(g, a, b, at=w), draw(st.sampled_from(COEFFS))))
        return Element.of(g, terms)

    slots = draw(st.lists(st.integers(0, len(g.vertices)), min_size=1, max_size=5))
    vs = []
    for i, v in enumerate(g.vertices + ("",)):
        vs += [f"pad{k}" for k, s in enumerate(slots) if s == i] + [v]
    twin = validate_graph(vs[:-1], [(e, s, r) for e, (s, r) in zip(g.edges, g.ends)])
    return g, (element(), element(), element()), twin


@given(elements_with_padded_twin())
def test_element_kernel_matches_path_oracle(case):
    g, raws, twin = case
    xs = []
    for raw in raws:
        x = normalize(raw)
        expected = normalize_by_paths(g, raw.terms)
        assert x.terms == expected
        assert format_element(x) == format_by_terms(expected)
        xs.append(x)
    x, y, z = xs
    xy = mul(x, y)
    expected = mul_by_paths(g, x.terms, y.terms)
    assert xy.terms == expected
    assert format_element(xy) == format_by_terms(expected)
    xyz = mul(xy, z)
    assert xyz.terms == mul_by_paths(g, expected, z.terms)
    tx, ty, tz = (on_graph(twin, e) for e in (x, y, z))
    assert format_element(mul(mul(tx, ty), tz)) == format_element(xyz)
    assert format_element(normalize(on_graph(twin, raws[0]))) == format_element(x)


@st.composite
def term_lists(draw):
    """A multigraph, three lists of ``(monomial, n, d)`` with paths of up to
    three edges and the coefficient n/d not in lowest terms (|n| <= 12,
    1 <= d <= 12), and a rational scalar."""
    g = draw(multigraphs(max_vertices=5, max_edges=8))
    table = paths_by_range(g, 3)
    coefficient = st.tuples(st.integers(-12, 12), st.integers(1, 12))

    def items():
        out = []
        for _ in range(draw(st.integers(0, 4))):
            w = draw(st.sampled_from(g.vertices))
            (_, a), (_, b) = draw(st.sampled_from(table[w])), draw(st.sampled_from(table[w]))
            out.append((monomial(g, a, b, at=w), *draw(coefficient)))
        return out

    return g, (items(), items(), items()), Fraction(*draw(coefficient))


def _held_in_lowest_terms(x: Element) -> None:
    """One positive denominator, nonzero int numerators, no common factor of
    all of them, and strictly increasing terms; and copies equal x."""
    nums = [n for _, n in x.codes]
    assert type(x.den) is int and x.den >= 1
    assert all(type(n) is int and n != 0 for n in nums)
    assert gcd(x.den, *nums) == 1
    keys = [term_order(m) for m, _ in x.terms]
    assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))
    for twin in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert twin == x and twin.den == x.den and hash(twin) == hash(x)


@given(term_lists())
def test_every_element_is_held_in_lowest_terms(case):
    """Every element the library returns is in lowest terms over one
    denominator, and its Fraction terms are the path oracle's."""
    g, lists, c = case
    xs, results = [], []
    for items in lists:
        x = Element.of(g, [(m, f"{n}/{d}") for m, n, d in items])
        assert x == Element.of(g, [(m, Fraction(n, d)) for m, n, d in items])
        terms = collect_by_paths([(m, Fraction(n, d)) for m, n, d in items])
        text = " ".join(f"{'-' if n < 0 else '+'} {abs(n)}/{d}*{m}" for m, n, d in items)
        parsed = parse_element(g, text) if items else Element.zero(g)
        results += [(x, terms), (parsed, normalize_by_paths(g, terms))]
        xs.append(x)
    x, y, z = xs
    xn, yn = normalize(x), normalize(y)
    results += [
        (xn, normalize_by_paths(g, x.terms)),
        (mul(xn, yn), mul_by_paths(g, xn.terms, yn.terms)),
        (mul(x, z), mul_by_paths(g, x.terms, z.terms)),
        (add(x, z), collect_by_paths(x.terms + z.terms)),
        (sub(x, z), collect_by_paths(x.terms + tuple((m, -k) for m, k in z.terms))),
        (scale(c, x), collect_by_paths([(m, c * k) for m, k in x.terms])),
        (scale(-1, x), collect_by_paths([(m, -k) for m, k in x.terms])),
    ]
    components = graded_components(x).components
    assert [d for d, _ in components] == sorted({m.degree for m, _ in x.terms})
    results += [(e, tuple(t for t in x.terms if t[0].degree == d)) for d, e in components]
    for e, terms in results:
        _held_in_lowest_terms(e)
        assert e.terms == terms


@st.composite
def acyclic_multigraphs(draw, max_vertices=5, max_edges=7):
    """Edges run forward in a random topological order; parallel edges allowed."""
    n = draw(st.integers(1, max_vertices))
    rank = draw(st.permutations(range(n)))
    vnames = [f"v{i}" for i in range(n)]
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1]),
            max_size=max_edges,
        )
    )
    forward = [(s, r) if rank[s] < rank[r] else (r, s) for s, r in pairs]
    enames = [f"e{i}" for i in draw(st.permutations(range(len(forward))))]
    return validate_graph(vnames, [(e, vnames[s], vnames[r]) for e, (s, r) in zip(enames, forward)])


@given(acyclic_multigraphs())
def test_acyclic_normal_forms_span_sum_of_matrix_algebras(g):
    """L(E) of a finite acyclic graph is the direct sum over sinks v of
    n(v) x n(v) matrices, n(v) the number of paths ending at v (Abrams,
    Aranda Pino, Siles Molina, J. Pure Appl. Algebra 209 (2007)).  The
    normal forms of all monomials a.b*' with r(a) = r(b) use exactly the
    normal-form basis, so they use that many distinct monomials."""
    paths = paths_by_range(g, len(g.vertices))
    seen = set()
    for w, ending in paths.items():
        for _, a in ending:
            for _, b in ending:
                seen.update(m for m, _ in normalize(monomial_element(g, a, b, at=w)).terms)
    assert len(seen) == sum(len(paths[v]) ** 2 for v in g.vertices if not g.out_edges(v))


@st.composite
def matrix_units(draw):
    """An acyclic multigraph and two pairs (p, q), (r, s) of paths, each
    pair ending at one sink, as (sink, p, q) with paths as (base, edges)."""
    g = draw(acyclic_multigraphs())
    paths = paths_by_range(g, len(g.vertices))
    sinks = [v for v in g.vertices if not g.out_edges(v)]

    def unit():
        v = draw(st.sampled_from(sinks))
        return v, draw(st.sampled_from(paths[v])), draw(st.sampled_from(paths[v]))

    return g, unit(), unit()


@given(matrix_units())
def test_acyclic_products_multiply_as_matrix_units(case):
    """In L(E) = sum over sinks v of M_{n(v)}(K) the monomial p.q*' is the
    matrix unit e_{p,q} (Abrams, Aranda Pino, Siles Molina, J. Pure Appl.
    Algebra 209 (2007)), so e_{p,q} e_{r,s} is e_{p,s} when q = r and 0
    otherwise; units at different sinks always multiply to 0."""
    g, (v, p, q), (w, r, s) = case
    product = mul(monomial_element(g, p[1], q[1], at=v), monomial_element(g, r[1], s[1], at=w))
    if q != r:
        assert product == Element.zero(g)
    else:
        unit = normalize(monomial_element(g, p[1], s[1], at=v))
        assert product == unit and not unit.is_zero


@given(multigraphs(max_vertices=6, max_edges=10))
def test_walk_counts_give_the_first_two_closed_paths_of_the_search(g):
    """The extraction's two closed simple paths are the first two that the
    breadth-first search yields.  Vertices with fewer than two closed simple
    paths (K0 and K1, whose search may never end) raise instead."""
    bound = len(g.edges) * (len(g.vertices) + 1)
    for v in g.vertices:
        if classify_by_cycle_count(g, v).kind == "K2":
            want = tuple(p.code for p in islice(iter_closed_simple_paths(g, v, bound), 2))
            assert _two_closed_simple_paths(g, v) == want
        else:
            with pytest.raises(DomainError, match="two closed simple paths within the search bound"):
                _two_closed_simple_paths(g, v)


@st.composite
def elements_on_multigraphs(draw):
    g = draw(multigraphs(max_vertices=5, max_edges=8))
    table = paths_by_range(g, 3)
    terms = []
    for _ in range(draw(st.integers(0, 5))):
        w = draw(st.sampled_from(g.vertices))
        (_, a), (_, b) = draw(st.sampled_from(table[w])), draw(st.sampled_from(table[w]))
        terms.append((monomial(g, a, b, at=w), draw(st.sampled_from(COEFFS))))
    return g, normalize(Element.of(g, terms))


@given(elements_on_multigraphs())
def test_parse_reads_back_the_formatted_normal_form(case):
    g, x = case
    assert parse_element(g, format_element(x)) == x


@st.composite
def words(draw):
    """A graph and a composable word of vertices, edges and ghost edges with
    a coefficient; ghost edges need not match the real edges they meet."""
    g = draw(multigraphs(max_vertices=4, max_edges=8))
    here = draw(st.sampled_from(g.vertices))
    factors = []
    for _ in range(draw(st.integers(1, 6))):
        steps = [(here, here, monomial(g, at=here))]
        steps += [(e, g.rng(e), monomial(g, (e,))) for e in g.out_edges(here)]
        steps += [
            (e + "*'", s, monomial(g, (), (e,)))
            for e, (s, r) in zip(g.edges, g.ends)
            if r == here
        ]
        text, here, m = draw(st.sampled_from(steps))
        factors.append((text, m))
    return g, draw(st.sampled_from(COEFFS)), factors


@given(words())
def test_parsed_word_is_the_product_of_its_factors(case):
    g, c, factors = case
    text = ".".join(t for t, _ in factors)
    want = normalize_by_paths(g, [(factors[0][1], c)])
    for _, m in factors[1:]:
        want = mul_by_paths(g, want, [(m, Fraction(1))])
    sign = "-" if c < 0 else ""
    assert parse_element(g, f"{sign}{abs(c)}*{text}").terms == want


@given(multigraphs())
def test_graded_ideals_exactly_under_condition_k(g):
    """Every ideal is graded iff the graph satisfies Condition (K), the
    paper's characterization by closed paths at each vertex: nongraded_witness
    finds a generator exactly when a K1 vertex exists, and its ideal keeps a
    cycle polynomial, so it is not graded."""
    holds, _ = condition_k(g)
    found = nongraded_witness(g)
    assert holds == (found is None)
    if found is not None:
        v, cycle, gen = found
        assert gen == add(vertex_element(g, v), path_element(g, cycle.edges))
        cp = CyclePolynomial.of(g, cycle.edges, v, [1, 1])
        assert not is_graded(lambda_reduce(g, LambdaGeneratorSet.of(g, polys=[cp])))


# Monic and non-monic cycle polynomials with nonzero constant term, chosen so
# that divisibility between them is common: x - 1, x + 1, x^2 - 1, (x - 1)^2,
# x^2 + 1, 2x + 1.
POLYS = [(-1, 1), (1, 1), (-1, 0, 1), (1, -2, 1), (1, 0, 1), (1, 2)]


@st.composite
def reduced_ideal_pairs(draw):
    """Two lambda-reduced ideals over a multigraph with at most 6 vertices and 9
    edges, each from vertex generators and polynomials on its K1 cycles."""
    g = draw(multigraphs(max_vertices=6, max_edges=3))  # planted ring <= 6 edges
    cycles = k1_cycles(g)

    def reduced():
        polys = [
            CyclePolynomial.of(g, c.edges, draw(st.sampled_from(c.sources)), coeffs)
            for c in cycles
            for coeffs in draw(st.lists(st.sampled_from(POLYS), min_size=1, max_size=2))
        ]
        vertices = draw(st.sets(st.sampled_from(g.vertices), max_size=1))
        return lambda_reduce(g, LambdaGeneratorSet.of(g, polys, vertices))

    return g, reduced(), reduced()


@given(reduced_ideal_pairs())
def test_containment_is_absorption_under_lambda_reduction(case):
    """I(a) lies in I(b) exactly when adding a's generators to b's leaves
    b's canonical generating set unchanged (Rangaswamy, J. Algebra 375
    (2013), on the ideals of Leavitt path algebras of arbitrary graphs)."""
    g, a, b = case
    ga, gb = generator_set_of(a), generator_set_of(b)
    joint = LambdaGeneratorSet(g, ga.polys + gb.polys, ga.mask | gb.mask)
    assert contains(g, a, b) == (lambda_reduce(g, joint) == b)


# --- ingest against the retired per-item checks --------------------------------

INGEST_FAULTS = [
    None, "bad identifier", "duplicate vertex", "duplicate edge", "name clash",
    "unknown source", "unknown range", "edge first", "vertices twice", "no vertices",
    "junk line",
]
BAD_NAMES = ["9v", "v-w", "v\u00e9", "v.w"]


@st.composite
def graph_listings(draw, faults=INGEST_FAULTS):
    """Vertex names and (name, source, range) triples of a small graph, with
    at most one fault injected; the fault's kind comes back too, or None
    when the graph has no edge to inject it into."""
    n = draw(st.integers(1, 5))
    vs = [f"v{i}" for i in range(n)]
    es = [
        (f"e{k}", draw(st.sampled_from(vs)), draw(st.sampled_from(vs)))
        for k in range(draw(st.integers(0, 6)))
    ]
    fault = draw(st.sampled_from(faults))
    if fault in ("duplicate edge", "unknown source", "unknown range") and not es:
        fault = None
    if fault == "bad identifier":
        i = draw(st.integers(0, n + len(es) - 1))
        bad = draw(st.sampled_from(BAD_NAMES))
        if i < n:
            vs[i] = bad
        else:
            es[i - n] = (bad,) + es[i - n][1:]
    elif fault == "duplicate vertex":
        vs.insert(draw(st.integers(0, n)), draw(st.sampled_from(vs)))
    elif fault == "duplicate edge":
        es.insert(draw(st.integers(0, len(es))), (draw(st.sampled_from(es))[0], vs[0], vs[0]))
    elif fault == "name clash":
        es.insert(draw(st.integers(0, len(es))), (draw(st.sampled_from(vs)), vs[0], vs[0]))
    elif fault in ("unknown source", "unknown range"):
        k = draw(st.integers(0, len(es) - 1))
        e, s, r = es[k]
        es[k] = (e, "w9", r) if fault == "unknown source" else (e, s, "w9")
    return vs, es, fault


@st.composite
def graph_texts(draw):
    """Line-format texts of :func:`graph_listings`, with every whitespace and
    comment form a line may use, and the line faults too."""
    vs, es, fault = draw(graph_listings())
    gap = st.sampled_from([" ", "  ", "\t", "\u00a0", " \t "])
    pad = st.sampled_from(["", " ", "\t", "\u00a0"])
    comment = st.sampled_from(["", " # note", "# x -> y", "#"])

    def line(body):
        return draw(pad) + body + draw(pad) + draw(comment)

    lines = [line("vertices:" + "".join(draw(gap) + v for v in vs))]
    for e, s, r in es:
        if draw(st.booleans()):
            lines.append(line(f"edge {e}:{s}->{r}"))
        else:
            lines.append(line(f"edge{draw(gap)}{e}{draw(gap)}:{draw(gap)}{s}{draw(gap)}->{draw(gap)}{r}"))
    if fault == "edge first" and len(lines) > 1:
        lines.insert(draw(st.integers(2, len(lines))), lines.pop(0))
    elif fault == "vertices twice":
        lines.insert(draw(st.integers(1, len(lines))), lines[0])
    elif fault == "no vertices":
        lines.pop(0)
    elif fault == "junk line":
        junk = draw(st.sampled_from(["edge e u -> v", "vertex: u", "edge e: u - > v", "u -> v"]))
        lines.insert(draw(st.integers(0, len(lines))), junk)
    for _ in range(draw(st.integers(0, 3))):  # blank and comment-only lines
        lines.insert(draw(st.integers(0, len(lines))), draw(pad) + draw(comment))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\x0b"])) for _ in lines]
    return "".join(x + end for x, end in zip(lines, ends))


def _same_ingest(got, want):
    assert got == want
    if got[0] == "ok":
        assert got[1].ends == want[1].ends


@settings(max_examples=120)
@given(graph_texts())
def test_parse_graph_matches_the_line_by_line_parser(text):
    _same_ingest(outcome(parse_graph, text), outcome(parse_graph_line_by_line, text))


@settings(max_examples=100)
@given(graph_listings(INGEST_FAULTS[:7] + ["name with a space"]), st.booleans())
def test_validate_graph_matches_the_item_by_item_checks(case, as_lists):
    vs, es, fault = case
    if fault == "name with a space":
        vs[-1] += " " + vs[0]
    if as_lists:
        es = [list(t) for t in es]
    got = outcome(validate_graph, vs, es)
    _same_ingest(got, outcome(validate_graph_item_by_item, vs, es))
    assert (got[0] == "ok") == (fault is None)


COEFF_TEXTS = st.text(st.sampled_from("0123456789+-./ _eEx\u0663\u00a0\t"), max_size=6)


@settings(max_examples=200)
@given(COEFF_TEXTS)
@example("1_0")
@example("\u0663")
def test_library_and_wire_read_a_coefficient_alike(text):
    """Element.of, QPoly.of and the JSON wire format all accept a coefficient
    text with one value, or all refuse it: DomainError from the library,
    ParseError from the wire."""
    m = monomial(E38, ["e"])
    element = outcome(lambda: coeff(Element.of(E38, [(m, text)]), m))
    poly = outcome(lambda: (QPoly.of([text]).coeffs or (0,))[0])  # zero has no coefficients
    data = {"polys": [{"cycle": ["e"], "coeffs": ["1", text, "1"]}]}
    wire = outcome(lambda: generator_set_from_json(E38, data).polys[0].poly.coeffs[1])
    assert element == poly
    if element[0] == "ok":
        assert wire == element
    else:
        assert element[1] is DomainError and wire[:2] == ("error", ParseError)


@settings(max_examples=60)
@given(st.lists(COEFF_TEXTS, min_size=1, max_size=3), st.sampled_from([None, "v", "w"]))
def test_generator_parsing_matches_fraction_parsing(coeffs, base):
    """Integer-first coefficient parsing against Fraction on every text: the
    same generators, or the same error class and text."""
    g = E38  # loops e at v and f at w
    entry = {"cycle": ["e"], "coeffs": coeffs + ["1"]}
    if base is not None:
        entry["base"] = base
    data = {"vertices": [], "polys": [entry]}
    assert outcome(generator_set_from_json, g, data) == outcome(generator_set_by_fractions, g, data)
