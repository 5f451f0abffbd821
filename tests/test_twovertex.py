"""Counting, enumeration, canonical types, and the nine lattice classes."""

import re
import time
from collections import Counter

import networkx as nx
import pytest
from helpers import (
    G1, G4, G5, G6, G7, G8, L2, class_members, covers_by_definition, shape_total,
    skeleton_dot_by_all_pairs, skeletons_isomorphic,
)

from leavitt import (
    CyclePolynomial,
    DomainError,
    LambdaGeneratorSet,
    LatticeSkeleton,
    TwoVertexShape,
    all_hereditary_saturated_sets,
    build_skeleton,
    canonicalize16,
    classify,
    contains,
    count_closed_form,
    enumerate_up_to_iso,
    k1_cycles,
    graded_lattice,
    lambda_reduce,
    validate_graph,
)
from leavitt.twovertex import _SHAPES_16, canonical_form_of_shape


# --- counting ------------------------------------------------------------------


def test_count_small_values():
    assert count_closed_form(0) == 1
    assert count_closed_form(1) == 2
    assert count_closed_form(2) == 6
    assert count_closed_form(3) == 10


def test_count_matches_enumeration():
    for k in range(9):
        assert count_closed_form(k) == len(enumerate_up_to_iso(k))


def test_count_rejects_negative():
    with pytest.raises(DomainError):
        count_closed_form(-1)


@pytest.mark.parametrize("k", [2.5, 2.0, True, "3", None])
def test_a_count_that_is_no_int_is_a_domain_error(k):
    message = f"^edge count must be an int, not {re.escape(repr(k))}$"
    with pytest.raises(DomainError, match=message):
        count_closed_form(k)
    with pytest.raises(DomainError, match=message):
        enumerate_up_to_iso(k)


def test_enumeration_exact_lists():
    assert [s.astuple() for s in enumerate_up_to_iso(0)] == [(0, 0, 0, 0)]
    assert [s.astuple() for s in enumerate_up_to_iso(1)] == [(1, 0, 0, 0), (0, 0, 1, 0)]
    assert [s.astuple() for s in enumerate_up_to_iso(2)] == [
        (2, 0, 0, 0),
        (1, 1, 0, 0),
        (1, 0, 1, 0),
        (1, 0, 0, 1),
        (0, 0, 2, 0),
        (0, 0, 1, 1),
    ]


def test_enumeration_is_swap_canonical_and_duplicate_free():
    for k in range(7):
        shapes = enumerate_up_to_iso(k)
        assert len(set(shapes)) == len(shapes)
        for s in shapes:
            assert s.astuple() >= s.swapped().astuple() and s.canon() is s
            assert s.swapped().canon() == s
            assert shape_total(s) == k


def test_enumeration_guard():
    with pytest.raises(DomainError):
        enumerate_up_to_iso(13)


# --- canonical sixteen -----------------------------------------------------------


def test_canonicalize_loop_cap():
    g = validate_graph(
        ["u", "v"],
        [("p1", "u", "u"), ("p2", "u", "u"), ("p3", "u", "u"), ("a", "u", "v")],
    )
    cf = canonicalize16(g)
    assert cf.id == 12
    assert cf.shape.astuple() == (2, 0, 1, 0)


def test_canonicalize_elementary_collapse():
    g = validate_graph(
        ["u", "v"],
        [("a", "u", "v"), ("b", "u", "v"), ("c", "u", "v"), ("d", "v", "u")],
    )
    assert canonicalize16(g).id == 4


def test_canonicalize_bare_pair():
    assert canonicalize16(G1).id == 1


def test_canonicalize_named_fixtures():
    assert canonicalize16(L2).id == 2
    assert canonicalize16(G4).id == 4
    assert canonicalize16(G8).id == 8
    assert canonicalize16(G5).id == 5
    assert canonicalize16(G6).id == 6
    assert canonicalize16(G7).id == 7


def test_canonicalize_idempotent_and_swap_invariant():
    for i, shape in _SHAPES_16.items():
        s = TwoVertexShape(*shape)
        cf = canonical_form_of_shape(s)
        assert cf.id == i
        assert canonical_form_of_shape(cf.shape).id == i
        assert canonical_form_of_shape(s.swapped()).id == i


def test_every_small_shape_maps_into_the_sixteen():
    for k in range(5):
        for s in enumerate_up_to_iso(k):
            cf = canonical_form_of_shape(s)
            assert 1 <= cf.id <= 16
            assert cf.shape.astuple() == _SHAPES_16[cf.id]


def test_loop_only_leftovers_share_their_lattice_targets():
    # (2,1,0,0) pairs with type [5] and (2,2,0,0) with type [1]
    assert canonical_form_of_shape(TwoVertexShape(2, 1, 0, 0)).id == 5
    assert canonical_form_of_shape(TwoVertexShape(2, 2, 0, 0)).id == 1
    a = build_skeleton(TwoVertexShape(2, 1, 0, 0).to_graph())
    b = build_skeleton(TwoVertexShape(*_SHAPES_16[5]).to_graph())
    assert skeletons_isomorphic(a, b)
    c = build_skeleton(TwoVertexShape(2, 2, 0, 0).to_graph())
    d = build_skeleton(TwoVertexShape(*_SHAPES_16[1]).to_graph())
    assert skeletons_isomorphic(c, d)


def test_canonicalize_rejects_wrong_vertex_count():
    with pytest.raises(DomainError):
        canonicalize16(validate_graph(["v"], [("e", "v", "v")]))


@pytest.mark.parametrize("counts", [(0, 0, -1, 0), (-1, 0, 0, 0), (0, 2, 1, -3)])
def test_negative_multiplicities_are_rejected(counts):
    shape = TwoVertexShape(*counts)
    with pytest.raises(DomainError):
        canonical_form_of_shape(shape)
    with pytest.raises(DomainError):
        shape.to_graph()


@pytest.mark.parametrize("counts", [(1.5, 0, 0, 0), (0, 0, True, 0), (0, "1", 0, 0)])
def test_multiplicities_that_are_no_ints_are_rejected(counts):
    shape = TwoVertexShape(*counts)
    with pytest.raises(DomainError, match="must be an int, not"):
        canonical_form_of_shape(shape)
    with pytest.raises(DomainError, match="must be an int, not"):
        shape.to_graph()


# --- skeletons and the nine classes ------------------------------------------------


def _skel(i):
    return build_skeleton(TwoVertexShape(*_SHAPES_16[i]).to_graph())


def test_skeleton_is_an_equivalence_with_nine_classes():
    keys = {i: _skel(i).canonical_key() for i in _SHAPES_16}
    assert len(set(keys.values())) == 9


def test_same_class_listings_are_isomorphic():
    for group in [(2, 4, 8, 13), (6, 15), (12, 16), (1, 11), (3, 7)]:
        base = _skel(group[0])
        for other in group[1:]:
            assert skeletons_isomorphic(base, _skel(other)), group


def test_distinct_singletons():
    labels = {}
    for i in (3, 10, 12, 14, 5, 9):
        labels[i] = _skel(i).canonical_key()
    assert len(set(labels.values())) == 6


def test_class_members_table():
    members = class_members()
    assert len(members) == 9
    assert members["I"] == (2, 4, 8, 13)
    assert members["II"] == (3, 7)
    assert members["III"] == (6, 15)
    assert members["IV"] == (10,)
    assert members["V"] == (12, 16)
    assert members["VI"] == (14,)
    assert members["VII"] == (1, 11)
    assert members["VIII"] == (5,)
    assert members["IX"] == (9,)


def test_classify_reference_examples():
    assert classify(L2).label == "I"
    assert classify(G1).label == "VII"
    g10 = TwoVertexShape(1, 1, 1, 0).to_graph()
    assert classify(g10).label == "IV"


def test_classify_type7_reports_the_double_listing():
    res = classify(G7)
    assert res.label == "II"
    assert res.canonical.id == 7
    assert res.note is not None
    assert "IX" in res.note and "[9]" in res.note


def test_classify_other_types_carry_no_note():
    assert classify(G4).note is None


def test_elementary_types_have_trivial_lattice_and_no_k1_cycles():
    for i in (4, 8):
        g = TwoVertexShape(*_SHAPES_16[i]).to_graph()
        assert len(graded_lattice(g).elements) == 2
        assert k1_cycles(g) == ()


def test_classify_requires_two_vertices():
    with pytest.raises(DomainError):
        classify(validate_graph(["v"], [("e", "v", "v")]))


def test_skeleton_structure_type5():
    skel = _skel(5)
    assert len(skel.graded.elements) == 4
    assert len(skel.families) == 2
    # families of the single loop attach to the empty set and to the bare vertex
    atts = sorted(skel.graded.elements[f.att].sorted_members() for f in skel.families)
    assert atts == [(), ("v",)]


def test_skeleton_structure_type9():
    skel = _skel(9)
    assert len(skel.graded.elements) == 4
    assert len(skel.families) == 4
    cycles = {f.cycle.edges for f in skel.families}
    assert cycles == {("p1",), ("q1",)}


def test_three_loop_skeleton_matches_a_relisting():
    """Eight graded nodes, beyond two vertices: the key must still see
    through another listing order of the vertices and edges."""
    g = validate_graph(["a", "b", "c"], [("x", "a", "a"), ("y", "b", "b"), ("z", "c", "c")])
    h = validate_graph(["c", "a", "b"], [("y", "b", "b"), ("z", "c", "c"), ("x", "a", "a")])
    skel = build_skeleton(g)
    assert len(skel.graded.elements) == 8
    assert skeletons_isomorphic(skel, build_skeleton(h))
    joined = validate_graph(
        ["a", "b", "c"], [("w", "a", "b"), ("x", "a", "a"), ("y", "b", "b"), ("z", "c", "c")]
    )
    assert not skeletons_isomorphic(skel, build_skeleton(joined))


def test_canonical_key_refuses_an_exponential_tie_search():
    """Four isolated sinks give a 16-node boolean lattice whose middle ranks
    the invariant cannot split: 4!*6!*4! orders, counted before any is tried."""
    skel = build_skeleton(validate_graph(["a", "b", "c", "d"], []))
    start = time.perf_counter()
    with pytest.raises(DomainError, match="414720 node orders to compare, more than 40320"):
        skel.canonical_key()
    assert time.perf_counter() - start < 1


def test_skeleton_dot_output():
    dot = _skel(5).to_dot()
    assert dot.count("style=dashed") == 1  # <P> partially contains <P, v>
    assert 'label="<P(p1)>"' in dot
    assert 'label="<P(p1), v>"' in dot
    dot9 = _skel(9).to_dot()
    assert dot9.count("style=dashed") == 2


# Types 3 and 6 carry one family each.  In type 3 it splits the only
# graded cover, 0 -> L; in type 6 it splits {v} -> L, and 0 -> {v} stays.
SKELETON_DOT = {
    3: """digraph skeleton {
  rankdir=BT;
  n0 [shape=box, label="0"];
  n1 [shape=box, label="L"];
  f0 [shape=ellipse, label="<P(a1.b1)>"];
  n0 -> f0;
  f0 -> n1;
}
""",
    6: """digraph skeleton {
  rankdir=BT;
  n0 [shape=box, label="0"];
  n1 [shape=box, label="{v}"];
  n2 [shape=box, label="L"];
  f0 [shape=ellipse, label="<P(p1), v>"];
  n0 -> n1;
  n1 -> f0;
  f0 -> n2;
}
""",
    5: """digraph skeleton {
  rankdir=BT;
  n0 [shape=box, label="0"];
  n1 [shape=box, label="{u}"];
  n2 [shape=box, label="{v}"];
  n3 [shape=box, label="L"];
  f0 [shape=ellipse, label="<P(p1)>"];
  f1 [shape=ellipse, label="<P(p1), v>"];
  n0 -> n2;
  n0 -> f0;
  n1 -> n3;
  n2 -> f1;
  f0 -> n1;
  f1 -> n3;
  f0 -> f1 [style=dashed];
}
""",
    9: """digraph skeleton {
  rankdir=BT;
  n0 [shape=box, label="0"];
  n1 [shape=box, label="{u}"];
  n2 [shape=box, label="{v}"];
  n3 [shape=box, label="L"];
  f0 [shape=ellipse, label="<P(p1)>"];
  f1 [shape=ellipse, label="<P(p1), v>"];
  f2 [shape=ellipse, label="<P(q1)>"];
  f3 [shape=ellipse, label="<P(q1), u>"];
  n0 -> f0;
  n0 -> f2;
  n1 -> f3;
  n2 -> f1;
  f0 -> n1;
  f1 -> n3;
  f2 -> n2;
  f3 -> n3;
  f0 -> f1 [style=dashed];
  f2 -> f3 [style=dashed];
}
""",
    16: """digraph skeleton {
  rankdir=BT;
  n0 [shape=box, label="0"];
  n1 [shape=box, label="{v}"];
  n2 [shape=box, label="L"];
  n0 -> n1;
  n1 -> n2;
}
""",
}


@pytest.mark.parametrize("cid", sorted(SKELETON_DOT))
def test_skeleton_dot_exact(cid):
    """Solid arcs are the covers of the order on nodes and families."""
    assert _skel(cid).to_dot() == SKELETON_DOT[cid]


def test_skeleton_dot_matches_the_all_pairs_oracle_on_the_census():
    """Every shape with at most 12 edges, and its swap, draws as the covers
    of the order on nodes and families, asked of every pair."""
    for k in range(13):
        for shape in enumerate_up_to_iso(k):
            for s in (shape, shape.swapped()):
                skel = build_skeleton(s.to_graph())
                assert skel.to_dot() == skeleton_dot_by_all_pairs(skel), s


def test_census_class_counts(monkeypatch):
    """Golden census: the 924 shapes with at most 12 edges, by class.  The
    type table gives each label, so classify compares no skeletons."""

    def refuse(*args):
        raise AssertionError("classify compared skeletons")

    monkeypatch.setattr(LatticeSkeleton, "canonical_key", refuse)
    counts = Counter(
        classify(shape.to_graph()).label
        for k in range(13)
        for shape in enumerate_up_to_iso(k)
    )
    assert counts == {
        "I": 577, "II": 12, "III": 56, "IV": 10, "V": 175,
        "VI": 45, "VII": 37, "VIII": 11, "IX": 1,
    }


# --- the nine classes from the ideal layer alone -------------------------------
#
# An oracle for the skeletons that takes nothing from build_skeleton: the
# ideals are lambda-reduced generator sets, compared by the ideal layer's
# containment rule (Rangaswamy, J. Algebra 375 (2013)).

_POOL = ((-1, 1), (1, 1), (-1, 0, 1))  # x - 1, x + 1, x^2 - 1
_DIVIDES = {(0, 0), (1, 1), (2, 2), (0, 2), (1, 2)}  # (i, j): pool[i] divides pool[j]


def _hasse(elements, leq) -> nx.DiGraph:
    h = nx.DiGraph()
    h.add_nodes_from(range(len(elements)))
    h.add_edges_from(covers_by_definition(elements, leq))
    return h


def _ideal_lattice(g) -> nx.DiGraph:
    """Hasse diagram, under ``contains``, of the graded ideals and of the
    ideals one pool polynomial on a K1 cycle generates together with a
    hereditary saturated set that misses the cycle's sources."""
    sets = all_hereditary_saturated_sets(g)
    gens = [LambdaGeneratorSet.of(g, (), h.sorted_members()) for h in sets]
    for c in k1_cycles(g):
        for h in sets:
            if not any(s in h for s in c.sources):
                for coeffs in _POOL:
                    cp = CyclePolynomial.of(g, c.edges, c.sources[0], coeffs)
                    gens.append(LambdaGeneratorSet.of(g, [cp], h.sorted_members()))
    ideals = list(dict.fromkeys(lambda_reduce(g, x) for x in gens))
    return _hasse(ideals, lambda a, b: contains(g, a, b))


def _skeleton_lattice(skel) -> nx.DiGraph:
    """The same diagram read off a skeleton: its graded nodes, and each
    family once per pool polynomial.  A family member lies below the nodes
    in its ``inside``, below a member of another cycle's family when that
    family's node is inside it, and below a member of a family on its own
    cycle when its node lies below that family's and its polynomial is a
    multiple of that member's."""
    rows, fams = skel.graded.up_sets(), skel.families
    items = [(i, None) for i in range(len(rows))]
    items += [(f, p) for f in fams for p in range(len(_POOL))]

    def leq(x, y) -> bool:
        (fx, px), (fy, py) = x, y
        if px is None:
            return bool(rows[fx] >> (fy if py is None else fy.att) & 1)
        if py is None:
            return fy in fx.inside
        if fx.cycle != fy.cycle:
            return fy.att in fx.inside
        return bool(rows[fx.att] >> fy.att & 1) and (py, px) in _DIVIDES

    return _hasse(items, leq)


def test_nine_classes_from_the_ideal_layer():
    """The sixteen types fall into the nine classes of the type table;
    every census shape's ideal lattice is isomorphic to the one of its
    label's representative and to no other, and to the lattice its
    skeleton describes."""
    groups: list[tuple[nx.DiGraph, list[int]]] = []
    for i, shape in _SHAPES_16.items():
        h = _ideal_lattice(TwoVertexShape(*shape).to_graph())
        for rep, ids in groups:
            if nx.is_isomorphic(h, rep):
                ids.append(i)
                break
        else:
            groups.append((h, [i]))
    members = class_members()
    assert sorted(tuple(ids) for _, ids in groups) == sorted(members.values())
    reps = {label: rep for rep, ids in groups for label in members if members[label] == tuple(ids)}
    for k in range(13):
        for shape in enumerate_up_to_iso(k):
            g = shape.to_graph()
            h, result = _ideal_lattice(g), classify(g)
            labels = [lab for lab, rep in reps.items() if nx.is_isomorphic(h, rep)]
            assert labels == [result.label], shape
            assert nx.is_isomorphic(h, _skeleton_lattice(result.skeleton)), shape
