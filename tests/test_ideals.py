"""Graded lattice, vertex extraction, non-graded witnesses, reductions,
containment."""

import json
import random
import re
import sys
import time
from fractions import Fraction
from itertools import product

import pytest
from helpers import (
    ALL_FIXTURES,
    C2,
    CONDITION_K,
    E38,
    G1,
    G4,
    G5,
    G6,
    G7,
    G8,
    L2,
    NOT_CONDITION_K,
    R1,
    R2,
    coprime_pair,
    generator_set_by_fractions,
    generator_set_of,
    generator_set_to_json,
    outcome,
    paths_by_range,
    random_element,
)

from leavitt import (
    Cycle,
    CyclePolynomial,
    DomainError,
    Element,
    ExtractionWitness,
    GraphError,
    LambdaGeneratorSet,
    LambdaReduction,
    ParseError,
    QPoly,
    add,
    classify_vertex,
    contains,
    extract_vertex,
    generator_set_from_json,
    graded_lattice,
    hereditary_saturated_closure,
    exit_range,
    is_graded,
    k1_cycles,
    lambda_reduce,
    lattice_dot,
    nongraded_witness,
    normalize,
    parse_element,
    parse_graph,
    path_element,
    reduction_to_json,
    scale,
    validate_graph,
    vertex_element,
    vertex_membership,
)
from leavitt.ideals import DEGREE_BUDGET, SIZE_BUDGET, _reduce

# Each entry point below would read a string as the listing of its characters:
# "e" as the cycle e, "v" as the vertex v, "11" as the coefficients of 1 + x.
STRING_LISTINGS = {
    "CyclePolynomial.of(edges)": (GraphError, lambda: CyclePolynomial.of(R1, "e", "v", [1, 1])),
    "CyclePolynomial.of(coeffs)": (DomainError, lambda: CyclePolynomial.of(R1, ["e"], "v", "11")),
    "LambdaGeneratorSet.of": (GraphError, lambda: LambdaGeneratorSet.of(R1, [], "v")),
    "LambdaReduction.of": (GraphError, lambda: LambdaReduction.of(R1, "v")),
}


@pytest.mark.parametrize("entry", sorted(STRING_LISTINGS))
def test_a_string_is_no_listing_of_names_or_coefficients(entry):
    error, call = STRING_LISTINGS[entry]
    with pytest.raises(error, match="must be a list.* not a string"):
        call()


# Refusals that no other test reaches, each with its full message: arguments
# built over another graph handed to R1, and malformed ideal JSON.
REFUSALS = {
    "extract_vertex": (
        DomainError, "element is not over this graph",
        lambda: extract_vertex(R1, parse_element(R2, "v")),
    ),
    "LambdaGeneratorSet.of": (
        DomainError, "cycle polynomial over a different graph",
        lambda: LambdaGeneratorSet.of(R1, [CyclePolynomial.of(C2, ["g", "h"], "u", [1, 1])]),
    ),
    "LambdaReduction.of": (
        DomainError, "cycle over a different graph",
        lambda: LambdaReduction.of(R1, [], [(Cycle.of(R2, ["e"]), QPoly.of([1, 1]))]),
    ),
    "lambda_reduce": (
        DomainError, "generator set over a different graph",
        lambda: lambda_reduce(R1, LambdaGeneratorSet.of(R2)),
    ),
    "contains(a)": (
        DomainError, "reductions over a different graph",
        lambda: contains(R1, LambdaReduction.of(R2, []), LambdaReduction.of(R1, [])),
    ),
    "contains(b)": (
        DomainError, "reductions over a different graph",
        lambda: contains(R1, LambdaReduction.of(R1, []), LambdaReduction.of(R2, [])),
    ),
    "json not an object": (
        ParseError, "ideal JSON must be an object",
        lambda: generator_set_from_json(R1, '["v"]'),
    ),
    "json unknown keys": (
        ParseError, "unknown ideal JSON keys: ['poly', 'vertex']",
        lambda: generator_set_from_json(R1, '{"vertex": [], "poly": [], "polys": []}'),
    ),
    "json poly not an object": (
        ParseError, "each poly needs 'cycle' and 'coeffs'",
        lambda: generator_set_from_json(R1, '{"polys": [["e"]]}'),
    ),
    "json poly without coeffs": (
        ParseError, "each poly needs 'cycle' and 'coeffs'",
        lambda: generator_set_from_json(R1, '{"polys": [{"cycle": ["e"]}]}'),
    ),
    "json base a number": (
        ParseError, "'base' must be a name",
        lambda: generator_set_from_json(
            R1, '{"polys": [{"cycle": ["e"], "base": 5, "coeffs": []}]}'),
    ),
    "json base a list": (
        ParseError, "'base' must be a name",
        lambda: generator_set_from_json(
            R1, '{"polys": [{"cycle": ["e"], "base": ["v"], "coeffs": []}]}'),
    ),
    "QPoly.valuation": (
        DomainError, "zero polynomial has no valuation",
        lambda: QPoly.of([]).valuation(),
    ),
}


@pytest.mark.parametrize("entry", sorted(REFUSALS))
def test_refusals_give_their_full_message(entry):
    error, message, call = REFUSALS[entry]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


# --- graded lattice -----------------------------------------------------------


def test_lattice_disjoint_vertices_is_boolean():
    poset = graded_lattice(G1)
    assert [n.vertex_part.members for n in poset.elements] == [
        frozenset(),
        {"u"},
        {"v"},
        {"u", "v"},
    ]
    assert set(poset.covers) == {(0, 1), (0, 2), (1, 3), (2, 3)}


def test_lattice_two_line_is_a_two_chain():
    poset = graded_lattice(L2)
    assert [n.vertex_part.members for n in poset.elements] == [frozenset(), {"u", "v"}]
    assert poset.covers == ((0, 1),)


def test_lattice_of_twelve_isolated_vertices_is_boolean():
    """The subsets of 12 vertices: 2^12 nodes, and each set is covered by
    adding one of the vertices it lacks, so 12 * 2^11 covers."""
    g = validate_graph([f"v{i}" for i in range(12)], [])
    poset = graded_lattice(g)
    assert len(poset.elements) == 4096
    assert len(poset.covers) == 12 * 2048
    sets = [node.vertex_part.members for node in poset.elements]
    assert all(len(sets[j] - sets[i]) == 1 and sets[i] < sets[j] for i, j in poset.covers)


def test_lattice_rose():
    poset = graded_lattice(R1)
    assert [n.vertex_part.members for n in poset.elements] == [frozenset(), {"v"}]


def test_graded_lattice_nodes_are_graded_ideals_ordered_by_contains():
    for name, g in ALL_FIXTURES.items():
        poset = graded_lattice(g)
        nodes, rows = poset.elements, poset.up_sets()
        assert all(type(n) is LambdaReduction and n.polys == () and is_graded(n) for n in nodes)
        for i, a in enumerate(nodes):
            assert [contains(g, a, b) for b in nodes] == [
                bool(rows[i] >> j & 1) for j in range(len(nodes))
            ], name


def test_lattice_dot_deterministic():
    a = lattice_dot(G6, graded_lattice(G6))
    b = lattice_dot(G6, graded_lattice(G6))
    assert a == b
    assert 'label="0"' in a and 'label="L"' in a and "->" in a


def test_lattice_dot_exact_diamond():
    """{v} and {w} are incomparable: both cover 0 and are covered by L."""
    g = validate_graph(["u", "v", "w"], [("a", "u", "v"), ("b", "u", "w")])
    assert lattice_dot(g, graded_lattice(g)) == (
        "digraph lattice {\n"
        "  rankdir=BT;\n"
        "  node [shape=box];\n"
        '  n0 [label="0"];\n'
        '  n1 [label="{v}"];\n'
        '  n2 [label="{w}"];\n'
        '  n3 [label="L"];\n'
        "  n0 -> n1;\n"
        "  n0 -> n2;\n"
        "  n1 -> n3;\n"
        "  n2 -> n3;\n"
        "}\n"
    )


# --- vertex extraction ----------------------------------------------------------


def test_extract_worked_example_r2():
    a = parse_element(R2, "v + e")
    w = extract_vertex(R2, a)
    assert w.vertex == "v"
    assert w.scalar == 1
    assert w.verify(a)
    # the factors the reduction is expected to use: f*' on the left, f on the right
    assert [str(m) for m in w.left] == ["f*'"]
    assert [str(m) for m in w.right] == ["f"]


def test_extract_trivial_vertex_multiple():
    a = scale(Fraction(7, 2), vertex_element(G4, "u"))
    w = extract_vertex(G4, a)
    assert (w.vertex, w.scalar) == ("u", Fraction(7, 2))
    assert w.left == () and w.right == ()
    assert w.verify(a)


def test_witness_scalar_follows_the_coefficient_rule():
    """The scalar is an int when integral, else a Fraction, as ``_rational``
    reads a coefficient; either way it prints as the Fraction would."""
    for text, scalar, kind in (("2*u", "2", int), ("-3*u", "-3", int), ("7/2*u", "7/2", Fraction)):
        w = extract_vertex(G4, parse_element(G4, text))
        assert (type(w.scalar), str(w.scalar)) == (kind, scalar)
        assert w.verify(parse_element(G4, text))


def test_verify_refuses_a_tampered_witness():
    """A witness with its scalar doubled, or with a left or right factor
    dropped, no longer carries the element to the vertex multiple."""
    a = scale(Fraction(7, 2), parse_element(R2, "v + e"))
    w = extract_vertex(R2, a)
    assert w.scalar == Fraction(7, 2) and w.left and w.right and w.verify(a)
    left, right, v, c = w.left, w.right, w.vertex, w.scalar
    for bad in (ExtractionWitness(left, right, v, 2 * c),
                ExtractionWitness(left[1:], right, v, c),
                ExtractionWitness(left, right[1:], v, c)):
        assert not bad.verify(a)


def test_extract_single_edge_graph4():
    a = path_element(G4, ("a",))
    w = extract_vertex(G4, a)
    assert w.vertex == "v"
    assert w.scalar == 1
    assert [str(m) for m in w.left] == ["a*'"]
    assert w.verify(a)


def test_extract_rejects_zero():
    with pytest.raises(DomainError):
        extract_vertex(R2, Element.zero(R2))


def test_extract_blocked_by_k1_vertex():
    with pytest.raises(DomainError, match="exactly one closed simple path"):
        extract_vertex(R1, parse_element(R1, "v + e"))


def test_extract_handles_cancelling_representation():
    # ff*' - v equals -ee*'; right-multiplying by the leading ghost edge f
    # annihilates it, so the reduction must fall back to e.
    a = parse_element(R2, "f.f*' - v")
    assert not a.is_zero
    w = extract_vertex(R2, a)
    assert w.verify(a)


def test_extract_random_elements_on_condition_k_fixtures():
    rng = random.Random(21)
    for name, g in CONDITION_K.items():
        table = paths_by_range(g, 2)
        for _ in range(30):
            a = random_element(g, rng, table=table)
            w = extract_vertex(g, a)
            assert w.scalar != 0
            assert w.verify(a), (name, str(a))


def test_extract_on_a_long_branching_return_chain():
    """w -> c1 -> ... -> c63 -> w with two parallel edges per step has 2^64
    closed simple paths at w, all of length 64; a search that walks them
    would not finish."""
    m = 64
    seq = ["w"] + [f"c{i}" for i in range(1, m)] + ["w"]
    edges = [(f"{x}{i}", seq[i], seq[i + 1]) for i in range(m) for x in "ab"]
    g = validate_graph(seq[:-1], edges)
    word = lambda bits: ".".join(f"{x}{i}" for i, x in enumerate(bits))
    a = parse_element(g, f"2*w - {word('ab' * 32)} + 3*{word('b' * 64)}.{word('a' * 64)}")
    t0 = time.perf_counter()
    w = extract_vertex(g, a)
    assert time.perf_counter() - t0 < 1.0
    assert (w.vertex, w.scalar) == ("w", 2)
    assert w.verify(a)
    # the two closed paths used: a0...a63 and a0...a62.b63
    assert {str(m) for m in w.right} <= {word("a" * 64), word("a" * 63 + "b")}


# --- non-graded witness ----------------------------------------------------------


def test_nongraded_witness_rose():
    v, lam, gen = nongraded_witness(R1)
    assert v == "v" and lam.edges == ("e",)
    assert gen == parse_element(R1, "v + e")


def test_nongraded_witness_none_on_condition_k():
    for g in CONDITION_K.values():
        assert nongraded_witness(g) is None


def test_nongraded_witness_g5():
    v, lam, gen = nongraded_witness(G5)
    assert v == "u" and lam.edges == ("e",)
    assert gen == parse_element(G5, "u + e")


# --- cycle polynomials and reductions ---------------------------------------------


def test_cycle_polynomial_validation():
    with pytest.raises(DomainError, match="zero polynomial"):
        CyclePolynomial.of(R1, ("e",), "v", [0])
    with pytest.raises(DomainError, match="vertex generator"):
        CyclePolynomial.of(R1, ("e",), "v", [0, 3])  # 3x shifts to a vertex multiple
    with pytest.raises(DomainError, match="not the unique closed simple path"):
        CyclePolynomial.of(R2, ("e",), "v", [1, 1])  # v is K2 in R2
    p = CyclePolynomial.of(R1, ("e",), "v", [0, 1, 1])  # x + x^2 shifts to 1 + x
    assert p.poly == QPoly.of([1, 1])


def test_lambda_reduce_worked_example_e38():
    gens = LambdaGeneratorSet.of(
        E38,
        polys=[
            CyclePolynomial.of(E38, ("e",), "v", [1, 1]),
            CyclePolynomial.of(E38, ("e",), "v", [-1, 1]),
            CyclePolynomial.of(E38, ("f",), "w", [1, 1]),
        ],
    )
    red = lambda_reduce(E38, gens)
    assert red.vertex_part.members == {"u", "v", "w"}
    assert red.polys == ()
    assert is_graded(red)


def test_lambda_reduce_rose_generator():
    gens = LambdaGeneratorSet.of(R1, polys=[CyclePolynomial.of(R1, ("e",), "v", [1, 1])])
    red = lambda_reduce(R1, gens)
    assert red.vertex_part.members == frozenset()
    assert len(red.polys) == 1
    ((c, p),) = red.polys
    assert c.edges == ("e",) and p == QPoly.of([1, 1])
    assert not is_graded(red)


def test_lambda_reduce_exit_range_augmentation_g6():
    gens = LambdaGeneratorSet.of(G6, polys=[CyclePolynomial.of(G6, ("e",), "u", [1, 1])])
    red = lambda_reduce(G6, gens)
    assert red.vertex_part.members == {"v"}
    assert len(red.polys) == 1
    assert vertex_membership(G6, "v", red)
    assert not vertex_membership(G6, "u", red)


def test_lambda_reduce_gcd_collapses_same_cycle():
    gens = LambdaGeneratorSet.of(
        R1,
        polys=[
            CyclePolynomial.of(R1, ("e",), "v", [-1, 0, 1]),  # x^2 - 1
            CyclePolynomial.of(R1, ("e",), "v", [1, 2, 1]),   # (x+1)^2
        ],
    )
    red = lambda_reduce(R1, gens)
    ((_, p),) = red.polys
    assert p == QPoly.of([1, 1])


def test_lambda_reduce_coprime_becomes_vertex():
    gens = LambdaGeneratorSet.of(
        G5,
        polys=[
            CyclePolynomial.of(G5, ("e",), "u", [1, 1]),
            CyclePolynomial.of(G5, ("e",), "u", [-1, 1]),
        ],
    )
    red = lambda_reduce(G5, gens)
    assert red.polys == ()
    assert red.vertex_part.members == {"u"}  # T({u}) in G5


def test_lambda_reduce_vertex_only_is_graded():
    for g in ALL_FIXTURES.values():
        for v in g.vertices:
            gens = LambdaGeneratorSet.of(g, vertices=[v])
            red = lambda_reduce(g, gens)
            assert is_graded(red)
            assert v in red.vertex_part.members


def test_lambda_reduce_zero_ideal():
    red = lambda_reduce(R1, LambdaGeneratorSet.of(R1))
    assert red.vertex_part.members == frozenset()
    assert red.polys == ()
    assert is_graded(red)


def test_vertex_part_is_hereditary_saturated():
    # construction through HeredSatSet already guarantees it; spot-check
    gens = LambdaGeneratorSet.of(E38, vertices=["v"])
    red = lambda_reduce(E38, gens)
    assert red.vertex_part.members == {"u", "v", "w"}


def test_nongraded_witness_reductions_keep_a_polynomial():
    for name, g in NOT_CONDITION_K.items():
        v, lam, _ = nongraded_witness(g)
        cp = CyclePolynomial.of(g, lam.edges, v, [1, 1])
        red = lambda_reduce(g, LambdaGeneratorSet.of(g, polys=[cp]))
        assert not is_graded(red), name
        assert not vertex_membership(g, v, red), name


def _random_generator_set(g, rng):
    cycles = k1_cycles(g)
    polys = []
    for _ in range(rng.randint(0, 3)):
        if not cycles:
            break
        c = rng.choice(cycles)
        base = rng.choice(c.sources)
        deg = rng.randint(1, 3)
        coeffs = [Fraction(rng.choice([-2, -1, 1, 2]))]
        coeffs += [Fraction(rng.choice([-1, 0, 1, 2])) for _ in range(deg - 1)]
        coeffs.append(Fraction(rng.choice([-2, -1, 1, 2])))
        polys.append(CyclePolynomial.of(g, c.edges, base, coeffs))
    n_verts = rng.randint(0, len(g.vertices))
    vertices = rng.sample(list(g.vertices), n_verts)
    return LambdaGeneratorSet.of(g, polys=polys, vertices=vertices)


def test_lambda_reduce_idempotent_on_randoms():
    rng = random.Random(23)
    for name, g in ALL_FIXTURES.items():
        for _ in range(25):
            gens = _random_generator_set(g, rng)
            red = lambda_reduce(g, gens)
            again = lambda_reduce(g, generator_set_of(red))
            assert red == again, name


def test_cor_exit_range_inside_vertex_part():
    rng = random.Random(24)
    for g in ALL_FIXTURES.values():
        for _ in range(25):
            red = lambda_reduce(g, _random_generator_set(g, rng))
            for c, _p in red.polys:
                t = hereditary_saturated_closure(g, exit_range(g, c)).members
                assert t <= red.vertex_part.members


# --- containment ------------------------------------------------------------------


def _reduction(g, vertices=(), polys=()):
    return lambda_reduce(
        g,
        LambdaGeneratorSet.of(
            g,
            polys=[CyclePolynomial.of(g, c, b, co) for c, b, co in polys],
            vertices=vertices,
        ),
    )


def test_contains_divisibility_example():
    a = _reduction(R1, polys=[(("e",), "v", [-1, 0, 1])])
    b = _reduction(R1, polys=[(("e",), "v", [1, 1])])
    assert contains(R1, a, b)
    assert not contains(R1, b, a)


def test_contains_reflexive():
    a = _reduction(G6, polys=[(("e",), "u", [1, 1])])
    assert contains(G6, a, a)


def test_of_closes_the_vertex_part_under_exit_ranges():
    """x + 1 on (e) at u puts the exit range {v} into the ideal, so ``of``
    returns the canonical value that ``lambda_reduce`` gives."""
    a = LambdaReduction.of(G6, (), [(k1_cycles(G6)[0], QPoly.of([1, 1]))])
    assert a == _reduction(G6, polys=[(("e",), "u", [1, 1])])
    assert str(a) == "vertices {v} with x + 1 on (e)"
    assert vertex_membership(G6, "v", a) and not vertex_membership(G6, "u", a)
    b = _reduction(G6, vertices=["u"])
    assert b.vertex_part.members == {"u", "v"}
    assert contains(G6, a, b)


def test_contains_polynomial_vs_vertex_part():
    # everything sits inside the whole algebra
    full = _reduction(G6, vertices=["u"])
    a = _reduction(G6, polys=[(("e",), "u", [1, 1])])
    assert contains(G6, a, full)
    assert not contains(G6, full, a)


def _poly_grid():
    consts = [Fraction(c) for c in (-2, -1, 1, 2)]
    mids = [Fraction(c) for c in (-1, 0, 1)]
    out = [QPoly.of([c0, 1]) for c0 in consts]
    out += [QPoly.of([c0, c1, 1]) for c0 in consts for c1 in mids]
    return out


def _canonical_reductions(g):
    """All canonical reductions with polynomials from the degree<=2 grid."""
    out = []
    from leavitt import all_hereditary_saturated_sets

    hs = [h.members for h in all_hereditary_saturated_sets(g)]
    cycles = k1_cycles(g)
    for part in hs:
        out.append(LambdaReduction.of(g, part, ()))
        for c in cycles:
            req = hereditary_saturated_closure(g, exit_range(g, c)).members
            if not set(c.sources).isdisjoint(part) or not req <= part:
                continue
            for p in _poly_grid():
                out.append(LambdaReduction.of(g, part, [(c, p)]))
    return out


def _divides_oracle(q, p):
    """Independent long division over Fraction lists."""
    rem = list(p.coeffs)
    d = list(q.coeffs)
    if not d:
        return not rem
    while len(rem) >= len(d) and any(c != 0 for c in rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) < len(d):
            break
        f = rem[-1] / d[-1]
        off = len(rem) - len(d)
        for i, c in enumerate(d):
            rem[off + i] -= f * c
    return all(c == 0 for c in rem)


def _contains_oracle(g, a, b):
    if not a.vertex_part.members <= b.vertex_part.members:
        return False
    bmap = {c.edges: p for c, p in b.polys}
    for c, p in a.polys:
        if set(c.sources) & b.vertex_part.members:
            continue
        q = bmap.get(c.edges)
        if q is None or not _divides_oracle(q, p):
            return False
    return True


def test_contains_exhaustive_partial_order():
    for g in (R1, G6):
        reds = _canonical_reductions(g)
        n = len(reds)
        table = [[contains(g, a, b) for b in reds] for a in reds]
        for i in range(n):
            assert table[i][i]  # reflexive
            for j in range(n):
                assert table[i][j] == _contains_oracle(g, reds[i], reds[j])
                if table[i][j] and table[j][i]:
                    assert reds[i] == reds[j]  # antisymmetric on canonical forms
        for i in range(n):
            for j in range(n):
                if not table[i][j]:
                    continue
                for k in range(n):
                    if table[j][k]:
                        assert table[i][k]  # transitive


def test_reduction_core_matches_the_generator_set_round_trip():
    """The core trusts validated data; revalidating every cycle through
    its generator set and reducing again must give the same result."""
    # a vertex part below the exit-range closure, which only the raw constructor builds
    empty, e = hereditary_saturated_closure(G6, []), k1_cycles(G6)[0]
    noncanonical = LambdaReduction(G6, empty, ((e, QPoly.of([1, 1])),))
    for g, extra in ((R1, []), (G6, [noncanonical])):
        for r in _canonical_reductions(g) + extra:
            old_path = lambda_reduce(g, generator_set_of(r))
            assert _reduce(g, r.polys, r.vertex_part.mask) == old_path


def test_lambda_reduce_results_are_fixed_points_of_of():
    """``of`` validates and normalizes; the core skips it, so its results
    must already pass it unchanged."""
    rng = random.Random(25)
    for name, g in ALL_FIXTURES.items():
        for _ in range(25):
            red = lambda_reduce(g, _random_generator_set(g, rng))
            assert LambdaReduction.of(g, red.vertex_part.members, red.polys) == red, name


def test_vertex_membership_examples():
    red = _reduction(R1, polys=[(("e",), "v", [1, 1])])
    assert not vertex_membership(R1, "v", red)
    red38 = lambda_reduce(
        E38,
        LambdaGeneratorSet.of(
            E38,
            polys=[
                CyclePolynomial.of(E38, ("e",), "v", [1, 1]),
                CyclePolynomial.of(E38, ("e",), "v", [-1, 1]),
                CyclePolynomial.of(E38, ("f",), "w", [1, 1]),
            ],
        ),
    )
    assert vertex_membership(E38, "u", red38)
    red6 = _reduction(G6, polys=[(("e",), "u", [1, 1])])
    assert vertex_membership(G6, "v", red6)


def test_reduction_rejects_duplicate_cycle_polys():
    (c,) = k1_cycles(R1)
    with pytest.raises(DomainError, match="two polynomials"):
        LambdaReduction.of(R1, (), [(c, QPoly.of([1, 1])), (c, QPoly.of([2, 1]))])


def test_reduction_of_rejects_a_cycle_that_is_not_k1():
    c = Cycle.of(R2, ["e"])
    with pytest.raises(DomainError, match="cycle e is not a K1 cycle"):
        LambdaReduction.of(R2, (), [(c, QPoly.of([1, 1]))])


@pytest.mark.parametrize(
    "coeffs", [[1, 2], [0, 1], [3], []], ids=["not-monic", "zero-constant", "degree-0", "zero"]
)
def test_reduction_of_rejects_a_polynomial_that_is_not_monic_of_positive_degree(coeffs):
    (c,) = k1_cycles(R1)
    with pytest.raises(DomainError, match="is not monic with nonzero constant term"):
        LambdaReduction.of(R1, (), [(c, QPoly.of(coeffs))])


def test_reduction_of_rejects_a_cycle_based_inside_the_vertex_part():
    f = Cycle.of(E38, ["f"])
    with pytest.raises(DomainError, match="cycle f is based inside the vertex part"):
        LambdaReduction.of(E38, ["w"], [(f, QPoly.of([1, 1]))])
    assert LambdaReduction.of(E38, ["w"], [(Cycle.of(E38, ["e"]), QPoly.of([1, 1]))]).polys


def test_generator_set_json_round_trip_lists_vertices_in_vertex_order():
    cp = CyclePolynomial.of(E38, ["e"], "v", [Fraction(1, 2), 0, Fraction(-3, 4)])
    gens = LambdaGeneratorSet.of(E38, [cp, cp], ["w", "u", "w"])
    assert gens.mask == 0b101
    data = generator_set_to_json(gens)
    assert data == {
        "vertices": ["u", "w"],
        "polys": [{"cycle": ["e"], "base": "v", "coeffs": ["1/2", "0", "-3/4"]}] * 2,
    }
    assert generator_set_from_json(E38, data) == gens
    assert generator_set_from_json(E38, json.dumps(data)) == gens


def test_reduction_json_round_trip():
    red = _reduction(G6, polys=[(("e",), "u", [1, 1])])
    data = reduction_to_json(red)
    assert data == {
        "vertices": ["v"],
        "polys": [{"cycle": ["e"], "base": "u", "coeffs": ["1", "1"]}],
    }
    gens = generator_set_from_json(G6, data)
    assert lambda_reduce(G6, gens) == red


def test_generator_set_json_errors():
    with pytest.raises(Exception):
        generator_set_from_json(G6, '{"vertices": ["zzz"]}')
    with pytest.raises(Exception):
        generator_set_from_json(G6, '{"polys": [{"cycle": ["a"], "coeffs": ["1","1"]}]}')
    with pytest.raises(Exception):
        generator_set_from_json(G6, "not json")


def test_wire_polynomials_over_the_degree_budget_are_refused():
    """Degree 256 is read and degree 257 refused, before any gcd runs;
    trailing zeros do not count, and QPoly itself has no bound."""
    assert DEGREE_BUDGET == 256
    at, _ = coprime_pair(256)
    over, _ = coprime_pair(257)
    gens = generator_set_from_json(R1, {"polys": [{"cycle": ["e"], "coeffs": at + [0, 0]}]})
    assert gens.polys[0].poly.degree == 256
    refused = "^polynomial of degree 257 is over the degree budget of 256$"
    with pytest.raises(DomainError, match=refused):
        generator_set_from_json(R1, json.dumps({"polys": [{"cycle": ["e"], "coeffs": over}]}))
    assert QPoly.of(over).degree == 257


def test_wire_polynomials_over_the_size_budget_are_refused():
    """Degree times coefficient bits, the denominator's counted: c + x^100
    of size 250,000 is read and the next size up refused, with an integer c
    and with a fractional one."""
    assert SIZE_BUDGET == 250_000

    def loop(c):
        return {"polys": [{"cycle": ["e"], "coeffs": [c] + ["0"] * 99 + ["1"]}]}

    for at, over, bits in ((2**2497, 2**2498, 2501), (f"3/{2**1248}", f"3/{2**1249}", 2502)):
        assert generator_set_from_json(R1, loop(str(at))).polys[0].poly.degree == 100
        refused = (
            f"^polynomial of size {100 * bits} \\(degree 100 times {bits} coefficient bits\\)"
            " is over the size budget of 250000$"
        )
        with pytest.raises(DomainError, match=refused):
            generator_set_from_json(R1, loop(str(over)))


def test_generator_set_json_requires_lists():
    # a string would be read character by character: "11" as 1 + x
    for entry in (
        {"cycle": ["e"], "coeffs": "11"},
        {"cycle": "e", "coeffs": ["1", "1"]},
        {"cycle": [["e"]], "coeffs": ["1", "1"]},
    ):
        with pytest.raises(ParseError, match="must be a list"):
            generator_set_from_json(R1, {"polys": [entry]})
    for vertices in ("v", [["v"]]):
        with pytest.raises(ParseError, match="must be a list"):
            generator_set_from_json(R1, {"vertices": vertices})


def test_generator_set_json_requires_polys_list():
    for polys in ("5", "null", '"e"', "{}"):
        with pytest.raises(ParseError, match="'polys' must be a list"):
            generator_set_from_json(R1, '{"polys": %s}' % polys)


def test_generator_set_json_rejects_exponent_notation():
    # Fraction("1e999999999") would build a billion-digit integer
    for coeff in ('"1e999999999"', '"2E-3"', "1e-05", '"1.5e+2"'):
        with pytest.raises(ParseError, match="exponent notation"):
            generator_set_from_json(R1, '{"polys": [{"cycle": ["e"], "coeffs": [%s]}]}' % coeff)
    text = '{"polys": [{"cycle": ["e"], "coeffs": ["-1/2", "0.25", 3]}]}'
    gens = generator_set_from_json(R1, text)
    assert list(gens.polys[0].poly.to_strings()) == ["-1/2", "1/4", "3"]


@pytest.mark.parametrize("coeff, shown", [
    ("true", "true"), ("false", "false"), ("null", "null"), ("[1, 2]", "[1, 2]"),
    ('{"a": 0.5}', '{"a": 0.5}'), ("[[]]", "[[]]"),
    ("[%s]" % ", ".join(["12"] * 20), "[12, 12, 12, 12, 12,… (80 characters)"),
])
def test_generator_set_json_refuses_a_coefficient_by_its_json_type(coeff, shown):
    """true, false, null, arrays and objects are refused as JSON spells
    them, not read from their Python text ("True", "None")."""
    message = f"coefficient {shown} is not a number or a string"
    for text in ('{"polys": [{"cycle": ["e"], "coeffs": [%s, 1]}]}' % coeff,
                 '{"polys": [{"cycle": ["e"], "base": "v", "coeffs": ["1", %s]}]}' % coeff):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            generator_set_from_json(R1, text)
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            generator_set_from_json(R1, json.loads(text))


def test_generator_set_json_rejects_non_ascii_digits_and_underscores():
    # Fraction reads "\u0663" (ARABIC-INDIC DIGIT THREE) as 3 and "1_0" as 10
    for coeff in ("\u0663", "1_0"):
        with pytest.raises(ParseError, match="non-ASCII digit or '_'"):
            generator_set_from_json(R1, {"polys": [{"cycle": ["e"], "coeffs": [coeff, "1"]}]})


# A 3-cycle a.b.c (K1) with an exit to the sink w (K0), a loop at d (K1)
# and two loops at u (K2).
INGEST = parse_graph(
    "vertices: a b c d u w\n"
    "edge e: a -> b\nedge f: b -> c\nedge g: c -> a\nedge m: a -> w\n"
    "edge h: d -> d\nedge k: u -> u\nedge l: u -> u\n"
)
COEFF_CASES = [
    " 3", "+3", "-0", "007", "0.25", "1/2", "3/0", "0x10", "1_0", "\u0663", "1e5", "9" * 5000,
    "-12", "0", "", "1/-2", " 4/6 ",
]
BASE_CASES = [
    (["e", "f", "g"], "a"),  # the K1 cycle at its least edge
    (["f", "g", "e"], "b"),  # a rotation of it
    (["g", "e", "f"], None),  # base omitted: the first edge's source
    (["e", "f", "g"], "w"),  # a K0 vertex
    (["e", "f", "g"], "d"),  # a K1 vertex off the cycle
    (["h"], "a"),  # a cycle of another component
    (["h"], "d"),
    (["k"], "u"),  # a K2 vertex on one of its cycles
    (["l"], None),
    (["e", "f"], "a"),  # not closed
    (["e", "zzz"], "a"),  # unknown edge
]


@pytest.mark.parametrize("coeff", COEFF_CASES)
def test_generator_coefficients_parse_as_fraction_parsing_did(coeff):
    """Integer-first parsing against the retired all-Fraction parser: the
    same generators, or the same error class and text."""
    for coeffs in ([coeff, "1"], ["1", "0", coeff], [coeff]):
        data = {"vertices": ["w"], "polys": [{"cycle": ["e", "f", "g"], "base": "a", "coeffs": coeffs}]}
        want = outcome(generator_set_by_fractions, INGEST, data)
        assert outcome(generator_set_from_json, INGEST, data) == want


@pytest.mark.parametrize("cycle, base", BASE_CASES)
def test_generator_bases_check_as_vertex_classes_did(cycle, base):
    entry = {"cycle": cycle, "coeffs": ["2", "-1", "1"]}
    if base is not None:
        entry["base"] = base
    data = {"polys": [entry, {"cycle": ["h"], "coeffs": ["1", "1"]}]}
    want = outcome(generator_set_by_fractions, INGEST, data)
    assert outcome(generator_set_from_json, INGEST, data) == want
    assert want[0] == "ok" or want[1] is not ParseError  # a base fault is no parse error


def test_generator_set_json_rejects_oversized_integers():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts integers of any length")
    text = '{"polys": [{"cycle": ["e"], "coeffs": [%s]}]}' % ("7" * (limit + 1))
    with pytest.raises(ParseError, match="too many digits"):
        generator_set_from_json(R1, text)


def test_generator_set_json_rejects_deep_nesting():
    text = '{"vertices": %s}' % ("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ParseError, match="^bad ideal JSON: nested too deeply$"):
        generator_set_from_json(R1, text)


def test_generator_set_json_reads_each_coefficient_once(monkeypatch):
    from leavitt import ideals, polynomials, records

    calls = []
    rule = records._rational

    def counting(c):
        calls.append(c)
        return rule(c)

    monkeypatch.setattr(polynomials, "_rational", counting)
    monkeypatch.setattr(ideals, "_rational", counting, raising=False)
    text = (
        '{"polys": [{"cycle": ["e"], "coeffs": ["1", "0", 1]},'
        ' {"cycle": ["e"], "coeffs": [2, "1/2"]}]}'
    )
    gens = generator_set_from_json(R1, text)
    assert calls == ["1", "0", "1", "2", "1/2"]
    assert [p.poly for p in gens.polys] == [QPoly.of([1, 0, 1]), QPoly.of([2, Fraction(1, 2)])]


def test_generator_set_json_reads_each_cycle_once(monkeypatch):
    data = {"polys": [
        {"cycle": ["g", "e", "f"], "coeffs": ["2", "-1", "1"]},  # base from the cycle
        {"cycle": ["h"], "base": "d", "coeffs": ["1", "1"]},
    ]}
    want = generator_set_by_fractions(INGEST, data)
    calls = []
    of = Cycle.of

    def counting(g, edges):
        calls.append(tuple(edges))
        return of(g, edges)

    monkeypatch.setattr(Cycle, "of", staticmethod(counting))
    assert generator_set_from_json(INGEST, data) == want
    assert calls == [("g", "e", "f"), ("h",)]


@pytest.mark.parametrize("base, error, message", [
    (None, DomainError, "edge sequence e.f is not closed"),
    ("a", ParseError, "bad coefficient in ['x', '1']"),
])
def test_generator_set_json_reports_a_bad_cycle_first_only_without_a_base(base, error, message):
    entry = {"cycle": ["e", "f"], "coeffs": ["x", "1"]}
    if base is not None:
        entry["base"] = base
    with pytest.raises(error, match=f"^{re.escape(message)}"):
        generator_set_from_json(INGEST, {"polys": [entry]})


def test_cycle_polynomial_takes_a_cycle_of_its_graph():
    cyc = Cycle.of(INGEST, ["f", "g", "e"])
    assert CyclePolynomial.of(INGEST, cyc, "b", [1, 1]) == CyclePolynomial.of(
        INGEST, ["f", "g", "e"], "b", [1, 1]
    )
    with pytest.raises(DomainError, match="^cycle over a different graph$"):
        CyclePolynomial.of(R1, cyc, "b", [1, 1])


@pytest.mark.parametrize("literal", ["1.0000000000000001", "0.0000001", "12345678901234567890.5"])
def test_generator_set_json_reads_a_number_as_its_digits(literal):
    """A JSON number gives the coefficient its digits give in a string: not
    rounded to the nearest float, and not refused for an exponent that the
    float's repr has and the literal does not."""
    as_number = '{"polys": [{"cycle": ["e"], "coeffs": [%s, 1]}]}' % literal
    as_string = '{"polys": [{"cycle": ["e"], "coeffs": ["%s", 1]}]}' % literal
    gens = generator_set_from_json(R1, as_number)
    assert gens == generator_set_from_json(R1, as_string)
    assert gens.polys[0].poly.coeffs == (Fraction(literal), 1)


def test_generator_set_json_number_refusals_keep_their_messages():
    """A literal with an exponent is refused as its string is, and quoted when
    its float shows no exponent; a number that overflows fails as it always
    did, and a number where a name belongs is refused by its JSON type."""
    cases = [
        ('"polys": [{"cycle": ["e"], "coeffs": [1e-05, 1]}]',
         ParseError, "exponent notation in coefficients [1e-05, 1]"),
        ('"polys": [{"cycle": ["e"], "coeffs": [1e20]}]',
         ParseError, "exponent notation in coefficients [1e+20]"),
        ('"polys": [{"cycle": ["e"], "coeffs": [1.5E2, 1]}]',
         ParseError, "exponent notation in coefficients [1.5E2, 1]"),
        ('"polys": [{"cycle": ["e"], "coeffs": ["1", 1e5, 0.50]}]',
         ParseError, "exponent notation in coefficients ['1', 1e5, 0.50]"),
        ('"polys": [{"cycle": ["e"], "coeffs": [1e5, 1e-5]}]',
         ParseError, "exponent notation in coefficients [100000.0, 1e-05]"),
        ('"polys": [{"cycle": ["e"], "coeffs": [1e999, 1]}]',
         ParseError, "bad coefficient in [inf, 1]: Invalid literal for Fraction: 'inf'"),
        ('"vertices": [1.5]', ParseError, "'vertices' must be a list of names"),
        ('"polys": [{"cycle": ["e"], "base": 1.5, "coeffs": [1, 1]}]',
         ParseError, "'base' must be a name"),
    ]
    for body, error, message in cases:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            generator_set_from_json(R1, "{%s}" % body)


def test_generator_set_json_null_base_means_no_base():
    without = '{"polys": [{"cycle": ["e"], "coeffs": ["1", "1"]}]}'
    null = '{"polys": [{"cycle": ["e"], "base": null, "coeffs": ["1", "1"]}]}'
    assert generator_set_from_json(R1, null) == generator_set_from_json(R1, without)
