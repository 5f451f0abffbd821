"""Element arithmetic, the rewriting normal form, grading, parsing."""

import copy
import pickle
import random
import re
import sys
import time
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from helpers import (
    ALL_FIXTURES,
    E38,
    G4,
    G6,
    G8,
    L2,
    R1,
    R2,
    coeff,
    paths_by_range,
    paths_up_to,
    random_element,
    random_homogeneous,
)

import leavitt.graphs
from leavitt import (
    DomainError,
    Element,
    GraphError,
    Monomial,
    Path,
    ParseError,
    add,
    format_element,
    gdeg,
    ghost_path_element,
    graded_components,
    monomial,
    monomial_element,
    mul,
    normalize,
    parse_element,
    path_element,
    scale,
    sub,
    unit,
    validate_graph,
    vertex_element,
)

RELATION_FIXTURES = {k: ALL_FIXTURES[k] for k in ("R1", "R2", "L2", "G4", "G8", "G6", "E38")}


# Edges "ab", "a" and "b": the string "ab" names one edge, not the path a.b.
AB = validate_graph(["u", "v"], [("ab", "u", "v"), ("a", "u", "u"), ("b", "u", "u")])
STRING_LISTINGS = {
    "monomial(alpha)": lambda: monomial(AB, "ab"),
    "monomial(beta)": lambda: monomial(AB, [], "ab"),
    "path_element": lambda: path_element(AB, "ab"),
    "ghost_path_element": lambda: ghost_path_element(AB, "ab"),
    "monomial_element": lambda: monomial_element(AB, "ab", ["ab"]),
}


@pytest.mark.parametrize("entry", sorted(STRING_LISTINGS))
def test_a_string_is_no_listing_of_edge_names(entry):
    with pytest.raises(GraphError, match="must be a list of names, not a string"):
        STRING_LISTINGS[entry]()
    assert format_element(path_element(AB, ["ab"])) == "ab"
    assert format_element(path_element(AB, ["a", "b"])) == "a.b"


@pytest.mark.parametrize("bad", ["x", None, "1/0", 0.1, True, "1e10000000", "2E3"])
def test_an_unreadable_coefficient_is_a_domain_error(bad):
    """The rule of ``QPoly.of``: an int (not a bool), a Fraction, or a string
    that Fraction reads without an exponent."""
    m = monomial(R1, ["e"])
    message = f"^coefficient {re.escape(repr(bad))} is not a rational number$"
    with pytest.raises(DomainError, match=message):
        Element.of(R1, [(m, bad)])
    with pytest.raises(DomainError, match=message):
        monomial_element(R1, ["e"], coeff=bad)


def test_coefficients_are_ints_fractions_or_strings():
    m = monomial(R1, ["e"])
    for c, want in ((2, "2*e"), (Fraction(-1, 3), "-1/3*e"), ("0.25", "1/4*e"), (" 6/3 ", "2*e")):
        assert format_element(Element.of(R1, [(m, c)])) == want


# --- monomial products ----------------------------------------------------------


def test_ghost_eats_matching_edge():
    assert mul(ghost_path_element(R1, ("e",)), path_element(R1, ("e",))) == vertex_element(R1, "v")


def test_ghost_kills_distinct_edge():
    assert mul(ghost_path_element(R2, ("e",)), path_element(R2, ("f",))).is_zero


def test_edge_times_its_ghost_rewrites_to_vertex_in_rose():
    assert mul(path_element(R1, ("e",)), ghost_path_element(R1, ("e",))) == vertex_element(R1, "v")


def test_ck1_complete():
    for g in ALL_FIXTURES.values():
        for e in g.edges:
            for f in g.edges:
                got = mul(ghost_path_element(g, (e,)), path_element(g, (f,)))
                want = vertex_element(g, g.rng(e)) if e == f else Element.zero(g)
                assert got == want


# --- normalization ---------------------------------------------------------------


def test_vertex_identity_collapses():
    s = Element.zero(R2)
    for e in R2.out_edges("v"):
        s = add(s, monomial_element(R2, alpha=(e,), beta=(e,)))
    assert normalize(sub(s, vertex_element(R2, "v"))).is_zero


def test_special_turn_expands():
    x = normalize(monomial_element(R2, alpha=("e",), beta=("e",)))
    want = sub(vertex_element(R2, "v"), monomial_element(R2, alpha=("f",), beta=("f",)))
    assert x == want


def test_nonspecial_turn_is_irreducible():
    x = monomial_element(R2, alpha=("f",), beta=("f",))
    assert normalize(x) == x


def test_normalize_idempotent_on_randoms():
    rng = random.Random(11)
    for g in RELATION_FIXTURES.values():
        table = paths_by_range(g, 2)
        for _ in range(25):
            x = random_element(g, rng, table=table)
            assert normalize(x) == x


def test_normalize_preserves_grading():
    rng = random.Random(12)
    for g in RELATION_FIXTURES.values():
        table = paths_by_range(g, 2)
        for _ in range(10):
            items = [
                (monomial(g, a, b, at=w), rng.choice([1, -1, 2]))
                for w in g.vertices
                for _, a in table[w][:3]
                for _, b in table[w][:3]
            ]
            raw = Element.of(g, items)
            nf = normalize(raw)
            raw_deg = {
                d: e for d, e in graded_components(raw).components
            }
            nf_deg = {d: e for d, e in graded_components(nf).components}
            for d in set(raw_deg) | set(nf_deg):
                lhs = normalize(raw_deg.get(d, Element.zero(g)))
                rhs = nf_deg.get(d, Element.zero(g))
                assert lhs == rhs


def _reverse_expand(g, x, rng):
    """Rewrite one term backwards through the vertex identity, if possible."""
    terms = list(x.terms)
    rng.shuffle(terms)
    for m, c in terms:
        w = m.alpha.rng
        if not g.out_edges(w):
            continue
        rest = [(mm, cc) for mm, cc in x.terms if mm != m]
        for f in g.out_edges(w):
            rest.append((monomial(g, m.alpha.edges + (f,), m.beta.edges + (f,), at=w), c))
        return Element.of(g, rest)
    return None


def test_equality_via_normal_form_on_rewrite_equivalent_pairs():
    rng = random.Random(13)
    for g in RELATION_FIXTURES.values():
        table = paths_by_range(g, 2)
        for _ in range(20):
            x = random_element(g, rng, table=table)
            y = x
            for _ in range(rng.randint(1, 3)):
                expanded = _reverse_expand(g, y, rng)
                if expanded is None:
                    break
                y = expanded
            assert normalize(y) == x
            assert normalize(sub(y, x)).is_zero


# --- ring axioms -----------------------------------------------------------------


def test_unit_law():
    rng = random.Random(14)
    for g in RELATION_FIXTURES.values():
        one = unit(g)
        table = paths_by_range(g, 2)
        for _ in range(20):
            x = random_element(g, rng, table=table)
            assert mul(one, x) == x
            assert mul(x, one) == x


def test_vertex_relations():
    assert mul(vertex_element(R1, "v"), vertex_element(R1, "v")) == vertex_element(R1, "v")
    assert mul(vertex_element(L2, "u"), vertex_element(L2, "v")).is_zero


def test_distributivity_example():
    x = add(vertex_element(R2, "v"), path_element(R2, ("e",)))
    y = path_element(R2, ("f",))
    want = add(path_element(R2, ("f",)), path_element(R2, ("e", "f")))
    assert mul(x, y) == want


def test_associativity_and_distributivity_random():
    rng = random.Random(15)
    for g in RELATION_FIXTURES.values():
        table = paths_by_range(g, 2)
        for _ in range(40):
            x = random_element(g, rng, table=table)
            y = random_element(g, rng, table=table)
            z = random_element(g, rng, table=table)
            assert mul(mul(x, y), z) == mul(x, mul(y, z))
            assert mul(add(x, y), z) == add(mul(x, z), mul(y, z))
            assert mul(z, add(x, y)) == add(mul(z, x), mul(z, y))


def test_scalar_compatibility():
    rng = random.Random(16)
    for g in (R2, G6):
        for _ in range(10):
            x = random_element(g, rng)
            y = random_element(g, rng)
            a, b = Fraction(2, 3), Fraction(-5)
            assert mul(scale(a, x), scale(b, y)) == scale(a * b, mul(x, y))


# --- grading ---------------------------------------------------------------------


def test_graded_components_example():
    x = add(vertex_element(R1, "v"), path_element(R1, ("e",)))
    dec = graded_components(x)
    assert dec.components == ((0, vertex_element(R1, "v")), (1, path_element(R1, ("e",))))


def test_graded_components_trivial():
    e = path_element(R1, ("e",))
    assert graded_components(e).components == ((1, e),)
    assert graded_components(Element.zero(R1)).components == ()


def test_graded_round_trip_random():
    rng = random.Random(17)
    for g in RELATION_FIXTURES.values():
        table = paths_by_range(g, 2)
        for _ in range(30):
            x = random_element(g, rng, table=table)
            total = Element.zero(g)
            for _, component in graded_components(x).components:
                total = add(total, component)
            assert total == x


def test_grading_multiplicative():
    rng = random.Random(18)
    for g in RELATION_FIXTURES.values():
        table = paths_by_range(g, 2)
        for _ in range(30):
            x = random_homogeneous(g, rng, table=table)
            y = random_homogeneous(g, rng, table=table)
            p = mul(x, y)
            assert len(graded_components(p).components) <= 1
            if not p.is_zero:
                dx = x.terms[0][0].degree
                dy = y.terms[0][0].degree
                assert p.terms[0][0].degree == dx + dy


def test_gdeg_examples():
    assert gdeg(vertex_element(R1, "v")) == 0
    assert gdeg(ghost_path_element(R1, ("e",))) == 1
    x = normalize(monomial_element(R1, alpha=("e",), beta=("e", "e")))
    assert x == ghost_path_element(R1, ("e",))
    assert gdeg(x) == 1
    with pytest.raises(DomainError):
        gdeg(Element.zero(R1))


def test_gdeg_minimal_over_equivalent_monomials():
    """Normal-form ghost degree equals the minimum over all single-monomial
    representations, checked by pooling all small monomials per graph."""
    for g in (R1, R2, G6):
        pool = {}
        paths = paths_up_to(g, 5 if g is R1 else 4)
        for wa, a in paths:
            for wb, b in paths:
                ra = g.rng(a[-1]) if a else wa
                rb = g.rng(b[-1]) if b else wb
                if ra != rb:
                    continue
                m = monomial(g, a, b, at=wa)
                nf = normalize(Element.of(g, [(m, 1)]))
                pool.setdefault(nf, []).append(len(b))
        for nf, ghost_lens in pool.items():
            if nf.is_zero:
                continue
            assert gdeg(nf) == min(ghost_lens)


# --- parsing and formatting -------------------------------------------------------


def test_parse_vertex_literal():
    assert parse_element(R1, "v") == vertex_element(R1, "v")


def test_parse_linear_combination():
    x = parse_element(R1, "2*e + e*'")
    assert x == add(scale(2, path_element(R1, ("e",))), ghost_path_element(R1, ("e",)))


def test_parse_noncomposable_is_an_error():
    with pytest.raises(ParseError, match="non-composable"):
        parse_element(L2, "a.a")


def test_parse_unknown_name():
    with pytest.raises(ParseError, match="unknown"):
        parse_element(L2, "zz")


def test_parse_ghost_of_vertex_rejected():
    with pytest.raises(ParseError, match="vertex"):
        parse_element(L2, "u*'")


def test_parse_syntax_errors():
    for bad in ("", "2*", "e +", "e..e", "1/0*e", "e *"):
        with pytest.raises(ParseError):
            parse_element(R1, bad)


@pytest.mark.parametrize("text", [None, b"e", 3])
def test_parse_rejects_text_that_is_no_string(text):
    message = f"^element text must be a string, not {type(text).__name__}$"
    with pytest.raises(ParseError, match=message):
        parse_element(R1, text)


def test_parse_oversized_numeral():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts integers of any length")
    digits = "5" * (limit + 1)
    for text in (f"{digits}*v", f"1/{digits}*e", f"e + {digits}*v"):
        with pytest.raises(ParseError, match="too long"):
            parse_element(R1, text)


def test_parse_long_sum_matches_termwise_sum():
    rng = random.Random(5)
    words = ["v", "e", "f", "e*'", "f*'", "e.f", "e.f*'", "f.e*'", "e*'.f*'", "e.e*'"]
    for _ in range(20):
        terms = [f"{rng.choice(['', '2*', '1/3*', '3/2*'])}{rng.choice(words)}" for _ in range(30)]
        signs = [rng.choice(" +-") for _ in terms]
        text = " ".join(f"{'-' if s == '-' else '+'} {t}" for s, t in zip(signs, terms))
        want = Element.zero(R2)
        for s, t in zip(signs, terms):
            want = add(want, scale(-1 if s == "-" else 1, parse_element(R2, t)))
        got = parse_element(R2, text)
        assert got == want
        assert format_element(got) == format_element(want)


def test_parse_long_r3_sum_in_bounded_time():
    rose = validate_graph(["v"], [("e1", "v", "v"), ("e2", "v", "v"), ("e3", "v", "v")])
    rng = random.Random(7)
    factors = ["e1", "e2", "e3", "e1*'", "e2*'", "e3*'"]
    terms = [
        f"{rng.choice(['', '2*', '1/3*'])}{'.'.join(rng.choice(factors) for _ in range(3))}"
        for _ in range(160)
    ]
    text = " + ".join(terms)
    t0 = time.perf_counter()
    got = parse_element(rose, text)
    assert time.perf_counter() - t0 < 1.0
    want = Element.zero(rose)
    for t in terms:
        want = add(want, parse_element(rose, t))
    assert got == want


def test_parse_accepts_only_ascii_numerals():
    # \d would also match "\u0663" (ARABIC-INDIC DIGIT THREE) and read it as 3
    with pytest.raises(ParseError, match="unexpected character"):
        parse_element(R1, "\u0663*e")
    assert format_element(parse_element(R1, "3*e")) == "3*e"


def test_parse_rationals_and_signs():
    x = parse_element(R1, "-1/2*v + 3*e - e")
    want = add(scale(Fraction(-1, 2), vertex_element(R1, "v")), scale(2, path_element(R1, ("e",))))
    assert x == want


def test_parse_zero():
    assert parse_element(R1, "0").is_zero


def test_parse_mixed_word_reduces():
    # ghost then real is grammatical and contracts
    assert parse_element(R1, "e*'.e") == vertex_element(R1, "v")


def test_format_round_trip():
    rng = random.Random(19)
    for g in RELATION_FIXTURES.values():
        table = paths_by_range(g, 2)
        for _ in range(30):
            x = random_element(g, rng, table=table)
            assert parse_element(g, format_element(x)) == x
    assert format_element(Element.zero(R1)) == "0"


def test_format_term_order():
    x = parse_element(R1, "2*e + e*'")
    assert format_element(x) == "e*' + 2*e"  # ghost degree descending


def test_mixed_graph_rejected():
    with pytest.raises(DomainError):
        mul(vertex_element(R1, "v"), vertex_element(R2, "v"))
    with pytest.raises(DomainError):
        add(vertex_element(R1, "v"), vertex_element(R2, "v"))


def test_graph_mismatches_rejected():
    with pytest.raises(DomainError, match="monomial from a different graph"):
        Element.of(R1, [(monomial(R2, at="v"), 1)])
    with pytest.raises(DomainError, match="elements live over different graphs"):
        mul(vertex_element(R1, "v"), vertex_element(R2, "v"))


def test_monomial_row_and_col():
    """a.b*' sits in the row of a's base vertex and the column of b's."""
    m = monomial(E38, alpha=("a", "c"), beta=("f",))  # u -> v -> w, ghost of w -> w
    assert (m.alpha.base, m.beta.base) == ("u", "w")
    assert (monomial(E38, at="v").alpha.base, monomial(E38, at="v").beta.base) == ("v", "v")


def test_monomial_range_mismatch():
    with pytest.raises(DomainError, match="different vertices|range"):
        monomial(E38, alpha=("a",), beta=("b",))
    g = validate_graph(["v", "w"], [("e", "v", "v"), ("f", "v", "w")])
    with pytest.raises(DomainError, match="^monomial paths end at different vertices: 'v' vs 'w'$"):
        monomial(g, ["e"], ["f"])
    # The raw constructor checks nothing, but no element takes such a term.
    raw = Monomial(g, ((0, 0), (0, 1)))
    assert raw.alpha == Path.of(g, ["e"]) and raw.beta == Path.of(g, ["f"])
    with pytest.raises(DomainError, match="^monomial paths end at different vertices$"):
        Element.of(g, [(raw, 1)])


def test_element_of_refuses_a_monomial_whose_paths_end_apart_even_when_it_cancels():
    """``Element.of`` checks each monomial as it enters, before like terms
    are collected, so terms that sum to 0 or a zero coefficient do not hide
    it; an unreadable coefficient of any item is still reported first."""
    g = validate_graph(["v", "w"], [("e", "v", "v"), ("f", "v", "w")])
    raw, v = Monomial(g, ((0, 0), (0, 1))), monomial(g, at="v")
    for items in ([(raw, 1), (raw, -1)], [(raw, 0)], [(v, 1), (raw, "1/2"), (raw, "-1/2")]):
        with pytest.raises(DomainError, match="^monomial paths end at different vertices$"):
            Element.of(g, items)
    with pytest.raises(DomainError, match="^coefficient 'x' is not a rational number$"):
        Element.of(g, [(raw, 1), (v, "x")])


def test_monomial_walks_each_side_once_and_reports_alpha_first():
    """An empty alpha anchors at beta's range without walking beta again,
    and with two bad sides the alpha fault is the one reported."""
    g = validate_graph(["v", "w"], [("e", "v", "v"), ("f", "v", "w")])
    walked = []
    real_walk = leavitt.graphs._walk

    def walk(graph, here, es):
        walked.append(es)
        return real_walk(graph, here, es)

    with mock.patch("leavitt.graphs._walk", walk):
        for alpha, beta in (((), ("e", "f")), (("e", "f"), ()), (("e", "f"), ("f",))):
            walked.clear()
            m = monomial(g, alpha, beta)
            assert m.alpha.edges == alpha and m.beta.edges == beta
            assert sorted(walked) == sorted([alpha, beta])
    with pytest.raises(GraphError, match="'x'"):
        monomial(g, ["x"], ["y"])
    with pytest.raises(DomainError, match="^edges do not compose at 'e'$"):
        monomial(g, ["f", "e"], ["y"])


# --- scalars ----------------------------------------------------------------------


def test_scalars_are_ints_and_fractions():
    x = path_element(R1, ("e",))
    assert format_element(scale(3, x)) == "3*e"
    assert format_element(scale(Fraction(-1, 2), x)) == "-1/2*e"
    assert scale(0, x).is_zero and scale(Fraction(0), x).is_zero
    assert all(type(c) is Fraction for _, c in scale(3, x).terms)


def test_fractional_products_keep_integral_coefficients_as_ints():
    x = parse_element(R2, "1/2*e + 2/3*f*' - 3/4*e.f*'")
    y = parse_element(R2, "2*e*' + 3/2*f - 4*v")
    xy = mul(x, y)
    assert xy == scale(Fraction(1, 24), mul(scale(24, x), y))
    assert mul(scale(Fraction(1, 2), x), scale(2, y)) == xy
    half = parse_element(R2, "1/2*e + 1/2*f")
    for z in (mul(scale(2, half), vertex_element(R2, "v")), add(half, half), scale(2, half),
              parse_element(R2, "1/2*e + 1/2*e"),
              scale(Fraction(1, 2), parse_element(R2, "2*e - 4*f"))):
        assert z.den == 1 and all(type(n) is int for _, n in z.codes)
    assert xy.den > 1 and gcd(xy.den, *[n for _, n in xy.codes]) == 1


@pytest.mark.parametrize("bad", ["3", 0.1, 1.0, True, False, None, 2j])
def test_other_scalars_raise_type_error(bad):
    x = path_element(R1, ("e",))
    name = type(bad).__name__
    with pytest.raises(TypeError, match=f"^a scalar must be an int or a Fraction, not {name}$"):
        scale(bad, x)


def test_elements_are_immutable_values():
    x = parse_element(R2, "2*e.f*' - 1/3*f + v")
    with pytest.raises(AttributeError):
        x.graph = R1
    assert copy.copy(x) == x and pickle.loads(pickle.dumps(x)) == x
    assert hash(pickle.loads(pickle.dumps(x))) == hash(x)
    assert Element(R2, x.codes, x.den) == x and Element.of(R2, x.terms) == x
    assert x.den == 3 and Element(R2, x.codes, 1) != x
    assert scale(-1, scale(-1, x)) == x and add(x, scale(-1, x)) == sub(x, x) == Element.zero(R2)
    assert str(x) == format_element(x) and str(sub(x, x)) == "0"
    assert (x == 1) is False and x != 1 and (x == "2*e.f*' - 1/3*f + v") is False
    y = parse_element(R2, "v - 1/2*f")
    assert mul(y, x) != mul(x, y)
    assert coeff(x, monomial(R2, ("f",))) == Fraction(-1, 3)
    assert coeff(x, monomial(R2, ("e",))) == 0


# --- scale: cost that does not grow with unrelated vertices ------------------------


def test_rose_power_ignores_two_thousand_isolated_vertices():
    rose = [("e1", "v", "v"), ("e2", "v", "v"), ("e3", "v", "v")]
    text = "2*e1 + 3/2*e2*' - 5*e3.e1"

    def fifth_power(g):
        x = parse_element(g, text)
        y = x
        for _ in range(4):
            y = mul(y, x)
        return format_element(y)

    expected = fifth_power(validate_graph(["v"], rose))
    padded = validate_graph([f"p{i}" for i in range(2000)] + ["v"], rose)
    t0 = time.perf_counter()
    got = fifth_power(padded)
    assert time.perf_counter() - t0 < 1.0
    assert got == expected
    assert len(expected.split(" ")) > 100
