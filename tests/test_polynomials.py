"""Exact rational polynomial arithmetic."""

import copy
import pickle
import random
import re
from fractions import Fraction
from math import gcd

import pytest
from helpers import FractionPoly, coprime_pair
from hypothesis import given, settings
from hypothesis import strategies as st

from leavitt import CyclePolynomial, Element, QPoly, monomial, polynomials, validate_graph
from leavitt.errors import DomainError
from leavitt.polynomials import _pseudo_divide


def test_construction_strips_trailing_zeros():
    p = QPoly.of([1, 2, 0, 0])
    assert p.coeffs == (Fraction(1), Fraction(2))
    assert p.degree == 1
    assert QPoly.of([0, 0]).is_zero
    assert QPoly.of([]).degree == -1


def test_from_strings():
    p = QPoly.of(["1", "-3/4", "2"])
    assert p.coeffs == (Fraction(1), Fraction(-3, 4), Fraction(2))
    assert p.to_strings() == ("1", "-3/4", "2")


@pytest.mark.parametrize("text", ["11", "-1"])
def test_a_string_is_no_coefficient_list(text):
    # "11" would read as 1 + x, and "-1" fail on Fraction("-").
    with pytest.raises(DomainError, match="coefficients must be a list, not a string"):
        QPoly.of(text)
    assert QPoly.of([text]) == QPoly.of([int(text)])


@pytest.mark.parametrize("listing", [b"12", bytearray(b"12")])
def test_bytes_are_no_coefficient_list(listing):
    # b"12" would read as 49 + 50x
    with pytest.raises(DomainError, match="coefficients must be a list, not a string"):
        QPoly.of(listing)
    g = validate_graph(["v"], [("e", "v", "v")])
    with pytest.raises(DomainError, match="coefficients must be a list, not a string"):
        CyclePolynomial.of(g, ["e"], "v", listing)


# Fraction reads 0.1 as its binary fraction, True as 1, and "1e10000000"
# only after building a ten-million-digit integer.
UNREADABLE = ["x", None, "1/0", 0.1, True, "1e10000000", "2E3"]


@pytest.mark.parametrize("bad", UNREADABLE)
def test_an_unreadable_coefficient_is_a_domain_error(bad):
    with pytest.raises(DomainError, match=f"^coefficient {re.escape(repr(bad))} is not a rational"):
        QPoly.of([1, bad])
    g = validate_graph(["v"], [("e", "v", "v")])
    with pytest.raises(DomainError, match=f"^coefficient {re.escape(repr(bad))} is not a rational"):
        CyclePolynomial.of(g, ["e"], "v", ["1", bad])


@pytest.mark.parametrize("bad, shown", [
    ("x" * 38, repr("x" * 38)),
    ("x" * 39, "'xxxxxxxxxxxxxxxxxxx… (41 characters)"),
    ("1" * 5000 + "x", "'1111111111111111111… (5003 characters)"),
])
def test_a_long_refused_coefficient_is_shown_by_its_head_and_length(bad, shown):
    g = validate_graph(["v"], [("e", "v", "v")])
    message = f"^coefficient {re.escape(shown)} is not a rational number$"
    with pytest.raises(DomainError, match=message):
        QPoly.of([bad])
    with pytest.raises(DomainError, match=message):
        Element.of(g, [(monomial(g, ["e"]), bad)])


def test_arithmetic():
    p = QPoly.of([1, 1])        # 1 + x
    q = QPoly.of([-1, 1])       # -1 + x
    assert p * q == QPoly.of([-1, 0, 1])
    assert p + q == QPoly.of([0, 2])
    assert p + QPoly.of([-1, -1]) == QPoly.of([])


def test_divmod_exact():
    p = QPoly.of([-1, 0, 1])
    q = QPoly.of([1, 1])
    quo, rem = divmod(p, q)
    assert rem.is_zero
    assert quo == QPoly.of([-1, 1])
    assert quo * q + rem == p


def test_divmod_with_remainder():
    p = QPoly.of([1, 0, 0, 2])     # 1 + 2x^3
    q = QPoly.of([1, 0, 3])        # 1 + 3x^2
    quo, rem = divmod(p, q)
    assert quo * q + rem == p
    assert rem.degree < q.degree


def test_divmod_remainder():
    p = QPoly.of([1, 0, 1])  # 1 + x^2
    q = QPoly.of([1, 1])  # 1 + x
    assert divmod(p, q)[1] == QPoly.of([2])
    assert divmod(q, p) == (QPoly.of([]), q)


def test_division_by_zero():
    with pytest.raises(DomainError):
        divmod(QPoly.of([1]), QPoly.of([]))


def test_divides():
    assert QPoly.of([1, 1]).divides(QPoly.of([-1, 0, 1]))
    assert not QPoly.of([-1, 0, 1]).divides(QPoly.of([1, 1]))
    assert QPoly.of([]).divides(QPoly.of([]))
    assert not QPoly.of([]).divides(QPoly.of([1]))
    assert QPoly.of([1]).divides(QPoly.of([]))


def test_gcd_monic():
    p = QPoly.of([-1, 0, 1]) * QPoly.of([2, 2])   # 2(x-1)(x+1)^2
    q = QPoly.of([1, 1]) * QPoly.of([5, 0, 5])    # 5(x+1)(x^2+1)
    assert QPoly.gcd(p, q) == QPoly.of([1, 1])
    assert QPoly.gcd(q, p) == QPoly.of([1, 1])


def test_gcd_of_coprime_is_one():
    assert QPoly.gcd(QPoly.of([1, 1]), QPoly.of([-1, 1])) == QPoly.of([1])
    assert QPoly.gcd(QPoly.of([]), QPoly.of([2, 4])) == QPoly.of([1, 2]).monic()


def test_monic_and_valuation():
    p = QPoly.of([0, 0, 2, 4])
    assert p.valuation() == 2
    assert p.shift_down(2) == QPoly.of([2, 4])
    assert p.monic().is_monic and p.monic().coeffs == (0, 0, Fraction(1, 2), 1)
    assert not p.is_monic
    assert QPoly.of([1, 1]).is_monic


def test_str():
    assert str(QPoly.of([1, 1])) == "x + 1"
    assert str(QPoly.of([-1, 0, 1])) == "x^2 - 1"
    assert str(QPoly.of([Fraction(1, 2)])) == "1/2"
    assert str(QPoly.of([])) == "0"


# --- sympy as an oracle --------------------------------------------------------

_polys = st.lists(st.fractions(-4, 4, max_denominator=3), max_size=4).map(QPoly.of)


def _to_sympy(sympy, p):
    cs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    return sympy.Poly(cs or [0], sympy.Symbol("x"), domain="QQ")


def _from_sympy(poly):
    return QPoly.of(Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs()))


@given(_polys, _polys, _polys)
def test_divmod_gcd_divides_match_sympy(a, b, common):
    """p = a*common and q = b*common share a factor, so gcds are often
    nontrivial; the polynomials may be zero or constant."""
    sympy = pytest.importorskip("sympy")
    p, q = a * common, b * common
    sp, sq = _to_sympy(sympy, p), _to_sympy(sympy, q)
    if not q.is_zero:
        quo, rem = divmod(p, q)
        squo, srem = sp.div(sq)
        assert (quo, rem) == (_from_sympy(squo), _from_sympy(srem))
        assert q.divides(p) == srem.is_zero
    else:
        assert q.divides(p) == p.is_zero
    g = sp.gcd(sq)
    assert QPoly.gcd(p, q) == (_from_sympy(g.monic()) if not g.is_zero else QPoly.of([]))


def _random_poly(degree, seed):
    """A polynomial of exactly ``degree`` with coefficients p/q, |p| <= 9, q <= 5."""
    rng = random.Random(seed)
    cs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(degree)]
    return QPoly.of(cs + [Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 5))])


# Hypothesis draws degrees and seeds; drawing 60 fractions one by one would
# cost more than the gcds under test.
_seeds = st.integers(0, 2**32)
_cofactors = st.builds(_random_poly, st.integers(0, 53), _seeds)
_factors = st.builds(_random_poly, st.integers(1, 7), _seeds)


@settings(max_examples=50)
@given(_cofactors, _cofactors, _factors)
def test_high_degree_gcd_and_divides_match_sympy(a, b, common):
    """Degrees up to 60 with fractional coefficients and a planted common
    factor of degree at most 7, so gcds have degree at least that factor's."""
    sympy = pytest.importorskip("sympy")
    p, q = a * common, b * common
    sp, sq = _to_sympy(sympy, p), _to_sympy(sympy, q)
    g = sp.gcd(sq)
    expected = _from_sympy(g.monic()) if not g.is_zero else QPoly.of([])
    assert QPoly.gcd(p, q) == expected
    assert QPoly.gcd(q, p) == expected
    assert common.divides(p) and common.divides(q)
    assert expected.degree >= common.degree
    assert q.divides(p) == sp.rem(sq).is_zero
    assert p.divides(q) == sq.rem(sp).is_zero


def test_gcd_of_coprime_degree_200_pair_is_one():
    p, q = (QPoly.of(cs) for cs in coprime_pair(200))
    assert QPoly.gcd(p * QPoly.of([Fraction(1, 3)]), q) == QPoly.of([1])
    assert not p.divides(q) and not q.divides(p)


# --- the one integer division routine -----------------------------------------

_ints = st.lists(st.integers(-30, 30), max_size=6)
_leads = st.sampled_from([-6, -4, -3, -2, -1, 1, 2, 3, 4, 6])  # nonzero, mostly non-unit
_int_polys = st.builds(lambda lower, lead: QPoly.of(lower + [lead]), _ints, _leads)


def _int_mul(a, b):
    out = [0] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _int_sub(a, b):
    out = [x - y for x, y in zip(a, b)] + a[len(b):] + [-y for y in b[len(a):]]
    while out and not out[-1]:
        out.pop()
    return out


@given(st.lists(st.integers(-50, 50), max_size=9), _ints, st.integers(1, 6), st.booleans())
def test_pseudo_division_contract(a, lower, lead, exact):
    """scale*a == quo*b + rem with scale > 0 and len(rem) < len(b), except
    that exact mode never scales and stops at a remainder whose leading
    coefficient b's does not divide."""
    while a and not a[-1]:
        a.pop()
    b = lower + [lead]
    quo, rem, scale = _pseudo_divide(a, b, exact=exact)
    assert scale > 0 and (scale == 1 or not exact)
    assert _int_sub([scale * c for c in a], _int_mul(quo, b)) == rem
    if len(rem) >= len(b):
        assert exact and rem[-1] % lead


@settings(max_examples=150)
@given(_int_polys, _int_polys, _int_polys, st.booleans())
def test_divmod_divides_gcd_match_fraction_poly_and_sympy(a, b, common, plant):
    """Negative and non-unit leading coefficients, with a common factor
    planted in half the pairs."""
    sympy = pytest.importorskip("sympy")
    p, q = (a * common, b * common) if plant else (a, b)
    fp, fq = FractionPoly(p.coeffs), FractionPoly(q.coeffs)
    sp, sq = _to_sympy(sympy, p), _to_sympy(sympy, q)
    quo, rem = divmod(p, q)
    squo, srem = sp.div(sq)
    assert (quo.coeffs, rem.coeffs) == tuple(x.coeffs for x in divmod(fp, fq))
    assert (quo, rem) == (_from_sympy(squo), _from_sympy(srem))
    assert q.divides(p) == fq.divides(fp) == srem.is_zero
    assert p.divides(q) == fp.divides(fq) == sq.rem(sp).is_zero
    g = QPoly.gcd(p, q)
    assert g.coeffs == FractionPoly.gcd(fp, fq).coeffs
    assert g == _from_sympy(sp.gcd(sq).monic())
    assert not plant or common.divides(g)


def test_divides_stops_at_the_first_inexact_step(monkeypatch):
    """2 + x + ... + x^200 does not divide a monic polynomial of degree 400:
    the first leading coefficient, 1/2, is no integer.  One gcd finds each
    primitive part's content, and one the first step's scale."""
    d = QPoly.of([1] * 200 + [2])
    p = QPoly.of(coprime_pair(200)[0])
    p = p * p
    calls = []

    def counting(*args):
        calls.append(args)
        return gcd(*args)

    monkeypatch.setattr(polynomials, "gcd", counting)
    assert not d.divides(p)
    assert len(calls) == 3


# --- the representation against the Fraction oracle ----------------------------

# Texts the coefficient rule reads: fractions, unreduced ones, decimals, and
# integers with padding, a sign or leading zeros.
_TEXTS = ["1/3", "-5/6", "6/4", "-4/6", "0.50", "0.25", "-1.50", " 3 ", "+3", "007", "-0", "0"]
_coeffs = st.lists(
    st.one_of(
        st.integers(-6, 6), st.fractions(-4, 4, max_denominator=6), st.sampled_from(_TEXTS)
    ),
    max_size=5,
)


def _held_in_lowest_terms(p: QPoly) -> None:
    assert type(p.den) is int and p.den >= 1
    assert type(p.nums) is tuple and all(type(n) is int for n in p.nums)
    assert not p.nums or p.nums[-1] != 0
    assert gcd(p.den, *p.nums) == 1
    for twin in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
        assert twin == p and hash(twin) == hash(p) and repr(twin) == repr(p)


@given(_coeffs, _coeffs, st.integers(0, 3))
def test_every_qpoly_is_held_in_lowest_terms(xs, ys, k):
    """Every constructor and operation returns int numerators over a
    positive denominator with no common factor and a nonzero last
    numerator, and the same coefficients and printed forms as the
    Fraction oracle."""
    p, q = QPoly.of(xs), QPoly.of(ys)
    fp, fq = FractionPoly(xs), FractionPoly(ys)
    pairs = [
        (p, fp), (q, fq), (p.monic(), fp.monic()), (QPoly.gcd(p, q), FractionPoly.gcd(fp, fq)),
        (p + q, fp + fq), (p * q, fp * fq), (p.shift_down(k), fp.shift_down(k)),
    ]
    if not q.is_zero:
        pairs += zip(divmod(p, q), divmod(fp, fq))
    for got, want in pairs:
        _held_in_lowest_terms(got)
        assert got.coeffs == want.coeffs
        assert got.to_strings() == want.to_strings()
        assert str(got) == str(want)
    assert q.divides(p) == fq.divides(fp)
