"""Dense univariate polynomials with exact rational coefficients.

Just enough arithmetic for canonicalizing cycle-polynomial generators:
exact division with remainder, monic normalization, divisibility, and the
monic greatest common divisor.

A :class:`QPoly` is held as int numerators in ascending degree over one
positive int denominator, in lowest terms, as an element holds its terms
(Knuth, TAOCP vol. 2, 4.5.1: one gcd per result keeps a fraction reduced).
Every operation works on those ints.  A ``Fraction`` appears only where
a coefficient enters or leaves: ``QPoly.of`` takes Fractions and reads a
fractional text such as "1/2" or "0.25" into one, and the
:attr:`QPoly.coeffs` view builds Fractions when read.  An integer
coefficient, read or printed, never becomes one.

Division, divisibility and the gcd all run one loop, the pseudo-division
of integer polynomials in :func:`_pseudo_divide`.  Divisibility and the
gcd divide the numerators with their content divided out, the primitive
integer part of the polynomial, which by Gauss's lemma leaves
divisibility over Q unchanged and determines the monic gcd.  The gcd is a
primitive pseudo-remainder sequence (Collins, JACM 14 (1967); Knuth,
TAOCP vol. 2, 4.6.1), made monic only at the end, so its coefficients stay
bounded where Euclid's algorithm over Q lets them grow with every step.

The module owns the package's one coefficient rule, :func:`_rational`:
``QPoly.of``, ``CyclePolynomial.of``, ``Element.of`` and the JSON wire
format read every coefficient through it.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm

from .errors import DomainError
from .records import Record

__all__ = ["QPoly"]


class QPoly(Record):
    """A polynomial over Q: the coefficient of x^i is ``nums[i] / den``.

    ``nums`` is a tuple of ints, last entry nonzero, and ``den`` a positive
    int with ``gcd(den, *nums) == 1``, so each polynomial has one record and
    record equality is equality of polynomials; zero is ``QPoly((), 1)``.
    Arithmetic, division, the gcd and printing read only these ints; the
    :attr:`coeffs` view builds Fractions when read.  ``QPoly(nums, den)``
    is the raw constructor and checks nothing.
    """

    __slots__ = __match_args__ = ("nums", "den")

    @staticmethod
    def of(coeffs: Iterable[Fraction | int | str]) -> "QPoly":
        """The polynomial of ascending coefficients, each read by :func:`_rational`."""
        if isinstance(coeffs, (str, bytes, bytearray)):  # "11" would read as 1 + x
            raise DomainError("coefficients must be a list, not a string")
        cs = [_rational(c) for c in coeffs]
        dens = [c.denominator for c in cs if type(c) is not int]
        if not dens:
            return _reduced(cs, 1)
        den = lcm(*dens)
        return _reduced([c.numerator * (den // c.denominator) for c in cs], den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions in ascending degree, built on each access."""
        den = self.den
        return tuple([Fraction(n, den) for n in self.nums])

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.nums) - 1

    @property
    def is_monic(self) -> bool:
        return not self.is_zero and self.nums[-1] == self.den

    def valuation(self) -> int:
        """Index of the lowest nonzero coefficient."""
        if self.is_zero:
            raise DomainError("zero polynomial has no valuation")
        for i, n in enumerate(self.nums):
            if n:
                return i
        raise AssertionError("unreachable")

    def shift_down(self, k: int) -> "QPoly":
        """The polynomial with its k lowest coefficients dropped, divided by x^k."""
        return _reduced(list(self.nums[k:]), self.den) if k else self

    def monic(self) -> "QPoly":
        nums = self.nums
        if not nums or nums[-1] == self.den:
            return self
        lead = nums[-1]
        if lead < 0:
            return _reduced([-n for n in nums], -lead)
        return _reduced(list(nums), lead)

    def __add__(self, other: "QPoly") -> "QPoly":
        den = lcm(self.den, other.den)
        a = [n * (den // self.den) for n in self.nums]
        b = [n * (den // other.den) for n in other.nums]
        if len(a) < len(b):
            a, b = b, a
        for i, n in enumerate(b):
            a[i] += n
        return _reduced(a, den)

    def __mul__(self, other: "QPoly") -> "QPoly":
        if self.is_zero or other.is_zero:
            return _ZERO
        out = [0] * (len(self.nums) + len(other.nums) - 1)
        for i, a in enumerate(self.nums):
            for j, b in enumerate(other.nums):
                out[i + j] += a * b
        return _reduced(out, self.den * other.den)

    def __divmod__(self, other: "QPoly") -> tuple["QPoly", "QPoly"]:
        """Quotient and remainder over Q, from a pseudo-division of the numerators.

        With a = A/da and b = B/db, s*A = quo*B + rem for the scale s of
        :func:`_pseudo_divide`, so a = (quo*db / (s*da)) * b + rem / (s*da).
        """
        if other.is_zero:
            raise DomainError("polynomial division by zero")
        b, db = other.nums, other.den
        if b[-1] < 0:  # the division needs a positive leading coefficient
            b, db = [-n for n in b], -db
        quo, rem, scale = _pseudo_divide(self.nums, b)
        den = scale * self.den
        return _reduced([n * db for n in quo], den), _reduced(rem, den)

    def divides(self, other: "QPoly") -> bool:
        """Whether self divides other; zero divides only zero.  An exact
        trial division of the primitive parts in Z[x], which Gauss's lemma
        makes equivalent to division over Q."""
        if self.is_zero:
            return other.is_zero
        if other.is_zero:
            return True
        a, b = _primitive_part(other.nums), _primitive_part(self.nums)
        return not _pseudo_divide(a, b, exact=True)[1]

    @staticmethod
    def gcd(p: "QPoly", q: "QPoly") -> "QPoly":
        """Monic greatest common divisor (zero when both inputs are zero)."""
        if p.is_zero or q.is_zero:
            return (q if p.is_zero else p).monic()
        a, b = _primitive_part(p.nums), _primitive_part(q.nums)
        if len(a) < len(b):
            a, b = b, a
        while len(b) > 1:
            rem = _pseudo_divide(a, b)[1]
            if not rem:  # b is primitive with a positive lead: b / lead is in lowest terms
                return QPoly(tuple(b), b[-1])
            a, b = b, _primitive_part(rem)
        return _ONE

    def to_strings(self) -> tuple[str, ...]:
        """Each coefficient as ``str`` of its Fraction prints it: "-3/4", "2", "0"."""
        den = self.den
        out = []
        for n in self.nums:
            g = gcd(n, den)
            out.append(str(n // g) if g == den else f"{n // g}/{den // g}")
        return tuple(out)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        den = self.den
        parts = []
        for i in range(self.degree, -1, -1):
            n = self.nums[i]
            if not n:
                continue
            g = gcd(n, den)  # |n|/den in lowest terms
            mag, d = abs(n) // g, den // g
            text = str(mag) if d == 1 else f"{mag}/{d}"
            if i == 0:
                body = text
            else:
                x = "x" if i == 1 else f"x^{i}"
                body = x if text == "1" else f"{text}*{x}"
            if not parts:
                parts.append(body if n > 0 else "-" + body)
            else:
                parts.append(("+ " if n > 0 else "- ") + body)
        return " ".join(parts)


_ZERO = QPoly((), 1)
_ONE = QPoly((1,), 1)


def _reduced(nums: list[int], den: int) -> QPoly:
    """The record of the polynomial nums/den, den positive: trailing zeros
    dropped and one gcd divided out of den and every numerator."""
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        return _ZERO
    g = gcd(den, *nums)
    if g != 1:
        den //= g
        nums = [n // g for n in nums]
    return QPoly(tuple(nums), den)


# Fraction("1e999999999") would build a billion-digit integer, and Fraction
# reads "\u0663" (Arabic-Indic three) as 3 and "1_0" as 10.
_EXPONENT = re.compile(r"[eE][-+]?\d")
_NOT_ASCII_DIGIT = re.compile(r"_|(?![0-9])\d")


def _rational(c) -> int | Fraction:
    """The coefficient rule: an int when integral, else a Fraction, of an int
    (not a bool), a Fraction, or a string with no exponent, no ``_`` and no
    non-ASCII digit, read by ``int()`` and, when that refuses it, by
    ``Fraction()``.  Anything else raises DomainError, from Fraction's own
    error when Fraction refuses a string.

    An ASCII text with no ``_`` cannot hold a non-ASCII digit, and a text
    that ``int()`` reads holds no exponent, so an integer text costs one
    ``int()`` and no pattern search."""
    if type(c) is int:
        return c
    if isinstance(c, str):
        if ("_" in c or not c.isascii()) and _NOT_ASCII_DIGIT.search(c):
            raise DomainError(_refusal(c))
        try:
            return int(c)
        except ValueError:
            pass
        if _EXPONENT.search(c):
            raise DomainError(_refusal(c))
        try:
            c = Fraction(c)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(_refusal(c)) from exc
    elif not isinstance(c, (int, Fraction)) or isinstance(c, bool):
        raise DomainError(_refusal(c))
    return c.numerator if c.denominator == 1 else c


def _refusal(c) -> str:
    """The message for a refused coefficient; a long repr shows its head and length."""
    text = repr(c)
    if len(text) > 40:
        text = f"{text[:20]}… ({len(text)} characters)"
    return f"coefficient {text} is not a rational number"


def _primitive_part(ns) -> list[int]:
    """A nonzero integer polynomial, as a new list, divided by its content,
    leading coefficient positive."""
    content = gcd(*ns)
    if ns[-1] < 0:
        content = -content
    return [n // content for n in ns]


def _pseudo_divide(
    a: Sequence[int], b: Sequence[int], exact: bool = False
) -> tuple[list[int], list[int], int]:
    """Quotient, remainder and scale of the integer polynomial a (no trailing
    zero) divided by b (leading coefficient positive): scale*a == quo*b + rem,
    scale > 0 and len(rem) < len(b).  Each step scales by lead(b)/g and
    subtracts (lead(rem)/g)*x^k*b, g their gcd; the scale is the product of
    those factors.

    With ``exact`` the division stops at the first step that would scale
    and returns a remainder no shorter than b, with scale 1.  For primitive
    a and b that settles divisibility: a quotient of primitive polynomials
    is itself primitive, so every step of an exact division is exact.
    """
    rem, quo, scale = list(a), [0] * max(0, len(a) - len(b) + 1), 1
    lb, top = b[-1], len(b) - 1
    while len(rem) > top:
        lr = rem[-1]
        g = gcd(lr, lb)
        s, t = lb // g, lr // g
        k = len(rem) - 1 - top
        if s != 1:
            if exact:
                break
            rem = [s * c for c in rem]
            quo = [s * c for c in quo]
            scale *= s
        quo[k] += t
        for i, c in enumerate(b):
            rem[k + i] -= t * c
        while rem and not rem[-1]:
            rem.pop()
    return quo, rem, scale
