"""Dense univariate polynomials with exact rational coefficients.

Just enough arithmetic for canonicalizing cycle-polynomial generators:
exact division with remainder, monic normalization, divisibility, and the
monic greatest common divisor.  Coefficients are stored in ascending
degree with no trailing zeros.

Divisibility and the gcd run in Z[x]: each operand is scaled to its
primitive integer part (denominators cleared, content divided out), which
by Gauss's lemma leaves divisibility over Q unchanged and determines the
monic gcd.  The gcd is a primitive pseudo-remainder sequence (Collins,
JACM 14 (1967); Knuth, TAOCP vol. 2, 4.6.1), made monic only at the end,
so its coefficients stay bounded where Euclid's algorithm over Q lets them
grow with every step.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from math import gcd, lcm

from .errors import DomainError
from .records import Record

__all__ = ["QPoly"]


class QPoly(Record):
    """A polynomial over Q: ``coeffs`` is a tuple of Fractions in ascending
    degree, last entry nonzero."""

    __slots__ = __match_args__ = ("coeffs",)

    @staticmethod
    def of(coeffs: Iterable[Fraction | int | str]) -> "QPoly":
        if isinstance(coeffs, str):  # "11" would read as 1 + x
            raise DomainError("coefficients must be a list, not a string")
        cs = []
        for c in coeffs:
            if type(c) is not Fraction:
                try:
                    c = Fraction(c)
                except (TypeError, ValueError, ArithmeticError):
                    raise DomainError(f"coefficient {c!r} is not a rational number") from None
            cs.append(c)
        while cs and cs[-1] == 0:
            cs.pop()
        return QPoly(tuple(cs))

    @staticmethod
    def zero() -> "QPoly":
        return QPoly(())

    @staticmethod
    def one() -> "QPoly":
        return QPoly((Fraction(1),))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def constant(self) -> Fraction:
        return self.coeffs[0] if self.coeffs else Fraction(0)

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return not self.is_zero and self.leading == 1

    def valuation(self) -> int:
        """Index of the lowest nonzero coefficient."""
        if self.is_zero:
            raise DomainError("zero polynomial has no valuation")
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        raise AssertionError("unreachable")

    def shift_down(self, k: int) -> "QPoly":
        return QPoly(self.coeffs[k:]) if k else self

    def monic(self) -> "QPoly":
        if self.is_zero or self.coeffs[-1] == 1:
            return self
        lead = self.leading
        return QPoly(tuple(c / lead for c in self.coeffs))

    def __add__(self, other: "QPoly") -> "QPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return QPoly.of(
            (self.coeffs[i] if i < len(self.coeffs) else 0)
            + (other.coeffs[i] if i < len(other.coeffs) else 0)
            for i in range(n)
        )

    def __neg__(self) -> "QPoly":
        return QPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-other)

    def __mul__(self, other: "QPoly") -> "QPoly":
        if self.is_zero or other.is_zero:
            return QPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return QPoly.of(out)

    def __divmod__(self, other: "QPoly") -> tuple["QPoly", "QPoly"]:
        if other.is_zero:
            raise DomainError("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.degree
        lead = other.leading
        while len(rem) - 1 >= d and any(c != 0 for c in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            k = len(rem) - 1 - d
            f = rem[-1] / lead
            quo[k] = f
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= f * c
        return QPoly.of(quo), QPoly.of(rem)

    def __mod__(self, other: "QPoly") -> "QPoly":
        return divmod(self, other)[1]

    def divides(self, other: "QPoly") -> bool:
        """Whether self divides other; zero divides only zero.

        Exact trial division of primitive parts in Z[x]: over Q a quotient
        of primitive polynomials is itself primitive, so a leading
        coefficient that does not divide exactly settles the answer.
        """
        if self.is_zero:
            return other.is_zero
        if other.is_zero:
            return True
        d, rem = _primitive(self.coeffs), _primitive(other.coeffs)
        lead, top = d[-1], len(d) - 1
        while len(rem) > top:
            q, r = divmod(rem[-1], lead)
            if r:
                return False
            k = len(rem) - 1 - top
            for i, c in enumerate(d):
                rem[k + i] -= q * c
            while rem and not rem[-1]:
                rem.pop()
        return not rem

    @staticmethod
    def gcd(p: "QPoly", q: "QPoly") -> "QPoly":
        """Monic greatest common divisor (zero when both inputs are zero)."""
        if p.is_zero or q.is_zero:
            return (q if p.is_zero else p).monic()
        a, b = _primitive(p.coeffs), _primitive(q.coeffs)
        if len(a) < len(b):
            a, b = b, a
        while len(b) > 1:
            a, b = b, _primitive_prem(a, b)
            if not b:
                lead = a[-1]
                return QPoly(tuple(Fraction(c, lead) for c in a))
        return QPoly.one()

    def to_strings(self) -> tuple[str, ...]:
        return tuple(str(c) for c in self.coeffs)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                body = str(abs(c))
            else:
                x = "x" if i == 1 else f"x^{i}"
                body = x if abs(c) == 1 else f"{abs(c)}*{x}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)


def _primitive(coeffs: tuple[Fraction, ...]) -> list[int]:
    """The primitive integer multiple of a nonzero polynomial."""
    den = lcm(*[c.denominator for c in coeffs])
    return _primitive_part([c.numerator * (den // c.denominator) for c in coeffs])


def _primitive_part(ns: list[int]) -> list[int]:
    """A nonzero integer polynomial divided by its content, leading coefficient positive."""
    content = gcd(*ns)
    if ns[-1] < 0:
        content = -content
    return [n // content for n in ns]


def _primitive_prem(a: list[int], b: list[int]) -> list[int]:
    """Primitive part of a pseudo-remainder of a by b (len(a) >= len(b) >= 2),
    or [] when b divides a.  Each step scales by lead(b)/g and subtracts
    (lead(rem)/g)*x^k*b, g their gcd, so before its content is divided out
    the result is a nonzero integer multiple of the remainder over Q."""
    rem = a[:]
    lb, top = b[-1], len(b) - 1
    while len(rem) > top:
        lr = rem[-1]
        g = gcd(lr, lb)
        s, t = lb // g, lr // g
        k = len(rem) - 1 - top
        if s != 1:
            rem = [s * c for c in rem]
        for i, c in enumerate(b):
            rem[k + i] -= t * c
        while rem and not rem[-1]:
            rem.pop()
    return _primitive_part(rem) if rem else rem
