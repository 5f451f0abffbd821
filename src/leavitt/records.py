"""The immutable base class of the package's value classes, and the one
writer of rational sums.

A record names its fields once, in ``__match_args__``.  From them the base
class derives, once per subclass, a getter of the field tuple, and from it
``__eq__`` (same class only) and ``__hash__`` (the hash of the field
tuple), as a frozen dataclass would, along with the ``Name(field=value,
...)`` repr, copying and pickling through the constructor, and the
constructor itself, which sets the fields in order
through :data:`_set`.  A class writes its own ``__init__`` only when it
checks or caches something.  Assignment and deletion raise.  All of it
comes without the start-up cost of importing :mod:`dataclasses`.  A class
with fewer than two fields raises TypeError when it is defined: the getter,
the repr and pickling need a field tuple, and ``attrgetter`` of one name
gives the bare value instead.

Equality and hashing are cold paths (a few thousand calls in a census
round of 1,861 operations), but construction is hot.  So the constructor
is written as source, one ``_set(self, "f", f)`` line per field, and
compiled once per class, as :mod:`dataclasses` does: it runs the same
bytecode a hand-written body would, with no loop over the field names in
any call.

Elements and cycle polynomials print as signed sums of rational multiples
through :func:`_signed_sum` and read every coefficient by the package's one
coefficient rule, :func:`_rational`.  Both live here, in the one module
every layer loads, so that neither loads another layer.
"""

import re
from math import gcd
from operator import attrgetter

from .errors import DomainError

__all__ = ["FrozenInstanceError", "Record"]

_set = object.__setattr__  # bypasses Record.__setattr__


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, a field of an immutable object."""


class Record:
    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        names = cls.__match_args__
        if len(names) < 2:  # attrgetter of one name returns the bare value, of none raises
            raise TypeError(f"record {cls.__qualname__} needs two or more fields, not {names!r}")
        cls._field_tuple = staticmethod(attrgetter(*names))  # called as self._field_tuple(self)
        if "__init__" not in cls.__dict__:
            src = f"def __init__(self, {', '.join(names)}):" + "".join(
                f"\n    _set(self, {f!r}, {f})" for f in names)
            scope = {"_set": _set, "__name__": cls.__module__}
            exec(compile(src, f"<{cls.__module__}.{cls.__qualname__}.__init__>", "exec"), scope)
            cls.__init__ = scope["__init__"]
            cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            get = self._field_tuple
            return get(self) == get(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._field_tuple(self))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        pairs = zip(self.__match_args__, self._field_tuple(self))
        return f"{type(self).__qualname__}({', '.join(f'{f}={v!r}' for f, v in pairs)})"

    def __reduce__(self):
        return type(self), self._field_tuple(self)


def _ratio(n: int, den: int) -> str:
    """``str`` of the Fraction n/den for a positive den: "-3/4", "2", "0"."""
    g = gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


def _signed_sum(terms, den: int) -> str:
    """Text of the sum of (n/den)*word over ``(n, word)`` terms, "2*a - 1/2*b + c",
    with a bare constant for an empty word and "0" for no terms."""
    parts = []
    for n, word in terms:
        c = _ratio(abs(n), den)
        body = c if not word else word if c == "1" else f"{c}*{word}"
        if parts:
            parts.append(("- " if n < 0 else "+ ") + body)
        else:
            parts.append("-" + body if n < 0 else body)
    return " ".join(parts) or "0"


# Fraction("1e999999999") would build a billion-digit integer, and Fraction
# reads "\u0663" (Arabic-Indic three) as 3 and "1_0" as 10.
_EXPONENT = re.compile(r"[eE][-+]?\d")
_NOT_ASCII_DIGIT = re.compile(r"_|(?![0-9])\d")


def _rational(c):
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
            raise DomainError(_refusal(repr(c)))
        try:
            return int(c)
        except ValueError:
            pass
        if _EXPONENT.search(c):
            raise DomainError(_refusal(repr(c)))
        from fractions import Fraction
        try:
            c = Fraction(c)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(_refusal(repr(c))) from exc
    else:
        from fractions import Fraction
        if not isinstance(c, (int, Fraction)) or isinstance(c, bool):
            raise DomainError(_refusal(repr(c)))
    return c.numerator if c.denominator == 1 else c


def _refusal(text: str, what: str = "a rational number") -> str:
    """The message refusing a coefficient spelled ``text``; a long spelling
    shows its head and length."""
    if len(text) > 40:
        text = f"{text[:20]}… ({len(text)} characters)"
    return f"coefficient {text} is not {what}"
