"""The immutable base class of the package's value classes.

A record names its fields in ``__match_args__`` and sets them once in its
own ``__init__`` through :data:`_set`.  From ``__match_args__`` the base
class derives, once per subclass, a getter of the field tuple, and from it
``__eq__`` (same class only) and ``__hash__`` (the hash of the field tuple,
a 1-tuple for a single field), as a frozen dataclass would, along with the
``Name(field=value, ...)`` repr and copying and pickling through the
constructor.  Assignment and deletion raise.  All of it comes without the
start-up cost of importing :mod:`dataclasses`.

Two records override the pair: :class:`~leavitt.graphs.Graph` keeps
equality but caches its hash, which every monomial and element hash
repeats, and :class:`~leavitt.elements.Element` compares its integer codes
rather than its materialised terms.  Equality and hashing are cold paths
(a few thousand calls in a census round of 1,861 operations), but
construction is hot: a prototype that built every method, ``__init__``
included, from closures cut the two-vertex census throughput by 23%.  So
each ``__init__`` stays written out in its class.
"""

from operator import attrgetter

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
        if len(names) == 1:  # attrgetter of one name returns the bare value
            value = attrgetter(names[0])

            def get(self):
                return (value(self),)
        else:
            get = attrgetter(*names)
        cls._field_tuple = staticmethod(get)  # called as self._field_tuple(self)

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
