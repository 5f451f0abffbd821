"""The immutable base class of the package's value classes.

A record names its fields in ``__match_args__``, sets them once in its own
``__init__`` through :data:`_set`, and writes its own ``__eq__`` (same class
only) and ``__hash__`` over the field tuple, as a frozen dataclass would.
The base class adds the ``Name(field=value, ...)`` repr, errors on
assignment and deletion, and copying and pickling through the constructor,
without the start-up cost of importing :mod:`dataclasses`.
"""

__all__ = ["FrozenInstanceError", "Record"]

_set = object.__setattr__  # bypasses Record.__setattr__


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, a field of an immutable object."""


class Record:
    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)
