"""Bases for the package's value types, whose fields are their __slots__.

They give field-wise ==, a repr that names every field and, for the frozen
ones, a hash and no assignment after __init__, written out once here.  A
class decorator that generates these methods would cost every process its
start-up time: its module loads inspect, ast and dis, and it executes the
generated code each time a class is defined.
"""

from __future__ import annotations


class Record:
    """A mutable value: == compares the fields of two instances of one class,
    repr names every field, and an instance has no hash."""

    __slots__ = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # rebuilt through __init__ with the fields as positional arguments
        return type(self), self._values()


class FrozenRecord(Record):
    """An immutable, hashable value: __init__ stores each field with
    object.__setattr__, and any later assignment raises AttributeError."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
