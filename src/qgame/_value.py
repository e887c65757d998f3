"""Bases of qgame's value types that validate or derive their fields.

A subclass names its fields in `__slots__` and sets them in its own
`__init__`. No code is generated per class, so defining one costs no
more than any other class statement.
"""

from __future__ import annotations

# sets a field of a `Frozen` value, from its `__init__` only
set_field = object.__setattr__


class Record:
    """Fields named by `__slots__`; equal when the class and every field
    are equal, shown as `Name(field=value, ..)`."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, k) for k in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class Frozen(Record):
    """A `Record` whose fields cannot be assigned after `__init__`, hashed
    on its fields."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        # pickle and copy rebuild the value through `__init__`, since its
        # fields cannot be assigned
        return type(self), self._values()
