"""A base for the immutable value types that check their fields.

FixedReal, MachinFormula and FormulaRecord check what they are built
from, so they are plain classes with an __init__: a named tuple's _make
and _replace would build a copy without it.  A subclass lists its fields
in _fields, in its __init__'s order, and sets them once through _set.
Frozen gives it field-wise == and hash, a dataclass-style repr,
AttributeError on assignment or deletion, and copies (__replace__, copy,
pickle) that go through __init__ again.  No code is generated, so the
types cost nothing at import beyond their own class bodies.
"""

from __future__ import annotations


class Frozen:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()

    def __replace__(self, **changes):
        """A new instance with `changes` to named fields, built by
        __init__, so its checks run again and nothing cached on this one
        carries over.  copy.replace calls it from Python 3.13 on."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))
