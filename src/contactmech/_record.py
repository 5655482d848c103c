"""Immutable value records: plain classes with slots.

A `Record` names its fields in `_fields` and keeps them in `__slots__`,
which its own `__init__` sets once through `_set`.  Equality and hash go
by the fields and the exact class, `repr` is `Name(field=value, ...)`,
and a copy or a pickle is rebuilt by the constructor from the fields in
order, so it passes the same checks and keeps interned expressions.
"""

_set = object.__setattr__


class Frozen:
    """No attribute can be assigned or deleted once the constructor ran."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Record(Frozen):
    __slots__ = ()
    _fields = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()
