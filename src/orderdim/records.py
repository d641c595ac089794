"""Immutable slotted records, the base of every result type.

A record class names its compared fields in `_fields`, its storage in
`__slots__`, and fills the slots in its own `__init__` with `set_slot`.
Equality, hash and repr then run over `_fields`: objects are equal only
to objects of the same class with equal fields, the hash is that of the
field tuple, and the repr reads `Name(field=value, ...)`. Assigning or
deleting any attribute raises AttributeError.

A public constructor validates what it is given. `trusted` fills the
fields without running `__init__`, for values that the package has just
built by code whose own lines guarantee what `__init__` would check.
"""

from __future__ import annotations

from operator import attrgetter

set_slot = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        get = attrgetter(*cls._fields)
        if len(cls._fields) == 1:
            cls._key = staticmethod(lambda obj: (get(obj),))
        else:
            cls._key = staticmethod(get)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return "{}({})".format(
            self.__class__.__qualname__,
            ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields),
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._key(self)


def trusted(cls, *values):
    """A cls record with values in _fields order, made without running
    cls.__init__ and so without its checks. Only for values built by the
    caller's own code in a form that already meets them; input from
    outside the package always goes through the constructor."""
    obj = object.__new__(cls)
    for name, value in zip(cls._fields, values):
        set_slot(obj, name, value)
    return obj
