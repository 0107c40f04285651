"""Hash-consed immutable records.

A subclass of ``Interned`` names its fields in ``__slots__`` and is built
from their values, given positionally in slot order.  Building it with field
values equal to those of an earlier build returns that earlier object
(Filliatre & Conchon, *Type-safe modular hash-consing*, 2006), so two values
are equal exactly when they are the same object: ``==`` and ``hash``
are the identity comparison and the address hash of ``object``, and a simplex
of interned entries hashes in C without visiting their fields.  Values are
immutable, and each class keeps its table of canonical objects for the life
of the process.  ``copy``, ``deepcopy`` and ``pickle`` rebuild through the
constructor and so return the canonical object.
"""

from __future__ import annotations


class Interned:
    """Base class of the hash-consed records; fields come from ``__slots__``."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._table = {}

    def __new__(cls, *args):
        table = cls._table
        obj = table.get(args)
        if obj is None:
            if len(args) != len(cls.__slots__):
                raise TypeError(
                    f"{cls.__name__} takes {len(cls.__slots__)} fields, got {len(args)}"
                )
            obj = object.__new__(cls)
            for name, value in zip(cls.__slots__, args):
                object.__setattr__(obj, name, value)
            table[args] = obj
        return obj

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an interned value")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an interned value")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"
