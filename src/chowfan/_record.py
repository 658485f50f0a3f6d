"""Frozen value records, without generated code.

A :class:`Record` subclass lists its fields as class annotations; a class
attribute is a default, and the names in ``_uncompared`` are left out of
``==`` and ``hash``.  A record compares and hashes as the tuple of its
compared fields, refuses assignment and deletion (memos go on with
``object.__setattr__``) and prints as a dataclass does.
"""

from operator import attrgetter

_set = object.__setattr__


class FrozenInstanceError(AttributeError):
    """An attribute of a record was assigned or deleted."""


class Record:
    _uncompared = ()

    def __init_subclass__(cls) -> None:
        names = cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
        cls._key = attrgetter(*(n for n in names if n not in cls._uncompared))

    def __init__(self, *args, **kwargs) -> None:
        names = self._fields
        if kwargs or len(args) != len(names):
            given = {**self._defaults, **dict(zip(names, args)), **kwargs}
            if len(args) > len(names) or kwargs.keys() & names[: len(args)] or given.keys() != set(names):
                raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
            args = map(given.__getitem__, names)
        # one store per field: touching self.__dict__ would give the record a
        # real dict, and every later attribute read would take its slower path
        for name, value in zip(names, args):
            _set(self, name, value)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{self.__class__.__qualname__}({shown})"


def replace(record: Record, **changes) -> Record:
    """A new record of ``record``'s class, with ``changes`` for some fields."""
    return record.__class__(**{n: getattr(record, n) for n in record._fields} | changes)
