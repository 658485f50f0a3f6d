"""Frozen value records, without generated code, and memos kept on them.

A :class:`Record` subclass lists its fields as class annotations; a class
attribute is a default, and the names in ``_uncompared`` are left out of
``==`` and ``hash``.  A record compares and hashes as the tuple of its
compared fields, refuses assignment and deletion and prints as a
dataclass does.

A function decorated with :func:`kept` computes its value once per record
and set of arguments.  The values of the kept functions with arguments sit
in one dict on the record, and that of a function of the record alone in
an attribute of its own, all outside its fields, so memos change neither
``==``, ``hash``, ``repr`` nor :func:`replace`, whose copy starts with no
memo.  This module is the only writer of both.
"""

from functools import update_wrapper
from operator import attrgetter

_set = object.__setattr__
_missing = object()


class FrozenInstanceError(AttributeError):
    """An attribute of a record was assigned or deleted."""


class Record:
    _uncompared = ()
    _kept = None  # the dict of kept values, (function, *args) -> value, made on first use

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


def kept(fn):
    """``fn(record, *args)``, computed once per record and set of arguments.

    The value is kept in the record's one memo dict under ``(fn, *args)``,
    so the arguments must be hashable and equal arguments must give equal
    values.  A call that raises keeps nothing.  Arguments after the record
    may be given by keyword; they are keyed by position.  A function of the
    record alone keeps its value in an attribute named after it instead, so
    a record holding only such values carries no dict.
    """
    code = fn.__code__
    names = code.co_varnames[1 : code.co_argcount]
    if not names:
        slot = f"_kept {fn.__module__}.{fn.__qualname__}"  # no field or identifier has a space

        def call(record, /):
            value = getattr(record, slot, _missing)
            if value is _missing:
                value = fn(record)
                _set(record, slot, value)
            return value

        return update_wrapper(call, fn)

    def call(record, /, *args, **kwargs):
        if kwargs:
            for name in names[len(args) :]:
                if name not in kwargs:
                    break
                args += (kwargs.pop(name),)
            if kwargs:  # an unknown keyword: fn raises the TypeError
                return fn(record, *args, **kwargs)
        memo = record._kept
        if memo is None:
            memo = {}
            _set(record, "_kept", memo)
        key = (fn, *args)
        value = memo.get(key, _missing)
        if value is _missing:
            value = memo[key] = fn(record, *args)
        return value

    return update_wrapper(call, fn)
