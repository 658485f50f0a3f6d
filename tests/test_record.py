"""The value records behave as the frozen dataclasses they replace.

Assignment and deletion raise, fields left out of comparison do not count
for ``==`` or ``hash``, defaults and the datum's own check run, ``replace``
builds a changed copy, and the default ``repr`` is the dataclass text.
A cold ``import chowfan.cli`` loads neither ``dataclasses`` nor
``inspect``.  A ``kept`` function computes once per record and set of
arguments, outside the record's fields; README's "Caches" table names
every kept function, and no other module writes onto a record.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from chowfan import (
    CheckReport,
    ToricStackDatum,
    Wall,
    cone_from_generators,
    full_lattice,
    quotient_map,
    replace,
    saturated_monoid,
    sublattice,
    variety_datum,
)
from chowfan._record import FrozenInstanceError, Record, kept
from chowfan.cones import Cone, FanValidationReport
from chowfan.family import WallMonoidStructure
from chowfan.monoids import AffineMonoid
from chowfan.stacks import StackValidationReport

from conftest import p2_fan

SRC = Path(__file__).resolve().parent.parent / "src"
README = SRC.parent / "README.md"


def test_assignment_and_deletion_raise():
    s = sublattice(3, [[1, 2, 3]])
    with pytest.raises(FrozenInstanceError, match="cannot assign to field 'basis'"):
        s.basis = ()
    with pytest.raises(FrozenInstanceError, match="cannot assign to field 'fresh'"):
        s.fresh = 1
    with pytest.raises(FrozenInstanceError, match="cannot delete field 'basis'"):
        del s.basis
    assert issubclass(FrozenInstanceError, AttributeError)
    assert s.basis == ((1, 2, 3),)


def test_memos_are_kept_with_object_setattr():
    c = cone_from_generators([(1, 0), (1, 2)])
    object.__setattr__(c, "_probe", 7)
    assert c._probe == 7
    assert c == replace(c) and not hasattr(replace(c), "_probe")


def test_cone_incidence_is_outside_equality_and_hash():
    c = cone_from_generators([(1, 0), (1, 2)])
    other = Cone(c.ambient_rank, c.generators, c.lineality, c.halfspaces, c.equations, (0,) * len(c.incidence))
    assert other.incidence != c.incidence
    assert other == c and hash(other) == hash(c)


def test_monoid_uncompared_fields_are_outside_equality_and_hash():
    # a monoid is its cone and group: the lattice it was cut from is not
    # kept, and its kept Hilbert basis is outside equality and hash
    m = saturated_monoid(cone_from_generators([(1, 0), (1, 2)]), full_lattice(2))
    assert m.hilbert_basis == ((1, 0), (1, 1), (1, 2))
    other = AffineMonoid(m.ambient_rank, m.units, m.cone, m.group)
    assert other._kept is None
    assert other == m and hash(other) == hash(m)
    assert other != replace(m, group=sublattice(2, [(1, 0), (0, 2)]))
    ray = cone_from_generators([(1, 0)], ambient_rank=2)
    a, b = saturated_monoid(ray, full_lattice(2)), saturated_monoid(ray, sublattice(2, [(1, 0), (0, 2)]))
    assert a == b and hash(a) == hash(b) and a.hilbert_basis == b.hilbert_basis == ((1, 0),)
    # with units: the one element per coset is fixed by the cone and the
    # group, not by the lattice the monoid was cut from
    half_plane = cone_from_generators([(1, 0, 0)], [(0, 1, 1)])
    a = saturated_monoid(half_plane, sublattice(3, [(1, 1, 2), (0, 2, 4), (0, 0, 8)]))
    b = saturated_monoid(half_plane, sublattice(3, [(2, 0, 0), (0, 2, 6), (0, 0, 16)]))
    assert a == b and hash(a) == hash(b)
    assert a.hilbert_basis == b.hilbert_basis == ((2, 0, 0),)


def test_hash_and_equality_are_those_of_the_compared_fields():
    s = sublattice(3, [[1, 2, 3]])
    assert hash(s) == hash((3, ((1, 2, 3),)))
    assert hash(Wall(3, 1, "internal", (4, 5), (0, 1))) == hash((3, 1, "internal", (4, 5), (0, 1)))
    # equal fields, different classes: NotImplemented both ways, so unequal
    assert FanValidationReport(True, ()).__eq__(StackValidationReport(True, ())) is NotImplemented
    assert FanValidationReport(True, ()) != StackValidationReport(True, ())


def test_defaults_and_keywords():
    r = CheckReport("x", "pass", ())
    assert r.parameters == ()
    assert CheckReport(name="x", witnesses=(), verdict="pass") == r
    assert CheckReport("x", "pass", (), (("bound", 4),)).parameters == (("bound", 4),)
    for args, kwargs in [((), {}), (("x",), {"name": "y"}), (("x", "pass", (), (), 5), {}), ((), {"nme": "x"})]:
        with pytest.raises(TypeError):
            CheckReport(*args, **kwargs)


def test_datum_checks_one_monoid_per_cone():
    d = variety_datum(p2_fan())
    with pytest.raises(ValueError, match="one monoid per fan cone required"):
        ToricStackDatum(d.lattice_rank, d.fan, d.monoids[:-1])
    with pytest.raises(ValueError, match="one monoid per fan cone required"):
        replace(d, monoids=d.monoids + d.monoids[:1])


def test_replace_changes_only_the_named_fields():
    r = CheckReport("x", "fail", ((1, 2),), (("bound", 4),))
    s = replace(r, name="y")
    assert (s.name, s.verdict, s.witnesses, s.parameters) == ("y", "fail", ((1, 2),), (("bound", 4),))
    assert r.name == "x" and replace(r) == r and replace(r) is not r
    with pytest.raises(TypeError):
        replace(r, nme="y")


def test_default_repr_is_the_dataclass_text():
    s = sublattice(3, [[1, 2, 3]])
    assert repr(s) == "Sublattice(ambient_rank=3, basis=((1, 2, 3),))"
    assert repr(Wall(3, 1, "internal", (4, 5), (0, 1))) == (
        "Wall(index=3, base_index=1, kind='internal', iso_faces=(4, 5), direction=(0, 1))"
    )
    assert repr(FanValidationReport(False, ("cone 0 contains a line",))) == (
        "FanValidationReport(ok=False, violations=('cone 0 contains a line',))"
    )
    assert repr(quotient_map(3, s)) == (
        "QuotientMap(source_rank=3, target_rank=2, matrix=((-2, 1, 0), (-3, 0, 1)), "
        "kernel=Sublattice(ambient_rank=3, basis=((1, 2, 3),)), section=((0, 1, 0), (0, 0, 1)))"
    )
    assert repr(WallMonoidStructure(Wall(3, 1, "boundary", (4,), (0, 1)), "product", ())) == (
        "WallMonoidStructure(wall=Wall(index=3, base_index=1, kind='boundary', iso_faces=(4,), "
        "direction=(0, 1)), kind='product', gluing_on_basis=())"
    )
    # a class's own repr wins
    assert repr(CheckReport("x", "pass", ())) == "CheckReport(x: pass)"


def test_cold_cli_import_loads_no_dataclasses_or_inspect():
    code = "import sys, chowfan, chowfan.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class Pair(Record):
    a: int
    b: int


def _counted():
    """Two kept functions on :class:`Pair` and the list of their calls."""
    calls = []

    @kept
    def scaled(p, k):
        calls.append(("scaled", k))
        if k < 0:
            raise ValueError("negative scale")
        return (p.a * k, p.b * k)

    @kept
    def total(p, k=0):
        calls.append(("total", k))
        return p.a + p.b + k

    return scaled, total, calls


def test_kept_computes_once_per_record_and_arguments():
    scaled, _, calls = _counted()
    p, q = Pair(1, 2), Pair(1, 2)
    assert scaled(p, 3) == (3, 6) and scaled(p, 3) is scaled(p, 3)
    assert scaled(p, 4) == (4, 8)
    assert scaled(q, 3) == (3, 6)  # an equal record keeps its own memo
    assert calls == [("scaled", 3), ("scaled", 4), ("scaled", 3)]
    assert scaled.__name__ == "scaled" and scaled.__wrapped__(p, 3) == (3, 6)


def test_two_kept_functions_on_one_record_do_not_collide():
    scaled, total, calls = _counted()
    p = Pair(1, 2)
    assert (scaled(p, 1), total(p, 1), scaled(p, 1), total(p, 1)) == ((1, 2), 4, (1, 2), 4)
    assert calls == [("scaled", 1), ("total", 1)]
    assert len(p._kept) == 2


def test_a_call_that_raises_keeps_nothing():
    scaled, _, calls = _counted()
    p = Pair(1, 2)
    for _ in range(2):
        with pytest.raises(ValueError, match="negative scale"):
            scaled(p, -1)
    assert calls == [("scaled", -1)] * 2 and not p._kept


def test_kept_values_are_outside_equality_hash_repr_and_replace():
    scaled, _, _ = _counted()
    p, fresh = Pair(1, 2), Pair(1, 2)
    scaled(p, 5)
    assert p._kept and fresh._kept is None
    assert p == fresh and hash(p) == hash(fresh) and repr(p) == repr(fresh) == "Pair(a=1, b=2)"
    assert replace(p)._kept is None and replace(p, b=3) == Pair(1, 3)


def test_a_kept_function_of_the_record_alone_makes_no_dict():
    calls = []

    @kept
    def swapped(p):
        calls.append(p)
        return Pair(p.b, p.a)

    p, fresh = Pair(1, 2), Pair(1, 2)
    assert swapped(p) is swapped(p) == Pair(2, 1) and calls == [p]
    assert p._kept is None and swapped.__wrapped__(p) == Pair(2, 1)
    assert p == fresh and hash(p) == hash(fresh) and repr(p) == repr(fresh) == "Pair(a=1, b=2)"
    assert swapped(replace(p)) is not swapped(p) and len(calls) == 3


def test_a_record_with_kept_values_still_refuses_assignment():
    scaled, _, _ = _counted()
    p = Pair(1, 2)
    scaled(p, 2)
    with pytest.raises(FrozenInstanceError, match="cannot assign to field 'a'"):
        p.a = 5
    with pytest.raises(FrozenInstanceError, match="cannot assign to field '_kept'"):
        p._kept = {}
    assert p.a == 1 and scaled(p, 2) == (2, 4)


def test_keyword_calls_share_the_positional_memo():
    scaled, total, calls = _counted()
    p = Pair(1, 2)
    assert scaled(p, k=3) is scaled(p, 3)
    assert total(p) == 3 and total(p, k=0) == 3  # a default is its own key
    assert calls == [("scaled", 3), ("total", 0), ("total", 0)]
    with pytest.raises(TypeError):
        scaled(p, j=3)
    c = cone_from_generators([(1, 0), (1, 2)])
    lattice = full_lattice(2)
    assert saturated_monoid(c, lattice=lattice) is saturated_monoid(c, lattice)


def _kept_functions():
    """``module.function`` or ``Class.method`` of every ``@kept`` definition in ``src/``."""
    out = set()
    for path in (SRC / "chowfan").glob("*.py"):
        tree = ast.parse(path.read_text())
        scopes = [(path.stem, tree)] + [(n.name, n) for n in tree.body if isinstance(n, ast.ClassDef)]
        for owner, scope in scopes:
            for n in scope.body:
                if isinstance(n, ast.FunctionDef) and any(
                    isinstance(d, ast.Name) and d.id == "kept" for d in n.decorator_list
                ):
                    out.add(f"{owner}.{n.name}")
    return out


def test_readme_caches_table_names_every_kept_function():
    section = README.read_text().split("### Caches", 1)[1].split("\n## ", 1)[0]
    table = section.split("| kept function |", 1)[1].split("\n\n", 1)[0]
    rows = [re.split(r"\s*\|\s*", line.strip())[1:-1] for line in table.splitlines()[2:]]
    named = [re.fullmatch(r"`([\w.]+)`", row[0]).group(1) for row in rows]
    # one row per kept function, each with its key, what it holds and its lifetime
    assert named and sorted(named) == sorted(_kept_functions())
    assert all(len(row) == 4 and all(row) for row in rows)


def test_only_the_record_module_writes_onto_a_record():
    writers = sorted(p.name for p in (SRC / "chowfan").glob("*.py") if "object.__setattr__" in p.read_text())
    assert writers == ["_record.py"]
