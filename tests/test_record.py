"""The value records behave as the frozen dataclasses they replace.

Assignment and deletion raise, fields left out of comparison do not count
for ``==`` or ``hash``, defaults and the datum's own check run, ``replace``
builds a changed copy, and the default ``repr`` is the dataclass text.
A cold ``import chowfan.cli`` loads neither ``dataclasses`` nor
``inspect``.
"""

import os
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
from chowfan._record import FrozenInstanceError
from chowfan.cones import Cone, FanValidationReport
from chowfan.family import WallMonoidStructure
from chowfan.monoids import AffineMonoid
from chowfan.stacks import StackValidationReport

from conftest import p2_fan

SRC = Path(__file__).resolve().parent.parent / "src"


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
    m = saturated_monoid(cone_from_generators([(1, 0), (1, 2)]), full_lattice(2))
    other = AffineMonoid(m.ambient_rank, m.hilbert_basis, m.units, None, None, None)
    assert other == m and hash(other) == hash(m)
    assert other != replace(m, hilbert_basis=m.hilbert_basis[:1])


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
