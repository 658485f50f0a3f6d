"""The library source keeps its exactness promise: integers only.

An AST scan of every module of ``src/chowfan`` finds no true division
(``/`` or ``/=``), no float literal, no ``float(...)`` or ``Fraction(...)``
call, no import of ``fractions`` and no other mention of ``float``.  The
one exception is the JSON key check in ``serialize._key``, which accepts
the float keys ``json`` itself writes; it computes nothing with them.

The same source generates no code: no ``exec``, ``eval`` or ``compile``
call and no import of ``dataclasses``, whose classes are built by ``exec``
(the value types are :class:`chowfan._record.Record` subclasses).

Nor does it hold an ``assert`` statement, which ``python -O`` removes: a
check the library relies on raises.

At run time, a float, a ``Fraction`` or a string entering the library as a
vector or matrix entry, or as an entry of a normal form's input, raises
``TypeError`` instead of being truncated, even when an equal integer input
was computed before.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from chowfan.cones import check_fan_morphism, cone_from_generators, fan_from_cones, image_cone
from chowfan.intlinalg import (
    elementary_divisors,
    hermite_normal_form,
    integer_kernel,
    mat,
    preimage_lattice,
    row_lattice_hnf,
    solve_rational,
    sublattice,
    vec,
)
from chowfan.monoids import member, monoid_from_cone

from conftest import p1p1_fan

SRC = Path(__file__).resolve().parent.parent / "src" / "chowfan"

# (module, function) pairs allowed to name ``float``
FLOAT_NAME_ALLOWED = {("serialize.py", "_key")}


def _inexact(tree, module):
    """``(line, what)`` of every inexact construct in ``tree``."""
    allowed_lines = {
        line
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and (module, fn.name) in FLOAT_NAME_ALLOWED
        for line in range(fn.lineno, fn.end_lineno + 1)
    }
    called = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
    out = []
    for n in ast.walk(tree):
        if isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.Div):
            out.append((n.lineno, "true division"))
        elif isinstance(n, ast.Constant) and isinstance(n.value, (float, complex)):
            out.append((n.lineno, f"literal {n.value!r}"))
        elif isinstance(n, ast.Call):
            func = n.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("float", "Fraction"):
                out.append((n.lineno, f"{name}() call"))
        elif (
            isinstance(n, ast.Name)
            and n.id == "float"
            and id(n) not in called
            and n.lineno not in allowed_lines
        ):
            out.append((n.lineno, "name float"))
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in n.names] + [getattr(n, "module", None) or ""]
            if any(x.split(".")[0] == "fractions" or x == "Fraction" for x in names):
                out.append((n.lineno, "fractions import"))
    return sorted(set(out))


def test_library_source_is_exact():
    found = {
        path.name: _inexact(ast.parse(path.read_text()), path.name)
        for path in sorted(SRC.glob("*.py"))
    }
    assert {k: v for k, v in found.items() if v} == {}


def test_detects_inexact_constructs():
    tree = ast.parse(
        "from fractions import Fraction\n"
        "def f(a, b):\n"
        "    a /= b\n"
        "    return a / b + 0.5 + float(a) + Fraction(1, 2)\n"
        "def _key(k):\n"
        "    return isinstance(k, float)\n"
        "def g(k):\n"
        "    return isinstance(k, float)\n"
        "x = 7 // 2\n"
    )
    assert _inexact(tree, "serialize.py") == [
        (1, "fractions import"),
        (3, "true division"),
        (4, "Fraction() call"),
        (4, "float() call"),
        (4, "literal 0.5"),
        (4, "true division"),
        (8, "name float"),
    ]


def _generated_code(tree):
    """``(line, what)`` of every call or import in ``tree`` that runs
    generated source."""
    out = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id in ("exec", "eval", "compile"):
            out.append((n.lineno, f"{n.func.id}() call"))
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in n.names] if isinstance(n, ast.Import) else [n.module or ""]
            if any(x.split(".")[0] == "dataclasses" for x in names):
                out.append((n.lineno, "dataclasses import"))
    return out


def test_library_source_generates_no_code():
    found = {path.name: _generated_code(ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}


def test_detects_generated_code():
    tree = ast.parse(
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "exec('x = 1'); eval('2'); compile('3', 'f', 'eval')\n"
        "import re; re.compile('x')\n"
    )
    assert _generated_code(tree) == [
        (1, "dataclasses import"),
        (2, "dataclasses import"),
        (3, "exec() call"),
        (3, "eval() call"),
        (3, "compile() call"),
    ]


def test_library_source_has_no_assert():
    found = {
        path.name: [n.lineno for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, ast.Assert)]
        for path in sorted(SRC.glob("*.py"))
    }
    assert {k: v for k, v in found.items() if v} == {}


_C = cone_from_generators([(1, 0)])
_LINE = fan_from_cones([cone_from_generators([(1,)]), cone_from_generators([(-1,)])])


@pytest.mark.parametrize(
    "call",
    [
        lambda: check_fan_morphism([[1.5, 0]], p1p1_fan(), _LINE),
        lambda: image_cone([[0.5, 0]], _C),
        lambda: image_cone(((0.5, 0),), _C),
        lambda: cone_from_generators([(1.5, 0)]),
        lambda: sublattice(2, [[1.5, 0]]),
        lambda: member(monoid_from_cone(cone_from_generators([(1, 0), (0, 1)])), (1.7, 0)),
        lambda: mat([[Fraction(1, 2)]]),
        lambda: vec(["1"]),
        lambda: hermite_normal_form([[2.9, 1]]),
        lambda: integer_kernel([[1.5, 1]], 2),
        lambda: solve_rational([[1.5]], [3]),
        lambda: elementary_divisors([[2.5, 0], [0, 3]]),
        lambda: row_lattice_hnf([[0.0, 0], [1, 0]]),
        lambda: row_lattice_hnf([[Fraction(3, 1)]]),
    ],
    ids=[
        "fan-morphism", "image-list", "image-tuple", "generators", "sublattice", "member", "fraction", "string",
        "hermite", "kernel", "solve", "elementary-divisors", "zero-float-row", "integral-fraction",
    ],
)
def test_non_integer_entries_raise(call):
    with pytest.raises(TypeError):
        call()


@pytest.mark.parametrize("integer_first", [True, False], ids=["integer-first", "float-first"])
def test_float_matrix_raises_whatever_was_projected_before(integer_first):
    # ((1.0, 0),) equals ((1, 0),) as a key, so the kept image of the integer
    # matrix must not answer for it; each order gets a cone of its own
    c = cone_from_generators([(2, 5), (3, 7)] if integer_first else [(2, 5), (3, 8)])
    for _ in range(2):
        if integer_first:
            image_cone(((1, 0),), c)
        with pytest.raises(TypeError):
            image_cone(((1.0, 0),), c)
        integer_first = not integer_first


@pytest.mark.parametrize(
    "call",
    [
        lambda x: hermite_normal_form([[x, 2], [3, 4]]),
        lambda x: integer_kernel([[x, 2]], 2),
        lambda x: solve_rational([[x, 0], [0, 2]], [3, 4]),
        lambda x: elementary_divisors([[x, 0], [0, 6]]),
        lambda x: preimage_lattice(((x, 0),), 2, sublattice(1, [[2]])),
    ],
    ids=["hermite", "kernel", "solve", "elementary-divisors", "preimage"],
)
def test_public_normal_forms_answer_no_float_from_a_memo(call):
    # an integral float equals its integer as a key; no public function
    # answers it from a value computed for the integer
    for _ in range(2):
        call(1)
        with pytest.raises(TypeError):
            call(1.0)


def test_integer_entries_still_read():
    # bools and ints are integers to ``operator.index``; an integral float is not
    assert mat([[True, 2]]) == ((1, 2),) and vec((3, -4)) == (3, -4)
    with pytest.raises(TypeError):
        vec([1.0])
