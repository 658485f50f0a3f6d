"""Deterministic document encoding for every object the CLI emits.

The document format is canonical JSON: sorted keys, two-space indent, a
single trailing newline, integers as plain decimal literals (Python ints
are unbounded, so no precision is ever lost).  Every document carries
``format_version`` and ``kind``.  The schema is documented in
``docs/format.md``; encode/decode pairs below round-trip exactly.
"""

from __future__ import annotations

import json
import sys
from contextlib import suppress
from itertools import chain
from json.encoder import encode_basestring_ascii

from .cones import Cone, Fan, cone_from_generators, fan_from_cones
from .intlinalg import Sublattice, row_lattice_hnf
from .monoids import AffineMonoid, saturated_monoid
from .stacks import ToricStackDatum

FORMAT_VERSION = 1


class DocumentError(ValueError):
    """Malformed or schema-violating document."""


def dumps(doc: dict) -> str:
    """The canonical text of ``doc``, in one pass.

    The bytes are exactly those of ``json.dumps(doc, sort_keys=True,
    indent=2, separators=(",", ": ")) + "\n"``, for every document that
    call accepts; a value it refuses (a ``set``, say) raises the same
    ``TypeError``.  Any ``indent`` sends ``json`` to its pure-Python
    generator encoder, so the text is written here directly: one ``join``
    per container, one ``int.__repr__`` per integer, strings and keys
    through ``encode_basestring_ascii``, every other leaf through
    ``json.dumps``, and a list of equal-length rows of exact ``int`` entries
    (no ``bool``, no subclass) by one ``%d`` template per row.  An integer
    longer than the interpreter converts to text, which ``json`` refuses,
    is written exactly by :func:`_decimal`.
    """
    return _write(doc, "\n") + "\n"


_CHUNK_DIGITS = 600  # below 640, the least digit limit the interpreter accepts
_CHUNK = 10**_CHUNK_DIGITS


def _decimal(n: int) -> str:
    """``n`` in decimal, exact at any length: its base-10**600 digits from
    repeated ``divmod``, each short enough for ``int.__repr__`` under any
    ``sys.get_int_max_str_digits()``.  Called where ``int.__repr__`` refused."""
    sign, n = ("-", -n) if n < 0 else ("", n)
    chunks = []
    while n >= _CHUNK:
        n, r = divmod(n, _CHUNK)
        chunks.append(int.__repr__(r).zfill(_CHUNK_DIGITS))
    return sign + int.__repr__(n) + "".join(reversed(chunks))


def _write(o, newline: str) -> str:
    """``o`` as canonical JSON nested at ``newline``, a newline and the
    indent of the line ``o`` starts on."""
    if type(o) is int:
        try:
            return int.__repr__(o)
        except ValueError:  # more digits than the interpreter converts
            return _decimal(o)
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = newline + "  "
        items = None
        if all(type(x) is int for x in o):
            try:
                items = list(map(int.__repr__, o))
            except ValueError:
                items = map(_decimal, o)
        elif set(map(type, o)) <= {list, tuple} and len(set(map(len, o))) == 1:
            row = "[" + inner + "  " + ("," + inner + "  ").join(["%d"] * len(o[0])) + inner + "]"
            if set(map(type, chain.from_iterable(o))) == {int}:  # a matrix: a %d template per row
                with suppress(ValueError):  # more digits than the interpreter converts
                    items = [row % tuple(r) for r in o]
        if items is None:
            items = [_write(x, inner) for x in o]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = newline + "  "
        items = [_key(k) + ": " + _write(v, inner) for k, v in sorted(o.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    return json.dumps(o)


def _key(k) -> str:
    """An object key as ``json`` writes it: a string, or a bool, None, int
    or float made a string."""
    if not isinstance(k, str):
        if not (k is None or isinstance(k, (int, float))):
            raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")
        k = json.dumps(k)
    return encode_basestring_ascii(k)


def _at(prefix: str, field: str) -> str:
    """JSON path of ``field`` inside the document found at ``prefix``."""
    return f"{prefix}.{field}" if prefix else field


class LongInteger:
    """An integer literal longer than the interpreter converts to ``int``.

    :func:`int_literal` returns it in place of the number, and
    :func:`strict_ints` refuses it at its JSON path.
    """

    def __init__(self, digits: int):
        self.digits = digits

    def __str__(self) -> str:
        limit = sys.get_int_max_str_digits()
        return f"integer literal of {self.digits} digits exceeds the limit of {limit} digits"


def int_literal(literal: str):
    """``json.loads``'s ``parse_int``: the literal as an ``int``, or a
    :class:`LongInteger` when it is too long to convert."""
    try:
        return int(literal)
    except ValueError:
        return LongInteger(len(literal.lstrip("-")))


def unique_keys(pairs) -> dict:
    """``json.loads``'s ``object_pairs_hook``: the object, refusing a key
    given twice."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise DocumentError(f"repeated key {json.dumps(key)}")
        doc[key] = value
    return doc


def shown(value) -> str:
    """``value`` as JSON in an error message; a :class:`LongInteger` shows
    as its description."""
    return json.dumps(value, default=str)


def require(doc: dict, field: str, prefix: str = ""):
    """``doc[field]``, where ``doc`` must be a JSON object found at the JSON
    path ``prefix`` (the whole document when empty)."""
    if not isinstance(doc, dict):
        raise DocumentError(f"{prefix or 'document'}: expected an object, got {shown(doc)}")
    if field not in doc:
        raise DocumentError(f"missing field {_at(prefix, field)!r}")
    return doc[field]


def require_list(doc: dict, field: str, prefix: str = "") -> list:
    """``doc[field]``, which must be a JSON list; ``prefix`` locates ``doc``."""
    value = require(doc, field, prefix)
    if not isinstance(value, list):
        raise DocumentError(f"{_at(prefix, field)}: expected a list, got {shown(value)}")
    return value


def strict_ints(value, path: str, depth: int = 0):
    """A JSON integer, or ``depth`` nested lists of them as tuples.

    Anything else (floats, booleans, strings, integer literals too long to
    convert, other shapes) raises :class:`DocumentError` at its JSON path,
    e.g. ``maximal_cones[0][0][0]``.
    """
    if isinstance(value, LongInteger):
        raise DocumentError(f"{path}: {value}")
    if depth == 0:
        if type(value) is not int:
            raise DocumentError(f"{path}: expected an integer, got {shown(value)}")
        return value
    if not isinstance(value, list):
        raise DocumentError(f"{path}: expected a list, got {shown(value)}")
    return tuple(strict_ints(v, f"{path}[{i}]", depth - 1) for i, v in enumerate(value))


def strict_rank(doc: dict, field: str, prefix: str = "") -> int:
    """``doc[field]``, a nonnegative JSON integer; ``prefix`` locates ``doc``."""
    at = _at(prefix, field)
    rank = strict_ints(require(doc, field, prefix), at)
    if rank < 0:
        raise DocumentError(f"{at}: expected a nonnegative integer, got {rank}")
    return rank


def strict_vectors(value, path: str, rank: int) -> tuple:
    """A list of integer vectors of ``rank`` entries each, found at the JSON
    path ``path``; a vector of another length is refused at its path, e.g.
    ``fan.cones[0].rays[0]``."""
    rows = strict_ints(value, path, 2)
    for i, v in enumerate(rows):
        if len(v) != rank:
            raise DocumentError(f"{path}[{i}]: expected {rank} entries, got {len(v)}")
    return rows


# ---------------------------------------------------------------------------
# core types


def encode_sublattice(s: Sublattice) -> dict:
    return {"ambient_rank": s.ambient_rank, "basis": s.basis}


def decode_sublattice(doc: dict) -> Sublattice:
    rank = strict_rank(doc, "ambient_rank")
    return Sublattice(rank, row_lattice_hnf(strict_vectors(require(doc, "basis"), "basis", rank)))


def encode_cone(c: Cone) -> dict:
    return {
        "ambient_rank": c.ambient_rank,
        "rays": c.generators,
        "lineality": c.lineality,
    }


def decode_cone(doc: dict) -> Cone:
    rank = strict_rank(doc, "ambient_rank")
    return cone_from_generators(
        strict_vectors(require(doc, "rays"), "rays", rank),
        strict_vectors(doc.get("lineality", []), "lineality", rank),
        ambient_rank=rank,
    )


def encode_fan(f: Fan) -> dict:
    return {
        "lattice_rank": f.ambient_rank,
        "cones": [
            {"rays": c.generators, "lineality": c.lineality}
            for c in f.cones
        ],
        "maximal": list(f.maximal_indices()),
    }


def decode_fan(doc: dict, prefix: str = "") -> Fan:
    """Fan document found at JSON path ``prefix`` (the top level when empty)."""
    return fan_from_cones(*_fan_cones(doc, prefix))


def _fan_cones(doc: dict, prefix: str) -> tuple[list[Cone], int]:
    """The cones, in document order, and the rank of the fan document at ``prefix``."""
    rank = strict_rank(doc, "lattice_rank", prefix)
    cones = []
    for i, cdoc in enumerate(require_list(doc, "cones", prefix)):
        at = _at(prefix, f"cones[{i}]")
        cones.append(
            cone_from_generators(
                strict_vectors(require(cdoc, "rays", at), f"{at}.rays", rank),
                strict_vectors(cdoc.get("lineality", []), f"{at}.lineality", rank),
                ambient_rank=rank,
            )
        )
    return cones, rank


def encode_monoid(m: AffineMonoid) -> dict:
    return {
        "ambient_rank": m.ambient_rank,
        "hilbert_basis": m.hilbert_basis,
        "units": m.units.basis,
    }


def decode_monoid(doc: dict, prefix: str = "") -> AffineMonoid:
    """Monoid document found at JSON path ``prefix`` (the top level when empty).

    The document must hold the Hilbert basis and units of a saturated
    monoid, which is the cone they span intersected with the group they
    generate; any other is refused.
    """
    rank = strict_rank(doc, "ambient_rank", prefix)
    at = _at(prefix, "hilbert_basis")
    basis = list(strict_vectors(require(doc, "hilbert_basis", prefix), at, rank))
    units = list(strict_vectors(doc.get("units", []), _at(prefix, "units"), rank))
    cone = cone_from_generators(basis, units, ambient_rank=rank)
    m = saturated_monoid(cone, Sublattice(rank, row_lattice_hnf(basis + units)))
    if list(m.hilbert_basis) != sorted(basis):
        raise DocumentError(
            f"{at}: not the Hilbert basis of a saturated monoid, "
            f"which would be {shown(m.hilbert_basis)}"
        )
    return m


def encode_datum(d: ToricStackDatum) -> dict:
    return {
        "lattice_rank": d.lattice_rank,
        "fan": encode_fan(d.fan),
        "monoids": [encode_monoid(m) for m in d.monoids],
    }


def decode_datum(doc: dict) -> ToricStackDatum:
    """Stack datum document; parts that disagree are refused at their paths."""
    cones, rank = _fan_cones(require(doc, "fan"), "fan")
    fan = fan_from_cones(cones, rank)
    monoids = tuple(
        decode_monoid(m, f"monoids[{i}]")
        for i, m in enumerate(require_list(doc, "monoids"))
    )
    if (given := strict_rank(doc, "lattice_rank")) != rank:
        raise DocumentError(f"lattice_rank: expected the fan's lattice rank {rank}, got {given}")
    for i, m in enumerate(monoids):
        if m.ambient_rank != rank:
            raise DocumentError(f"monoids[{i}].ambient_rank: expected {rank}, got {m.ambient_rank}")
    if cones != list(fan.cones):
        raise DocumentError(f"fan.cones: not the {len(fan.cones)} cones of the fan in canonical order")
    if len(monoids) != len(cones):
        raise DocumentError(f"monoids: expected one per fan cone, {len(cones)}, got {len(monoids)}")
    return ToricStackDatum(rank, fan, monoids)


# ---------------------------------------------------------------------------
# composite documents


def _with_header(kind: str, payload: dict) -> dict:
    out = {"format_version": FORMAT_VERSION, "kind": kind}
    out.update(payload)
    return out


def encode_quotient_map(p) -> dict:
    return {
        "source_rank": p.source_rank,
        "target_rank": p.target_rank,
        "matrix": p.matrix,
        "kernel": encode_sublattice(p.kernel),
        "section": p.section,
    }


def encode_chow_document(cq) -> dict:
    cones = []
    for i, data in enumerate(cq.cone_data):
        cones.append(
            {
                "index": i,
                "meeting_set": sorted(data.meeting_set),
                "point_fiber_cones": list(data.point_fiber_cones),
                "cycle": [[s, m] for s, m in data.cycle],
                "monoid": encode_monoid(data.monoid),
                "lift_lattice": encode_sublattice(data.lift_lattice),
                "raw_monoid_inside_cone": data.raw_monoid_inside_cone,
            }
        )
    return _with_header(
        "chow_quotient",
        {
            "input_fan": encode_fan(cq.fan),
            "sublattice": encode_sublattice(cq.sub),
            "projection": encode_quotient_map(cq.projection),
            "quotient_fan": encode_fan(cq.quotient_fan),
            "cones": cones,
        },
    )


def encode_morphism(m) -> dict:
    return {
        "lattice_map": m.lattice_map,
        "cone_assignment": list(m.cone_assignment),
    }


def encode_family_document(fam) -> dict:
    return _with_header(
        "family",
        {
            "datum": encode_datum(fam.datum),
            "provenance": [[h, b] for h, b in fam.provenance],
            "to_base": encode_morphism(fam.to_base),
            "to_target": encode_morphism(fam.to_target),
            "base_datum": encode_datum(fam.base),
            "variety_datum": encode_datum(fam.variety),
        },
    )


def encode_wall(w) -> dict:
    return {
        "cone": w.index,
        "kind": w.kind,
        "iso_faces": list(w.iso_faces),
        "direction": list(w.direction),
    }


def encode_fiber_document(fam, fc, pres, tropical, dot: str) -> dict:
    """The fiber document; the gluing lengths are read off ``fc.gluing``."""
    internal = []
    for w, gluing in zip(fc.internal_walls, fc.gluing):
        doc = encode_wall(w)
        doc["gluing_on_basis"] = [[list(v), c] for v, c in gluing]
        internal.append(doc)
    return _with_header(
        "fiber",
        {
            "base_cone": fc.base_index,
            "components": list(fc.components),
            "component_hosts": list(fc.component_hosts),
            "boundary_walls": [encode_wall(w) for w in fc.boundary_walls],
            "internal_walls": internal,
            "higher": [[k, list(v)] for k, v in fc.higher],
            "adjacency": [list(e) for e in fc.adjacency],
            "basic_monoid": {
                "component_cones": list(pres.component_cones),
                "wall_relations": [
                    {"first": i, "second": j, "direction": list(u), "wall": w}
                    for i, j, u, w in pres.wall_relations
                ],
                "monoid": encode_monoid(pres.monoid),
                "block_rank": pres.block_rank,
                "host_collisions": [list(c) for c in pres.host_collisions],
            },
            "tropical_cone": encode_cone(tropical),
            "graph_dot": dot,
        },
    )


def encode_check_report(rep) -> dict:
    """The report's fields as they are: :func:`dumps` writes tuples as arrays."""
    return {
        "name": rep.name,
        "verdict": rep.verdict,
        "witnesses": rep.witnesses,
        "parameters": dict(rep.parameters),
    }
