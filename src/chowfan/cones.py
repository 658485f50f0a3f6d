"""Rational polyhedral cones and fans with exact dual descriptions.

A cone is stored with both descriptions in canonical form:

* generators: the extreme rays of the cone modulo its lineality space,
  reduced to canonical representatives, primitive and sorted;
* lineality: the saturated lattice of the lineality space, in row HNF;
* halfspaces/equations: the same data for the dual cone, so that duality is
  literally a swap of the two description pairs.

Double description, in exact integer arithmetic, is the only polyhedral
algorithm.  One run converts either description into the other and reports
which rays lie on which input constraints; the input side is made canonical
from that incidence (:func:`_cone_by_incidence`), which each cone keeps, so
faces, facets and pull-backs to a lattice need no run.  An intersection
continues the run of one operand from its rays, lines and incidence, and
inserts only the other operand's constraints.  Affine slice types are
read off the projected cone (:func:`affine_slice_type`), and fiber
dimensions off the meeting sets of the quotient
(:func:`chow.fiber_dim_cones`).  Every cone is interned in one cache
keyed by its canonical V-description, which is looked up before any
canonicalisation runs; an interned cone keeps its intersections with
other cones (:func:`intersect_cones`) and, through
:func:`monoids.saturated_monoid`, its monoids, for the whole process.
"""

from __future__ import annotations

from itertools import combinations
from math import prod
from operator import mul
from typing import Iterable, Optional, Sequence

from ._record import Record, kept
from .intlinalg import (
    Mat,
    Sublattice,
    Vec,
    _span_cut,
    coordinates_in,
    full_lattice,
    identity_matrix,
    integer_kernel,
    is_zero,
    mat,
    mat_vec,
    primitive,
    quotient_map,
    require_shape,
    saturate,
    vscale,
)


class NotStrictlyConvex(ValueError):
    """Raised when a cone unexpectedly contains a line."""


class NoTargetCone(ValueError):
    """A lattice map fails to send some source cone into any target cone."""


class NotComplete(ValueError):
    """Raised when a fan was required to cover the whole space."""


# ---------------------------------------------------------------------------
# double description method


def _reduce_mod_rows(v: Sequence[int], rows: Mat) -> Vec:
    """Canonical representative of ``v`` modulo the span of HNF rows.

    Eliminates the pivot coordinates of the rows; the result is an integer
    vector on the same ray modulo the span, made primitive.
    """
    out = tuple(v)
    for row in rows:
        p = next(filter(None, row))
        c = out[row.index(p)]
        if c:
            out = primitive([p * a - c * b for a, b in zip(out, row)])
    return out


def double_description(
    ineqs: Sequence[Sequence[int]], eqs: Sequence[Sequence[int]], rank: int, start: Optional[Cone] = None
) -> tuple[tuple[Vec, ...], Mat, tuple[int, ...]]:
    """Extreme rays, lineality basis and incidence of ``{x : ineqs.x >= 0, eqs.x == 0}``.

    Returns ``(rays, lineality, tight)``: canonical primitive rays modulo
    the lineality space, sorted; a saturated HNF lineality basis, the integer
    kernel of all constraints (lineality = ker ineqs ∩ ker eqs); and the
    bitmask ``tight[k]`` of the inequalities vanishing on ``rays[k]`` (bit
    ``i`` for ``ineqs[i]``).  Constraints are inserted one at a time, and
    two rays combine only if adjacent, which their tight sets decide
    (Fukuda & Prodon, "Double description method revisited", 1996): they
    share at least ``d - 2`` of them, ``d`` the dimension of the current
    cone modulo its lineality, and no third ray is tight on all shared ones.

    With a ``start`` cone the run continues from its double-description
    pair and converts ``start ∩ {ineqs.x >= 0, eqs.x == 0}``: the rays,
    lines and incidence of ``start`` are already the state the insertions
    need (its halfspaces vanish on its lines and, with their tight sets,
    describe it completely inside its span).  Bits ``0 .. m-1`` are then
    ``start.halfspaces``, the next ones ``ineqs``, and each equation
    follows as two inequalities, ``e`` and ``-e``; the constraints of
    ``start`` join the lineality's kernel.
    """
    constraints = list(ineqs) + list(eqs)
    if start is None:
        lineality: list[Vec] = [tuple(r) for r in identity_matrix(rank)]
        rays: list[Vec] = []
        tight: list[int] = []
        pointed_dim = 0  # one per inequality that cut the lineality space
        first_bit = 0
    else:
        lineality = list(start.lineality)
        rays = list(start.generators)
        tight = list(_transpose_masks(start.incidence, len(rays)))
        pointed_dim = start.dim - start.lineality_dim
        first_bit = len(start.halfspaces)
        constraints += start.halfspaces + start.equations
        ineqs = list(ineqs) + [v for e in eqs for v in (tuple(e), vscale(-1, e))]
        eqs = ()

    def cut_lineality(h: Vec) -> Vec:
        """Slice the lineality space along h; returns the removed direction
        normalized so that <h, l0> > 0."""
        nonlocal lineality, rays
        vals = [sum(map(mul, h, l)) for l in lineality]
        i0 = next(i for i, v in enumerate(vals) if v != 0)
        l0, a = lineality[i0], vals[i0]
        if a < 0:
            l0, a = vscale(-1, l0), -a
        lineality = [
            primitive([a * x - v * y for x, y in zip(l, l0)])
            for i, (l, v) in enumerate(zip(lineality, vals))
            if i != i0
        ]
        # prior constraints vanish on l0, so prior tight sets are unchanged
        rays = [
            primitive([a * x - v * y for x, y in zip(r, l0)])
            for r, v in zip(rays, [sum(map(mul, h, r)) for r in rays])
        ]
        return l0

    for e in eqs:  # rays are still empty here, equations only slice lineality
        e = tuple(e)
        if any(e) and any(sum(map(mul, e, l)) for l in lineality):
            cut_lineality(e)

    for i, h_raw in enumerate(ineqs, first_bit):
        h = tuple(h_raw)
        bit = 1 << i
        if any(sum(map(mul, h, l)) for l in lineality):
            l0 = cut_lineality(h)
            # every old ray was projected into the hyperplane of h, and every
            # prior constraint vanishes on l0
            tight = [t | bit for t in tight]
            rays.append(l0)
            tight.append(bit - 1)
            pointed_dim += 1
            continue
        vals = [sum(map(mul, h, r)) for r in rays]
        if all(v >= 0 for v in vals):
            tight = [t | bit if v == 0 else t for t, v in zip(tight, vals)]
            continue
        new_rays = [r for r, v in zip(rays, vals) if v >= 0]
        new_tight = [t | bit if v == 0 else t for t, v in zip(tight, vals) if v >= 0]
        minus = [k for k, v in enumerate(vals) if v < 0]
        for ip, vp in enumerate(vals):
            if vp <= 0:
                continue
            for im in minus:
                common = tight[ip] & tight[im]
                if common.bit_count() < pointed_dim - 2:
                    continue
                # ip and im themselves are tight on common
                if sum(t & common == common for t in tight) > 2:
                    continue
                vm = vals[im]
                new_rays.append(primitive([vp * x - vm * y for x, y in zip(rays[im], rays[ip])]))
                new_tight.append(common | bit)
        rays = new_rays
        tight = new_tight

    lin_hnf = integer_kernel(constraints, rank) if lineality else ()
    canon: dict[Vec, int] = {}
    for r, t in zip(rays, tight):
        r = primitive(_reduce_mod_rows(r, lin_hnf))
        if not is_zero(r):
            canon[r] = t
    out = tuple(sorted(canon))
    return out, lin_hnf, tuple(canon[r] for r in out)


def _transpose_masks(masks: Sequence[int], n: int) -> tuple[int, ...]:
    """Incidence by columns: bit ``k`` of ``out[j]`` is bit ``j`` of ``masks[k]``."""
    return tuple(sum(1 << k for k, m in enumerate(masks) if m >> j & 1) for j in range(n))


def _select_bits(mask: int, picked: Sequence[int]) -> int:
    """The bits of ``mask`` at positions ``picked``, renumbered ``0, 1, ...``."""
    return sum(1 << n for n, k in enumerate(picked) if mask >> k & 1)


# ---------------------------------------------------------------------------
# cones


class Cone(Record):
    """A rational polyhedral cone with canonical dual descriptions.

    ``generators``/``lineality`` describe the cone itself, ``halfspaces``/
    ``equations`` are the extreme rays and lineality lattice of the dual
    cone, i.e. a canonical irredundant H-description.  ``incidence[j]`` is
    the bitmask of the generators on the hyperplane of ``halfspaces[j]``;
    it is derived data, outside equality and :meth:`key`.
    """

    ambient_rank: int
    generators: tuple[Vec, ...]
    lineality: Mat
    halfspaces: tuple[Vec, ...]
    equations: Mat
    incidence: tuple[int, ...]
    _uncompared = ("incidence",)

    @property
    def dim(self) -> int:
        return self.ambient_rank - len(self.equations)

    @property
    def lineality_dim(self) -> int:
        return len(self.lineality)

    @property
    def is_strictly_convex(self) -> bool:
        return not self.lineality

    def contains(self, v: Sequence) -> bool:
        return all(sum(map(mul, h, v)) >= 0 for h in self.halfspaces) and not any(
            sum(map(mul, e, v)) for e in self.equations
        )

    def contains_in_relint(self, v: Sequence) -> bool:
        return all(sum(map(mul, h, v)) > 0 for h in self.halfspaces) and not any(
            sum(map(mul, e, v)) for e in self.equations
        )

    def contains_cone(self, other: "Cone") -> bool:
        return all(self.contains(g) for g in other.generators) and all(
            self.contains(l) and self.contains(vscale(-1, l)) for l in other.lineality
        )

    def is_zero(self) -> bool:
        return not self.generators and not self.lineality

    def key(self):
        return (self.ambient_rank, self.generators, self.lineality)

    def __repr__(self) -> str:
        return f"Cone(rank {self.ambient_rank}, rays {list(self.generators)}" + (
            f", lines {list(self.lineality)})" if self.lineality else ")"
        )


# Canonical cones are interned here.  Values are immutable and equality is
# by value, so a racy duplicate insertion under concurrent use is harmless.
_cone_cache: dict = {}


def _intern(cone: Cone) -> Cone:
    return _cone_cache.setdefault(cone.key(), cone)


def _cone_by_incidence(
    rank: int, rays: tuple[Vec, ...], lines: Mat, constraints: Sequence[Vec], tight: Sequence[int],
    input_equations: Sequence[Vec], equations: Optional[Mat] = None,
) -> Cone:
    """The cone with canonical rays and lines, its H-description read off
    the incidence of some constraints.

    The ``constraints`` are nonnegative on the cone, their zero sets
    include every facet, and ``tight[i]`` is the bitmask of the rays on
    which ``constraints[i]`` vanishes.  The facets are then the constraints
    whose tight set is maximal among the proper ones, each reduced modulo
    the equations ``integer_kernel(rays + lines)``, which are empty when
    the caller's ``input_equations`` are and no constraint vanishes on
    every ray (the implicit equalities of ``{constraints.x >= 0}`` vanish
    on the whole cone), unless the caller passes the canonical
    ``equations``.  On the dual cone this turns an H-description into the
    canonical rays.
    """
    full = (1 << len(rays)) - 1
    first: dict[int, int] = {}
    for i, t in enumerate(tight):
        if t != full:
            first.setdefault(t, i)
    if equations is None:
        equations = integer_kernel(rays + lines, rank) if input_equations or full in tight else ()
    facets = sorted(
        (primitive(_reduce_mod_rows(constraints[i], equations)), t)
        for t, i in first.items()
        if not any(t != u and t & u == t for u in first)
    )
    halfspaces = tuple(h for h, _ in facets)
    return Cone(rank, rays, lines, halfspaces, equations, tuple(t for _, t in facets))


def cone_from_generators(
    rays: Sequence[Sequence[int]], lines: Sequence[Sequence[int]] = (), ambient_rank: Optional[int] = None
) -> Cone:
    """Cone generated by rays (and optional lines), canonicalized.

    Input whose rays, made primitive, deduplicated and sorted, are with its
    lines the canonical data of an interned cone returns that cone with no
    double description.  Otherwise one double description gives the facet
    normals, and the canonical rays are read off its incidence
    (:func:`_cone_by_incidence` on the dual cone).
    """
    rays, lines = mat(rays), mat(lines)
    if ambient_rank is None:
        if rays:
            ambient_rank = len(rays[0])
        elif lines:
            ambient_rank = len(lines[0])
        else:
            raise ValueError("ambient_rank required for the zero cone")
    for v in rays + lines:
        if len(v) != ambient_rank:
            raise ValueError("generator of wrong length")
    rays = tuple(sorted({primitive(r) for r in rays if not is_zero(r)}))
    cached = _cone_cache.get((ambient_rank, rays, lines))
    if cached is not None:
        return cached
    # dual H-description: functionals nonnegative on rays, zero on lines
    halfspaces, equations, on_facet = double_description(rays, lines, ambient_rank)
    tight = _transpose_masks(on_facet, len(rays))
    return dual_cone(_cone_by_incidence(ambient_rank, halfspaces, equations, rays, tight, lines))


def cone_from_halfspaces(
    halfspaces: Sequence[Sequence[int]], equations: Sequence[Sequence[int]] = (), ambient_rank: Optional[int] = None
) -> Cone:
    """Cone cut out by ``<h,x> >= 0`` and ``<e,x> == 0``, canonicalized: one
    double description gives the canonical rays, and the facets are read
    off its incidence (:func:`_cone_by_incidence`) unless already interned.
    """
    halfspaces, equations = mat(halfspaces), mat(equations)
    if ambient_rank is None:
        pool = halfspaces + equations
        if not pool:
            raise ValueError("ambient_rank required for the full space")
        ambient_rank = len(pool[0])
    run = double_description(halfspaces, equations, ambient_rank)
    return _cone_from_run(ambient_rank, run, halfspaces, equations)


def _cone_from_run(
    rank: int, run: tuple[tuple[Vec, ...], Mat, tuple[int, ...]], constraints: Sequence[Vec],
    equations: Sequence[Vec],
) -> Cone:
    """The interned cone of ``run``, a double description of the cone cut
    out by ``constraints`` and ``equations`` whose tight bits number the
    ``constraints`` first: looked up by its canonical rays and lines, or
    its facets read off that incidence (:func:`_cone_by_incidence`)."""
    rays, lin, on_ray = run
    cached = _cone_cache.get((rank, rays, lin))
    if cached is not None:
        return cached
    tight = _transpose_masks(on_ray, len(constraints))
    return _intern(_cone_by_incidence(rank, rays, lin, constraints, tight, equations))


def _cone_by_constraints(rank: int, rays: Sequence[Vec], dim: int, constraints: Sequence[Vec]) -> Cone:
    """The interned pointed cone of dimension ``dim`` generated by the
    primitive ``rays``, given ``constraints`` nonnegative on it whose zero
    sets include every facet: its facets are read off their incidence
    (:func:`_cone_by_incidence`), its equations are the kernel of the rays
    (none when ``dim == rank``), and no double description runs."""
    rays = tuple(sorted(set(rays)))
    cached = _cone_cache.get((rank, rays, ()))
    if cached is not None:
        return cached
    tight = [sum(1 << k for k, r in enumerate(rays) if not sum(map(mul, h, r))) for h in constraints]
    equations = integer_kernel(rays, rank) if dim < rank else ()
    return _intern(_cone_by_incidence(rank, rays, (), constraints, tight, (), equations))


def zero_cone(ambient_rank: int) -> Cone:
    return cone_from_generators([], ambient_rank=ambient_rank)


def dual_cone(c: Cone) -> Cone:
    """Polar dual ``{u : <u,x> >= 0 for all x in c}``, interned; involutive,
    and ``dual_cone(dual_cone(c)) is c`` for an interned ``c``."""
    cached = _cone_cache.get((c.ambient_rank, c.halfspaces, c.equations))
    if cached is not None:
        return cached
    incidence = _transpose_masks(c.incidence, len(c.generators))
    return _intern(Cone(c.ambient_rank, c.halfspaces, c.equations, c.generators, c.lineality, incidence))


@kept
def intersect_cones(a: Cone, b: Cone) -> Cone:
    """The cone ``a ∩ b``, cut out by the constraints of both.

    The double description continues from the operand with more
    constraints (each equation counted twice; ``a`` on a tie) and inserts
    only the other's, and the facets are read off the incidence of both
    operands' halfspaces (:func:`_cone_by_incidence`); the result is
    canonical whichever operand starts.  It is kept on ``a``, keyed by
    ``b`` (a canonical cone is equal to another exactly when their
    :meth:`~Cone.key` are): it depends only on the canonical data of the
    two cones, so a repeat call with the same ``a`` (an interned cone is
    shared by the whole process) runs no double description.
    """
    if a.ambient_rank != b.ambient_rank:
        raise ValueError("ambient ranks differ")
    start, other = (a, b) if _constraint_count(a) >= _constraint_count(b) else (b, a)
    run = double_description(other.halfspaces, other.equations, a.ambient_rank, start)
    return _cone_from_run(
        a.ambient_rank, run, start.halfspaces + other.halfspaces, start.equations + other.equations
    )


def _constraint_count(c: Cone) -> int:
    """The inequalities a double description inserts for ``c``'s H-description."""
    return len(c.halfspaces) + 2 * len(c.equations)


def image_cone(matrix: Mat, c: Cone) -> Cone:
    """Image of a cone under an integer matrix (rows act on column vectors),
    kept on ``c`` per matrix as a tuple of tuples (a library matrix is its
    own key, not copied per cone), so each cone is projected once per map;
    rows without ``c``'s rank entries raise ``ValueError``, and a
    non-integer entry ``TypeError``, on either path and before the kept
    image is looked up (``((1.0, 0),)`` equals ``((1, 0),)`` as a key)."""
    if not (
        type(matrix) is tuple
        and all(type(r) is tuple for r in matrix)
        and {type(x) for r in matrix for x in r} <= {int}
    ):
        matrix = mat(matrix)
    return _image_cone(c, matrix)


@kept
def _image_cone(c: Cone, matrix: Mat) -> Cone:
    require_shape(mat(matrix), len(matrix), c.ambient_rank)
    lines = [mat_vec(matrix, l) for l in c.lineality]
    return cone_from_generators(
        [mat_vec(matrix, g) for g in c.generators],
        [l for l in lines if not is_zero(l)],
        ambient_rank=len(matrix),
    )


def preimage_cone(matrix: Mat, c: Cone, source_rank: int) -> Cone:
    """Preimage ``{x in Q^source_rank : Mx in c}``; includes ker(M) in its lineality."""
    require_shape(matrix, c.ambient_rank, source_rank)
    # <h, Mx> = <hM, x>: pull every functional back along the matrix
    cols = tuple(zip(*matrix))
    halfspaces = [mat_vec(cols, h) for h in c.halfspaces]
    equations = [mat_vec(cols, e) for e in c.equations]
    return cone_from_halfspaces(halfspaces, equations, source_rank)


@kept
def _pull_back(c: Cone, basis: Mat) -> Cone:
    """The cone ``{y : y @ basis in c}`` in the coordinates of the HNF rows
    ``basis``, whose span must hold ``c``.

    ``y -> y @ basis`` is then an isomorphism onto a space holding ``c``:
    the rays go to their coordinates (integral after scaling by the product
    of the pivots), each halfspace ``h`` to ``h ∘ basis``, with the
    incidence of ``c``, and no double description runs.  A generator
    outside ``span(basis)`` raises ``ValueError``.
    """
    k = len(basis)
    pulled_h = [mat_vec(basis, h) for h in c.halfspaces]
    pulled_e = [e for e in (mat_vec(basis, e) for e in c.equations) if any(e)]
    scale = prod(next(x for x in row if x) for row in basis)
    coords = [coordinates_in(basis, vscale(scale, g)) for g in c.generators + c.lineality]
    if None in coords:
        g = (c.generators + c.lineality)[coords.index(None)]
        raise ValueError(f"generator {g} of {c} is outside the span of {list(basis)}")
    lin = integer_kernel(pulled_h + pulled_e, k) if c.lineality else ()
    n = len(c.generators)
    moved = [primitive(_reduce_mod_rows(y, lin)) for y in coords[:n]]
    order = sorted(range(n), key=moved.__getitem__)
    rays = tuple(moved[j] for j in order)
    cached = _cone_cache.get((k, rays, lin))
    if cached is not None:
        return cached
    tight = [_select_bits(t, order) for t in c.incidence]
    return _intern(_cone_by_incidence(k, rays, lin, pulled_h, tight, pulled_e))


def relative_interior_sample(c: Cone) -> Vec:
    """The sum of the rays of ``c``, an integer point in its relative
    interior (the origin when ``c`` is a linear space or zero)."""
    return tuple(map(sum, zip(*c.generators))) if c.generators else (0,) * c.ambient_rank


@kept
def _span_lattice(c: Cone) -> Sublattice:
    """The saturated lattice ``span_R(c) ∩ Z^r``, kept on the cone: the cut
    of ``Z^r`` by ``c.equations``, whose memo the cones of one span share.
    """
    return _span_cut(full_lattice(c.ambient_rank), c.equations)


def affine_slice_type(c: Cone, psi: Sequence, sub: Sublattice) -> str:
    """Classify ``relint(c) ∩ (psi + span_R(sub))``.

    Returns one of ``"empty"``, ``"point"``, ``"positive_dim"``.  With ``p``
    the projection along ``span(sub)``, ``p(relint c) = relint p(c)``, so the
    slice is nonempty exactly when ``p(psi)`` lies in the relative interior
    of ``p(c)``; it is then an open piece of a translate of
    ``span(c) ∩ span(sub)``, a point exactly when ``dim p(c) == dim c``.
    """
    if len(psi) != c.ambient_rank or sub.ambient_rank != c.ambient_rank:
        raise ValueError("dimension mismatch")
    proj = quotient_map(c.ambient_rank, saturate(sub))
    image = image_cone(proj.matrix, c)
    if not image.contains_in_relint(proj.apply(psi)):
        return "empty"
    return "point" if image.dim == c.dim else "positive_dim"


# ---------------------------------------------------------------------------
# faces


def facets(c: Cone) -> tuple[Cone, ...]:
    """The codimension-one faces of ``c``, one per halfspace, in its order.

    The generators on a halfspace, with the lineality, are already the
    canonical V-description of its facet, and the halfspaces of ``c`` cut
    out every facet of that facet; so the facet is read off the incidence
    of ``c`` (:func:`_cone_by_incidence`) and no double description runs.
    A facet of a full-dimensional ``c`` has its primitive normal, sign
    fixed, as its equation; other facets take the kernel of their rays, as
    ``c``'s equations and the normal may span an unsaturated lattice.
    """
    out = []
    for h, mask in zip(c.halfspaces, c.incidence):
        rays = tuple([g for k, g in enumerate(c.generators) if mask >> k & 1])
        face = _cone_cache.get((c.ambient_rank, rays, c.lineality))
        if face is None:
            picked = [k for k in range(len(c.generators)) if mask >> k & 1]
            tight = [_select_bits(t, picked) for t in c.incidence]
            eqs = None if c.equations else (h if next(filter(None, h)) > 0 else vscale(-1, h),)
            face = _intern(_cone_by_incidence(c.ambient_rank, rays, c.lineality, c.halfspaces, tight, c.equations, eqs))
        out.append(face)
    return tuple(out)


def _closure(cones: Iterable[Cone]) -> list[Cone]:
    """Every face of the ``cones``, sorted: a walk down through facets that
    expands each face once, however many of the cones share it."""
    seen = {}
    frontier = list(cones)
    while frontier:
        nxt = []
        for f in frontier:
            if f.key() not in seen:
                seen[f.key()] = f
                nxt.extend(facets(f))
        frontier = nxt
    return sorted(seen.values(), key=_cone_sort_key)


def all_faces(c: Cone) -> tuple[Cone, ...]:
    """Every face of ``c``, from ``c`` down through facets to its minimal
    face: the zero cone, or the lineality space when ``c`` has lines."""
    return tuple(_closure((c,)))


def _smallest_face_key(c: Cone, vectors: Sequence[Sequence[int]]):
    """Key of the smallest face of ``c`` containing ``vectors`` (all in ``c``).

    That face is the zero locus of the halfspaces of ``c`` vanishing on every
    vector; its canonical rays are the generators of ``c`` on all of them,
    the intersection of their incidence masks.
    """
    mask = (1 << len(c.generators)) - 1
    for h, t in zip(c.halfspaces, c.incidence):
        if not any(sum(map(mul, h, g)) for g in vectors):
            mask &= t
    rays = tuple(g for k, g in enumerate(c.generators) if mask >> k & 1)
    return (c.ambient_rank, rays, c.lineality)


def is_face_of(face: Cone, c: Cone) -> bool:
    """Exact test that ``face`` is a face of ``c``."""
    if not c.contains_cone(face):
        return False
    return _smallest_face_key(c, face.generators + face.lineality) == face.key()


# ---------------------------------------------------------------------------
# fans


def _cone_sort_key(c: Cone):
    return (c.dim, c.generators, c.lineality)


class Fan(Record):
    """A finite collection of strictly convex cones, closed under faces.

    Cones are stored sorted by a canonical key, so equal fans compare equal
    and cone indices are stable across runs.  The key index, the maximal
    cones and the :func:`validate_fan` report are computed on first use and
    kept on the fan (:func:`~chowfan._record.kept`).
    """

    ambient_rank: int
    cones: tuple[Cone, ...]

    def index_of(self, c: Cone) -> int:
        return self._index()[c.key()]

    @kept
    def _index(self):
        return {c.key(): i for i, c in enumerate(self.cones)}

    def __contains__(self, c: Cone) -> bool:
        return c.key() in self._index()

    @kept
    def _facets(self) -> tuple[tuple[Optional[int], ...], ...]:
        """Per cone, the indices of its facets in the order of its
        halfspaces (:func:`facets`), None for a facet missing from the
        collection; read off each cone's incidence once, with no double
        description, and shared by the fan's validation, its maximal cones,
        its completeness test and the fan morphisms from it."""
        index = self._index()
        return tuple(tuple(index.get(f.key()) for f in facets(c)) for c in self.cones)

    @kept
    def maximal_indices(self) -> tuple[int, ...]:
        """Indices of the cones that are a facet of no cone of the fan.

        In a fan a cone inside another is a face of it, hence a facet of a
        cone in between; so on a fan these are the cones contained in no
        other cone.  They are read off the facet table (:meth:`_facets`).
        """
        covered = {j for row in self._facets() for j in row}
        return tuple(i for i in range(len(self.cones)) if i not in covered)

    def cone_containing_in_relint(self, v: Sequence) -> Optional[int]:
        """Index of the cone whose relative interior contains ``v``, or None.

        Assumes a valid fan, where that cone is unique: it is the face cut
        out by the halfspaces vanishing at ``v`` of any maximal cone that
        contains ``v``, so only maximal cones are scanned.
        """
        for i in self.maximal_indices():
            c = self.cones[i]
            if c.contains(v):
                return self._index().get(_smallest_face_key(c, (tuple(v),)))
        return None

    def __repr__(self) -> str:
        return f"Fan(rank {self.ambient_rank}, {len(self.cones)} cones)"


def fan_from_cones(cones: Iterable[Cone], ambient_rank: Optional[int] = None) -> Fan:
    """Build a fan from (typically maximal) cones, completing all faces in
    one facet walk (:func:`_closure`)."""
    cones = list(cones)
    if ambient_rank is None:
        if not cones:
            raise ValueError("ambient_rank required for the empty fan")
        ambient_rank = cones[0].ambient_rank
    if any(c.ambient_rank != ambient_rank for c in cones):
        raise ValueError("mixed ambient ranks")
    return Fan(ambient_rank, tuple(_closure(cones or [zero_cone(ambient_rank)])))


class FanValidationReport(Record):
    ok: bool
    violations: tuple[str, ...]


@kept
def validate_fan(f: Fan) -> FanValidationReport:
    """Check strict convexity, face closure and pairwise face intersections.

    Face closure is tested one level down, on the facets of every cone:
    every proper face of a cone is a face of one of its facets, whose own
    facets are tested in turn, so by induction every face is in the fan.
    Only pairs of maximal cones (:meth:`Fan.maximal_indices`) are
    checked.  In a face-closed collection every cone is a face of a
    maximal one, and if maximal cones σ, τ meet in a common face ρ, then
    for faces σ' ≤ σ and τ' ≤ τ the intersection σ'∩τ' = (σ'∩ρ) ∩ (τ'∩ρ)
    is an intersection of two faces of ρ, so a face of σ' and of τ'.

    Each pair is first reduced along separating halfspaces: if a halfspace
    ``h`` of σ is ``<= 0`` on τ, then ``σ ∩ τ = (σ ∩ h⊥) ∩ (τ ∩ h⊥)``, and a
    face of σ inside a face σ' is a face of σ', and a face of σ' one of σ;
    so the pair's verdict is that of the exposed faces, and only a pair left
    unequal is intersected (:func:`_separated_faces`).  The verdict is that
    of the all-pairs check; an invalid collection may have fewer violating
    pairs named.  The report is kept on the fan, so every caller holding
    the same fan shares one pass.
    """
    problems = []
    for i, (c, row) in enumerate(zip(f.cones, f._facets())):
        if not c.is_strictly_convex:
            problems.append(f"cone {i} contains a line")
        if None in row:
            problems.append(f"cone {i} has a face missing from the fan")
    for i, j in combinations(f.maximal_indices(), 2):
        a, b = _separated_faces(f.cones[i], f.cones[j])
        if a.key() == b.key():
            continue
        inter = intersect_cones(a, b)
        if not (is_face_of(inter, a) and is_face_of(inter, b)):
            problems.append(f"intersection of cones {i} and {j} is not a common face")
    return FanValidationReport(not problems, tuple(problems))


def _separated_faces(a: Cone, b: Cone) -> tuple[Cone, Cone]:
    """Faces ``a' ≤ a``, ``b' ≤ b`` with ``a ∩ b = a' ∩ b'``: while they differ,
    a halfspace ``h`` of one, ``<= 0`` on the other, takes both to the faces
    ``h⊥`` exposes, looked up by their rays among the interned cones, until
    none is left or a face is not interned.  No double description runs."""
    while a.key() != b.key():
        h = next((
            h for x, y in ((a, b), (b, a)) for h in x.halfspaces
            if all(sum(map(mul, h, g)) <= 0 for g in y.generators) and not any(sum(map(mul, h, l)) for l in y.lineality)
        ), None)
        if h is None:
            break
        faces = [
            _cone_cache.get((c.ambient_rank, tuple([g for g in c.generators if not sum(map(mul, h, g))]), c.lineality))
            for c in (a, b)
        ]
        if None in faces:
            break
        a, b = faces
    return a, b


def is_complete(f: Fan) -> bool:
    """Exact completeness test: support equals the whole space.

    A valid fan is complete iff it has a full-dimensional cone and every
    cone of codimension one is a facet of exactly two full-dimensional
    cones (no boundary facets).  Facets are read off the facet table
    (:meth:`Fan._facets`); a facet missing from the collection is counted
    by its key, so two missing facets stay apart.
    """
    n = f.ambient_rank
    if n == 0:
        return len(f.cones) >= 1
    top = [i for i, c in enumerate(f.cones) if c.dim == n]
    if not top:
        return False
    ridge_count: dict = {}
    table = f._facets()
    for i in top:
        row = table[i]
        if None in row:
            row = [face.key() if j is None else j for j, face in zip(row, facets(f.cones[i]))]
        for j in row:
            ridge_count[j] = ridge_count.get(j, 0) + 1
    if any(v != 2 for v in ridge_count.values()):
        return False
    # every codimension-one cone of the fan must appear among those facets
    return all(c.dim != n - 1 or i in ridge_count for i, c in enumerate(f.cones))


class FanMorphism(Record):
    lattice_map: Mat
    source: Fan
    target: Fan
    cone_assignment: tuple[int, ...]


def check_fan_morphism(matrix: Mat, src: Fan, dst: Fan) -> FanMorphism:
    """Verify a lattice map sends every source cone into a target cone.

    ``dst`` must be a valid fan; its kept :func:`validate_fan` report is
    consulted and :class:`ValueError` raised otherwise.  Each source cone is
    assigned the minimal target cone containing its image.

    A maximal source cone takes its (kept) image: the image itself when it
    is a cone of ``dst``, needing no containment test, else the cone whose
    relative interior holds a relative-interior point of the image (in a
    fan, any cone containing the image contains that one), tested to
    contain it.  Every other cone ``f`` is a facet of a cone of higher
    dimension (:meth:`Fan._facets`); cones are walked by descending
    dimension (descending index in a fan's canonical order), so one such
    coface is assigned first, to ``T``; ``f`` takes the smallest face of
    ``T`` holding ``M·p``, ``p`` the relative-interior sample of ``f``.
    This is exact, with no image and no containment test (the face lemma):
    ``M·relint(f) = relint(M f) ⊆ T``, so that face of ``T`` holds ``M f``,
    and in the valid ``dst`` it lies in every cone holding ``M f``.

    Raises :class:`NoTargetCone` naming the first maximal source cone whose
    image no target cone contains (its faces then need no test), and
    ``ValueError`` when the matrix is not target rank × source rank.  The
    morphism is kept on ``src`` per matrix and target; a call that raises
    keeps nothing.
    """
    return _fan_morphism(src, mat(matrix), dst)


@kept
def _fan_morphism(src: Fan, matrix: Mat, dst: Fan) -> FanMorphism:
    if not validate_fan(dst).ok:
        raise ValueError("the target of a fan morphism is not a valid fan")
    require_shape(matrix, dst.ambient_rank, src.ambient_rank)
    index = dst._index()
    assignment: list = [None] * len(src.cones)
    for i in src.maximal_indices():
        img = image_cone(matrix, src.cones[i])
        j = index.get(img.key())
        if j is None:
            j = dst.cone_containing_in_relint(relative_interior_sample(img))
            if j is None or not dst.cones[j].contains_cone(img):
                raise NoTargetCone(f"image of source cone {i} lies in no target cone")
        assignment[i] = j
    table = src._facets()
    for i in sorted(range(len(src.cones)), key=lambda i: -src.cones[i].dim):
        target = dst.cones[assignment[i]]
        for k in table[i]:
            if k is not None and assignment[k] is None:
                point = mat_vec(matrix, relative_interior_sample(src.cones[k]))
                assignment[k] = index[_smallest_face_key(target, (point,))]
    return FanMorphism(matrix, src, dst, tuple(assignment))
