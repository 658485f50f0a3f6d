"""The Chow quotient of a complete fan by a saturated sublattice.

Given a complete fan in N = Z^r and a saturated sublattice L, the quotient
fan lives in Q = N/L.  Its cones are the closures of the equivalence
classes of the invariant

    meeting set of psi  =  the cones whose relative interior meets
                           psi + span_R(L),

which only depends on p(psi), and equals the set of cones whose projected
image contains p(psi) in its relative interior.  The construction
enumerates the cells of the central hyperplane arrangement spanned by the
facet and span functionals of all projected cones, takes one sample per
cell, and closes the class with meeting set M up to the fiber-fan cone
K_M = ∩_{j in M} p(sigma_j) (Billera & Sturmfels, "Fiber polytopes", 1992).
The cells are read off the chambers (Björner et al., Oriented Matroids,
1999, ch. 2 and 4): a chamber straddles a normal exactly when the normal
takes both signs on its rays or is nonzero on a line, so only such a
chamber is halved; the faces of the chamber closures are exactly the cell
closures, found by a facet walk over incidence; and the sum of a face's
rays lies in its relative interior, so it samples the face's cell.
A sample's meeting set is read off its covector, the signs of the normals
on it: every image has a sign pattern on its relative interior.  An image
of M contained in every other is K_M, and takes no conversion.  Its
relative interior ∩ relint p(sigma_j) holds the class (Rockafellar, Convex
Analysis, Thm 6.5) and is a union of cells, so it is the class exactly when
it holds no sample of another class, which needs no scan once the class
cones pass the checks of :func:`chow_quotient`.  A sample of class M' is
positive on every halfspace and zero on every equation of the images in
M', whose reductions modulo the equations of K_M' are its facets, so it lies
in relint K_M'; were it in relint K_M too, with K_M != K_M', two cones of one
fan would have meeting relative interiors, and their intersection, a face
of each holding a relative-interior point of each, would be both, which the
all-pairs verdict of :func:`~chowfan.cones.validate_fan` refuses.

Each quotient cone carries provenance: the meeting set, the cones whose
generic translate slice is a single point, the associated cycle with its
lattice-index multiplicities, and the stack monoid obtained by
intersecting the projected cone lattices.  The single-point cones are the
meeting cones whose dimension the projection keeps; every fiber dimension
is read off the meeting set too (:func:`fiber_dim_cones`).
"""

from __future__ import annotations

from functools import cache, reduce
from math import prod
from typing import Sequence

from ._record import Record, kept
from .cones import (
    Cone,
    Fan,
    NotComplete,
    _closure,
    _span_lattice,
    all_faces,
    cone_from_halfspaces,
    fan_from_cones,
    image_cone,
    intersect_cones,
    is_complete,
    relative_interior_sample,
    validate_fan,
)
from .intlinalg import (
    QuotientMap,
    Sublattice,
    Vec,
    dot,
    elementary_divisors,
    image_lattice,
    is_zero,
    lattice_intersection,
    lattice_sum,
    primitive,
    quotient_map,
    saturate,
    vscale,
)
from .monoids import AffineMonoid, saturated_monoid
from .stacks import InternalConsistencyError, ToricStackDatum, validate_stack_datum


class InfiniteIndex(ValueError):
    """The multiplicity index is infinite because spans overlap."""


# ---------------------------------------------------------------------------
# the class invariant


def _meeting_set(images: Sequence[Cone], v: Sequence[int]) -> frozenset[int]:
    """Indices of the projected cones whose relative interior contains ``v``."""
    return frozenset(i for i, img in enumerate(images) if img.contains_in_relint(v))


def meeting_cones(fan: Fan, sub: Sublattice, psi: Sequence) -> frozenset[int]:
    """Indices of fan cones whose relative interior meets ``psi + span(sub)``."""
    proj = quotient_map(fan.ambient_rank, saturate(sub))
    images = [image_cone(proj.matrix, c) for c in fan.cones]
    return _meeting_set(images, proj.apply(psi))


# ---------------------------------------------------------------------------
# multiplicities


@kept
def multiplicity(fan: Fan, sub: Sublattice, cone_index: int) -> int:
    """Lattice index weight of an orbit closure in the quotient cycle.

    The index ``[sat(T) : T]`` of ``T = (L ∩ N) + (span(sigma) ∩ N)``, the
    product of its elementary divisors.  Requires the spans to meet only at
    the origin, i.e. ``rank T == rank L + rank(span(sigma) ∩ N)``.  Kept on
    the fan, keyed by ``(sub, cone_index)``.
    """
    span_sigma = _span_lattice(fan.cones[cone_index])
    total = lattice_sum(sub, span_sigma)
    if total.rank != sub.rank + span_sigma.rank:
        raise InfiniteIndex(
            f"span of cone {cone_index} meets the sublattice span nontrivially"
        )
    return prod(elementary_divisors(total.basis))


# ---------------------------------------------------------------------------
# arrangement cells


def _cell_split(normals, rank: int) -> list[Vec]:
    """One integer sample per nonempty relatively open cell of a central
    arrangement.  The arrangement holds every facet and equation of every
    image, so meeting sets are constant on cells.

    The chambers come first, halved from the whole space along one normal
    at a time.  A chamber ``c`` straddles ``h`` exactly when ``h`` takes
    both signs on its rays or is nonzero on a line (``c`` is the rays'
    cone plus the lines' span), and only then is it replaced by its halves
    ``c ∩ {±h >= 0}``, one double description each: ``2 × chambers − 1``
    in all.  Every normal is then ``>= 0`` or ``<= 0`` on each chamber, so
    on a face of one it vanishes or has one strict sign on the relative
    interior; the relative interiors of the faces of the chamber closures
    partition the space, so those faces are exactly the cell closures
    (Björner et al., Oriented Matroids, 1999, ch. 2 and 4).  They are read
    off incidence by a facet walk (:func:`~chowfan.cones._closure`), which
    runs no double description, and the sum of a face's rays lies in its
    relative interior, so it samples the face's cell.
    """
    chambers = [cone_from_halfspaces((), (), rank)]
    for h in normals:
        halved = []
        for c in chambers:
            vals = [dot(h, g) for g in c.generators]
            if (max(vals, default=0) > 0 > min(vals, default=0)) or any(dot(h, l) for l in c.lineality):
                halved += [cone_from_halfspaces(c.halfspaces + (s,), c.equations, rank) for s in (h, vscale(-1, h))]
            else:
                halved.append(c)
        chambers = halved
    return [relative_interior_sample(f) for f in _closure(chambers)]


# ---------------------------------------------------------------------------
# the quotient


class QuotientConeData(Record):
    """Provenance attached to one cone of the quotient fan."""

    meeting_set: frozenset[int]
    point_fiber_cones: tuple[int, ...]
    cycle: tuple[tuple[int, int], ...]
    monoid: AffineMonoid
    lift_lattice: Sublattice
    raw_monoid_inside_cone: bool


class ChowQuotient(Record):
    fan: Fan
    sub: Sublattice
    projection: QuotientMap
    quotient_fan: Fan
    cone_data: tuple[QuotientConeData, ...]

    def __repr__(self) -> str:
        return (
            f"ChowQuotient(rank {self.fan.ambient_rank} -> {self.projection.target_rank}, "
            f"{len(self.quotient_fan.cones)} quotient cones)"
        )


def chow_quotient(fan: Fan, sub: Sublattice) -> ChowQuotient:
    """Quotient fan with full per-cone provenance.

    Requires a complete fan (the input variety is projective) and a
    saturated sublattice; raises :class:`~chowfan.cones.NotComplete` or
    :class:`~chowfan.intlinalg.NotSaturated` otherwise.  Each class is the
    relative interior of its cone once the class cones are pointed, pairwise
    distinct and closed under faces, and form a complete fan (module docstring).
    """
    rep = validate_fan(fan)
    if not rep.ok:
        raise ValueError("input fan is invalid: " + "; ".join(rep.violations))
    if not is_complete(fan):
        raise NotComplete("the fan does not cover the whole space")
    proj = quotient_map(fan.ambient_rank, sub)  # checks saturation
    q = proj.target_rank
    images = tuple(image_cone(proj.matrix, c) for c in fan.cones)

    normals = {_canonical_normal(h) for img in images for h in img.halfspaces + img.equations}
    normals = sorted(n for n in normals if not is_zero(n))

    position = {n: k for k, n in enumerate(normals)}
    patterns = [_relint_pattern(img, position) for img in images]

    merged: dict[frozenset[int], Cone] = {}
    for sample in _cell_split(tuple(normals), q):
        inv = _meeting_set_of_signs(patterns, *_sign_masks(normals, sample))
        if not inv:
            raise InternalConsistencyError(
                f"quotient direction {sample} lies in no projected cone interior"
            )
        if inv not in merged:
            merged[inv] = _class_cone([images[j] for j in sorted(inv)], q)

    # no cell is scanned: pointed, distinct class cones that pass the checks below
    # hold no other class's sample in their relative interiors
    classes: dict = {}
    for inv, cone in merged.items():
        if cone.lineality:
            raise InternalConsistencyError(
                f"quotient class with meeting set {sorted(inv)} closed up to "
                "a non-pointed cone"
            )
        other = classes.setdefault(cone.key(), inv)
        if other != inv:
            raise InternalConsistencyError(
                f"quotient classes with meeting sets {sorted(other)} and {sorted(inv)} "
                f"close up to one cone, with rays {list(cone.generators)}"
            )

    gfan = fan_from_cones(merged.values(), ambient_rank=q)
    if len(gfan.cones) != len(merged):
        # the classes close up to distinct cones, so some face is no class
        inv, face = next(
            (inv, face)
            for inv, cone in merged.items()
            for face in all_faces(cone)
            if face.key() not in classes
        )
        raise InternalConsistencyError(
            f"quotient classes are not closed under taking faces: the class with "
            f"meeting set {sorted(inv)} and rays {list(merged[inv].generators)} "
            f"has the face with rays {list(face.generators)}, which is no class"
        )
    grep = validate_fan(gfan)
    if not grep.ok:
        raise InternalConsistencyError(
            "quotient cones do not form a fan: " + "; ".join(grep.violations)
        )
    if not is_complete(gfan):
        raise InternalConsistencyError("quotient fan is not complete")

    point_facts = {
        i: (multiplicity(fan, sub, i), image_lattice(proj.matrix, _span_lattice(c)))
        for i, (c, img) in enumerate(zip(fan.cones, images)) if img.dim == c.dim
    }
    meet = cache(lattice_intersection)  # one meet per distinct pair of lattices
    data = tuple(
        _cone_data(images, point_facts, meet, kappa, classes[kappa.key()], k)
        for k, kappa in enumerate(gfan.cones)
    )
    return ChowQuotient(fan, sub, proj, gfan, data)


def _canonical_normal(h: Vec) -> Vec:
    p = primitive(h)
    for x in p:
        if x != 0:
            return p if x > 0 else tuple(-y for y in p)
    return p


def _sign_masks(normals: Sequence[Vec], v: Sequence[int]) -> tuple[int, int]:
    """The covector of ``v``: bitmasks of the normals positive and negative on it."""
    pos = neg = 0
    for k, n in enumerate(normals):
        x = dot(n, v)
        if x > 0:
            pos |= 1 << k
        elif x < 0:
            neg |= 1 << k
    return pos, neg


def _relint_pattern(img: Cone, position: dict) -> tuple[int, int, int]:
    """Bitmasks of the normals positive, negative and zero on relint ``img``."""
    pos = neg = zero = 0
    for h in img.halfspaces:
        bit = 1 << position[_canonical_normal(h)]
        if next(filter(None, h)) > 0:
            pos |= bit
        else:
            neg |= bit
    for e in img.equations:
        zero |= 1 << position[_canonical_normal(e)]
    return pos, neg, zero


def _meeting_set_of_signs(patterns, pos: int, neg: int) -> frozenset[int]:
    """The meeting set of a point with covector ``(pos, neg)``."""
    signed = pos | neg
    return frozenset(i for i, (p, m, z) in enumerate(patterns) if p & pos == p and m & neg == m and not z & signed)


def _class_cone(members: Sequence[Cone], q: int) -> Cone:
    """``∩ members``: a member that all contain (of least dimension), else a
    conversion."""
    low = min(c.dim for c in members)
    for c in members:
        if c.dim == low and all(m.contains_cone(c) for m in members):
            return c
    return cone_from_halfspaces(
        dict.fromkeys(h for img in members for h in img.halfspaces),
        dict.fromkeys(e for img in members for e in img.equations),
        q,
    )


def _cone_data(images, point_facts, meet, kappa: Cone, meeting: frozenset[int], index: int) -> QuotientConeData:
    """The data of quotient cone ``index``, which is ``kappa``, the closure
    of the class with meeting set ``meeting``; ``point_facts`` maps each cone
    the projection keeps the dimension of to its weight and p(span σ ∩ N)."""
    point_cones = [i for i in sorted(meeting) if i in point_facts]
    if not point_cones:
        raise InternalConsistencyError(
            f"quotient cone {index}: no cone meets the generic translate "
            "in a single point"
        )
    cycle = tuple((i, point_facts[i][0]) for i in point_cones)
    lattice = reduce(meet, dict.fromkeys(point_facts[i][1] for i in point_cones))
    raw_cone = reduce(intersect_cones, (images[i] for i in point_cones))
    monoid = saturated_monoid(kappa, lattice)
    if not monoid.is_pointed:
        raise InternalConsistencyError(
            f"quotient cone {index}: quotient stack monoid has units"
        )
    # diagnostic: does the raw intersection of projected monoids stay in the
    # quotient cone?  The raw cone lies in span(lattice), so it need not be
    # cut by it: each p(span σ_i ∩ N) has full rank in p(span σ_i), so the
    # span of their intersection is ∩ span p(σ_i), which holds ∩ p(σ_i).
    raw_inside = kappa.contains_cone(raw_cone)
    return QuotientConeData(
        meeting,
        tuple(point_cones),
        cycle,
        monoid,
        lattice,
        raw_inside,
    )


# ---------------------------------------------------------------------------
# fibers


def fiber_dim_cones(cq: ChowQuotient, kappa_index: int, k: int) -> tuple[int, ...]:
    """Fan cones whose closed fiber over the relative interior of the
    quotient cone has dimension k.

    The fiber of ``c`` lies in the relative interior of its smallest face,
    which is thus in the meeting set, and holds the slice of every face of
    ``c`` in the meeting set: it is nonempty iff one is, and its dimension
    is the largest ``dim F - dim p(F)`` over them.  The images are interned,
    so no double description runs.
    """
    cones = cq.fan.cones
    meeting = cq.cone_data[kappa_index].meeting_set
    dims = {j: cones[j].dim - image_cone(cq.projection.matrix, cones[j]).dim for j in meeting}
    # in a fan, a cone inside c is a face of c
    return tuple(
        i for i, c in enumerate(cones)
        if max((d for j, d in dims.items() if c.contains_cone(cones[j])), default=None) == k
    )


def chow_stack_datum(cq: ChowQuotient) -> ToricStackDatum:
    """Assemble the quotient stack datum and assert its validity."""
    datum = ToricStackDatum(
        cq.projection.target_rank,
        cq.quotient_fan,
        tuple(d.monoid for d in cq.cone_data),
    )
    rep = validate_stack_datum(datum)
    if not rep.ok:
        raise InternalConsistencyError(
            "quotient stack datum failed validation: " + "; ".join(rep.violations)
        )
    return datum
