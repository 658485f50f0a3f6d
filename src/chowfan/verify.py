"""Executable checkers for the structural properties of the construction.

Four checks, each returning a :class:`CheckReport`:

* ``check_integral``: the equational criterion for integral monoid maps
  (Kato 1989, §4), as a bounded search over the lattice points of grade at
  most the bound (no Hilbert basis), one target frontier per difference of
  source images and order tests on packed halfspace values.  A pass is
  always "pass up to the recorded degree bound"; a failure carries the
  identity that admits no witness.
* ``check_reduced``: the family monoid surjects onto the base monoid over
  every cone (fibers carry no nilpotents), a set test on Hilbert bases.
* ``check_equidimensional``: every family cone maps onto a base cone.
* ``check_basic_monoid``: the presentation by component tuples and wall
  steps is isomorphic to the quotient monoid, via the two explicit maps
  checked both ways on Hilbert bases.
"""

from __future__ import annotations

from itertools import permutations
from typing import Optional, Sequence

from ._record import Record, kept, replace
from .cones import Fan, _pull_back, dual_cone, image_cone
from .family import (
    UniversalFamily,
    VerificationFailed,
    basic_monoid,
    presentation_tuple,
    presentation_value,
)
from .intlinalg import Mat, Vec, coordinates_in, dot, full_lattice, mat_vec, vadd, vscale, vsub
from .monoids import (
    AffineMonoid,
    MonoidHom,
    MonoidNotMapped,
    UnsupportedMonoid,
    _packed_columns,
    member,
    monoid_hom,
    saturated_monoid,
)
from .stacks import ToricStackDatum


class CheckReport(Record):
    name: str
    verdict: str  # "pass" or "fail"
    witnesses: tuple
    parameters: tuple[tuple[str, object], ...] = ()

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def __repr__(self) -> str:
        return f"CheckReport({self.name}: {self.verdict})"


# ---------------------------------------------------------------------------
# integrality via the equational criterion


@kept
def _enumerate_elements(m: AffineMonoid, grading: Vec, bound: int) -> list[Vec]:
    """Elements of the pointed ``m`` of grade at most ``bound`` (``grading``
    positive on its cone minus 0) by ``(grade, element)``, in a list kept on
    ``m`` that callers must not change: the ``y @ G``, ``y`` in ``Z^d``, with
    ``(G h) . y >= 0`` for each facet normal ``h`` and ``(G grading) . y <=
    bound``.  ``G`` is a basis of ``m.group`` reduced in the norm of its facet
    values, so that skewed given coordinates do not leave long stretches of
    prefixes with no point.  After a Fourier–Motzkin elimination, with
    Chernikov's rule, each ``y_j`` runs between exact bounds given the
    earlier ones."""
    if not m.is_pointed:
        raise UnsupportedMonoid("element enumeration needs a pointed monoid")
    basis, d = list(m.group.basis), len(m.group.basis)
    vals = [mat_vec(m.cone.halfspaces, b) for b in basis]  # facet values, none all zero as m is pointed
    reduced = False
    while not reduced:  # pairwise (Lagrange) reduction in the norm |facet values|
        reduced = True
        for i, j in permutations(range(d), 2):
            ij, jj = dot(vals[i], vals[j]), dot(vals[j], vals[j])
            if 2 * abs(ij) > jj:  # q is then nonzero, and |vals[i]| falls
                q = (2 * ij + jj) // (2 * jj)
                vals[i], basis[i], reduced = vsub(vals[i], vscale(q, vals[j])), vsub(basis[i], vscale(q, basis[j])), False
    basis = [b for _, b in sorted(zip([-dot(v, v) for v in vals], basis))]  # the shortest, with the longest runs, last
    g_y = mat_vec(basis, grading)
    # rows r[:d] . y <= r[d], each with the bit mask of the given rows it combines
    rows = [(tuple([-x for x in mat_vec(basis, h)]) + (0,), 1 << i) for i, h in enumerate(m.cone.halfspaces)]
    rows.append((g_y + (bound,), 1 << len(rows)))
    levels = []  # per y_j, rows as (a > 0, head, b): a y_j <= b - head . y_<j, then >=
    for j in reversed(range(d)):
        up, down = [p for p in rows if p[0][j] > 0], [q for q in rows if q[0][j] < 0]
        levels.insert(0, ([(r[j], r[:j], r[d]) for r, _ in up], [(-r[j], r[:j], r[d]) for r, _ in down]))
        if j:  # the rows in y_<j, less those combining more than d - j + 1 given rows (redundant)
            rows = [p for p in rows if not p[0][j]] + [
                (tuple([x * -q[j] + y * p[j] for x, y in zip(p, q)]), s | t)
                for p, s in up for q, t in down if (s | t).bit_count() <= d - j + 1
            ]
    states = [((), (0,) * m.ambient_rank, 0)]  # (y_0..y_(j-1), y @ G, its grade)
    for (upper, lower), step, rise in zip(levels, basis, g_y):
        states = [
            (y + (t,), tuple([u + t * v for u, v in zip(x, step)]), g + t * rise)
            for y, x, g in states
            for t in range(
                max([-((b - dot(head, y)) // a) for a, head, b in lower]),
                min([(b - dot(head, y)) // a for a, head, b in upper]) + 1,
            )
        ]
    return [x for _, x in sorted([(g, x) for _, x, g in states])]


def _witness_tables(h: MonoidHom, bound: int):
    """Tables for repeated witness searches, sorted by grade: the target up
    to ``bound`` with grades, the source up to ``2 * bound`` with images
    (each element mapped once), and the source elements by image."""
    grading_t = h.target.grading()
    t_graded = [(dot(grading_t, t), t) for t in _enumerate_elements(h.target, grading_t, bound)]
    s_mapped = [(s, h.apply(s)) for s in _enumerate_elements(h.source, h.source.grading(), 2 * bound)]
    by_value: dict[Vec, list[Vec]] = {}
    for s, image in s_mapped:
        by_value.setdefault(image, []).append(s)
    return grading_t, t_graded, by_value, s_mapped


def _witness_search(tables, s1, s2, t1, t2) -> Optional[tuple[Vec, Vec, Vec]]:
    grading_t, t_graded, by_value, _ = tables
    cap = min(dot(grading_t, t1), dot(grading_t, t2))
    for gw, w in t_graded:
        if gw > cap:
            break  # t_graded is sorted by grade
        for r1 in by_value.get(vsub(t1, w), ()):
            for r2 in by_value.get(vsub(t2, w), ()):
                if vadd(s1, r1) == vadd(s2, r2):
                    return (w, r1, r2)
    return None


def _frontier(t_packed, t_set, guard: int, limit: int, delta: Vec) -> list[tuple[Vec, Vec]]:
    """The ``(t1, t1 + delta)`` searched for one image difference (see
    :func:`check_integral`); ``t1`` has grade at most ``limit``."""
    out, kept = [], []
    for g1, t1, p1 in t_packed:
        if g1 > limit:
            break  # t_packed is sorted by grade
        t2 = vadd(t1, delta)
        if t2 in t_set and all(((p1 | guard) - p0) & guard != guard for p0 in kept):
            out.append((t1, t2))
            kept.append(p1)
    return out


def check_integral(h: MonoidHom, degree_bound: int = 8) -> CheckReport:
    """Bounded test of the equational criterion for an integral map.

    Identities with comparable source elements always admit the obvious
    witness and are skipped.  A witness for an identity propagates to its
    translates, so for sources ``s1, s2`` the ``t1`` searched are those, in
    grade order, with ``t1 + h(s1) - h(s2)`` a target element and not above
    an earlier searched one.  Every search up to the first failure succeeds,
    so this frontier depends on ``h(s1) - h(s2)`` alone and is found once
    per difference; the identities searched, in order, are those of a walk
    over every target element per pair.  A pass is a pass up to the
    recorded bound; a failure reports the identity whose witness search came
    up empty.  A bound below 1 would make the pass vacuous and raises
    ``ValueError``.

    Both order tests are on differences of monoid elements, in the lattice.
    An element of grade at most the bound has every halfspace value in
    ``[0, bound]`` (the grading is the sum of the facet normals), so its
    values are packed once into guarded fields (Lamport, CACM 18(8), 1975;
    :func:`~chowfan.monoids._packed_columns`): ``x - y`` lies in the cone
    iff ``((X | G) - Y) & G == G``.
    """
    if degree_bound < 1:
        raise ValueError(f"degree bound must be at least 1, got {degree_bound}")
    source, target = h.source, h.target
    tables = _witness_tables(h, degree_bound)
    grading_t, t_graded, _, s_mapped = tables
    grading_s = source.grading()
    cols_s, guard_s = _packed_columns(source.cone.halfspaces, source.ambient_rank, degree_bound)
    cols_t, guard_t = _packed_columns(target.cone.halfspaces, target.ambient_rank, degree_bound)
    mapped = [(s, im, dot(cols_s, s)) for s, im in s_mapped if dot(grading_s, s) <= degree_bound]
    t_packed = [(g, t, dot(cols_t, t)) for g, t in t_graded]
    t_set = {t for _, t in t_graded}
    frontiers: dict[Vec, list[tuple[Vec, Vec]]] = {}
    params = (("degree_bound", degree_bound),)
    for a, (s1, image1, p1) in enumerate(mapped):
        for s2, image2, p2 in mapped[a + 1:]:
            if ((p1 | guard_s) - p2) & guard_s == guard_s or ((p2 | guard_s) - p1) & guard_s == guard_s:
                continue  # comparable sources
            delta = vsub(image1, image2)
            frontier = frontiers.get(delta)
            if frontier is None:
                limit = degree_bound - dot(grading_t, delta)
                frontier = frontiers[delta] = _frontier(t_packed, t_set, guard_t, limit, delta)
            for t1, t2 in frontier:
                if _witness_search(tables, s1, s2, t1, t2) is None:
                    return CheckReport(
                        "integral",
                        "fail",
                        ((s1, s2, t1, t2),),
                        params + (("witness_bound", 2 * degree_bound),),
                    )
    return CheckReport("integral", "pass", (), params)


# ---------------------------------------------------------------------------
# reduced fibers and equidimensionality


def reduced_report(
    family_datum: ToricStackDatum,
    base_datum: ToricStackDatum,
    base_assignment: Sequence[int],
    projection: Mat,
) -> CheckReport:
    """Surjectivity of every family monoid onto its base monoid.

    For a pointed target ``T`` and ``p(S) ⊆ T``, ``p(S) = T`` iff every
    Hilbert-basis element of ``T`` is ``p(g)`` for a generator ``g`` of
    ``S``: a Hilbert-basis element is irreducible, and a sum of nonzero
    elements of a pointed monoid is nonzero.  The generators are mapped
    until every basis element is hit, so a failing monoid maps them all;
    the unhit basis elements are the witnesses.  ``p(S) ⊆ T`` is tested by
    :func:`~chowfan.monoids.monoid_hom`, on rays and group; a target with
    units, or a generator mapping outside its target, raises
    ``ValueError``.
    """
    failures = []
    for i, m in enumerate(family_datum.monoids):
        j = base_assignment[i]
        target = base_datum.monoids[j]
        if not target.is_pointed:
            raise ValueError(f"base monoid {j} has units")
        try:
            monoid_hom(projection, m, target)
        except MonoidNotMapped as e:
            raise ValueError(
                f"family monoid {i} maps {e.generator} to {e.image} outside base monoid {j}"
            ) from e
        unhit = set(target.hilbert_basis)
        for g in m.generators():
            if not unhit:
                break
            unhit.discard(mat_vec(projection, g))
        failures.extend((i, hb) for hb in target.hilbert_basis if hb in unhit)
    if failures:
        return CheckReport("reduced", "fail", tuple(failures))
    return CheckReport("reduced", "pass", ())


def check_reduced(fam: UniversalFamily) -> CheckReport:
    return reduced_report(
        fam.datum,
        fam.base,
        [b for _, b in fam.provenance],
        fam.chow.projection.matrix,
    )


def _dual_in_group(m: AffineMonoid) -> AffineMonoid:
    """``Hom(m, N)`` in the coordinates of the rows of ``m.group.basis``;
    the group spans the cone, pulled back with no double description."""
    basis = m.group.basis
    return saturated_monoid(dual_cone(_pull_back(m.cone, basis)), full_lattice(len(basis)))


def dual_projection_hom(fam: UniversalFamily, family_cone_index: int) -> MonoidHom:
    """The dual map Hom(base monoid, N) -> Hom(family monoid, N).

    Both Hom monoids are computed in the coordinates of the respective
    monoid groups, so stacky monoids (whose groups are proper sublattices)
    get their full duals.  Requires a full-dimensional family cone, whose
    base cone is then maximal, so both duals are pointed.
    """
    i = family_cone_index
    if fam.fan.cones[i].dim != fam.fan.ambient_rank:
        raise ValueError("the dual pairing needs a full-dimensional family cone")
    q, n = fam.base.monoids[fam.provenance[i][1]], fam.datum.monoids[i]
    rows = []
    for b in n.group.basis:
        c = coordinates_in(q.group.basis, fam.chow.projection.apply(b))
        if c is None:
            raise ValueError("family group does not project into the base group")
        rows.append(c)
    return monoid_hom(tuple(rows), _dual_in_group(q), _dual_in_group(n))


def check_family_integral(fam: UniversalFamily, degree_bound: int = 8) -> tuple[CheckReport, ...]:
    """Integrality of the dual map at every full-dimensional family cone."""
    rank = fam.fan.ambient_rank
    return tuple(
        replace(check_integral(dual_projection_hom(fam, i), degree_bound), name=f"integral[cone {i}]")
        for i, c in enumerate(fam.fan.cones)
        if c.dim == rank
    )


def equidimensional_report(matrix: Mat, src: Fan, dst: Fan) -> CheckReport:
    """Every source cone must map onto (not merely into) a target cone."""
    failures = []
    for i, c in enumerate(src.cones):
        img = image_cone(matrix, c)
        if img not in dst:
            failures.append((i, img.generators, img.lineality))
    if failures:
        return CheckReport("equidimensional", "fail", tuple(failures))
    return CheckReport("equidimensional", "pass", ())


def check_equidimensional(fam: UniversalFamily) -> CheckReport:
    """Every family cone maps onto its base cone: the build in
    :func:`~chowfan.family.universal_family` takes the least quotient cone
    holding each image as its base, so this is the only test of it."""
    return equidimensional_report(
        fam.chow.projection.matrix, fam.fan, fam.base.fan
    )


# ---------------------------------------------------------------------------
# the basic monoid presentation


def check_basic_monoid(fam: UniversalFamily, base_index: int) -> CheckReport:
    """Verify the presentation and the quotient monoid are isomorphic.

    Both explicit maps (component lifts with wall steps one way, common
    projection the other) are evaluated on the Hilbert bases and checked to
    be mutually inverse.
    """
    pres = basic_monoid(fam, base_index)
    q_monoid = fam.chow.cone_data[base_index].monoid
    witnesses = []
    for v in q_monoid.hilbert_basis:
        t = presentation_tuple(fam, pres, v)
        # the presentation monoid's lattice is Z^total, so only its cone can refuse t
        if not pres.monoid.cone.contains(t):
            witnesses.append(("lift_escapes_presentation", v, t))
            continue
        if presentation_value(fam, pres, t) != v:
            witnesses.append(("round_trip_failed", v, t))
    for t in pres.monoid.hilbert_basis:
        try:
            v = presentation_value(fam, pres, t)
        except VerificationFailed:
            witnesses.append(("blocks_disagree", t))
            continue
        if not member(q_monoid, v):
            witnesses.append(("value_escapes_quotient", t, v))
            continue
        if presentation_tuple(fam, pres, v) != t:
            witnesses.append(("round_trip_failed", t, v))
    params = (("host_collisions", pres.host_collisions),)
    if witnesses:
        return CheckReport("basic_monoid", "fail", tuple(witnesses), params)
    return CheckReport("basic_monoid", "pass", (), params)
