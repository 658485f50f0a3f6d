"""Saturated affine monoids ``c ∩ L`` and their Hilbert bases.

A monoid is its cone ``c`` and its group ``G = span(c) ∩ L``, the
lattice it generates; membership is the two containment tests ``v ∈ c``
and ``v ∈ G``.  The workhorse is :func:`saturated_monoid`.  The Hilbert
basis is computed in the coordinates of the basis of ``G``, where ``c``
is full-dimensional, so every rule below sees a full-dimensional cone in
``Z^k``; it comes from the first of four rules that applies:

1. the rays of ``c``, when ``c`` has ``k`` rays whose group-primitive
   coordinates have determinant ±1 (the cone is then unimodular, the
   smooth-cone criterion of Cox–Little–Schenck, *Toric Varieties*, 2011,
   §1.2 and §11.1); a pointed monoid decides it in
   :attr:`AffineMonoid.hilbert_basis`, on the coordinates of its rays,
   before any cone is pulled back;
2. for a 2-dimensional cone, its Hirzebruch–Jung chain, the rays of its
   minimal resolution (Oda, *Convex Bodies and Algebraic Geometry*, 1988,
   §1.6; Cox–Little–Schenck, *Toric Varieties*, 2011, §10.2), in time
   linear in the basis;
3. for a 3-dimensional cone whose rays an integral functional ``g`` puts
   at height 1 (one 3 × 3 adjugate), the lattice points at height 1: the
   cone is the cone over a lattice polygon, and every lattice polygon is
   normal (Cox–Little–Schenck 2011, §2.2), so a point of height 2 or more
   is a sum of points of height 1.  They are scanned row by row parallel
   to an edge, at most ``2 * #points + 1`` rows by Pick's theorem, in time
   linear in the basis (:func:`_polygon_points`);
4. otherwise, an irreducibility sieve.

Only rule 4 enumerates candidates, by a pulling triangulation and an
integer enumeration of each simplex's fundamental parallelepiped (one
Hermite form per simplex, of its rays: the box of its diagonal, with no
rational solve per point).

Every candidate is one integer key ``K(x) = grade(x) << S | packed(x)``:
its grade, the sum of the facet normals, above its halfspace values
packed into guarded bit fields.
``K`` is linear, so a parallelepiped point gets its key from its ray
coefficients and the rays' keys, with no vector built; on a pointed cone
the halfspace values fix the point, so equal keys are equal points.
Sorting the keys sorts by grade, and elements of equal grade never reduce
each other, so their order does not matter.  The sieve reads grade and
fields off the key, tries only reducers of at most half a candidate's
grade, and tests them in blocks of 1, 2, 4, ... elements, each block in a
few big-int operations.  A vector is built only for each kept key, decoded
from its halfspace values by one exact left inverse per cone, directly in
the coordinates the caller asks for (:func:`_hilbert_basis_full`).
The Hilbert basis is computed on first read and kept, so maps, faces and
bounded enumerations never build one.

A map is tested by the same representation.  A saturated ``M = c ∩ G``
spans ``c`` and generates ``G``, so a matrix ``A`` sends ``M`` into
``M′ = c′ ∩ G′`` iff it sends the rays of ``c`` and both directions of
its lineality into ``c′`` and the basis of ``G`` into ``G′``: one cone
test per ray or line direction and one lattice test per group basis
vector, with no Hilbert basis (:func:`monoid_hom`).

Monoids with invertible elements (units) arise as duals of monoids that are
not full-dimensional; they are represented by the unit lattice plus one
pointed element per coset, fixed by the cone and the group alone.
"""

from __future__ import annotations

from functools import partial, reduce
from itertools import product, repeat, starmap
from math import prod
from operator import add, floordiv, mod, mul
from typing import Iterable, Iterator, Optional, Sequence

from ._record import Record, kept
from .cones import (
    Cone,
    NotStrictlyConvex,
    _pull_back,
    cone_from_generators,
    dual_cone,
    facets,
    intersect_cones,
    is_face_of,
)
from .intlinalg import (
    Mat,
    Sublattice,
    Vec,
    _span_cut,
    coordinates_in,
    dot,
    full_lattice,
    hermite_normal_form,
    integer_kernel,
    mat,
    mat_mul,
    mat_vec,
    primitive,
    quotient_map,
    require_shape,
    transpose,
    vadd,
    vec,
    vscale,
    vsub,
    zero_sublattice,
)


class NotAFace(ValueError):
    """Raised when a claimed face is not a face of the monoid's cone."""


class UnsupportedMonoid(ValueError):
    """Raised when an operation needs a pointed monoid and got units."""


class MonoidNotMapped(ValueError):
    """A lattice map fails to carry a monoid into its target: it sends the
    source generator ``generator`` to ``image``, outside the target."""

    def __init__(self, message: str, generator: Vec, image: Vec):
        super().__init__(message)
        self.generator = generator
        self.image = image


class AffineMonoid(Record):
    """The saturated monoid ``cone ∩ group`` in canonical form.

    ``group`` is the lattice it generates, whose span holds ``cone``, and
    ``units`` are its invertible elements, ``group ∩ lineality``.  Two
    monoids are equal iff rank, units, cone and group are.  Its sorted
    ``hilbert_basis`` is computed on first read and kept on the record.
    """

    ambient_rank: int
    units: Sublattice
    cone: Cone
    group: Sublattice

    @property
    def is_pointed(self) -> bool:
        return self.units.rank == 0

    @property
    @kept
    def hilbert_basis(self) -> tuple[Vec, ...]:
        """Computed in the coordinates of ``group.basis``, where the cone is
        full-dimensional; with units, one element per coset, fixed by the
        cone and the group alone.

        Rule 1 is tried first, on the rays' coordinates.  A pointed monoid
        of dimension ``k >= 1`` with ``k`` rays takes the coordinates of
        its rays in the group basis, made primitive (integral after
        scaling by the product of the pivots): when they are a basis of
        ``Z^k`` (:func:`_is_lattice_basis`) the rays so scaled are the
        Hilbert basis, and no cone is pulled back.  Every other monoid
        goes to :func:`_hilbert_basis_full` on its pulled-back cone, the
        pointed quotient when it has units."""
        basis = self.group.basis
        k, basis_t = len(basis), transpose(basis)  # y @ basis == mat_vec(basis_t, y)
        rays = self.cone.generators
        if not self.cone.lineality:
            if len(rays) == k:
                scale = prod(next(filter(None, row)) for row in basis)
                ys = [primitive(coordinates_in(basis, vscale(scale, r))) for r in rays]
                if _is_lattice_basis(ys, k):
                    return tuple(sorted(mat_vec(basis_t, y) for y in ys))
            return _hilbert_basis_full(_pull_back(self.cone, basis), basis_t)
        cy = _pull_back(self.cone, basis)
        units_y = Sublattice(k, cy.lineality)
        qu = quotient_map(k, units_y)
        pointed = cone_from_generators([qu.apply(g) for g in cy.generators], ambient_rank=qu.target_rank)
        hb_y = [_reduce_mod_units(qu.lift(v), units_y) for v in _hilbert_basis_full(pointed)]
        return tuple(sorted(mat_vec(basis_t, y) for y in hb_y))

    def generators(self) -> tuple[Vec, ...]:
        gens = list(self.hilbert_basis)
        for u in self.units.basis:
            gens.append(u)
            gens.append(tuple(-x for x in u))
        return tuple(gens)

    def grading(self) -> Vec:
        """A functional strictly positive on the pointed part minus zero."""
        return _grading(self.cone)

    def __repr__(self) -> str:
        units = f", units rank {self.units.rank}" if self.units.rank else ""
        return f"AffineMonoid(rank {self.ambient_rank}, {self.cone}, group {list(self.group.basis)}{units})"


def _grading(c: Cone) -> Vec:
    """Sum of the facet normals: positive on ``c`` off its lineality space."""
    total = tuple(0 for _ in range(c.ambient_rank))
    for h in c.halfspaces:
        total = vadd(total, h)
    return total


def _reduce_mod_units(v: Sequence[int], units: Sublattice) -> Vec:
    """Canonical coset representative: subtract unit multiples at pivots."""
    out = list(v)
    for row in units.basis:
        piv = next(j for j, x in enumerate(row) if x != 0)
        q = out[piv] // row[piv]
        if q:
            out = [a - q * b for a, b in zip(out, row)]
    return tuple(out)


# ---------------------------------------------------------------------------
# Hilbert bases of saturated monoids


def _triangulate(c: Cone) -> list[tuple[Vec, ...]]:
    """Pulling triangulation of a strictly convex cone into simplicial cones:
    the first ray joined to a triangulation of each facet missing it."""
    rays = c.generators
    if len(rays) == c.dim:
        return [rays]
    v = rays[0]
    return [
        simplex + (v,)
        for facet in facets(c)
        if v not in facet.generators
        for simplex in _triangulate(facet)
    ]


def _triangular_adjugate(h: Mat, n: int) -> tuple[list[list[int]], int]:
    """``(adj, det)`` of the upper triangular ``h[:n]`` with a positive
    diagonal: ``det`` is the product of the diagonal and
    ``h[:n] @ adj == det * I``, column by column by exact back substitution.
    """
    det = prod(h[i][i] for i in range(n))
    adj = [[0] * n for _ in range(n)]
    for j in range(n):
        adj[j][j] = det // h[j][j]
        for i in reversed(range(j)):
            adj[i][j] = -sum(h[i][k] * adj[k][j] for k in range(i + 1, j + 1)) // h[i][i]
    return adj, det


def _hermite_box(simplex_rays: tuple[Vec, ...]) -> tuple[int, list[tuple[int, list[int]]]]:
    """``(det, factors)`` enumerating the half-open parallelepiped of ``n``
    independent rays in ``Z^n`` by their coefficients.

    ``C`` is the matrix of the rays and ``H = W @ C`` its Hermite form,
    upper triangular.  The points are the classes of the integer ``z``
    modulo the rays for ``z`` in the box ``0 <= z_i < H_ii``, and their ray
    coefficients are
    ``z @ inv(C) = z @ adj(H) @ W / det`` with ``det = prod H_ii``.
    ``factors`` holds ``(H_ii, row i of adj(H) @ W mod det)`` for each
    ``H_ii > 1``; the point of the box index ``(z_1, z_2, ...)`` (mixed
    radix, first factor most significant) has the coefficients
    ``t = sum_i z_i * row_i`` mod ``det``, so it is ``sum_i t_i r_i / det``,
    and box index 0 is the zero point.
    """
    h, w = hermite_normal_form(simplex_rays)
    adj, det = _triangular_adjugate(h, len(h))
    coefficients = mat_mul(adj, w)
    return det, [(h[i][i], [x % det for x in coefficients[i]]) for i in range(len(h)) if h[i][i] > 1]


def _parallelepiped_keys(ray_keys: Sequence[int], det: int, factors) -> Iterator[int]:
    """``K(x)`` for every point ``x`` of the box :func:`_hermite_box`
    describes, in box order (the zero point first), streamed.

    ``ray_keys[i]`` is ``K(r_i)`` for a function ``K`` linear on the span
    of the rays, so ``K(x) = sum_i t_i K(r_i) // det`` exactly.  Each
    coefficient column ``t_i`` over the box is a product of arithmetic
    progressions mod ``det``, made by ``itertools``; no point is built.
    """
    terms = []
    for i, key in enumerate(ray_keys):
        ws = [(d, row[i]) for d, row in factors]
        if not any(w for _, w in ws):
            continue
        col = None
        for d, w in ws:
            steps = range(0, w * d, w) if w else repeat(0, d)
            col = steps if col is None else starmap(add, product(col, steps))
        terms.append(map(mul, map(mod, col, repeat(det)), repeat(key)))
    return map(floordiv, reduce(partial(map, add), terms), repeat(det))


def _packed_columns(halfspaces: Sequence[Vec], rank: int, top: int) -> tuple[list[int], int]:
    """Columns packing halfspace values in ``[0, top]`` into guarded fields.

    Returns ``(cols, guard)``: ``dot(cols, x)`` holds ``h_i.x`` in bits
    ``[i*w, i*w + w - 1)`` with ``w = bitlen(top) + 1``, and ``guard`` has
    the top bit ``i*w + w - 1`` of every field set.
    """
    w = top.bit_length() + 1
    cols = [sum(h[k] << (i * w) for i, h in enumerate(halfspaces)) for k in range(rank)]
    guard = sum(1 << (i * w + w - 1) for i in range(len(halfspaces)))
    return cols, guard


def _value_bound(c: Cone) -> int:
    """``top = max_h sum_r h.r``, a bound on every halfspace value of a
    Hilbert-basis candidate of the strictly convex ``c``."""
    return max(sum(dot(h, r) for r in c.generators) for h in c.halfspaces)


def _value_inverse(c: Cone) -> tuple[Mat, int]:
    """``(L, den)`` with ``L @ [h.x for h in c.halfspaces] == den * x`` for
    every ``x``, on the full-dimensional strictly convex ``c``.

    The halfspaces have full column rank ``n`` on a pointed full-dimensional
    cone, so their Hermite form ``H = Y @ A`` has an upper triangular top
    ``H[:n]``; ``den = det(H[:n])`` and ``L = adj(H[:n]) @ Y[:n]``.
    """
    h, y = hermite_normal_form(c.halfspaces)
    adj, den = _triangular_adjugate(h, c.ambient_rank)
    return mat_mul(adj, y[:c.ambient_rank]), den


def _is_lattice_basis(rays: Sequence[Vec], k: int) -> bool:
    """Are the primitive ``rays`` of a ``k``-dimensional pointed cone in
    ``Z^k``, ``k >= 1``, a basis of ``Z^k`` (rule 1: the cone is
    unimodular, and its rays are its Hilbert basis)?

    A cone with ``k`` rays is simplicial; its rays are then a basis iff
    their determinant is ±1, computed up to sign by fraction-free
    (Bareiss) elimination, in which every division is exact, with no
    Hermite form.  Rank 0 is excluded: its zero cone is pulled back.
    """
    if not 0 < len(rays) == k:
        return False
    a = [list(r) for r in rays]
    prev = 1
    for i in range(k):
        p = next((j for j in range(i, k) if a[j][i]), None)
        if p is None:
            return False
        a[i], a[p] = a[p], a[i]
        top = a[i]
        for row in a[i + 1 :]:
            x = row[i]
            row[i + 1 :] = [(y * top[i] - x * z) // prev for y, z in zip(row[i + 1 :], top[i + 1 :])]
        prev = top[i]
    return prev in (1, -1)


def _sieve(candidates: Iterable[int], guard: int) -> list[int]:
    """The irreducible candidates, from keys ``K = grade << S | packed``
    sorted, with ``S = guard.bit_length()``: each candidate is tested
    against the doubling blocks of kept elements of at most half its grade
    (see :func:`_hilbert_basis_full`).  A key equal to its predecessor, or
    0, is skipped."""
    shift = guard.bit_length()
    fields = (1 << shift) - 1
    bw = shift + 1
    slot_low = (1 << (bw - 1)) - 1
    kept: list[int] = []
    grades: list[int] = []
    values: list[int] = []
    blocks: list[list[int]] = []  # [P, R, G*, L, T] of each block
    packed = room = 0  # kept elements packed, free slots in the last block
    prev = 0
    for key in candidates:
        if key == prev:
            continue
        prev = key
        gx = key >> shift
        while packed < len(kept) and 2 * grades[packed] <= gx:
            if not room:
                room = 1 << len(blocks)
                blocks.append([0, 0, 0, 0, 0])
            block = blocks[-1]
            one = 1 << (((1 << (len(blocks) - 1)) - room) * bw)
            block[0] += values[packed] * one
            block[1] += one
            block[2] += guard * one
            block[3] += slot_low * one
            block[4] += one << (bw - 1)
            packed += 1
            room -= 1
        px = key & fields
        xg = px | guard
        for p, r, gs, l, t in blocks:
            if ((((xg * r - p) & gs) ^ gs) + l) & t != t:
                break
        else:
            kept.append(key)
            grades.append(gx)
            values.append(px)
    return kept


def _plane_chain(c: Cone, out: Optional[Mat] = None) -> tuple[Vec, ...]:
    """Hilbert basis of the strictly convex cone ``c`` in ``Q^2`` as its
    Hirzebruch–Jung chain (Oda, *Convex Bodies and Algebraic Geometry*,
    1988, §1.6; Cox–Little–Schenck, *Toric Varieties*, 2011, §10.2), each
    element given as ``out @ x``, sorted.

    The rays are ``u``, ``v`` with ``det(u, v) > 0``.  ``b_0 = u``;
    ``b_1`` is the point of the line ``det(u, x) = 1`` in the cone nearest
    ``v``, ``w + k u`` for
    ``det(u, w) = 1`` and ``k = ceil(-det(w, v) / det(u, v))``; then
    ``b_{i+1} = a_i b_i - b_{i-1}`` with
    ``a_i = ceil(det(b_{i-1}, v) / det(b_i, v))``, until ``b_i = v``.  The
    values ``det(b_i, v)`` fall strictly to 0, and the work is linear in
    the basis: no box, key or sieve.
    """
    u, v = c.generators
    if u[0] * v[1] < u[1] * v[0]:
        u, v = v, u
    if u[1]:  # s u_0 + t u_1 = 1, as u is primitive
        s = pow(u[0], -1, abs(u[1]))
        t = (1 - s * u[0]) // u[1]
    else:
        s, t = u[0], 0

    def det_v(x):  # det(x, v)
        return x[0] * v[1] - x[1] * v[0]

    w = (-t, s)
    k = -(det_v(w) // det_v(u))
    prev, b = u, (w[0] + k * u[0], w[1] + k * u[1])
    chain = [u, b]
    while b != v:
        a = -(det_v(prev) // -det_v(b))
        prev, b = b, (a * b[0] - prev[0], a * b[1] - prev[1])
        chain.append(b)
    if out is None:
        return tuple(sorted(chain))
    p, q = transpose(out)
    return tuple(sorted(tuple([x * i + y * j for i, j in zip(p, q)]) for x, y in chain))


def _cross(a: Sequence[int], b: Sequence[int]) -> Vec:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _bezout(a: int, b: int) -> tuple[int, int, int]:
    """``(g, s, t)`` with ``s * a + t * b == g``, ``g`` the gcd up to sign."""
    s, t, u, v = 1, 0, 0, 1
    while b:
        k = a // b
        a, b, s, t, u, v = b, a - k * b, u, v, s - k * u, t - k * v
    return a, s, t


def _polygon_points(c: Cone, out: Optional[Mat] = None) -> Optional[tuple[Vec, ...]]:
    """Hilbert basis of the strictly convex cone ``c`` in ``Q^3``, each
    element given as ``out @ x``, sorted, if an integral functional ``g``
    is 1 on every ray; None otherwise.

    Let ``u_k`` be the rays.  The first three are independent (three
    vertices of a convex polygon are never collinear), and with ``U`` their matrix ``g = adj(U) @ (1, 1, 1)
    / det U``: the sum of the columns ``u_1 × u_2``, ``u_2 × u_0`` and
    ``u_0 × u_1`` of ``adj(U)``, over ``det U = u_0 . (u_1 × u_2)``.  The
    cone is at height one iff ``det U`` divides that sum and ``u_k . g ==
    1`` for every further ray.  It is then the cone over a lattice polygon,
    and every lattice polygon is normal (Cox–Little–Schenck, *Toric
    Varieties*, 2011, §2.2): a point of height 2 or more is a sum of points
    of height 1, so the basis is the lattice points of height 1.

    They are read row by row, parallel to an edge.  Of the facet normals,
    primitive functionals, ``h`` is the one whose largest value ``top =
    max_k h . u_k`` is least, so the rows are fewest.  The rays ``u_i``,
    ``u_j`` of its facet span the edge of direction ``e = primitive(u_j - u_i)``, and ``u_i``, ``e``
    are a basis of the facet's plane lattice (``g`` is 1 on ``u_i`` and 0
    on ``e``).  So with ``h . q == 1`` (two extended gcds on the entries
    of ``h``) and ``f = q - (g . q) u_i``, the points of height 1 are
    ``u_i + t f + s e`` for integers ``s``, ``t`` with ``t = h . x`` in
    ``[0, top]``.  On row ``t`` every facet not parallel to the edge
    bounds ``s`` by one floor or ceiling division; a facet with
    ``h' . e == 0`` is ``h`` or the edge opposite it, at ``t == top``.
    The triangle on the edge and a ray at ``t == top`` has area at least
    ``top / 2`` and, by Pick's theorem, less than the number of points
    (Beck & Robins, *Computing the Continuous Discretely*, 2007, ch. 2),
    so there are at most ``2 * #points + 1`` rows and the work is linear
    in the basis.  The size ``sum(hi - lo + 1)`` is known before any
    vector is built; each point is the previous one plus ``out @ e``, made
    by ``zip`` over ranges, with no ``mat_vec`` per point.
    """
    u = c.generators
    u0, u1, u2 = u[:3]
    columns = (_cross(u1, u2), _cross(u2, u0), _cross(u0, u1))
    det = dot(u0, columns[0])
    g = [x + y + z for x, y, z in zip(*columns)]
    if any(x % det for x in g):
        return None
    g = [x // det for x in g]
    if any(dot(g, x) != 1 for x in u[3:]):
        return None
    heights = [max(dot(h, x) for x in u) for h in c.halfspaces]
    top = min(heights)
    h = c.halfspaces[heights.index(top)]
    i, j = (k for k, x in enumerate(u) if not dot(h, x))
    e = primitive(vsub(u[j], u[i]))
    g01, s, t = _bezout(h[0], h[1])
    one, a, b = _bezout(g01, h[2])  # one is 1 or -1, as h is primitive
    q = (one * a * s, one * a * t, one * b)
    f = vsub(q, vscale(dot(g, q), u[i]))
    lower, upper = [], []  # (|h'.e|, h'.u_i, h'.f) of the facets bounding s below, above
    for other in c.halfspaces:
        slope = dot(other, e)
        if slope:
            (lower if slope > 0 else upper).append((abs(slope), dot(other, u[i]), dot(other, f)))
    rows = []
    for t in range(top + 1):
        lo = max(-((v + t * w) // s) for s, v, w in lower)
        hi = min((v + t * w) // s for s, v, w in upper)
        if lo <= hi:
            rows.append((t, lo, hi - lo + 1))
    origin, rise, step = (x if out is None else mat_vec(out, x) for x in (u[i], f, e))
    points = []
    for t, lo, n in rows:
        start = [x + t * y + lo * z for x, y, z in zip(origin, rise, step)]
        points.extend(zip(*[range(x, x + n * z, z) if z else repeat(x, n) for x, z in zip(start, step)]))
    return tuple(sorted(points))


def _hilbert_basis_full(c: Cone, out: Optional[Mat] = None) -> tuple[Vec, ...]:
    """Hilbert basis of ``c ∩ Z^rank`` for a full-dimensional strictly
    convex cone, each element ``x`` given as ``out @ x`` (``x`` itself if
    ``out`` is None), sorted.

    Four rules, in this order:

    1. if the rays are a basis of ``Z^rank`` (:func:`_is_lattice_basis`),
       they are the Hilbert basis.  A pointed monoid decides this rule in
       :attr:`AffineMonoid.hilbert_basis`, on its rays' coordinates,
       before its cone is pulled back; here it serves the pointed quotient
       of a monoid with units;
    2. a 2-dimensional cone's basis is its Hirzebruch–Jung chain
       (:func:`_plane_chain`);
    3. a 3-dimensional cone with an integral functional ``g`` that is 1 on
       every ray is the cone over a lattice polygon, and every lattice
       polygon is normal (Cox–Little–Schenck, *Toric Varieties*, 2011,
       §2.2): each point of height ``g(x) >= 2`` is a sum of points of
       height 1, so the basis is exactly the lattice points of height 1,
       scanned in rows parallel to an edge (:func:`_polygon_points`, which
       also tests the height by one 3 × 3 adjugate): at most
       ``2 * #points + 1`` rows, no candidate, key or sieve;
    4. otherwise the keyed candidates below are sieved.

    Only rule 4 enumerates candidates.  Every candidate is a ray or a
    nonzero point of the half-open parallelepiped of a simplex of a pulling
    triangulation, a sum of rays with coefficients below 1; so its
    halfspace values lie in ``[0, top]`` with ``top = max_h sum_r h.r``.
    The candidates are sieved in grade order, the grade being the sum of
    the facet normals: ``x`` is reducible iff ``x - b`` lies in the cone
    for an irreducible ``b`` with ``2 * grade(b) <= grade(x)``, since a
    sum of two or more irreducibles has a summand of at most half its
    grade.

    Each candidate is one integer key ``K(x) = grade(x) << S | packed(x)``,
    with ``packed`` the halfspace values in guarded fields (below) and
    ``S = guard.bit_length()`` bits below the grade.  ``K`` is linear in
    ``x`` (the fields never overflow on the cone), so ``K(r)`` is computed
    once per ray and a parallelepiped point with coefficients ``t / det``
    gets ``K = t . K(rays) // det`` (:func:`_parallelepiped_keys`): no
    vector is built for it.  On a pointed cone the halfspace values fix a
    point, so ``K`` is injective: a point found in two simplices is dropped
    the second time by equal keys, and key 0 is the zero point.  Sorting
    keys sorts by grade; elements of equal grade never reduce each other
    (``2g <= g`` fails for ``g > 0``), so their order is irrelevant.  A
    vector is built only for each kept key, by decoding it: its fields are
    the exact values ``h_i.x``, so ``x = L @ vals / den`` for the left
    inverse ``L / den`` of :func:`_value_inverse`, one per cone, and
    ``out @ x`` is ``(out @ L) @ vals // den``, an exact division since
    ``x`` is integral.

    ``x - b`` lies in the cone iff ``h.x >= h.b`` for every halfspace ``h``,
    a test on guarded bit fields (Lamport, CACM 18(8), 1975).  In fields of
    width ``w = bitlen(top) + 1`` the values pack into one integer
    ``X = sum_i (h_i.x) << (i*w)``, which is ``dot(cols, x)`` for the packed
    columns ``cols[k] = sum_i h_i[k] << (i*w)``.  With ``G`` the top
    (guard) bit of every field, no field of ``(X | G) - B`` borrows from the
    next, and its guard survives iff ``h_i.x >= h_i.b``.

    One candidate is tested against a block of kept elements at once.  The
    block holds their packed values ``B_j`` in slots of width
    ``bw = len(halfspaces) * w + 1`` (the top bit of a slot stays 0), as
    ``P = sum_j B_j << (j*bw)`` with ``R = sum_j 1 << (j*bw)``.  No slot of
    ``(X | G) * R - P`` borrows from the next, since every field of ``B_j``
    is at most ``top < 2^(w-1)``.  Slot ``j`` of
    ``E = (((X | G) * R - P) & G*) ^ G*``, for ``G* = G * R``, holds the
    guards that ``B_j`` cleared, and adding ``L = (2^(bw-1) - 1) * R`` sets
    the top bit ``T`` of exactly the slots with a cleared guard; so some
    ``x - b_j`` lies in the cone iff ``(E + L) & T != T``.  The elements of
    at most half the grade of the candidate are packed in grade order into
    blocks of 1, 2, 4, ... slots, tested in that order up to the first that
    reduces ``x``: a candidate with an early reducer costs one or two small
    tests, an irreducible one about ``log2`` of the basis size.
    """
    if c.dim == 0:
        return ()
    if _is_lattice_basis(c.generators, c.dim):
        return tuple(sorted(c.generators if out is None else [mat_vec(out, r) for r in c.generators]))
    if c.dim == 2:
        return _plane_chain(c, out)
    if c.dim == 3:
        points = _polygon_points(c, out)
        if points is not None:
            return points
    grading = _grading(c)
    cols, guard = _packed_columns(c.halfspaces, c.ambient_rank, _value_bound(c))
    shift = guard.bit_length()
    key_cols = [(g << shift) + col for g, col in zip(grading, cols)]
    ray_keys = {r: dot(key_cols, r) for r in c.generators}
    candidates = list(ray_keys.values())
    for simplex in _triangulate(c):
        det, factors = _hermite_box(simplex)
        if det > 1:
            candidates.extend(_parallelepiped_keys([ray_keys[r] for r in simplex], det, factors))
    candidates.sort()
    kept = _sieve(candidates, guard)
    inverse, den = _value_inverse(c)
    if out is not None:
        inverse = mat_mul(out, inverse)
    w = shift // len(c.halfspaces)
    fields = range(0, shift, w)
    mask = (1 << w) - 1
    basis = [
        tuple([y // den for y in mat_vec(inverse, [key >> i & mask for i in fields])])
        for key in kept
    ]
    return tuple(sorted(basis))


@kept
def saturated_monoid(c: Cone, lattice: Sublattice) -> AffineMonoid:
    """The monoid ``c ∩ lattice`` (lineality allowed; units become explicit).

    Its group is ``span(c) ∩ lattice``, one kernel in lattice coordinates
    (none for a full-dimensional ``c``).  When that has rank below
    ``c.dim``, ``c`` leaves ``span(lattice)``, and the monoid's cone is
    ``c ∩ span(lattice)``, cut again.  Its Hilbert basis waits for its
    first read.  The result is kept on ``c``, keyed by ``lattice`` (which,
    at the rank of ``c``, is equal to another exactly when their bases
    are), so a repeat call on the same cone (an interned cone is shared by
    the whole process) with an equal lattice computes nothing.
    """
    rank = c.ambient_rank
    if lattice.ambient_rank != rank:
        raise ValueError("lattice has wrong ambient rank")
    group = _span_cut(lattice, c.equations)
    if group.rank < c.dim:
        c = intersect_cones(c, cone_from_generators([], lattice.basis, rank))
        group = _span_cut(lattice, c.equations)
    units = _span_cut(group, integer_kernel(c.lineality, rank)) if c.lineality else zero_sublattice(rank)
    return AffineMonoid(rank, units, c, group)


def monoid_from_cone(c: Cone, lattice: Optional[Sublattice] = None) -> AffineMonoid:
    """Hilbert-basis presentation of ``c ∩ lattice`` for strictly convex c."""
    if not c.is_strictly_convex:
        raise NotStrictlyConvex("monoid_from_cone needs a strictly convex cone")
    return saturated_monoid(c, full_lattice(c.ambient_rank) if lattice is None else lattice)


def member(m: AffineMonoid, v: Sequence[int]) -> bool:
    """Exact membership test: ``v`` lies in the cone and in the lattice."""
    v = vec(v)
    if len(v) != m.ambient_rank:
        raise ValueError("vector has wrong length")
    return m.cone.contains(v) and m.group.contains(v)


def dual_monoid(m: AffineMonoid) -> AffineMonoid:
    """All functionals of the ambient dual lattice nonnegative on ``m``."""
    return saturated_monoid(dual_cone(m.cone), full_lattice(m.ambient_rank))


def restrict_to_face(m: AffineMonoid, face: Cone) -> AffineMonoid:
    """The submonoid ``M ∩ F`` of ``M = c ∩ G`` on a face ``F`` of ``c``: the
    saturated ``F ∩ G``, with the units of ``M`` (``F`` holds the lineality
    space) and the group ``span(F) ∩ G``, the one thing computed here."""
    if not is_face_of(face, m.cone):
        raise NotAFace(f"{face} is not a face of {m.cone}")
    return AffineMonoid(m.ambient_rank, m.units, face, _span_cut(m.group, face.equations))


class MonoidHom(Record):
    """An integer-linear map sending one affine monoid into another."""

    matrix: Mat
    source: AffineMonoid
    target: AffineMonoid

    def apply(self, v: Sequence[int]) -> Vec:
        return mat_vec(self.matrix, v)


def monoid_hom(matrix: Sequence[Sequence[int]], source: AffineMonoid, target: AffineMonoid) -> MonoidHom:
    """The map ``matrix`` as a homomorphism from ``source`` into ``target``.

    With ``source = c ∩ G`` and ``target = c′ ∩ G′``, ``A(c ∩ G) ⊆ c′ ∩ G′``
    iff ``A`` sends the rays of ``c`` and both directions of its lineality
    into ``c′``, and the basis of ``G`` into ``G′`` (if: the monoid lies in
    ``c`` and in ``G``; only if: it spans ``c`` and generates ``G``, and
    the target generates ``G′``).  Each vector is mapped once.  Only when
    this fails are the generators scanned, for one whose image escapes
    (there is one, since they generate the monoid), and
    :class:`MonoidNotMapped` names it.  A matrix that is not target rank ×
    source rank raises ``ValueError``.
    """
    mtx = mat(matrix)
    require_shape(mtx, target.ambient_rank, source.ambient_rank)
    c = source.cone
    to_cone = c.generators + c.lineality + tuple(vscale(-1, l) for l in c.lineality)
    to_lattice = source.group.basis
    image = {v: mat_vec(mtx, v) for v in dict.fromkeys(to_cone + to_lattice)}
    if not (
        all(target.cone.contains(image[r]) for r in to_cone)
        and all(target.group.contains(image[b]) for b in to_lattice)
    ):
        g = next(g for g in source.generators() if not member(target, mat_vec(mtx, g)))
        raise MonoidNotMapped(
            f"generator {g} does not map into the target monoid", g, mat_vec(mtx, g)
        )
    return MonoidHom(mtx, source, target)
