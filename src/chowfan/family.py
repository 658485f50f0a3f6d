"""The universal family over a Chow quotient and its degenerate fibers.

The family fan is the common refinement ``{p^{-1}(kappa) ∩ sigma}`` over all
pairs of quotient and input cones, built from the meeting pairs (see
:func:`universal_family`) and asserted complete; it is the terminal fan
mapping to both the input fan and the quotient fan, and each cone's host
and base are read off those two morphisms.  Its monoids are cut from the
input monoids by the quotient stack monoids.  Over each quotient cone the
family decomposes into a broken toric variety: components (cones mapping
isomorphically), walls of relative dimension one (with one or two sections,
a primitive direction in the acting sublattice, and a lattice-length gluing
map), and higher-dimensional strata.  The components-and-walls graph is
connected and the wall monoids carry product / fiber-product structure, all
of which is verified element by element rather than assumed.
"""

from __future__ import annotations

from typing import Sequence

from ._record import Record, kept
from .chow import ChowQuotient, chow_stack_datum
from .cones import (
    Cone,
    Fan,
    _cone_by_constraints,
    _pull_back,
    _span_lattice,
    check_fan_morphism,
    cone_from_generators,
    cone_from_halfspaces,
    dual_cone,
    facets,
    fan_from_cones,
    intersect_cones,
    is_complete,
    preimage_cone,
    relative_interior_sample,
)
from .intlinalg import (
    Sublattice,
    Vec,
    _lift_factor,
    _span_cut,
    _substitute,
    coordinates_in,
    dot,
    full_lattice,
    identity_matrix,
    mat_vec,
    preimage_lattice,
    row_lattice_hnf,
    vadd,
    vscale,
    vsub,
)
from .monoids import AffineMonoid, MonoidNotMapped, member, monoid_hom, saturated_monoid
from .stacks import (
    InternalConsistencyError,
    StackMorphism,
    ToricStackDatum,
    validate_stack_morphism,
    variety_datum,
)


class VerificationFailed(RuntimeError):
    """An explicit isomorphism failed to verify; carries a witness."""


class UniversalFamily(Record):
    chow: ChowQuotient
    datum: ToricStackDatum  # the family fan with its monoids
    provenance: tuple[tuple[int, int], ...]  # per family cone: (host in F, base in G)
    variety: ToricStackDatum
    base: ToricStackDatum
    to_base: StackMorphism
    to_target: StackMorphism

    @property
    def fan(self) -> Fan:
        return self.datum.fan

    def __repr__(self) -> str:
        return f"UniversalFamily({len(self.fan.cones)} cones over {len(self.base.fan.cones)})"


def universal_family(cq: ChowQuotient) -> UniversalFamily:
    """Terminal refinement with its monoids and both verified morphisms.

    Maximal pairs would suffice: the faces of ``P ∩ Q`` are the ``F ∩ G``
    with ``F ≤ P`` and ``G ≤ Q``, and as ``p`` is surjective the faces of
    ``p^{-1}(kappa)`` are the preimages of the faces of ``kappa``.  Only
    meeting pairs are intersected: for maximal ``kappa`` and ``sigma``,
    ``p^{-1}(kappa) ∩ sigma`` is full-dimensional iff int ``kappa`` meets
    relint ``p(sigma)``, i.e. iff ``sigma`` is in the meeting set, which
    :func:`~chowfan.chow.chow_quotient` verified is constant on int
    ``kappa``; any other pair gives a face of a full-dimensional cone of
    the complete refinement.  Completeness is asserted (by incidence, with
    no double description).  Host and base are the to-target and to-base
    cone assignments, and ``c = p^{-1}(base) ∩ host`` for each family cone
    ``c``: (1) by the face lemma, ``c = p^{-1}(kappa') ∩ sigma'`` for faces
    ``kappa'``, ``sigma'`` of its meeting pair; (2) the host is the least
    input cone holding ``c`` and the base the least quotient cone holding
    ``p(c)``, so ``host ≤ sigma'`` and ``base ≤ kappa'``, and the morphism
    checks confirm both hold ``c``; (3) hence ``c ⊆ p^{-1}(base) ∩ host ⊆
    c``.  That ``p(c)`` is all of its base is left to
    :func:`~chowfan.verify.check_equidimensional`.
    """
    fan, proj, gfan = cq.fan, cq.projection, cq.quotient_fan
    rank = fan.ambient_rank
    maximal = set(fan.maximal_indices())
    preimages = {b: preimage_cone(proj.matrix, gfan.cones[b], rank) for b in gfan.maximal_indices()}
    ffan = fan_from_cones(
        (
            intersect_cones(pre, fan.cones[h])
            for b, pre in preimages.items()
            for h in sorted(cq.cone_data[b].meeting_set & maximal)
        ),
        ambient_rank=rank,
    )
    if not is_complete(ffan):
        raise InternalConsistencyError("the family cones of the meeting pairs do not cover the space")

    bases = _guaranteed(check_fan_morphism, proj.matrix, ffan, gfan).cone_assignment
    # per base cone, the preimage of its lift lattice, one per distinct lattice
    pre = {lat: preimage_lattice(proj.matrix, rank, lat) for lat in dict.fromkeys(d.lift_lattice for d in cq.cone_data)}
    monoids = tuple(saturated_monoid(c, pre[cq.cone_data[b].lift_lattice]) for c, b in zip(ffan.cones, bases))
    datum = ToricStackDatum(rank, ffan, monoids)
    variety, base_datum = variety_datum(fan), chow_stack_datum(cq)
    to_base = _guaranteed(validate_stack_morphism, proj.matrix, datum, base_datum)
    to_target = _guaranteed(validate_stack_morphism, identity_matrix(rank), datum, variety)
    provenance = tuple(zip(to_target.cone_assignment, to_base.cone_assignment))
    return UniversalFamily(cq, datum, provenance, variety, base_datum, to_base, to_target)


def _guaranteed(check, matrix, src, dst):
    """``check(matrix, src, dst)`` on a morphism the theory guarantees."""
    try:
        return check(matrix, src, dst)
    except Exception as exc:
        raise InternalConsistencyError(f"universal family morphism failed to validate: {exc}") from exc


def is_refinement_fixed_point(fam: UniversalFamily) -> bool:
    """Re-running the refinement on the family fan must reproduce it.

    Maximal pairs suffice, by the face lemma of :func:`universal_family`:
    the faces of the intersections of maximal quotient-cone preimages with
    maximal family cones are all the pairwise intersections.
    """
    proj = fam.chow.projection
    rank = fam.fan.ambient_rank
    gfan = fam.base.fan
    refined = fan_from_cones(
        (
            intersect_cones(preimage_cone(proj.matrix, gfan.cones[b], rank), fam.fan.cones[i])
            for b in gfan.maximal_indices()
            for i in fam.fan.maximal_indices()
        ),
        ambient_rank=rank,
    )
    return {c.key() for c in refined.cones} == {c.key() for c in fam.fan.cones}


def cones_over(fam: UniversalFamily, base_index: int, k: int) -> tuple[int, ...]:
    """Family cones projecting onto the given base cone with relative dim k."""
    kappa_dim = fam.base.fan.cones[base_index].dim
    return tuple(
        i
        for i, c in enumerate(fam.fan.cones)
        if fam.provenance[i][1] == base_index and c.dim == kappa_dim + k
    )


def component_bijection(fam: UniversalFamily, base_index: int) -> dict[int, int]:
    """Host map from fiber components onto single-point-slice input cones."""
    comps = cones_over(fam, base_index, 0)
    mapping = {i: fam.provenance[i][0] for i in comps}
    targets = fam.chow.cone_data[base_index].point_fiber_cones
    if len(set(mapping.values())) != len(mapping) or set(mapping.values()) != set(targets):
        raise InternalConsistencyError(
            f"quotient cone {base_index}: components do not biject onto single-point-slice cones"
        )
    return mapping


# ---------------------------------------------------------------------------
# walls


class Wall(Record):
    """A family cone of relative dimension one over its base cone."""

    index: int
    base_index: int
    kind: str  # "boundary" (one section) or "internal" (two sections)
    iso_faces: tuple[int, ...]  # family cone indices, canonically ordered
    direction: Vec  # primitive vector in the acting sublattice


def lift_into_span(proj, c: Cone, value: Sequence[int]) -> tuple[int, Vec]:
    """The preimage of ``value`` in the span of ``c`` as ``(d, x)``.

    The preimage is ``x / d`` with ``x`` integral and ``d > 0`` least; it is
    unique when ``proj`` is injective on the span, as it is on a section.
    ``x = y @ W @ B``, ``y`` substituted on :func:`_lift_factor`.  Raises
    ValueError when ``value`` is not in the projected span.
    """
    if len(value) != len(proj.matrix):
        raise ValueError(f"target {tuple(value)} does not have length {len(proj.matrix)}")
    h, columns = _lift_factor(_span_lattice(c), proj.matrix)
    solved = _substitute(h, value)
    if solved is None:
        raise ValueError("value is not in the projected span")
    return solved[0], mat_vec(columns, solved[1])


def integral_lift(proj, c: Cone, value: Sequence[int]) -> Vec:
    d, lifted = lift_into_span(proj, c, value)
    if d != 1:
        raise InternalConsistencyError(
            f"section cone with rays {list(c.generators)}: lift of {tuple(value)} is not integral"
        )
    return lifted


def _wall_direction_lattice(fam: UniversalFamily, wall_index: int) -> Vec:
    c = fam.fan.cones[wall_index]
    k = _span_cut(fam.chow.sub, c.equations)
    if k.rank != 1:
        raise InternalConsistencyError(
            f"wall {wall_index}: span must meet the acting sublattice in a line"
        )
    return k.basis[0]


@kept
def wall_structure(fam: UniversalFamily, base_index: int, wall_index: int) -> Wall:
    """Classify a relative-dimension-one cone and orient its direction.

    Walls admit exactly one iso section (boundary, direction from interior
    point minus its section image) or two (internal, direction from second
    section minus first); any other count is an internal error.  The wall
    is kept on the family, keyed by ``(base_index, wall_index)``.
    """
    kappa = fam.base.fan.cones[base_index]
    wall = fam.fan.cones[wall_index]
    if fam.provenance[wall_index][1] != base_index or wall.dim != kappa.dim + 1:
        raise ValueError("cone is not a wall over this base cone")
    proj = fam.chow.projection
    # the faces of dimension kappa.dim of the wall are its facets
    iso = sorted(j for j in map(fam.fan.index_of, facets(wall)) if fam.provenance[j][1] == base_index)
    if len(iso) not in (1, 2):
        raise InternalConsistencyError(
            f"wall {wall_index} has {len(iso)} sections over its base cone"
        )
    # u0 is primitive, so each integral displacement below is a multiple of it
    u0 = _wall_direction_lattice(fam, wall_index)
    if len(iso) == 1:
        kind = "boundary"
        x = relative_interior_sample(wall)
        d, lifted = lift_into_span(proj, fam.fan.cones[iso[0]], proj.apply(x))
        diff = vsub(vscale(d, x), lifted)
    else:
        kind = "internal"
        v = relative_interior_sample(kappa)
        d1, l1 = lift_into_span(proj, fam.fan.cones[iso[0]], v)
        d2, l2 = lift_into_span(proj, fam.fan.cones[iso[1]], v)
        diff = vsub(vscale(d1, l2), vscale(d2, l1))
    n = _parallel_multiple(diff, u0)
    if n == 0:
        raise InternalConsistencyError(
            f"wall {wall_index} over quotient cone {base_index}: direction degenerated to zero"
        )
    direction = u0 if n > 0 else vscale(-1, u0)
    return Wall(wall_index, base_index, kind, tuple(iso), direction)


def segment_length(
    fam: UniversalFamily, base_index: int, wall_index: int, value: Sequence[int]
) -> int:
    """Lattice steps between the two section lifts of a quotient point.

    One less than the number of family-monoid points on the fiber segment.
    """
    w = wall_structure(fam, base_index, wall_index)
    if w.kind != "internal":
        raise ValueError("the gluing length is defined for internal walls only")
    q_monoid = fam.chow.cone_data[base_index].monoid
    if not member(q_monoid, value):
        raise ValueError(f"{tuple(value)} is not in the quotient monoid")
    proj = fam.chow.projection
    v1 = integral_lift(proj, fam.fan.cones[w.iso_faces[0]], value)
    v2 = integral_lift(proj, fam.fan.cones[w.iso_faces[1]], value)
    m = _parallel_multiple(vsub(v2, v1), w.direction)
    if m < 0:
        raise InternalConsistencyError(
            f"wall {wall_index} over quotient cone {base_index}: gluing length {m} "
            f"at {tuple(value)} came out negative"
        )
    return m


def _parallel_multiple(diff: Vec, u: Vec) -> int:
    """The integer ``n`` with ``diff == n * u``, for a nonzero ``u``."""
    i = next(i for i, x in enumerate(u) if x)
    if diff[i] % u[i] != 0:
        raise InternalConsistencyError("segment is not an integral multiple")
    n = diff[i] // u[i]
    if vscale(n, u) != diff:
        raise InternalConsistencyError("segment is not parallel to the wall direction")
    return n


# ---------------------------------------------------------------------------
# fiber complexes


class FiberComplex(Record):
    """The broken fiber over a quotient cone as a labelled cone complex."""

    base_index: int
    components: tuple[int, ...]
    component_hosts: tuple[int, ...]
    boundary_walls: tuple[Wall, ...]
    internal_walls: tuple[Wall, ...]
    higher: tuple[tuple[int, tuple[int, ...]], ...]
    adjacency: tuple[tuple[int, int, int], ...]  # (component, component, wall)
    # per internal wall: (v, segment length) over the quotient Hilbert basis
    gluing: tuple[tuple[tuple[Vec, int], ...], ...]


def fiber_complex(fam: UniversalFamily, base_index: int) -> FiberComplex:
    """Assemble components, walls and the connectivity graph of one fiber."""
    comps = cones_over(fam, base_index, 0)
    mapping = component_bijection(fam, base_index)
    hosts = tuple(mapping[i] for i in comps)
    walls = [wall_structure(fam, base_index, i) for i in cones_over(fam, base_index, 1)]
    boundary = tuple(w for w in walls if w.kind == "boundary")
    internal = tuple(w for w in walls if w.kind == "internal")
    levels = ((k, cones_over(fam, base_index, k)) for k in range(2, fam.chow.sub.rank + 1))
    higher = tuple((k, level) for k, level in levels if level)
    edges = tuple((w.iso_faces[0], w.iso_faces[1], w.index) for w in internal)
    _assert_connected(comps, edges, base_index)
    q_basis = fam.chow.cone_data[base_index].monoid.hilbert_basis
    gluing = tuple(
        tuple((v, segment_length(fam, base_index, w.index, v)) for v in q_basis) for w in internal
    )
    return FiberComplex(
        base_index, comps, hosts, boundary, internal, higher, edges, gluing
    )


def _assert_connected(vertices: tuple[int, ...], edges, base_index: int) -> None:
    if not vertices:
        raise InternalConsistencyError(f"quotient cone {base_index}: fiber has no components")
    reached = {vertices[0]}
    frontier = [vertices[0]]
    adj: dict[int, list[int]] = {v: [] for v in vertices}
    for a, b, _ in edges:
        adj[a].append(b)
        adj[b].append(a)
    while frontier:
        v = frontier.pop()
        for w in adj[v]:
            if w not in reached:
                reached.add(w)
                frontier.append(w)
    if reached != set(vertices):
        raise InternalConsistencyError(
            f"quotient cone {base_index}: fiber adjacency graph is disconnected"
        )


def adjacency_dot(fam: UniversalFamily, fc: FiberComplex) -> str:
    """The components-and-walls graph in DOT format."""
    lines = ["graph fiber {"]
    for comp, host in zip(fc.components, fc.component_hosts):
        rays = list(fam.variety.fan.cones[host].generators)
        lines.append(f'  c{comp} [label="component {comp} over cone {host} rays {rays}"];')
    for w, gluing in zip(fc.internal_walls, fc.gluing):
        cvals = [(list(v), c) for v, c in gluing]
        lines.append(
            f'  c{w.iso_faces[0]} -- c{w.iso_faces[1]} '
            f'[label="wall {w.index} u={list(w.direction)} c={cvals}"];'
        )
    for w in fc.boundary_walls:
        lines.append(
            f'  m{w.index} [shape=point label=""];'
        )
        lines.append(
            f'  c{w.iso_faces[0]} -- m{w.index} '
            f'[style=dashed label="boundary wall {w.index} u={list(w.direction)}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# wall monoid structure


class WallMonoidStructure(Record):
    wall: Wall
    kind: str  # "product" or "fiber_product"
    gluing_on_basis: tuple[tuple[Vec, int], ...]  # internal walls: (v, length)


def wall_monoid_structure(
    fam: UniversalFamily, base_index: int, wall_index: int
) -> WallMonoidStructure:
    """Verify the wall monoid splits as a product or gluing fiber product.

    Boundary walls: (v, n) maps to section(v) + n * direction, bijectively.
    Internal walls: triples (v, a, b) with a + b equal to the gluing length
    map to section1(v) + b * direction.  Both directions are checked on the
    Hilbert bases, the projection into the base monoid by one
    :func:`~chowfan.monoids.monoid_hom`; failure raises
    :class:`VerificationFailed` with the offending element.
    """
    w = wall_structure(fam, base_index, wall_index)
    proj = fam.chow.projection
    wall_monoid = fam.datum.monoids[wall_index]
    q_monoid = fam.chow.cone_data[base_index].monoid
    try:
        monoid_hom(proj.matrix, wall_monoid, q_monoid)
    except MonoidNotMapped as e:
        raise VerificationFailed(f"projection of {e.generator} escapes the base monoid") from e
    if w.kind == "boundary":
        sec = fam.fan.cones[w.iso_faces[0]]
        for v in q_monoid.hilbert_basis:
            x = integral_lift(proj, sec, v)
            if not member(wall_monoid, x):
                raise VerificationFailed(f"section lift of {v} escapes the wall monoid")
        if not member(wall_monoid, w.direction):
            raise VerificationFailed("wall direction is not in the wall monoid")
        for x in wall_monoid.hilbert_basis:
            v = proj.apply(x)
            n = _parallel_multiple(vsub(x, integral_lift(proj, sec, v)), w.direction)
            if n < 0:
                raise VerificationFailed(f"element {x} decomposes with negative step")
        return WallMonoidStructure(w, "product", ())
    # internal: build the fiber product monoid and map both ways
    gluing = tuple(
        (v, segment_length(fam, base_index, wall_index, v))
        for v in q_monoid.hilbert_basis
    )
    fp = _fiber_product_monoid(fam, base_index, w)
    sec1 = fam.fan.cones[w.iso_faces[0]]
    q = proj.target_rank
    for t in fp.hilbert_basis:
        v, a, b = t[:q], t[q], t[q + 1]
        x = vadd(integral_lift(proj, sec1, v), tuple(b * y for y in w.direction))
        if not member(wall_monoid, x):
            raise VerificationFailed(f"fiber product element {t} maps outside the wall")
        if a + b != segment_length(fam, base_index, wall_index, v):
            raise VerificationFailed(f"fiber product element {t} violates the gluing sum")
    for x in wall_monoid.hilbert_basis:
        v = proj.apply(x)
        b = _parallel_multiple(vsub(x, integral_lift(proj, sec1, v)), w.direction)
        c = segment_length(fam, base_index, wall_index, v)
        if not (0 <= b <= c):
            raise VerificationFailed(f"element {x} sits outside the fiber segment")
        if not member(fp, v + (c - b, b)):
            raise VerificationFailed(f"decomposition of {x} escapes the fiber product")
    return WallMonoidStructure(w, "fiber_product", gluing)


def _fiber_product_monoid(fam: UniversalFamily, base_index: int, w: Wall) -> AffineMonoid:
    """Triples (v, a, b) with v in the base monoid and a + b = gluing(v).

    The gluing length is linear and nonnegative on the pointed cone kappa,
    so the cone of triples is spanned by ``(D g, n, 0)`` and ``(D g, 0, n)``
    over the rays ``g`` of kappa, where ``n / D`` is the gluing length at
    ``g`` and ``D = d1 * d2`` clears the denominators of its two section
    lifts.  No rational functional is solved for.
    """
    proj = fam.chow.projection
    kappa = fam.base.fan.cones[base_index]
    q = proj.target_rank
    gens = []
    for g in kappa.generators:
        d1, l1 = lift_into_span(proj, fam.fan.cones[w.iso_faces[0]], g)
        d2, l2 = lift_into_span(proj, fam.fan.cones[w.iso_faces[1]], g)
        n = _parallel_multiple(vsub(vscale(d1, l2), vscale(d2, l1)), w.direction)
        if n < 0:
            raise InternalConsistencyError(
                f"gluing length is negative on ray {g} of quotient cone {base_index}"
            )
        dg = vscale(d1 * d2, g)
        gens += [dg + (n, 0), dg + (0, n)]
    cone = cone_from_generators(gens, ambient_rank=q + 2)
    lat = fam.chow.cone_data[base_index].lift_lattice
    rows = [tuple(b) + (0, 0) for b in lat.basis]
    rows.append(tuple(0 for _ in range(q)) + (1, 0))
    rows.append(tuple(0 for _ in range(q)) + (0, 1))
    lattice = Sublattice(q + 2, row_lattice_hnf(rows))
    return saturated_monoid(cone, lattice)


# ---------------------------------------------------------------------------
# the basic monoid and its tropical dual


class BasicMonoidPresentation(Record):
    """The quotient monoid presented by component tuples and wall steps.

    Tuples ``(v_0, ..., v_n, m_w)`` of lattice points of the single-point
    cones, one block per component, with one integer per internal wall
    subject to ``v_first - v_second = m * direction``.
    """

    base_index: int
    component_cones: tuple[int, ...]  # input-fan indices, canonical order
    wall_relations: tuple[tuple[int, int, Vec, int], ...]  # (i, j, u, wall index)
    monoid: AffineMonoid  # inside Z^(r*(n+1) + #walls)
    block_rank: int
    host_collisions: tuple[tuple[int, int], ...]


@kept
def basic_monoid(fam: UniversalFamily, base_index: int) -> BasicMonoidPresentation:
    """The presentation over one base cone, kept on the family."""
    comps = fam.chow.cone_data[base_index].point_fiber_cones
    rank = fam.fan.ambient_rank
    pos = {c: i for i, c in enumerate(comps)}
    walls = []
    for widx in cones_over(fam, base_index, 1):
        w = wall_structure(fam, base_index, widx)
        if w.kind == "internal":
            walls.append(w)
    relations = []
    hosts_seen: dict[int, int] = {}
    collisions = []
    for w in walls:
        host = fam.provenance[w.index][0]
        if host in hosts_seen:
            collisions.append((hosts_seen[host], w.index))
        else:
            hosts_seen[host] = w.index
        i = pos[fam.provenance[w.iso_faces[0]][0]]
        j = pos[fam.provenance[w.iso_faces[1]][0]]
        relations.append((i, j, w.direction, w.index))

    n = len(comps)
    nwalls = len(relations)
    total = rank * n + nwalls

    def block(vec_idx: int, v: Sequence[int]) -> Vec:
        out = [0] * total
        out[vec_idx * rank : (vec_idx + 1) * rank] = list(v)
        return tuple(out)

    halfspaces = []
    equations = []
    for bi, ci in enumerate(comps):
        c = fam.variety.fan.cones[ci]
        for h in c.halfspaces:
            halfspaces.append(block(bi, h))
        for e in c.equations:
            equations.append(block(bi, e))
    for widx, (i, j, u, _) in enumerate(relations):
        for t in range(rank):
            row = [0] * total
            row[i * rank + t] += 1
            row[j * rank + t] -= 1
            row[rank * n + widx] -= u[t]
            equations.append(tuple(row))
    cone = cone_from_halfspaces(halfspaces, equations, total)
    monoid = saturated_monoid(cone, full_lattice(total))
    if not monoid.is_pointed:
        raise InternalConsistencyError(
            f"quotient cone {base_index}: basic monoid presentation has units"
        )
    return BasicMonoidPresentation(
        base_index, comps, tuple(relations), monoid, rank, tuple(collisions)
    )


def presentation_tuple(
    fam: UniversalFamily, pres: BasicMonoidPresentation, value: Sequence[int]
) -> Vec:
    """Map a quotient monoid element to its presentation tuple."""
    proj = fam.chow.projection
    lifts = [
        integral_lift(proj, fam.variety.fan.cones[ci], value)
        for ci in pres.component_cones
    ]
    out: list[int] = []
    for l in lifts:
        out.extend(l)
    for i, j, u, _ in pres.wall_relations:
        out.append(_parallel_multiple(vsub(lifts[i], lifts[j]), u))
    return tuple(out)


def presentation_value(
    fam: UniversalFamily, pres: BasicMonoidPresentation, t: Sequence[int]
) -> Vec:
    """Common projection of the component blocks of a presentation tuple."""
    proj = fam.chow.projection
    rank = pres.block_rank
    blocks = [
        tuple(t[i * rank : (i + 1) * rank]) for i in range(len(pres.component_cones))
    ]
    images = {proj.apply(b) for b in blocks}
    if len(images) != 1:
        raise VerificationFailed(f"blocks of {tuple(t)} project to different points")
    return images.pop()


def tropical_moduli_cone(fam: UniversalFamily, base_index: int) -> Cone:
    """Dual cone of the basic monoid, coordinatized by Hilbert-basis values.

    A dual functional is recorded by its values on the Hilbert basis of the
    presentation monoid, which embeds the dual cone into nonnegative
    coordinates canonically (independent of any basis orientation).
    """
    pres = basic_monoid(fam, base_index)
    span = pres.monoid.group  # the span lattice of a saturated monoid
    if span.rank == 0:
        return cone_from_generators([], ambient_rank=0)
    coords = []
    for g in pres.monoid.hilbert_basis:
        c = coordinates_in(span.basis, g)
        if c is None:
            raise InternalConsistencyError(
                f"quotient cone {base_index}: basic monoid element {g} lies outside its group"
            )
        coords.append(c)
    # the coordinate cone is the monoid's cone pulled back to its group, as
    # the Hilbert basis generates it; full-dimensional, so its dual is pointed
    dual = dual_cone(_pull_back(pres.monoid.cone, span.basis))
    # a primitive functional has coprime values on the basis, which generates Z^k
    embed = [tuple(dot(g, c) for c in coords) for g in dual.generators]
    # each facet of the dual is a ray of the coordinate cone, a basis
    # element c_i, so the coordinates themselves are nonnegative on the
    # embedded cone and vanish on each of its facets
    return _cone_by_constraints(len(coords), embed, span.rank, identity_matrix(len(coords)))
