"""Toric stack data: a fan with a compatible submonoid attached to each cone.

A datum is valid when every monoid sits inside its cone's lattice points,
restricting a monoid to a face gives exactly the face's monoid, and the
monoids of maximal cones generate finite-index subgroups.  Morphisms are
lattice maps compatible with both the fans and the monoids.  Validation
reports list every violation instead of stopping at the first.
"""

from __future__ import annotations

from typing import Sequence

from ._record import Record
from .cones import Fan, FanMorphism, check_fan_morphism
from .intlinalg import InternalConsistencyError, Mat, elementary_divisors, mat, mat_vec, vscale
from .monoids import AffineMonoid, MonoidNotMapped, monoid_from_cone, monoid_hom, restrict_to_face


class NotMaximalCone(ValueError):
    """Raised when an operation needs a maximal cone of the fan."""


class ToricStackDatum(Record):
    """A fan together with one affine monoid per cone (aligned by index);
    ``==`` compares the rank, the canonical fan and the monoids."""

    lattice_rank: int
    fan: Fan
    monoids: tuple[AffineMonoid, ...]

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if len(self.monoids) != len(self.fan.cones):
            raise ValueError("one monoid per fan cone required")

    def __repr__(self) -> str:
        return f"ToricStackDatum(rank {self.lattice_rank}, {len(self.fan.cones)} cones)"


def variety_datum(fan: Fan) -> ToricStackDatum:
    """The datum with the full monoid of lattice points on every cone."""
    monoids = tuple(monoid_from_cone(c) for c in fan.cones)
    return ToricStackDatum(fan.ambient_rank, fan, monoids)


class StackValidationReport(Record):
    ok: bool
    violations: tuple[str, ...]


def validate_stack_datum(d: ToricStackDatum) -> StackValidationReport:
    """Check containment, face compatibility and finite index on maximal cones.

    Faces are tested one level down, on each cone and its facets, read off
    the fan's facet table (:meth:`~chowfan.cones.Fan._facets`): in a fan
    every proper face of a cone is a face of one of its facets, tested in
    turn, and restriction is transitive (to ``F`` it has the group
    ``span(F) ∩ group``).
    """
    problems = []
    fan = d.fan
    for i, (c, m) in enumerate(zip(fan.cones, d.monoids)):
        if m.ambient_rank != d.lattice_rank:
            problems.append(f"monoid {i} lives in the wrong lattice")
            continue
        if m.cone != c:  # restricting to the faces of c needs them to be faces of m.cone
            part = "not all of" if c.contains_cone(m.cone) else "outside"
            problems.append(f"monoid {i} spans {m.cone}, {part} its cone")
            continue
        for j in (i, *fan._facets()[i]):
            if j is None:
                continue  # reported by fan validation
            if restrict_to_face(m, fan.cones[j]) != d.monoids[j]:
                problems.append(
                    f"face compatibility fails between cones {i} and {j}"
                )
    for i in fan.maximal_indices():
        c = fan.cones[i]
        if c.dim != d.lattice_rank:
            problems.append(f"maximal cone {i} is not full-dimensional")
            continue
        if d.monoids[i].group.rank != d.lattice_rank:
            problems.append(
                f"monoid of maximal cone {i} does not have finite index in the lattice"
            )
    return StackValidationReport(not problems, tuple(problems))


class StackMorphism(Record):
    """A lattice map with verified fan- and monoid-level compatibility."""

    lattice_map: Mat
    source: ToricStackDatum
    target: ToricStackDatum
    fan_morphism: FanMorphism

    @property
    def cone_assignment(self) -> tuple[int, ...]:
        return self.fan_morphism.cone_assignment

    def apply(self, v: Sequence[int]):
        return mat_vec(self.lattice_map, v)


def validate_stack_morphism(
    matrix: Sequence[Sequence[int]], src: ToricStackDatum, dst: ToricStackDatum
) -> StackMorphism:
    """Check a lattice map defines a morphism of stack data.

    Raises :class:`~chowfan.cones.NoTargetCone` when some cone has no image
    cone, and ``ValueError`` when the matrix is not target rank × source
    rank.  Each monoid must map into the monoid of its assigned cone, by
    :func:`~chowfan.monoids.monoid_hom`'s test on rays and group, in one
    pass over the sources in order: a source's ranks are compared with the
    fans' before anything is mapped, and only its (vector, target cone)
    pairs not passed by an earlier source are tested, each image mapped
    once.  At the first source that fails, ``monoid_hom`` runs on it alone
    and raises: ``ValueError`` for a wrong rank, or
    :class:`MonoidNotMapped` naming the source cone, the target cone and a
    generator mapped outside.
    """
    mtx = mat(matrix)
    fm = check_fan_morphism(mtx, src.fan, dst.fan)
    to_cone, to_group, image = set(), set(), {}
    for i, (m, j) in enumerate(zip(src.monoids, fm.cone_assignment)):
        target = dst.monoids[j]
        if m.ambient_rank == src.fan.ambient_rank and target.ambient_rank == dst.fan.ambient_rank:
            c = m.cone
            rays = {(v, j) for v in c.generators + c.lineality + tuple(vscale(-1, l) for l in c.lineality)} - to_cone
            basis = {(b, j) for b in m.group.basis} - to_group
            for v, _ in rays | basis:
                if v not in image:
                    image[v] = mat_vec(mtx, v)
            if all(target.cone.contains(image[v]) for v, _ in rays) and all(
                target.group.contains(image[b]) for b, _ in basis
            ):
                to_cone |= rays
                to_group |= basis
                continue
        try:
            monoid_hom(mtx, m, target)
        except MonoidNotMapped as e:
            raise MonoidNotMapped(
                f"generator {e.generator} of the monoid at cone {i} does not map into "
                f"the monoid at target cone {j}",
                e.generator,
                e.image,
            ) from e
    return StackMorphism(mtx, src, dst, fm)


def stabilizer_invariants(d: ToricStackDatum, cone_index: int) -> tuple[int, ...]:
    """Elementary divisors of lattice / monoid-group at a maximal cone.

    All ones means the point is scheme-like (trivial stabilizer).
    """
    if cone_index not in d.fan.maximal_indices():
        raise NotMaximalCone(f"cone {cone_index} is not maximal")
    basis = d.monoids[cone_index].group.basis
    if len(basis) < d.lattice_rank:
        raise InternalConsistencyError(
            "monoid group of a maximal cone must have full rank"
        )
    return elementary_divisors(basis)

