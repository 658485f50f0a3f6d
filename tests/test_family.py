import random
import re
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from chowfan import replace
from chowfan.cli import parse_input
from chowfan.chow import chow_quotient
from chowfan.cones import (
    Fan,
    NoTargetCone,
    check_fan_morphism,
    cone_from_generators,
    fan_from_cones,
    is_complete,
    relative_interior_sample,
    validate_fan,
    zero_cone,
)
from chowfan.intlinalg import dot, full_lattice, identity_matrix, sublattice, zero_sublattice
from chowfan.monoids import member, monoid_from_cone, saturated_monoid
from chowfan.stacks import InternalConsistencyError
from chowfan.family import (
    adjacency_dot,
    basic_monoid,
    component_bijection,
    cones_over,
    fiber_complex,
    is_refinement_fixed_point,
    lift_into_span,
    presentation_tuple,
    presentation_value,
    segment_length,
    tropical_moduli_cone,
    universal_family,
    wall_monoid_structure,
    wall_structure,
)

from conftest import (
    corpus,
    orthant_fan,
    p1p1_fan,
    p2_fan,
    random_complete_fan_rank2,
    random_complete_fan_rank3,
    random_saturated_sublattice,
)
import oracles

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def lift_outcomes(fam):
    """Per family cone, lifts of the images of its rays, lines and interior
    sample, and of the target's unit vectors (often outside the projected
    span), by the library and by the solving oracle: each a ``(d, x)`` or
    ``"outside"``."""
    proj = fam.chow.projection
    units = identity_matrix(proj.target_rank)
    pairs = []
    for c in fam.fan.cones:
        points = c.generators + c.lineality + (relative_interior_sample(c),)
        for v in [proj.apply(x) for x in points] + list(units):
            got = []
            for lift in (lift_into_span, oracles.lift_into_span_by_solving):
                try:
                    got.append(lift(proj, c, v))
                except ValueError:
                    got.append("outside")
            pairs.append(tuple(got))
    return pairs


def _fam_p2():
    return universal_family(chow_quotient(p2_fan(), sublattice(2, [[1, 0]])))


def _fam_p1p1():
    return universal_family(chow_quotient(p1p1_fan(), sublattice(2, [[1, 1]])))


def _idx(fan, gens, rank=2):
    return fan.index_of(cone_from_generators(gens, ambient_rank=rank))


def _assert_morphisms_walked(fam, fan, monkeypatch):
    """Both morphisms of ``fam`` against the per-cone scan, and a fresh check
    of each on a copy of the family fan images its maximal cones only."""
    import chowfan.cones as cones

    matrix, identity = fam.chow.projection.matrix, identity_matrix(fan.ambient_rank)
    for morphism, m, dst in ((fam.to_base, matrix, fam.base.fan), (fam.to_target, identity, fan)):
        assert morphism.cone_assignment == oracles.minimal_targets_by_scan(m, fam.fan, dst)
        copy = Fan(fam.fan.ambient_rank, fam.fan.cones)  # a new record keeps no morphism
        imaged = []
        real = cones.image_cone
        with monkeypatch.context() as patch:
            patch.setattr(cones, "image_cone", lambda a, c: imaged.append(c) or real(a, c))
            assert check_fan_morphism(m, copy, dst).cone_assignment == morphism.cone_assignment
        assert imaged == [copy.cones[i] for i in copy.maximal_indices()]


class TestRefinement:
    def test_p2_family_is_hirzebruch(self):
        fam = _fam_p2()
        rays = {c.generators[0] for c in fam.fan.cones if c.dim == 1}
        assert rays == {(1, 0), (0, 1), (-1, 0), (-1, -1)}
        assert sum(1 for c in fam.fan.cones if c.dim == 2) == 4

    def test_p1p1_family_has_six_chambers(self):
        fam = _fam_p1p1()
        assert sum(1 for c in fam.fan.cones if c.dim == 2) == 6
        rays = {c.generators[0] for c in fam.fan.cones if c.dim == 1}
        assert rays == {(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1)}

    def test_zero_sublattice_returns_input(self):
        fan = p2_fan()
        fam = universal_family(chow_quotient(fan, zero_sublattice(2)))
        assert fam.fan == fan
        for i, c in enumerate(fam.fan.cones):
            assert fam.datum.monoids[i] == monoid_from_cone(c)

    def test_fixed_point(self):
        assert is_refinement_fixed_point(_fam_p2())
        assert is_refinement_fixed_point(_fam_p1p1())

    def test_p2_monoids_trivial(self):
        fam = _fam_p2()
        for i, c in enumerate(fam.fan.cones):
            assert fam.datum.monoids[i] == monoid_from_cone(c)

    def test_provenance_defining_property(self):
        # host and base are read off the two morphisms; each family cone is
        # the preimage of its base cut by its host
        fixtures = [parse_input(path.read_text())[:2] for path in sorted(FIXTURES.glob("*.json"))]
        rank4 = [(orthant_fan(4), sublattice(4, rows)) for rows in ([[1, 2, 3, 5]], [[1, 1, 1, 1], [0, 1, -1, 1]])]
        inputs = [(p2_fan(), sublattice(2, [[1, 0]])), (p1p1_fan(), sublattice(2, [[1, 1]]))]
        for fan, sub in inputs + fixtures + corpus(count=10) + rank4:
            fam = universal_family(chow_quotient(fan, sub))
            assert oracles.provenance_by_intersection(fam) == fam.fan.cones

    def test_both_morphisms_validated(self, monkeypatch):
        # each cone assignment is the least target cone holding the image,
        # found by scanning every target cone, on the fixtures and the corpus
        fixtures = [parse_input(path.read_text())[:2] for path in sorted(FIXTURES.glob("*.json"))]
        for fan, sub in [(p1p1_fan(), sublattice(2, [[1, 1]]))] + fixtures + corpus(count=10):
            fam = universal_family(chow_quotient(fan, sub))
            _assert_morphisms_walked(fam, fan, monkeypatch)
            assert fam.provenance == tuple(zip(fam.to_target.cone_assignment, fam.to_base.cone_assignment))

    def test_consistency_error_names_the_family_cone(self, monkeypatch):
        # the first Hirzebruch surface projected along (0, 1): the new ray
        # (0, -1), family cone 3, splits input cone 6 into the maximal
        # family cones 7 and 9, whose hosts the to-target validation finds
        # by a relative-interior search; lost there, it names cone 7, the
        # first maximal cone that fails, and the ray, a face walked from
        # its coface, is never searched
        cq = chow_quotient(_fam_p2().fan, sublattice(2, [[0, 1]]))
        fam = universal_family(cq)
        split = cone_from_generators([(-1, -1), (1, 0)])
        host = cq.fan.index_of(split)
        assert fam.fan.cones[3].generators == ((0, -1),) and fam.to_target.cone_assignment[3] == host
        assert [i for i in fam.fan.maximal_indices() if fam.provenance[i][0] == host] == [7, 9]
        real = Fan.cone_containing_in_relint
        searched = []

        def lost_in_the_split_cone(fan, v):
            searched.append(v)
            return None if len(v) == 2 and split.contains_in_relint(v) else real(fan, v)

        monkeypatch.setattr(Fan, "cone_containing_in_relint", lost_in_the_split_cone)
        with pytest.raises(InternalConsistencyError, match="source cone 7 lies in no target cone"):
            universal_family(cq)
        assert searched[-1] == relative_interior_sample(fam.fan.cones[7])
        assert relative_interior_sample(fam.fan.cones[3]) not in searched

    def test_one_intersection_per_pair(self, monkeypatch):
        import chowfan.family

        cq = chow_quotient(p1p1_fan(), sublattice(2, [[1, 1]]))
        real = chowfan.family.intersect_cones
        calls = []

        def counted(a, b):
            calls.append((a, b))
            return real(a, b)

        real_preimage = chowfan.family.preimage_cone
        preimages = []

        def counted_preimage(matrix, c, rank):
            preimages.append(c)
            return real_preimage(matrix, c, rank)

        monkeypatch.setattr(chowfan.family, "intersect_cones", counted)
        monkeypatch.setattr(chowfan.family, "preimage_cone", counted_preimage)
        universal_family(cq)
        # one per meeting pair (maximal quotient cone, maximal input cone in
        # its meeting set) and none for the provenance, which is read off
        # the morphisms; one preimage per maximal quotient cone
        maximal = set(cq.fan.maximal_indices())
        pairs = sum(
            len(cq.cone_data[b].meeting_set & maximal) for b in cq.quotient_fan.maximal_indices()
        )
        assert pairs < len(cq.quotient_fan.maximal_indices()) * len(maximal)
        assert len(calls) == pairs
        assert preimages == [cq.quotient_fan.cones[b] for b in cq.quotient_fan.maximal_indices()]

    def test_doctored_meeting_set_is_caught(self):
        cq = chow_quotient(p1p1_fan(), sublattice(2, [[1, 1]]))
        b = cq.quotient_fan.maximal_indices()[0]
        data = cq.cone_data[b]
        dropped = min(data.meeting_set & set(cq.fan.maximal_indices()))
        doctored = replace(data, meeting_set=data.meeting_set - {dropped})
        cone_data = cq.cone_data[:b] + (doctored,) + cq.cone_data[b + 1 :]
        with pytest.raises(InternalConsistencyError, match="meeting pairs do not cover"):
            universal_family(replace(cq, cone_data=cone_data))

    def test_one_preimage_lattice_per_distinct_lift_lattice(self, monkeypatch):
        import chowfan.family

        cq = chow_quotient(p1p1_fan(), sublattice(2, [[1, 1]]))
        real = chowfan.family.preimage_lattice
        calls = []

        def counted(matrix, rank, lattice):
            calls.append(lattice)
            return real(matrix, rank, lattice)

        monkeypatch.setattr(chowfan.family, "preimage_lattice", counted)
        fam = universal_family(cq)
        distinct = {d.lift_lattice for d in cq.cone_data}
        assert sorted(calls, key=repr) == sorted(distinct, key=repr)
        assert len(calls) < len({base for _, base in fam.provenance}) < len(fam.fan.cones)


class TestLiftIntoSpan:
    """Lifts substituted on the factorisation kept per span and map, against
    a fresh solve per lift."""

    def test_every_cone_of_the_corpus_families(self):
        inputs = [parse_input(path.read_text())[:2] for path in sorted(FIXTURES.glob("*.json"))]
        pairs = [
            p for fan, sub in inputs + corpus(count=10)
            for p in lift_outcomes(universal_family(chow_quotient(fan, sub)))
        ]
        assert all(lib == oracle for lib, oracle in pairs)
        assert {lib == "outside" for lib, _ in pairs} == {True, False}

    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 10**6), st.sampled_from([(2, 1), (3, 1), (3, 2)]))
    def test_random_rank_2_and_3_fans(self, seed, shape):
        rank, dim = shape
        rng = random.Random(seed)
        fan = (random_complete_fan_rank2 if rank == 2 else random_complete_fan_rank3)(rng)
        sub = random_saturated_sublattice(rng, rank, dim)
        assume(validate_fan(fan).ok and is_complete(fan))
        assert all(lib == oracle for lib, oracle in lift_outcomes(universal_family(chow_quotient(fan, sub))))

    def test_a_value_of_the_wrong_length_is_refused(self):
        fam = _fam_p1p1()
        with pytest.raises(ValueError, match="does not have length 1"):
            lift_into_span(fam.chow.projection, fam.fan.cones[-1], (1, 0))


class TestMorphismTargetsWalkedDownFaces:
    """A family's two morphisms image only its maximal cones; every other
    cone takes the smallest face of a coface's target holding the image of
    its relative-interior sample, the least target cone by the face lemma
    of check_fan_morphism."""

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10**6), st.sampled_from([(2, 1), (3, 1), (3, 2)]))
    def test_random_rank_2_and_3_fans(self, seed, shape):
        rank, dim = shape
        rng = random.Random(seed)
        fan = (random_complete_fan_rank2 if rank == 2 else random_complete_fan_rank3)(rng)
        sub = random_saturated_sublattice(rng, rank, dim)
        assume(validate_fan(fan).ok and is_complete(fan))
        with pytest.MonkeyPatch.context() as monkeypatch:
            _assert_morphisms_walked(universal_family(chow_quotient(fan, sub)), fan, monkeypatch)

    def test_doctored_target_names_the_first_failing_maximal_cone(self):
        # the input fan without one maximal cone is a valid fan that misses
        # the images of the family cones it held: the refusal names the
        # first of those that is maximal, in index order, and none of its faces
        for fan, sub in corpus(count=3):
            fam = universal_family(chow_quotient(fan, sub))
            identity = identity_matrix(fan.ambient_rank)
            hosts = [h for h, _ in fam.provenance]
            gone = fan.maximal_indices()[-1]
            doctored = fan_from_cones([fan.cones[i] for i in fan.maximal_indices() if i != gone])
            assert validate_fan(doctored).ok
            assert oracles.minimal_targets_by_scan(identity, fam.fan, doctored) is None
            first = min(i for i in fam.fan.maximal_indices() if hosts[i] == gone)
            with pytest.raises(NoTargetCone, match=f"^image of source cone {first} lies in no target cone$"):
                check_fan_morphism(identity, fam.fan, doctored)


class TestHostCones:
    def test_refined_cone_hosts(self):
        fam = _fam_p2()
        i = fam.fan.index_of(cone_from_generators([(0, 1), (-1, 0)]))
        assert fam.provenance[i][0] == _idx(fam.variety.fan, [(0, 1), (-1, -1)])

    def test_unrefined_cone_hosts_itself(self):
        fam = _fam_p2()
        i = fam.fan.index_of(cone_from_generators([(1, 0), (0, 1)]))
        assert fam.provenance[i][0] == _idx(fam.variety.fan, [(1, 0), (0, 1)])

    def test_diagonal_ray_hosted_by_quadrant(self):
        fam = _fam_p1p1()
        i = fam.fan.index_of(cone_from_generators([(1, 1)], ambient_rank=2))
        assert fam.provenance[i][0] == _idx(fam.variety.fan, [(1, 0), (0, 1)])


class TestRelativeStrata:
    def test_p2_strata(self):
        fam = _fam_p2()
        G = fam.base.fan
        kpos = G.index_of(cone_from_generators([(1,)]))
        m0 = cones_over(fam, kpos, 0)
        m1 = cones_over(fam, kpos, 1)
        assert [fam.fan.cones[i].generators for i in m0] == [((0, 1),)]
        assert {fam.fan.cones[i].generators for i in m1} == {
            ((0, 1), (1, 0)),
            ((-1, 0), (0, 1)),
        }
        assert cones_over(fam, kpos, 2) == ()

    def test_p1p1_strata(self):
        fam = _fam_p1p1()
        G = fam.base.fan
        for s in (1, -1):
            k = G.index_of(cone_from_generators([(s,)]))
            assert len(cones_over(fam, k, 0)) == 2
            assert len(cones_over(fam, k, 1)) == 3

    def test_component_bijection(self):
        for fam in (_fam_p2(), _fam_p1p1()):
            for k in range(len(fam.base.fan.cones)):
                mapping = component_bijection(fam, k)
                assert sorted(mapping.values()) == sorted(
                    fam.chow.cone_data[k].point_fiber_cones
                )


class TestWalls:
    def test_p2_boundary_wall(self):
        fam = _fam_p2()
        kpos = fam.base.fan.index_of(cone_from_generators([(1,)]))
        w = wall_structure(
            fam, kpos, fam.fan.index_of(cone_from_generators([(1, 0), (0, 1)]))
        )
        assert w.kind == "boundary"
        assert w.direction == (1, 0)
        assert [fam.fan.cones[j].generators for j in w.iso_faces] == [((0, 1),)]

    def test_p1p1_internal_wall(self):
        fam = _fam_p1p1()
        for s in (1, -1):
            k = fam.base.fan.index_of(cone_from_generators([(s,)]))
            fc = fiber_complex(fam, k)
            assert len(fc.internal_walls) == 1
            w = fc.internal_walls[0]
            assert w.direction in [(1, 1), (-1, -1)]
            faces = {fam.fan.cones[j].generators for j in w.iso_faces}
            assert faces in (
                {((1, 0),), ((0, -1),)},
                {((0, 1),), ((-1, 0),)},
            )

    def test_each_wall_is_classified_once(self, monkeypatch):
        import chowfan.family as family
        from chowfan.serialize import encode_fiber_document

        calls = []
        real = family._wall_direction_lattice

        def counting(fam, wall_index):
            calls.append(wall_index)
            return real(fam, wall_index)

        monkeypatch.setattr(family, "_wall_direction_lattice", counting)
        fam = _fam_p1p1()
        k = fam.base.fan.index_of(cone_from_generators([(1,)]))
        fc = fiber_complex(fam, k)
        for w in fc.internal_walls + fc.boundary_walls:
            wall_monoid_structure(fam, k, w.index)
        encode_fiber_document(
            fam, fc, basic_monoid(fam, k), tropical_moduli_cone(fam, k), adjacency_dot(fam, fc)
        )
        assert fc.internal_walls
        assert sorted(calls) == sorted(cones_over(fam, k, 1))

    def test_classify_wall_walks_no_faces(self, monkeypatch):
        import chowfan.cones as cones
        import chowfan.family as family

        fam = _fam_p1p1()
        calls = []
        real = cones.all_faces

        def counting(c):
            calls.append(c)
            return real(c)

        monkeypatch.setattr(cones, "all_faces", counting)
        walls = [
            family.wall_structure.__wrapped__(fam, k, i)
            for k in range(len(fam.base.fan.cones))
            for i in cones_over(fam, k, 1)
        ]
        assert {w.kind for w in walls} == {"boundary", "internal"}
        assert calls == []

    def test_wall_structure_requires_wall(self):
        fam = _fam_p2()
        kpos = fam.base.fan.index_of(cone_from_generators([(1,)]))
        comp = cones_over(fam, kpos, 0)[0]
        with pytest.raises(ValueError):
            wall_structure(fam, kpos, comp)

    def test_segment_lengths(self):
        fam = _fam_p1p1()
        for s in (1, -1):
            k = fam.base.fan.index_of(cone_from_generators([(s,)]))
            fc = fiber_complex(fam, k)
            w = fc.internal_walls[0]
            v1 = fam.chow.cone_data[k].monoid.hilbert_basis[0]
            assert segment_length(fam, k, w.index, v1) == 1
            assert segment_length(fam, k, w.index, tuple(2 * x for x in v1)) == 2
            assert segment_length(fam, k, w.index, (0,)) == 0

    def test_segment_length_matches_point_count(self):
        from chowfan.family import integral_lift
        import oracles

        fam = _fam_p1p1()
        k = fam.base.fan.index_of(cone_from_generators([(1,)]))
        fc = fiber_complex(fam, k)
        w = fc.internal_walls[0]
        v = tuple(3 * x for x in fam.chow.cone_data[k].monoid.hilbert_basis[0])
        a = integral_lift(fam.chow.projection, fam.fan.cones[w.iso_faces[0]], v)
        b = integral_lift(fam.chow.projection, fam.fan.cones[w.iso_faces[1]], v)
        pts = oracles.segment_integer_points(a, b)
        assert segment_length(fam, k, w.index, v) == len(pts) - 1
        wall_monoid = fam.datum.monoids[w.index]
        assert all(member(wall_monoid, p) for p in pts)


class TestFiberComplexes:
    def test_p2_fiber_is_marked_line(self):
        fam = _fam_p2()
        kpos = fam.base.fan.index_of(cone_from_generators([(1,)]))
        fc = fiber_complex(fam, kpos)
        assert len(fc.components) == 1
        assert len(fc.boundary_walls) == 2
        assert not fc.internal_walls

    def test_p1p1_fiber_is_broken_line(self):
        fam = _fam_p1p1()
        for s in (1, -1):
            k = fam.base.fan.index_of(cone_from_generators([(s,)]))
            fc = fiber_complex(fam, k)
            assert len(fc.components) == 2
            assert len(fc.internal_walls) == 1
            assert len(fc.boundary_walls) == 2
            assert len(fc.adjacency) == 1

    def test_zero_sublattice_fiber_trivial(self):
        fam = universal_family(chow_quotient(p2_fan(), zero_sublattice(2)))
        for k, c in enumerate(fam.base.fan.cones):
            fc = fiber_complex(fam, k)
            assert len(fc.components) == 1
            assert not fc.internal_walls and not fc.boundary_walls

    def test_gluing_computed_once_per_wall_and_basis_element(self, monkeypatch):
        import chowfan.family as family
        from chowfan.serialize import encode_fiber_document

        fam = _fam_p1p1()
        calls = []
        real = family.segment_length

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(family, "segment_length", counting)
        expected = 0
        for k in range(len(fam.base.fan.cones)):
            fc = fiber_complex(fam, k)
            encode_fiber_document(
                fam, fc, basic_monoid(fam, k), tropical_moduli_cone(fam, k), adjacency_dot(fam, fc)
            )
            basis = fam.chow.cone_data[k].monoid.hilbert_basis
            expected += len(fc.internal_walls) * len(basis)
            assert [[v for v, _ in g] for g in fc.gluing] == [list(basis)] * len(fc.internal_walls)
        assert expected > 0
        assert len(calls) == expected

    def test_dot_export_mentions_walls(self):
        fam = _fam_p1p1()
        k = fam.base.fan.index_of(cone_from_generators([(1,)]))
        dot = adjacency_dot(fam, fiber_complex(fam, k))
        assert dot.startswith("graph fiber {")
        assert "boundary wall" in dot and " -- " in dot


class TestWallMonoidStructure:
    def test_boundary_product(self):
        fam = _fam_p2()
        kpos = fam.base.fan.index_of(cone_from_generators([(1,)]))
        i = fam.fan.index_of(cone_from_generators([(1, 0), (0, 1)]))
        ws = wall_monoid_structure(fam, kpos, i)
        assert ws.kind == "product"

    def test_internal_fiber_product(self):
        fam = _fam_p1p1()
        k = fam.base.fan.index_of(cone_from_generators([(1,)]))
        fc = fiber_complex(fam, k)
        ws = wall_monoid_structure(fam, k, fc.internal_walls[0].index)
        assert ws.kind == "fiber_product"
        (v, c_of_v), = ws.gluing_on_basis
        assert c_of_v == 1

    def test_projection_escape_names_the_element(self):
        from chowfan.family import VerificationFailed
        from chowfan.intlinalg import Sublattice
        from chowfan.monoids import saturated_monoid
        import oracles

        for fam, kind in ((_fam_p2(), "boundary"), (_fam_p1p1(), "internal")):
            k = fam.base.fan.index_of(cone_from_generators([(1,)]))
            w = next(wall_structure(fam, k, i) for i in cones_over(fam, k, 1)
                     if wall_structure(fam, k, i).kind == kind)
            # the quotient monoid shrunk to its even points
            data = fam.chow.cone_data[k]
            even = saturated_monoid(data.monoid.cone, Sublattice(1, ((2,),)))
            doctored = replace(data, monoid=even)
            chow = replace(
                fam.chow, cone_data=fam.chow.cone_data[:k] + (doctored,) + fam.chow.cone_data[k + 1 :]
            )
            escaping = oracles.monoid_map_escape_by_generators(
                fam.chow.projection.matrix, fam.datum.monoids[w.index], even
            )
            assert escaping is not None
            with pytest.raises(VerificationFailed, match=re.escape(f"projection of {escaping} escapes")):
                wall_monoid_structure(replace(fam, chow=chow), k, w.index)


class TestBasicMonoid:
    def test_p1p1_presentation_is_a_line(self):
        fam = _fam_p1p1()
        for s in (1, -1):
            k = fam.base.fan.index_of(cone_from_generators([(s,)]))
            pres = basic_monoid(fam, k)
            assert len(pres.component_cones) == 2
            assert len(pres.wall_relations) == 1
            assert len(pres.monoid.hilbert_basis) == 1
            assert not pres.host_collisions
            v = fam.chow.cone_data[k].monoid.hilbert_basis[0]
            t = presentation_tuple(fam, pres, v)
            assert member(pres.monoid, t)
            assert presentation_value(fam, pres, t) == v

    def test_p2_presentation_single_block(self):
        fam = _fam_p2()
        kpos = fam.base.fan.index_of(cone_from_generators([(1,)]))
        pres = basic_monoid(fam, kpos)
        assert len(pres.component_cones) == 1 and not pres.wall_relations
        assert len(pres.monoid.hilbert_basis) == 1

    def test_zero_cone_presentation_trivial(self):
        fam = _fam_p2()
        kzero = fam.base.fan.index_of(zero_cone(1))
        assert basic_monoid(fam, kzero).monoid.hilbert_basis == ()

    def test_each_presentation_is_built_once(self):
        from chowfan.verify import check_basic_monoid

        calls = []

        class Counting(dict):
            """A memo dict that records each presentation stored in it."""

            def __setitem__(self, key, value):
                if key[0] is basic_monoid.__wrapped__:
                    calls.append(key[1])
                super().__setitem__(key, value)

        fam = _fam_p1p1()
        object.__setattr__(fam, "_kept", Counting())
        bases = range(len(fam.base.fan.cones))
        for k in bases:
            basic_monoid(fam, k)
            tropical_moduli_cone(fam, k)
            assert check_basic_monoid(fam, k).passed
        assert sorted(calls) == list(bases)


class TestTropicalCones:
    def test_fixture_moduli_are_half_lines(self):
        for fam in (_fam_p2(), _fam_p1p1()):
            for k, c in enumerate(fam.base.fan.cones):
                if c.dim != 1:
                    continue
                t = tropical_moduli_cone(fam, k)
                assert t.ambient_rank == 1 and t.generators == ((1,),)

    def test_embedded_cones_match_two_conversions(self, monkeypatch):
        # with a cone cache of its own, no tropical cone runs a double
        # description: the coordinate cone is pulled back, its dual swapped,
        # and the embedded cone read off the incidence of the coordinate
        # functionals; its canonical data are those of two conversions
        import chowfan.cones as cones

        fixtures = [parse_input(path.read_text())[:2] for path in sorted(FIXTURES.glob("*.json"))]
        # corpus(seed=2)[1] and [7] have presentations with more basis
        # elements than their rank, whose embedded cones have equations
        embedded = 0
        for fan, sub in fixtures + corpus(count=10) + corpus(seed=2, count=8)[1::6]:
            monkeypatch.setattr(cones, "_cone_cache", {})
            fam = universal_family(chow_quotient(fan, sub))
            for k in range(len(fam.base.fan.cones)):
                pres = basic_monoid(fam, k)
                group = pres.monoid.group
                coords = [oracles.coordinates_in_by_scan(group.basis, g) for g in pres.monoid.hilbert_basis]
                with monkeypatch.context() as patch:
                    patch.setattr(cones, "double_description", None)
                    t = tropical_moduli_cone(fam, k)
                if group.rank == 0:
                    continue
                _, _, dual_rays, _ = oracles.cone_by_two_conversions(coords, (), group.rank)
                embed = [tuple(dot(g, c) for c in coords) for g in dual_rays]
                assert (t.generators, t.lineality, t.halfspaces, t.equations) == oracles.cone_by_two_conversions(
                    embed, (), len(coords)
                )
                assert t.incidence == oracles.incidence_by_dot_products(t)
                embedded += len(coords) > group.rank
        assert embedded == 3

    def test_trivial_monoid_full_dual(self):
        fam = _fam_p2()
        kzero = fam.base.fan.index_of(zero_cone(1))
        t = tropical_moduli_cone(fam, kzero)
        assert t.ambient_rank == 0


class TestConsistencyErrorsNameCones:
    """Each internal-consistency failure over a quotient cone names the
    cones involved; none is reachable from valid input, so each is forced."""

    @pytest.fixture
    def setup(self):
        fam = _fam_p1p1()
        k = fam.base.fan.index_of(cone_from_generators([(1,)]))
        return fam, k, fiber_complex(fam, k).internal_walls[0]

    def test_component_bijection_names_the_base_cone(self, setup, monkeypatch):
        import chowfan.family as family

        fam, k, _ = setup
        monkeypatch.setattr(family, "cones_over", lambda fam, base_index, rel: ())
        with pytest.raises(InternalConsistencyError, match=f"^quotient cone {k}: components do not biject"):
            component_bijection(fam, k)

    def test_basic_monoid_element_off_its_group_names_the_base_cone(self, setup, monkeypatch):
        import chowfan.family as family

        fam, k, _ = setup
        monkeypatch.setattr(family, "coordinates_in", lambda basis, v: None)
        with pytest.raises(InternalConsistencyError, match=f"^quotient cone {k}: basic monoid element"):
            tropical_moduli_cone(fam, k)

    def test_wall_direction_names_the_wall(self, setup, monkeypatch):
        import chowfan.family as family

        fam, _, w = setup
        monkeypatch.setattr(family, "_span_cut", lambda lat, equations: zero_sublattice(2))
        with pytest.raises(InternalConsistencyError, match=f"^wall {w.index}: span must meet"):
            family._wall_direction_lattice(fam, w.index)

    def test_degenerate_direction_names_the_wall_and_base_cone(self, setup, monkeypatch):
        import chowfan.family as family

        fam, k, w = setup
        monkeypatch.setattr(family, "_parallel_multiple", lambda diff, u: 0)
        with pytest.raises(
            InternalConsistencyError, match=f"^wall {w.index} over quotient cone {k}: direction degenerated"
        ):
            family.wall_structure.__wrapped__(fam, k, w.index)

    def test_negative_gluing_length_names_the_wall_base_cone_and_value(self, setup, monkeypatch):
        import chowfan.family as family

        fam, k, w = setup
        v = fam.chow.cone_data[k].monoid.hilbert_basis[0]
        monkeypatch.setattr(family, "_parallel_multiple", lambda diff, u: -3)
        expected = f"wall {w.index} over quotient cone {k}: gluing length -3 at {v} came out negative"
        with pytest.raises(InternalConsistencyError, match=f"^{re.escape(expected)}$"):
            segment_length(fam, k, w.index, v)

    def test_disconnected_fiber_names_the_base_cone(self, setup, monkeypatch):
        import chowfan.family as family

        fam, k, _ = setup
        real = family.wall_structure
        monkeypatch.setattr(
            family, "wall_structure", lambda fam, b, i: replace(real(fam, b, i), kind="boundary")
        )
        with pytest.raises(InternalConsistencyError, match=f"^quotient cone {k}: fiber adjacency graph"):
            fiber_complex(fam, k)
        with pytest.raises(InternalConsistencyError, match="^quotient cone 5: fiber has no components"):
            family._assert_connected((), (), 5)

    def test_basic_monoid_with_units_names_the_base_cone(self, setup, monkeypatch):
        import chowfan.family as family

        fam, k, _ = setup
        line = saturated_monoid(cone_from_generators([], [(1,)], ambient_rank=1), full_lattice(1))
        assert not line.is_pointed
        monkeypatch.setattr(family, "saturated_monoid", lambda cone, lattice: line)
        with pytest.raises(InternalConsistencyError, match=f"^quotient cone {k}: basic monoid presentation has units"):
            family.basic_monoid.__wrapped__(fam, k)

    def test_non_integral_lift_names_the_section_cone_and_value(self, setup, monkeypatch):
        import chowfan.family as family

        fam, _, w = setup
        sec = fam.fan.cones[w.iso_faces[0]]
        monkeypatch.setattr(family, "lift_into_span", lambda proj, c, value: (2, (0,) * c.ambient_rank))
        expected = f"section cone with rays {list(sec.generators)}: lift of (3,) is not integral"
        with pytest.raises(InternalConsistencyError, match=f"^{re.escape(expected)}$"):
            family.integral_lift(fam.chow.projection, sec, [3])

    def test_classes_not_closed_under_faces_names_the_class_and_face(self, monkeypatch):
        import chowfan.chow as chow

        # without the cell of the origin, the zero cone is no class
        real = chow._cell_split
        monkeypatch.setattr(chow, "_cell_split", lambda normals, rank: [x for x in real(normals, rank) if any(x)])
        with pytest.raises(
            InternalConsistencyError,
            match=r"^quotient classes are not closed under taking faces: the class with meeting set \[[0-9, ]+\] "
            r"and rays \[\(-?1,\)\] has the face with rays \[\], which is no class$",
        ):
            chow_quotient(p1p1_fan(), sublattice(2, [[1, 1]]))
