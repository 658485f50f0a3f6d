import random
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from chowfan.cli import parse_input
from chowfan.chow import (
    InfiniteIndex,
    _meeting_set,
    chow_quotient,
    chow_stack_datum,
    fiber_dim_cones,
    meeting_cones,
    multiplicity,
)
from chowfan.cones import (
    Fan,
    NotComplete,
    all_faces,
    cone_from_generators,
    cone_from_halfspaces,
    fan_from_cones,
    image_cone,
    is_complete,
    relative_interior_sample,
    validate_fan,
    zero_cone,
)
from chowfan.intlinalg import sublattice, zero_sublattice
from chowfan.monoids import restrict_to_face
from chowfan.stacks import InternalConsistencyError, validate_stack_datum

from conftest import (
    corpus,
    orthant_fan,
    p2_fan,
    p1p1_fan,
    random_complete_fan_rank2,
    random_complete_fan_rank3,
    random_saturated_sublattice,
)
import oracles

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _idx(fan, gens, rank=2):
    return fan.index_of(cone_from_generators(gens, ambient_rank=rank))


class TestMeetingCones:
    def test_p2_generic_translate(self, p2, l_horizontal):
        got = meeting_cones(p2, l_horizontal, (0, 1))
        expected = {
            _idx(p2, [(1, 0), (0, 1)]),
            _idx(p2, [(0, 1), (-1, -1)]),
            _idx(p2, [(0, 1)]),
        }
        assert got == frozenset(expected)

    def test_p2_axis_translate(self, p2, l_horizontal):
        # the x-axis passes through the interiors of the origin, the ray
        # (1,0), and the cone spanned by (0,1),(-1,-1) (its interior is
        # x < 0 < y - x, which meets y = 0)
        got = meeting_cones(p2, l_horizontal, (0, 0))
        expected = {
            _idx(p2, []),
            _idx(p2, [(1, 0)]),
            _idx(p2, [(0, 1), (-1, -1)]),
        }
        assert got == frozenset(expected)

    def test_zero_sublattice_interior_point(self, p2):
        got = meeting_cones(p2, zero_sublattice(2), (1, 1))
        assert got == frozenset({_idx(p2, [(1, 0), (0, 1)])})


class TestQuotientFan:
    def test_p2_gives_line_fan(self, p2, l_horizontal):
        cq = chow_quotient(p2, l_horizontal)
        assert {c.generators for c in cq.quotient_fan.cones} == {
            (),
            ((1,),),
            ((-1,),),
        }

    def test_p1p1_gives_line_fan(self, p1p1, l_diagonal):
        cq = chow_quotient(p1p1, l_diagonal)
        assert {c.generators for c in cq.quotient_fan.cones} == {
            (),
            ((1,),),
            ((-1,),),
        }

    def test_zero_sublattice_returns_input(self, p2):
        cq = chow_quotient(p2, zero_sublattice(2))
        assert cq.quotient_fan == p2
        for i in range(len(p2.cones)):
            assert cq.cone_data[i].point_fiber_cones == (i,)

    def test_incomplete_fan_rejected(self, l_horizontal):
        partial = fan_from_cones([cone_from_generators([(1, 0), (0, 1)])])
        with pytest.raises(NotComplete):
            chow_quotient(partial, l_horizontal)

    def test_full_rank_sublattice_gives_point(self, p2):
        from chowfan.intlinalg import full_lattice

        cq = chow_quotient(p2, full_lattice(2))
        assert cq.projection.target_rank == 0
        assert len(cq.quotient_fan.cones) == 1
        assert cq.cone_data[0].monoid.hilbert_basis == ()

    def test_rank2_wall_oracle(self):
        # for rank-2 input and rank-1 sublattice the quotient walls are the
        # projections of the rays that do not collapse
        for fan, sub in [
            (p2_fan(), sublattice(2, [[1, 0]])),
            (p1p1_fan(), sublattice(2, [[1, 1]])),
        ] + [c for c in corpus(count=8) if c[0].ambient_rank == 2]:
            if sub.ambient_rank != 2 or sub.rank != 1:
                continue
            cq = chow_quotient(fan, sub)
            walls = oracles.projected_ray_walls(fan, cq.projection.matrix, sub.basis)
            got = {
                c.generators[0][0]
                for c in cq.quotient_fan.cones
                if c.dim == 1
            }
            assert got == walls

    def test_class_constancy_under_resampling(self):
        for fan, sub in [(p2_fan(), sublattice(2, [[1, 0]]))] + corpus(count=4):
            cq = chow_quotient(fan, sub)
            for k, data in enumerate(cq.cone_data):
                kappa = cq.quotient_fan.cones[k]
                if kappa.is_zero():
                    continue
                for variant in range(10):
                    sample = oracles.relative_interior_sample_by_sums(kappa, variant)
                    assert kappa.contains_in_relint(sample)
                    psi = cq.projection.lift(sample)
                    assert meeting_cones(fan, sub, psi) == data.meeting_set

    def test_consistency_error_names_the_quotient_cone(
        self, p2, l_horizontal, monkeypatch
    ):
        import chowfan.chow

        real = chowfan.chow._cone_data

        def empty_over_third_cone(*args):
            # _cone_data takes its meeting set from the class it closes up
            *head, meeting, index = args
            return real(*head, frozenset() if index == 2 else meeting, index)

        monkeypatch.setattr(chowfan.chow, "_cone_data", empty_over_third_cone)
        with pytest.raises(InternalConsistencyError, match="quotient cone 2: no cone"):
            chow_quotient(p2, l_horizontal)


def _doctored_inputs():
    """The inputs on which a doctored class cone or meeting set is refused."""
    cs = corpus(count=8)
    return [cs[1], cs[4], cs[7], (orthant_fan(4), sublattice(4, [[1, 2, 3, 5]]))]


class TestConvexityFromTheFanChecks:
    """No class cone is tested against the cell samples: once the class
    cones are pointed and pairwise distinct, add no cone by face closure and
    pass ``validate_fan`` and ``is_complete``, none holds a sample of another
    class in its relative interior.  Doctored classes are still refused."""

    def test_relint_tests_are_the_meeting_set_scans_only(self, monkeypatch):
        # meeting sets are read off one covector per cell sample, so the
        # quotient makes no relative-interior test at all
        import chowfan.chow
        from chowfan.cones import Cone

        real_split, real_signs = chowfan.chow._cell_split, chowfan.chow._sign_masks
        for fan, sub in [(p1p1_fan(), sublattice(2, [[1, 1]])), corpus(count=2)[1]]:
            samples, signed, calls = [], [], []

            def split(normals, rank):
                samples.extend(real_split(normals, rank))
                return list(samples)

            def signs(normals, v):
                signed.append(v)
                return real_signs(normals, v)

            monkeypatch.setattr(chowfan.chow, "_cell_split", split)
            monkeypatch.setattr(chowfan.chow, "_sign_masks", signs)
            monkeypatch.setattr(Cone, "contains_in_relint", lambda cone, v: calls.append(v))
            chow_quotient(fan, sub)
            monkeypatch.undo()
            assert samples and signed == samples and calls == []

    @pytest.mark.parametrize("which", range(4))
    def test_enlarged_class_cone_refused(self, which, monkeypatch):
        import chowfan.chow

        fan, sub = _doctored_inputs()[which]
        real, done = chowfan.chow._class_cone, []

        def enlarged(members, rank):
            # the first class cone with two facets and no equation loses a
            # facet, whether it is a member image or a conversion
            cone = real(members, rank)
            if not done and len(cone.halfspaces) >= 2 and not cone.equations:
                done.append(cone.halfspaces[0])
                return cone_from_halfspaces(cone.halfspaces[1:], (), rank)
            return cone

        monkeypatch.setattr(chowfan.chow, "_class_cone", enlarged)
        with pytest.raises(InternalConsistencyError):
            chow_quotient(fan, sub)
        assert done

    @pytest.mark.parametrize("which", range(4))
    def test_two_classes_with_one_closure_named(self, which, monkeypatch):
        import chowfan.chow

        fan, sub = _doctored_inputs()[which]
        origin = meeting_cones(fan, sub, (0,) * fan.ambient_rank)
        real, calls = chowfan.chow._meeting_set_of_signs, []

        def with_zero_cone(patterns, pos, neg):
            # the zero cone (index 0) added to the third sample's meeting set
            # closes its class up to the origin, the cone of the origin's class
            inv = real(patterns, pos, neg)
            calls.append(inv)
            return inv | {0} if len(calls) == 3 else inv

        monkeypatch.setattr(chowfan.chow, "_meeting_set_of_signs", with_zero_cone)
        with pytest.raises(InternalConsistencyError, match="^quotient classes with meeting sets ") as err:
            chow_quotient(fan, sub)
        assert 0 not in calls[2]
        assert str(sorted(calls[2] | {0})) in str(err.value)
        assert str(sorted(origin)) in str(err.value)
        assert str(err.value).endswith("close up to one cone, with rays []")

    def test_weights_and_lattices_once_per_input_cone(self, monkeypatch):
        import chowfan.chow

        counts = {"multiplicity": 0, "image_lattice": 0}
        for name in counts:
            real = getattr(chowfan.chow, name)

            def counted(*args, _name=name, _real=real):
                counts[_name] += 1
                return _real(*args)

            monkeypatch.setattr(chowfan.chow, name, counted)
        cq = chow_quotient(orthant_fan(4), sublattice(4, [[1, 2, 3, 5]]))
        point_cones = {i for d in cq.cone_data for i in d.point_fiber_cones}
        assert sum(len(d.point_fiber_cones) for d in cq.cone_data) == 233
        assert counts == {"multiplicity": 65, "image_lattice": 65} and len(point_cones) == 65


class TestPointFibersAndCycles:
    def test_p2_point_fibers(self, p2, l_horizontal):
        cq = chow_quotient(p2, l_horizontal)
        G = cq.quotient_fan
        kpos = G.index_of(cone_from_generators([(1,)]))
        kzero = G.index_of(zero_cone(1))
        assert cq.cone_data[kpos].point_fiber_cones == (_idx(p2, [(0, 1)]),)
        assert cq.cone_data[kzero].point_fiber_cones == (_idx(p2, []),)

    def test_p1p1_point_fibers(self, p1p1, l_diagonal):
        cq = chow_quotient(p1p1, l_diagonal)
        G = cq.quotient_fan
        sets = {
            frozenset(cq.cone_data[G.index_of(cone_from_generators([(s,)]))].point_fiber_cones)
            for s in (1, -1)
        }
        assert sets == {
            frozenset({_idx(p1p1, [(1, 0)]), _idx(p1p1, [(0, -1)])}),
            frozenset({_idx(p1p1, [(0, 1)]), _idx(p1p1, [(-1, 0)])}),
        }

    def test_fiber_dim_classification(self, p2, p1p1, l_horizontal, l_diagonal):
        cq = chow_quotient(p2, l_horizontal)
        G = cq.quotient_fan
        kpos = G.index_of(cone_from_generators([(1,)]))
        assert set(fiber_dim_cones(cq, kpos, 1)) == {
            _idx(p2, [(1, 0), (0, 1)]),
            _idx(p2, [(0, 1), (-1, -1)]),
        }
        assert fiber_dim_cones(cq, kpos, 0) == cq.cone_data[kpos].point_fiber_cones
        cq2 = chow_quotient(p1p1, l_diagonal)
        G2 = cq2.quotient_fan
        for s in (1, -1):
            k = G2.index_of(cone_from_generators([(s,)]))
            segs = fiber_dim_cones(cq2, k, 1)
            # a generic translate of the diagonal crosses three quadrants:
            # two ray fibers and one compact segment fiber
            quads = [i for i in segs if p1p1.cones[i].dim == 2]
            assert len(quads) == 3
            # the segment quadrant is the one spanned by the two
            # single-point-slice rays
            pf = cq2.cone_data[k].point_fiber_cones
            span_rays = [p1p1.cones[i].generators[0] for i in pf]
            segment_quad = p1p1.index_of(cone_from_generators(span_rays))
            assert segment_quad in quads

    def test_fiber_dims_match_homogenised_oracle(self):
        # the meeting-set rule against one double description per fiber
        for fan, sub in [(p2_fan(), sublattice(2, [[1, 0]]))] + corpus(count=10):
            cq = chow_quotient(fan, sub)
            for k, kappa in enumerate(cq.quotient_fan.cones):
                v = relative_interior_sample(kappa)
                dims = [oracles.fiber_dimension(c, cq.projection.matrix, v) for c in fan.cones]
                for d in range(-1, fan.ambient_rank + 1):
                    assert fiber_dim_cones(cq, k, d) == tuple(
                        i for i, e in enumerate(dims) if e == d
                    )

    def test_full_fiber_over_span(self, p2):
        # cones containing the sublattice span have fibers of full rank
        sub = sublattice(2, [[1, 0]])
        cq = chow_quotient(p2, sub)
        kzero = cq.quotient_fan.index_of(zero_cone(1))
        full = fiber_dim_cones(cq, kzero, 1)
        assert _idx(p2, [(1, 0)]) in full

    def test_cycles(self, p2, p1p1, l_horizontal, l_diagonal):
        cq = chow_quotient(p2, l_horizontal)
        kpos = cq.quotient_fan.index_of(cone_from_generators([(1,)]))
        assert cq.cone_data[kpos].cycle == ((_idx(p2, [(0, 1)]), 1),)
        cq2 = chow_quotient(p1p1, l_diagonal)
        for s in (1, -1):
            k = cq2.quotient_fan.index_of(cone_from_generators([(s,)]))
            assert [m for _, m in cq2.cone_data[k].cycle] == [1, 1]


class TestMultiplicity:
    def test_weighted_example(self, p2):
        sub = sublattice(2, [[1, 2]])
        assert multiplicity(p2, sub, _idx(p2, [(1, 0)])) == 2

    def test_unit_multiplicity(self, p2, l_horizontal):
        assert multiplicity(p2, l_horizontal, _idx(p2, [(0, 1)])) == 1

    def test_zero_sublattice(self, p2):
        assert multiplicity(p2, zero_sublattice(2), _idx(p2, [(1, 0), (0, 1)])) == 1

    def test_infinite_index(self, p2, l_horizontal):
        with pytest.raises(InfiniteIndex):
            multiplicity(p2, l_horizontal, _idx(p2, [(1, 0)]))

    def test_matches_coset_enumeration(self, p2):
        rng = random.Random(21)
        for _ in range(15):
            v = (rng.randrange(-3, 4), rng.randrange(-3, 4))
            if v == (0, 0):
                continue
            from chowfan.intlinalg import saturate

            sub = saturate(sublattice(2, [v]))
            for i, c in enumerate(p2.cones):
                if c.dim != 1:
                    continue
                try:
                    m = multiplicity(p2, sub, i)
                except InfiniteIndex:
                    continue
                combined = list(sub.basis) + list(c.generators)
                assert m == oracles.coset_count(combined, ((1, 0), (0, 1)))

    @settings(deadline=None, max_examples=200)
    @given(
        st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=1, max_size=3),
        st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3), max_size=2),
    )
    # the spans share the line through (1, 1, 0): infinite index
    @example([[1, 0, 0], [0, 1, 0]], [[2, 2, 0]])
    # finite index 3 inside the combined span
    @example([[1, 0, 0]], [[1, 3, 0]])
    def test_matches_saturation_oracle(self, rays, sub_rows):
        c = cone_from_generators(rays, ambient_rank=3)
        sub = sublattice(3, sub_rows)
        expected = oracles.multiplicity_by_saturation(c, sub)
        fan = Fan(3, (c,))
        if expected is None:
            with pytest.raises(InfiniteIndex):
                multiplicity(fan, sub, 0)
        else:
            assert multiplicity(fan, sub, 0) == expected

    def test_weighted_cycle(self, p2):
        sub = sublattice(2, [[1, 2]])
        cq = chow_quotient(p2, sub)
        ray10 = _idx(p2, [(1, 0)])
        matched = [
            dict(cq.cone_data[k].cycle)[ray10]
            for k in range(len(cq.quotient_fan.cones))
            if ray10 in cq.cone_data[k].point_fiber_cones
        ]
        assert matched == [2]


class TestQuotientMonoids:
    def test_p2_monoids_trivial(self, p2, l_horizontal):
        cq = chow_quotient(p2, l_horizontal)
        for i, c in enumerate(cq.quotient_fan.cones):
            m = cq.cone_data[i].monoid
            if c.dim == 1:
                assert m.hilbert_basis == (c.generators[0],)
            else:
                assert m.hilbert_basis == ()
            assert cq.cone_data[i].raw_monoid_inside_cone

    def test_weighted_monoid_is_stacky(self, p2):
        cq = chow_quotient(p2, sublattice(2, [[1, 2]]))
        ray10 = _idx(p2, [(1, 0)])
        for k in range(len(cq.quotient_fan.cones)):
            if ray10 in cq.cone_data[k].point_fiber_cones:
                m = cq.cone_data[k].monoid
                assert m.group.basis == ((2,),)

    def test_face_compatibility(self):
        for fan, sub in [
            (p2_fan(), sublattice(2, [[1, 0]])),
            (p1p1_fan(), sublattice(2, [[1, 1]])),
            (p2_fan(), sublattice(2, [[1, 2]])),
        ]:
            cq = chow_quotient(fan, sub)
            G = cq.quotient_fan
            for i, kappa in enumerate(G.cones):
                for lam in all_faces(kappa):
                    j = G.index_of(lam)
                    assert restrict_to_face(
                        cq.cone_data[i].monoid, lam
                    ) == cq.cone_data[j].monoid

    def test_datum_validates(self):
        for fan, sub in [
            (p2_fan(), sublattice(2, [[1, 0]])),
            (p1p1_fan(), sublattice(2, [[1, 1]])),
            (p2_fan(), sublattice(2, [[1, 2]])),
        ]:
            cq = chow_quotient(fan, sub)
            assert validate_stack_datum(chow_stack_datum(cq)).ok


class TestClassConesMatchCellHulls:
    """Each class cut out as ``∩ p(σ_j)`` over the images that meet it,
    with its meeting set carried to its cone's data, against the hull of
    its cells' closures and a second scan of the images: whole quotients
    compared, fan, provenance and monoids."""

    def test_fixtures_and_corpus(self):
        inputs = [parse_input(path.read_text())[:2] for path in sorted(FIXTURES.glob("*.json"))]
        for fan, sub in inputs + corpus(count=10):
            assert chow_quotient(fan, sub) == oracles.chow_quotient_by_cell_hulls(fan, sub)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10**6), st.sampled_from([(2, 1), (3, 1), (3, 2)]))
    def test_random_rank_2_and_3_fans(self, seed, shape):
        rank, dim = shape
        rng = random.Random(seed)
        fan = (random_complete_fan_rank2 if rank == 2 else random_complete_fan_rank3)(rng)
        sub = random_saturated_sublattice(rng, rank, dim)
        assume(validate_fan(fan).ok and is_complete(fan))
        assert chow_quotient(fan, sub) == oracles.chow_quotient_by_cell_hulls(fan, sub)

    @pytest.mark.parametrize("rows", [[[1, 2, 3, 5]], [[1, 1, 1, 1], [0, 1, -1, 1]]])
    def test_rank_4_orthant_fan(self, rows):
        fan, sub = orthant_fan(4), sublattice(4, rows)
        assert chow_quotient(fan, sub) == oracles.chow_quotient_by_cell_hulls(fan, sub)


class TestMeetingSetsMatchTheScan:
    """Each quotient cone's meeting set, read off the sign vector of a cell
    sample, against the dot-product scan of every image at a sample of the
    cone's relative interior."""

    @staticmethod
    def _mismatched(cq):
        images = [image_cone(cq.projection.matrix, c) for c in cq.fan.cones]
        return [
            k
            for k, (kappa, data) in enumerate(zip(cq.quotient_fan.cones, cq.cone_data))
            if data.meeting_set != _meeting_set(images, relative_interior_sample(kappa))
        ]

    def test_fixtures_corpus_and_rank_4(self):
        inputs = [parse_input(path.read_text())[:2] for path in sorted(FIXTURES.glob("*.json"))]
        rank4 = [(orthant_fan(4), sublattice(4, rows)) for rows in ([[1, 2, 3, 5]], [[1, 2, 3, 5], [0, 1, -2, 3]])]
        for fan, sub in inputs + corpus(count=10) + rank4:
            assert self._mismatched(chow_quotient(fan, sub)) == []

    def test_dropped_cone_caught(self, monkeypatch):
        # the origin's class loses cone 4 and closes up to the same cone, so
        # the quotient builds; only the comparison with the scan sees it
        import chowfan.chow

        real = chowfan.chow._meeting_set_of_signs

        def without_4_at_the_origin(patterns, pos, neg):
            inv = real(patterns, pos, neg)
            return inv - {4} if pos == neg == 0 else inv

        fan, sub = p2_fan(), sublattice(2, [[1, 0]])
        cq = chow_quotient(fan, sub)
        origin = cq.quotient_fan.index_of(zero_cone(1))
        assert self._mismatched(cq) == [] and cq.cone_data[origin].meeting_set == {0, 3, 4}
        monkeypatch.setattr(chowfan.chow, "_meeting_set_of_signs", without_4_at_the_origin)
        doctored = chow_quotient(fan, sub)
        assert doctored.cone_data[origin].meeting_set == {0, 3}
        assert self._mismatched(doctored) == [origin]


def _arrangement(fan, sub):
    """The sorted canonical normals of every image of ``fan`` in the
    quotient by ``sub``, and the quotient rank, as :func:`chow_quotient`
    builds them."""
    from chowfan.chow import _canonical_normal
    from chowfan.intlinalg import quotient_map

    proj = quotient_map(fan.ambient_rank, sub)
    images = [image_cone(proj.matrix, c) for c in fan.cones]
    normals = {_canonical_normal(h) for img in images for h in img.halfspaces + img.equations if any(h)}
    return tuple(sorted(normals)), proj.target_rank


def _covectors(normals, samples):
    return sorted(
        tuple((d > 0) - (d < 0) for d in (sum(a * x for a, x in zip(n, v)) for n in normals)) for v in samples
    )


class TestCellsAreChamberFaces:
    """The cells of an arrangement, read off the faces of its chambers,
    against one strict-feasibility test per cell and normal: the same
    covectors, one sample each, and ``2 × chambers − 1`` conversions."""

    @staticmethod
    def _agree(normals, rank):
        from chowfan.chow import _cell_split

        got = _covectors(normals, _cell_split(normals, rank))
        assert got == _covectors(normals, oracles.cells_by_feasibility(normals, rank))
        assert len(set(got)) == len(got)

    def test_fixtures_corpus_and_rank_4(self):
        inputs = [parse_input(path.read_text())[:2] for path in sorted(FIXTURES.glob("*.json"))]
        rank4 = [(orthant_fan(4), sublattice(4, rows)) for rows in ([[1, 2, 3, 5]], [[1, 1, 1, 1], [0, 1, -1, 1]])]
        for fan, sub in inputs + corpus(count=10) + rank4:
            self._agree(*_arrangement(fan, sub))

    @settings(deadline=None, max_examples=100)
    @given(st.integers(1, 4).flatmap(
        lambda r: st.tuples(st.just(r), st.lists(st.lists(st.integers(-3, 3), min_size=r, max_size=r), max_size=7))
    ))
    def test_random_arrangements(self, drawn):
        from chowfan.chow import _canonical_normal

        rank, rows = drawn
        self._agree(tuple(sorted({_canonical_normal(tuple(n)) for n in rows if any(n)})), rank)

    def test_two_conversions_per_chamber_but_one(self, monkeypatch):
        import chowfan.cones
        from chowfan.chow import _cell_split

        normals, rank = _arrangement(orthant_fan(4), sublattice(4, [[1, 2, 3, 5]]))
        real, calls = chowfan.cones.double_description, []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(chowfan.cones, "double_description", counted)
        chambers = [c for c in _covectors(normals, _cell_split(normals, rank)) if 0 not in c]
        assert len(chambers) == 32 and len(calls) == 2 * 32 - 1


class TestRawConesLieInTheLiftLatticeSpan:
    """Each raw cone ``∩ p(σ_i)`` over the point-fiber cones lies in the
    span of the lift lattice ``∩ p(span σ_i ∩ N)``, so cutting it by that
    span changes nothing, and the raw-monoid diagnostic is the same with
    the cut and without."""

    @staticmethod
    def _check(fan, sub):
        cq = chow_quotient(fan, sub)
        for data, kappa in zip(cq.cone_data, cq.quotient_fan.cones):
            raw, cut = oracles.raw_cone_and_its_span_cut(cq, data)
            assert cut == raw
            assert data.raw_monoid_inside_cone == kappa.contains_cone(cut)
        return len(cq.cone_data)

    def test_fixtures_and_corpus(self):
        inputs = [parse_input(path.read_text())[:2] for path in sorted(FIXTURES.glob("*.json"))]
        assert sum(self._check(fan, sub) for fan, sub in inputs + corpus(count=10)) >= 50

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10**6), st.sampled_from([(2, 1), (3, 1), (3, 2)]))
    def test_random_rank_2_and_3_fans(self, seed, shape):
        rank, dim = shape
        rng = random.Random(seed)
        fan = (random_complete_fan_rank2 if rank == 2 else random_complete_fan_rank3)(rng)
        sub = random_saturated_sublattice(rng, rank, dim)
        assume(validate_fan(fan).ok and is_complete(fan))
        self._check(fan, sub)

    @pytest.mark.parametrize("rows", [[[1, 2, 3, 5]], [[1, 1, 1, 1], [0, 1, -1, 1]]])
    def test_rank_4_orthant_fan(self, rows):
        self._check(orthant_fan(4), sublattice(4, rows))
