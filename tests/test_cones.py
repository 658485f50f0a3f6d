import random

import pytest
from hypothesis import example, given, settings, strategies as st

from chowfan import cones, intlinalg, monoids, replace
from chowfan.cones import (
    Fan,
    NoTargetCone,
    affine_slice_type,
    all_faces,
    check_fan_morphism,
    cone_from_generators,
    cone_from_halfspaces,
    dual_cone,
    facets,
    fan_from_cones,
    image_cone,
    intersect_cones,
    is_complete,
    is_face_of,
    preimage_cone,
    relative_interior_sample,
    validate_fan,
    zero_cone,
)
from chowfan.intlinalg import (
    _span_cut,
    dot,
    full_lattice,
    lattice_index,
    mat_vec,
    quotient_map,
    saturate,
    sublattice,
    zero_sublattice,
)

from conftest import (
    check_fan_incidence,
    orthant_fan,
    p1p1_fan,
    p2_fan,
    random_complete_fan_rank2,
    random_complete_fan_rank3,
)
from chowfan.monoids import saturated_monoid

import oracles


def rand_cone(rng, rank=3, nrays=3, spread=3):
    rays = []
    for _ in range(nrays):
        v = tuple(rng.randrange(-spread, spread + 1) for _ in range(rank))
        if any(v):
            rays.append(v)
    return cone_from_generators(rays, ambient_rank=rank)


class TestConstruction:
    def test_first_quadrant(self):
        c = cone_from_generators([(1, 0), (0, 1)])
        assert c.generators == ((0, 1), (1, 0))
        assert set(c.halfspaces) == {(1, 0), (0, 1)}
        assert c.dim == 2 and c.lineality_dim == 0

    def test_whole_plane_from_three_rays(self):
        c = cone_from_generators([(1, 0), (-1, -1), (0, 1)])
        assert c.lineality_dim == 2 and c.generators == ()
        # sample-point containment: arbitrary points satisfy the description
        rng = random.Random(0)
        for _ in range(20):
            v = (rng.randrange(-5, 6), rng.randrange(-5, 6))
            assert c.contains(v)

    def test_zero_cone(self):
        z = cone_from_generators([], ambient_rank=2)
        assert z.is_zero() and z.dim == 0

    def test_halfspace_construction_round_trip(self):
        c = cone_from_halfspaces([(1, 0), (-1, 3)])
        c2 = cone_from_generators(c.generators, c.lineality, 2)
        assert c2 == c

    def test_v_h_descriptions_consistent_on_random_cones(self):
        rng = random.Random(1)
        for _ in range(60):
            c = rand_cone(rng, rank=rng.choice([2, 3]))
            # every generator satisfies the halfspace description
            for g in c.generators:
                assert c.contains(g)
            # nonnegative combinations stay inside
            if c.generators:
                coeffs = [rng.randrange(0, 4) for _ in c.generators]
                combo = tuple(
                    sum(k * g[i] for k, g in zip(coeffs, c.generators))
                    for i in range(c.ambient_rank)
                )
                assert c.contains(combo)


class TestDuality:
    def test_self_dual_quadrant(self):
        q = cone_from_generators([(1, 0), (0, 1)])
        assert dual_cone(q) == q

    def test_dual_of_ray_is_halfplane(self):
        d = dual_cone(cone_from_generators([(1, 0)], ambient_rank=2))
        assert d.lineality == ((0, 1),) and d.generators == ((1, 0),)
        # definition-level: every generator pairs nonnegatively
        for g in d.generators:
            assert dot(g, (1, 0)) >= 0

    def test_dual_of_zero_is_everything(self):
        d = dual_cone(zero_cone(2))
        assert d.lineality_dim == 2

    def test_involution_randomized(self):
        rng = random.Random(2)
        for _ in range(120):
            c = rand_cone(rng, rank=rng.choice([2, 3]), nrays=rng.randrange(0, 5))
            assert dual_cone(dual_cone(c)) is c


class TestOperations:
    def test_intersection_examples(self):
        q = cone_from_generators([(1, 0), (0, 1)])
        assert intersect_cones(q, q) == q
        a = cone_from_generators([(1, 0), (1, 2)])
        b = cone_from_generators([(1, 2), (0, 1)])
        assert intersect_cones(a, b).generators == ((1, 2),)
        o = intersect_cones(
            cone_from_generators([(1, 0)], ambient_rank=2),
            cone_from_generators([(-1, 0)], ambient_rank=2),
        )
        assert o.is_zero()

    def test_image_examples(self):
        p = quotient_map(2, sublattice(2, [[1, 0]]))
        q = cone_from_generators([(1, 0), (0, 1)])
        assert image_cone(p.matrix, q).generators == ((1,),)
        s2 = cone_from_generators([(0, 1), (-1, -1)])
        img = image_cone(p.matrix, s2)
        assert img.lineality_dim == 1
        assert image_cone(p.matrix, zero_cone(2)).is_zero()

    def test_preimage_examples(self):
        p = quotient_map(2, sublattice(2, [[1, 0]]))
        up = preimage_cone(p.matrix, cone_from_generators([(1,)]), 2)
        assert up.contains((3, 5)) and up.contains((-3, 5)) and not up.contains((0, -1))
        ker = preimage_cone(p.matrix, zero_cone(1), 2)
        assert ker.lineality == ((1, 0),) and ker.generators == ()
        assert preimage_cone(p.matrix, cone_from_generators([(1,)], ambient_rank=1), 2).lineality == ((1, 0),)
        full = preimage_cone(p.matrix, cone_from_halfspaces([], ambient_rank=1), 2)
        assert full.lineality_dim == 2

    def test_relative_interior_samples(self):
        q = cone_from_generators([(1, 0), (0, 1)])
        assert relative_interior_sample(q) == (1, 1)
        assert relative_interior_sample(cone_from_generators([(1, 2)])) == (1, 2)
        half = cone_from_halfspaces([(1, 0)], ambient_rank=2)
        assert half.contains_in_relint(relative_interior_sample(half))
        assert relative_interior_sample(zero_cone(2)) == (0, 0)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda r: st.tuples(
                st.lists(st.tuples(*[st.integers(-3, 3)] * r), max_size=4),
                st.lists(st.tuples(*[st.integers(-3, 3)] * r), max_size=1),
                st.lists(
                    st.tuples(*[st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70))] * r),
                    min_size=1,
                    max_size=4,
                ),
                st.integers(0, 3),
            )
        )
    )
    @example(([], [], [(0, 0)], 0))
    @example(([(1, 0), (0, 1)], [], [(2**64, 0), (2**65, -1), (0, 0)], 2))
    def test_predicates_match_dot_products(self, case):
        rays, lines, vectors, variant = case
        c = cone_from_generators(rays, lines, ambient_rank=len(vectors[0]))
        if not c.is_zero():
            s = relative_interior_sample(c)
            assert s == oracles.relative_interior_sample_by_sums(c)
            vectors = vectors + [s, oracles.relative_interior_sample_by_sums(c, variant)]
        for v in vectors + list(c.generators) + list(c.lineality):
            assert c.contains(v) == oracles.cone_contains_by_dot(c, v)
            assert c.contains_in_relint(v) == oracles.cone_contains_by_dot(c, v, relint=True)

    def test_relint_sample_variants_stay_inside(self):
        rng = random.Random(3)
        for _ in range(40):
            c = rand_cone(rng, rank=3, nrays=rng.randrange(1, 5))
            if c.is_zero():
                continue
            for variant in range(4):
                s = oracles.relative_interior_sample_by_sums(c, variant)
                assert c.contains_in_relint(s)


class TestSliceTypes:
    def test_worked_examples(self):
        L = sublattice(2, [[1, 0]])
        ray = cone_from_generators([(0, 1)], ambient_rank=2)
        quad = cone_from_generators([(1, 0), (0, 1)])
        s3 = cone_from_generators([(-1, -1), (1, 0)])
        assert affine_slice_type(ray, (0, 1), L) == "point"
        assert affine_slice_type(quad, (0, 1), L) == "positive_dim"
        assert affine_slice_type(s3, (0, 1), L) == "empty"

    def test_zero_sublattice_gives_point_or_empty(self):
        L0 = zero_sublattice(2)
        quad = cone_from_generators([(1, 0), (0, 1)])
        assert affine_slice_type(quad, (1, 1), L0) == "point"
        assert affine_slice_type(quad, (-1, 1), L0) == "empty"

    def test_grid_oracle_agreement_on_fixture_cones(self):
        L = sublattice(2, [[1, 0]])
        psi = (0, 1)
        for fan in (p2_fan(), p1p1_fan()):
            for c in fan.cones:
                t = affine_slice_type(c, psi, L)
                nonempty = oracles.grid_slice_nonempty(
                    c.halfspaces, c.equations, psi, [(1, 0)]
                )
                assert (t != "empty") == nonempty, (c, t)

    def test_fiber_dimension(self):
        p = quotient_map(2, sublattice(2, [[1, 0]]))
        quad = cone_from_generators([(1, 0), (0, 1)])
        ray = cone_from_generators([(0, 1)], ambient_rank=2)
        s3 = cone_from_generators([(-1, -1), (1, 0)])
        assert oracles.fiber_dimension(quad, p.matrix, (1,)) == 1
        assert oracles.fiber_dimension(ray, p.matrix, (1,)) == 0
        assert oracles.fiber_dimension(s3, p.matrix, (1,)) is None
        assert oracles.fiber_dimension(s3, p.matrix, (0,)) == 1


rank3_vectors = st.tuples(*[st.integers(-3, 3)] * 3)
rank3_cones = st.lists(rank3_vectors.filter(any), max_size=4).map(
    lambda rays: cone_from_generators(rays, ambient_rank=3)
)
saturated_sublattices = (
    st.lists(rank3_vectors, min_size=1, max_size=2)
    .map(lambda gens: saturate(sublattice(3, gens)))
    .filter(lambda s: s.rank >= 1)
)


rank3_cones_with_lines = st.tuples(
    st.lists(rank3_vectors.filter(any), max_size=4),
    st.lists(rank3_vectors.filter(any), max_size=2),
).map(lambda t: cone_from_generators(t[0], t[1], ambient_rank=3))


class TestSpanLattice:
    @settings(deadline=None, max_examples=150)
    @given(rank3_cones_with_lines)
    def test_matches_saturation_oracle(self, c):
        for d in (c, dual_cone(c)):
            assert cones._span_lattice(d) == oracles.span_lattice_by_saturation(d)


class TestFeasibilityProperties:
    """Slice types and fiber dimensions against the projected cone."""

    @settings(deadline=None, max_examples=150)
    @given(rank3_cones, saturated_sublattices, rank3_vectors)
    def test_slice_type_matches_image_cone(self, c, sub, psi):
        p = quotient_map(3, sub)
        image = image_cone(p.matrix, c)
        meets = image.contains_in_relint(mat_vec(p.matrix, psi))
        t = affine_slice_type(c, psi, sub)
        assert t == oracles.affine_slice_type_by_homogenisation(c, psi, sub)
        assert (t != "empty") == meets
        assert (t == "point") == (meets and image.dim == c.dim)
        if oracles.grid_slice_nonempty(c.halfspaces, c.equations, psi, sub.basis):
            assert t != "empty"

    @settings(deadline=None, max_examples=150)
    @given(rank3_cones, saturated_sublattices, rank3_vectors)
    # the fiber contains a line of the cone
    @example(
        cone_from_generators([(1, 0, 0), (-1, 0, 0), (0, 1, 0)]),
        sublattice(3, [(1, 0, 0)]),
        (0, 1, 0),
    )
    def test_fiber_dimension_matches_image_cone(self, c, sub, psi):
        p = quotient_map(3, sub)
        image = image_cone(p.matrix, c)
        for x in (psi, relative_interior_sample(c)):
            v = mat_vec(p.matrix, x)
            if image.contains_in_relint(v):
                assert oracles.fiber_dimension(c, p.matrix, v) == c.dim - image.dim
            elif not image.contains(v):
                assert oracles.fiber_dimension(c, p.matrix, v) is None


def _fields(c):
    return c.generators, c.lineality, c.halfspaces, c.equations


def _assert_matches_two_conversions(c):
    """Both descriptions of ``c`` equal those of two double descriptions from
    either side, and its incidence equals the dot-product incidence."""
    rank = c.ambient_rank
    assert _fields(c) == oracles.cone_by_two_conversions(c.generators, c.lineality, rank)
    assert _fields(c) == oracles.cone_by_two_conversions(
        c.halfspaces, c.equations, rank, from_halfspaces=True
    )
    assert c.incidence == oracles.incidence_by_dot_products(c)


def _pulled(c, basis):
    """The halfspaces and equations of ``c`` pulled back along ``y -> y @ basis``."""
    return (
        [tuple(dot(h, b) for b in basis) for h in c.halfspaces],
        [tuple(dot(e, b) for b in basis) for e in c.equations],
    )


rank3_rays = st.lists(rank3_vectors, max_size=5)
rank3_lines = st.lists(rank3_vectors, max_size=2)


class TestOneConversion:
    """Each cone from one double description and its incidence, against the
    earlier two conversions."""

    @settings(deadline=None, max_examples=150)
    @given(rank3_rays, rank3_lines)
    # lower-dimensional, with a zero and a repeated ray
    @example([(1, 0, 0), (0, 0, 0), (1, 1, 0), (1, 0, 0)], [])
    # a ray in the lineality space, and a half-plane
    @example([(0, 0, 2), (1, 0, 0)], [(0, 0, 1)])
    def test_generators(self, rays, lines):
        c = cone_from_generators(rays, lines, ambient_rank=3)
        assert _fields(c) == oracles.cone_by_two_conversions(rays, lines, 3)
        _assert_matches_two_conversions(c)

    @settings(deadline=None, max_examples=150)
    @given(rank3_rays, rank3_lines, rank3_lines)
    # implicit equations: both h and -h among the halfspaces
    @example([(1, 0, 0), (0, 1, 0), (-1, 1, 1)], [(1, -1, 0)], [])
    @example([], [(0, 0, 1), (1, 1, 0)], [(1, 0, 0)])
    def test_halfspaces(self, halfspaces, flats, equations):
        # each vector of ``flats`` is given as h and as -h
        halfspaces = halfspaces + [v for f in flats for v in (f, tuple(-x for x in f))]
        c = cone_from_halfspaces(halfspaces, equations, ambient_rank=3)
        expected = oracles.cone_by_two_conversions(halfspaces, equations, 3, from_halfspaces=True)
        assert _fields(c) == expected
        _assert_matches_two_conversions(c)

    @settings(deadline=None, max_examples=100)
    @given(rank3_cones_with_lines)
    def test_faces_and_duals(self, c):
        for f in all_faces(c) + all_faces(dual_cone(c)):
            _assert_matches_two_conversions(f)
        assert _fields(dual_cone(dual_cone(c))) == _fields(c)
        assert dual_cone(dual_cone(c)).incidence == c.incidence
        # the dual is interned, with the incidence a fresh dual would have
        d = dual_cone(c)
        assert cones._cone_cache[d.key()] is d and dual_cone(d) is c
        assert d.incidence == cones._transpose_masks(c.incidence, len(c.generators))

    @settings(deadline=None, max_examples=150)
    @given(rank3_cones_with_lines, st.lists(rank3_vectors, max_size=2), st.integers(1, 3))
    # a lattice whose span misses the cone: the pull-back is refused
    @example(cone_from_generators([(1, 0, 0), (0, 1, 1)]), [(1, 0, 0), (0, 1, 0)], 1)
    def test_pull_back(self, c, extra, scale):
        # a lattice of index scale^r in its span, which holds the cone unless
        # the extra vectors span a plane and the cone leaves it
        spanning = extra if len(extra) == 2 else list(c.generators + c.lineality) + extra
        lattice = sublattice(3, [tuple(scale * x for x in v) for v in spanning])
        basis = lattice.basis
        if any(oracles.matrix_rank(list(basis) + [g]) > len(basis) for g in c.generators + c.lineality):
            with pytest.raises(ValueError, match="outside the span"):
                cones._pull_back(c, basis)
            return
        expected = oracles.cone_by_two_conversions(
            *_pulled(c, basis), len(basis), from_halfspaces=True
        )
        pulled = cones._pull_back(c, basis)
        assert _fields(pulled) == expected
        assert pulled.incidence == oracles.incidence_by_dot_products(pulled)


def _vectors(rank):
    return st.tuples(*[st.integers(-3, 3)] * rank)


def _cones_in(rank):
    return st.tuples(st.lists(_vectors(rank), max_size=rank + 1), st.lists(_vectors(rank), max_size=1)).map(
        lambda t: cone_from_generators(t[0], t[1], ambient_rank=rank)
    )


cone_pairs = st.integers(2, 4).flatmap(lambda rank: st.tuples(_cones_in(rank), _cones_in(rank)))
# a start cone, inequalities and equations
started_runs = st.integers(2, 4).flatmap(
    lambda rank: st.tuples(
        _cones_in(rank), st.lists(_vectors(rank), max_size=3), st.lists(_vectors(rank), max_size=1)
    )
)


class TestContinuedConversion:
    """An intersection continues the double description of one operand."""

    @settings(deadline=None, max_examples=150)
    @given(cone_pairs)
    # both operands with lines
    @example((cone_from_generators([(1, 0, 0)], [(0, 1, 0)]), cone_from_generators([(0, 1, 0)], [(1, 0, 0)])))
    @example((cone_from_generators([], [(1, 0)]), cone_from_generators([], [(0, 1)])))
    # lower-dimensional operands
    @example((cone_from_generators([(1, 0, 0), (0, 1, 0)]), cone_from_generators([(1, 1, 0), (1, -1, 0)])))
    @example((cone_from_generators([(1, 0, 0, 1)]), cone_from_generators([(1, 0, 0, 0), (0, 0, 0, 1)])))
    # one operand containing the other
    @example((cone_from_generators([(1, 0), (0, 1)]), cone_from_generators([(1, 1), (1, 2)])))
    @example((cone_from_generators([(1, 1, 0)]), cone_from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)])))
    # the intersection is {0}
    @example((cone_from_generators([(1, 0), (0, 1)]), cone_from_generators([(-1, 0), (0, -1)])))
    @example((cone_from_generators([(1, 2, 3)]), cone_from_generators([(-1, 0, 0)], [(0, 1, 1)])))
    def test_intersection_matches_two_conversions(self, pair):
        a, b = pair
        rank = a.ambient_rank
        expected = oracles.cone_by_two_conversions(
            a.halfspaces + b.halfspaces, a.equations + b.equations, rank, from_halfspaces=True
        )
        with pytest.MonkeyPatch.context() as mp:
            for x, y in ((a, b), (b, a)):
                # no interned result and no memo: the facets are read off this run
                mp.setattr(cones, "_cone_cache", {})
                inter = intersect_cones(replace(x), y)
                assert _fields(inter) == expected
                assert inter.incidence == oracles.incidence_by_dot_products(inter)

    @settings(deadline=None, max_examples=150)
    @given(started_runs)
    @example((cone_from_generators([(1, 0, 0)], [(0, 1, 0)]), [(0, 1, 1), (-1, 0, 1)], [(0, 1, 0)]))
    @example((zero_cone(2), [(1, 0)], [(0, 1)]))
    def test_started_run_matches_run_from_scratch(self, case):
        start, ineqs, eqs = case
        rank = start.ambient_rank
        rays, lin, tight = cones.double_description(ineqs, eqs, rank, start)
        expected = cones.double_description(list(start.halfspaces) + ineqs, list(start.equations) + eqs, rank)
        assert (rays, lin) == expected[:2]
        # the bits of start.halfspaces and ineqs are the same incidence
        low = (1 << len(start.halfspaces) + len(ineqs)) - 1
        assert [t & low for t in tight] == list(expected[2])


# a lattice given by at most ``rank`` generators, not necessarily saturated
def _lattices_in(rank):
    return st.lists(_vectors(rank), max_size=rank).map(lambda gens: sublattice(rank, gens))


# inequalities and equations, few enough that lines are common
constraint_runs = st.integers(1, 4).flatmap(
    lambda rank: st.tuples(
        st.just(rank), st.lists(_vectors(rank), max_size=3), st.lists(_vectors(rank), max_size=2)
    )
)


class TestKernelsReadOffTheCone:
    """Facet equations, lineality and face groups equal the kernels they
    were once computed by."""

    @settings(deadline=None, max_examples=150)
    @given(st.integers(1, 4).flatmap(_cones_in))
    @example(cone_from_generators([(1, -2)]))
    @example(cone_from_generators([(1, 0, 0)], [(0, 1, 0)]))
    @example(cone_from_generators([(1, 0, 0), (0, 1, 0), (1, 1, 2), (0, 0, 1)]))
    def test_facet_equations_are_the_kernel_of_rays_and_lines(self, c):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cones, "_cone_cache", {})  # every facet is built here
            for f in facets(c):
                assert f.equations == oracles.facet_equations_by_kernel(f)

    def test_facets_of_a_full_dimensional_cone_take_no_kernel(self, monkeypatch):
        c = cone_from_generators([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)])
        calls = []
        real = cones.integer_kernel

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cones, "integer_kernel", counted)
        monkeypatch.setattr(cones, "_cone_cache", {})
        faces = facets(c)
        assert calls == []
        assert len(faces) == 4
        for f, h in zip(faces, c.halfspaces):
            assert f.equations == oracles.facet_equations_by_kernel(f)
            assert f.equations in ((h,), (tuple(-x for x in h),))

    def test_the_facet_of_a_ray_keeps_its_kernel(self):
        # the ray's equation (2,1) and its facet normal (0,-1) span a sublattice
        # of index 2, so a facet of a lower-dimensional cone is not cut out by
        # its parent's equations plus the normal
        ray = cone_from_generators([(1, -2)])
        assert ray.equations == ((2, 1),) and ray.halfspaces == ((0, -1),)
        assert lattice_index(sublattice(2, ray.equations + ray.halfspaces), full_lattice(2)) == 2
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cones, "_cone_cache", {})
            (f,) = facets(ray)
        assert f == zero_cone(2)
        assert f.equations == ((1, 0), (0, 1))

    @settings(deadline=None, max_examples=200)
    @given(constraint_runs)
    @example((3, [(1, 0, 0)], [(0, 1, 1)]))
    @example((3, [(1, 0, 0), (-1, 0, 0)], [(0, 2, 2)]))
    @example((2, [], []))
    def test_lineality_is_the_kernel_of_the_constraints(self, case):
        rank, ineqs, eqs = case
        _, lin, _ = cones.double_description(ineqs, eqs, rank)
        assert lin == oracles.lineality_by_saturation(ineqs, eqs, rank)

    @settings(deadline=None, max_examples=150)
    @given(started_runs)
    @example((cone_from_generators([(1, 0, 0)], [(0, 1, 0)]), [(0, 1, 1), (-1, 0, 1)], [(0, 1, 0)]))
    @example((cone_from_generators([], [(1, 0, 0)]), [], [(0, 1, 0)]))
    @example((cone_from_generators([(1, 0, 0, 0)], [(0, 1, 1, 0)]), [(0, 0, 0, 1)], []))
    def test_started_lineality_is_the_kernel_of_all_constraints(self, case):
        start, ineqs, eqs = case
        rank = start.ambient_rank
        _, lin, _ = cones.double_description(ineqs, eqs, rank, start)
        expected = oracles.lineality_by_saturation(
            list(start.halfspaces) + ineqs, list(start.equations) + eqs, rank
        )
        assert lin == expected

    @settings(deadline=None, max_examples=150)
    @given(st.integers(1, 4).flatmap(lambda rank: st.tuples(_cones_in(rank), _lattices_in(rank))))
    @example((cone_from_generators([(1, -2)]), sublattice(2, [(1, 1), (0, 2)])))
    @example((cone_from_generators([(1, 0, 0)], [(0, 1, 1)]), sublattice(3, [(2, 0, 0), (0, 1, -1)])))
    def test_span_cut_is_the_intersection_with_the_span_lattice(self, case):
        c, lat = case
        for f in all_faces(c):
            assert _span_cut(lat, f.equations) == oracles.face_group_by_intersection(f, lat)


class TestInterning:
    @pytest.fixture
    def dd_calls(self, monkeypatch):
        """Double descriptions run from here on, with an empty cone cache."""
        calls = []
        real = cones.double_description

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cones, "double_description", counted)
        monkeypatch.setattr(cones, "_cone_cache", {})
        return calls

    def test_new_cone_runs_one_double_description(self, dd_calls):
        cone_from_generators([(1, 0, 0), (0, 1, 0), (1, 1, 2), (0, 0, 1), (1, 1, 1)])
        assert len(dd_calls) == 1
        cone_from_generators([(1, 0, 0), (0, 1, 0)], [(1, 1, 1)])
        assert len(dd_calls) == 2
        cone_from_halfspaces([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 1), (1, 1, -1)])
        assert len(dd_calls) == 3
        cone_from_halfspaces([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (1, 2, 3)])
        assert len(dd_calls) == 4

    def test_faces_run_no_double_description(self, dd_calls):
        c = cone_from_generators([(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 2, 0), (0, 0, 1, 1), (1, 0, 0, 1)])
        line = cone_from_generators([(1, 1, 0, 0)], [(0, 0, 1, -1)])
        del dd_calls[:]
        assert len(cones._cone_cache) == 2  # no face is built yet
        for cone in (c, line):
            faces = all_faces(cone)
            assert all(is_face_of(f, cone) for f in faces)
            assert all(f in faces for f in facets(cone))
        assert dd_calls == []
        assert len(faces) == 2
        for f in cones._cone_cache.values():
            _assert_matches_two_conversions(f)

    def test_pull_back_runs_no_double_description(self, dd_calls):
        c = cone_from_generators([(1, 0, 0), (1, 2, 0), (0, 1, 0)])
        plane = sublattice(3, [(1, 1, 0), (0, 2, 0)])  # spans z = 0, index 2
        del dd_calls[:]
        m = saturated_monoid(c, plane)
        assert dd_calls == []
        assert m.hilbert_basis == ((0, 2, 0), (1, 1, 0), (2, 0, 0))

    def test_kernel_only_when_a_cone_can_have_equations(self, monkeypatch):
        calls = []
        real = cones.integer_kernel

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cones, "integer_kernel", counted)
        monkeypatch.setattr(cones, "_cone_cache", {})
        # full-dimensional H-input, and a pointed V-input whose dual is
        # full-dimensional: no constraint vanishes on every ray
        h = cone_from_halfspaces([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 1), (1, 1, -1)])
        v = cone_from_generators([(1, 0, 0), (0, 1, 0), (1, 1, 2), (0, 0, 1)])
        assert calls == []
        assert h.equations == () and v.lineality == ()
        for c in (h, v):
            _assert_matches_two_conversions(c)
        # the implicit equation x = 0, given as h and -h, is still found
        flat = cone_from_halfspaces([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert len(calls) == 1
        assert flat.equations == ((1, 0, 0),)
        assert flat.generators == ((0, 0, 1), (0, 1, 0))
        _assert_matches_two_conversions(flat)

    def test_interned_cone_runs_no_double_description(self, monkeypatch):
        c = cone_from_generators([(1, 0, 0), (0, 1, 0), (1, 1, 2), (0, 0, 1)])
        faces = facets(c)
        assert all(is_face_of(f, c) for f in faces)
        calls = []
        real = cones.double_description

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cones, "double_description", counted)
        assert cone_from_generators(c.generators, c.lineality, c.ambient_rank) is c
        assert facets(c) == faces
        assert all(is_face_of(f, c) for f in faces)
        assert calls == []

    @pytest.fixture
    def span_kernels(self, monkeypatch):
        """Kernels run by span cuts from here on, with both memos empty."""
        calls = []
        real = intlinalg.integer_kernel

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cones, "_cone_cache", {})
        monkeypatch.setattr(intlinalg, "integer_kernel", counted)
        _span_cut.cache_clear()
        yield calls
        _span_cut.cache_clear()  # drop the values computed with the counter

    def test_span_lattice_runs_one_kernel_per_span(self, span_kernels):
        a = cone_from_generators([(1, 0, 0), (1, 2, 0)])
        # another interned cone of the same span, and an equal copy of a
        # that is not interned and keeps no span of its own yet
        c = cone_from_generators([(0, 1, 0), (-1, 0, 0)])
        b = replace(a)
        assert cone_from_generators([(1, 0, 0), (1, 2, 0)]) is a and b is not a and c is not a
        spans = [cones._span_lattice(x) for x in (a, a, b, c, a, b, c)]
        assert len(span_kernels) == 1
        assert all(s == oracles.span_lattice_by_saturation(a) for s in spans)

    def test_equal_lattices_share_one_span_cut(self, span_kernels):
        lat = sublattice(3, [(1, 1, 0), (0, 2, 0), (0, 0, 3)])
        twin = sublattice(3, [(1, 1, 0), (0, 2, 0), (0, 0, 3)])
        assert twin == lat and twin is not lat
        plane = ((0, 0, 1),)
        cuts = [_span_cut(x, plane) for x in (lat, twin, lat, twin)]
        assert len(span_kernels) == 1
        assert all(k == sublattice(3, [(1, 1, 0), (0, 2, 0)]) for k in cuts)

    def test_cache_holds_one_entry_per_cone(self):
        cone_from_generators([(1, 0), (1, 2)])
        cone_from_halfspaces([(1, 0), (-1, 2)])
        assert all(key == c.key() for key, c in cones._cone_cache.items())


class TestMemos:
    @pytest.fixture
    def counted(self, monkeypatch):
        """Double descriptions and Hilbert bases run from here on, with an
        empty cone cache, by name."""
        calls = []
        for module, name in ((cones, "double_description"), (monoids, "_hilbert_basis_full")):
            real = getattr(module, name)

            def wrapped(*args, real=real, name=name):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(module, name, wrapped)
        monkeypatch.setattr(cones, "_cone_cache", {})
        return calls

    def test_repeat_saturated_monoid_computes_nothing(self, counted):
        # the plane lattice does not span the cone: the first call
        # intersects it with the plane by a double description
        c = cone_from_generators([(1, 0, 0), (1, 2, 0), (0, 1, 1)])
        first, second = (sublattice(3, [(1, 1, 0), (0, 2, 0)]) for _ in range(2))
        assert first == second and first is not second
        del counted[:]
        m = saturated_monoid(c, first)
        assert "double_description" in counted and "_hilbert_basis_full" not in counted
        del counted[:]
        assert saturated_monoid(c, second) is m
        assert counted == []
        # the Hilbert basis is built on its first read, and only then
        assert m.hilbert_basis == ((1, 1, 0), (2, 0, 0), (2, 4, 0))
        assert counted == ["_hilbert_basis_full"]
        assert saturated_monoid(c, second).hilbert_basis is m.hilbert_basis
        assert counted == ["_hilbert_basis_full"]

    def test_repeat_dual_monoid_computes_nothing(self, counted):
        c = cone_from_generators([(1, 0, 0), (1, 2, 0), (0, 1, 1)])
        m = saturated_monoid(c, full_lattice(3))
        del counted[:]
        first = monoids.dual_monoid(m)
        assert counted == []
        assert first.hilbert_basis
        assert counted == ["_hilbert_basis_full"]
        del counted[:]
        assert monoids.dual_monoid(m) is first and dual_cone(dual_cone(c)) is c
        assert monoids.dual_monoid(m).hilbert_basis is first.hilbert_basis
        assert counted == []

    def test_repeat_intersection_runs_no_double_description(self, counted):
        a = cone_from_generators([(1, 0, 0), (0, 1, 0), (1, 1, 2)])
        b = cone_from_generators([(1, 0, 0), (0, 1, 1), (0, 0, 1)])
        del counted[:]
        inter = intersect_cones(a, b)
        assert counted == ["double_description"]
        del counted[:]
        # an equal cone that is not the interned one hits the same entry
        assert intersect_cones(a, b) is inter
        assert intersect_cones(a, dual_cone(dual_cone(b))) is inter
        assert counted == []
        assert inter.generators == ((1, 0, 0), (1, 1, 2), (1, 2, 2))


class TestFacesAndFans:
    def test_all_faces_count(self):
        q = cone_from_generators([(1, 0), (0, 1)])
        assert len(all_faces(q)) == 4  # cone, two rays, origin

    @pytest.mark.parametrize("rays", [[], [(1, 0, 0)]], ids=["line", "half-plane"])
    def test_all_faces_of_a_cone_with_lines(self, rays):
        # the line through (0,0,1) is the minimal face; the zero cone is none
        line = cone_from_generators([], [(0, 0, 1)], ambient_rank=3)
        c = cone_from_generators(rays, line.lineality, ambient_rank=3)
        assert all_faces(c) == ((line, c) if rays else (line,))

    def test_is_face_of(self):
        q = cone_from_generators([(1, 0), (0, 1)])
        assert is_face_of(cone_from_generators([(1, 0)], ambient_rank=2), q)
        assert is_face_of(zero_cone(2), q)
        assert not is_face_of(cone_from_generators([(1, 1)], ambient_rank=2), q)

    def test_p2_fan_valid_and_complete(self):
        fan = p2_fan()
        assert len(fan.cones) == 7
        rep = validate_fan(fan)
        assert rep.ok, rep.violations
        assert is_complete(fan)

    def test_overlapping_cones_rejected(self):
        bad = fan_from_cones(
            [
                cone_from_generators([(1, 0), (0, 1)]),
                cone_from_generators([(1, 1), (1, -1)]),
            ]
        )
        rep = validate_fan(bad)
        assert not rep.ok
        assert any("not a common face" in v for v in rep.violations)

    def test_trivial_fan_is_valid(self):
        f = fan_from_cones([zero_cone(2)])
        assert validate_fan(f).ok
        assert not is_complete(f)

    def test_single_flip_perturbation_rejected(self):
        fan = p2_fan()
        cones = [
            cone_from_generators(g)
            for g in [[(1, 0), (0, 1)], [(0, 1), (-1, -1)], [(-1, -1), (1, 1)]]
        ]
        rep = validate_fan(fan_from_cones(cones))
        assert not rep.ok

    def test_fan_morphism_identity(self):
        fan = p2_fan()
        m = check_fan_morphism(((1, 0), (0, 1)), fan, fan)
        assert m.cone_assignment == tuple(range(len(fan.cones)))

    def test_fan_morphism_projection_fails_unrefined(self):
        fan = p2_fan()
        p = quotient_map(2, sublattice(2, [[1, 0]]))
        target = fan_from_cones(
            [cone_from_generators([(1,)]), cone_from_generators([(-1,)])]
        )
        with pytest.raises(NoTargetCone):
            check_fan_morphism(p.matrix, fan, target)

    def test_fan_morphism_wrong_shape_refused(self):
        fan = p2_fan()
        with pytest.raises(ValueError, match="2 x 2 matrix"):
            check_fan_morphism(((1, 0, 5), (0, 1, 7)), fan, fan)

    def test_image_and_preimage_wrong_shape_refused(self):
        # zip would truncate: a wrong image or a preimage of the wrong rank
        c = cone_from_generators([(1, 0), (1, 1)])
        with pytest.raises(ValueError, match="expected a 2 x 2 matrix"):
            image_cone(((1,), (0,)), c)
        with pytest.raises(ValueError, match="expected a 2 x 2 matrix"):
            image_cone(((1, 0, 5), (0, 1, 7)), c)
        with pytest.raises(ValueError, match="expected a 2 x 3 matrix"):
            preimage_cone(((1, 0, 5),), c, 3)

    def test_image_is_kept_per_matrix(self):
        c = cone_from_generators([(1, 0, 0), (1, 1, 0)])
        img = image_cone([[1, 0, 0], [0, 0, 1]], c)
        assert img.generators == ((1, 0),) and img.lineality == ()
        assert image_cone(((1, 0, 0), (0, 0, 1)), c) is img
        assert image_cone(((0, 1, 0),), c).generators == ((1,),)

    def test_fan_morphism_tests_containment_only_off_the_target_cones(self, monkeypatch):
        # an image that is a target cone contains itself; others are tested
        fan, diagonal = p2_fan(), fan_from_cones([cone_from_generators([(1, 1)])])
        assert validate_fan(fan).ok  # kept, so not rerun below
        calls = []
        real = cones.Cone.contains_cone
        monkeypatch.setattr(cones.Cone, "contains_cone", lambda a, b: calls.append(b) or real(a, b))
        assert check_fan_morphism(((1, 0), (0, 1)), fan, fan).cone_assignment == tuple(range(len(fan.cones)))
        assert calls == []
        check_fan_morphism(((1, 0), (0, 1)), diagonal, fan)
        assert calls == [diagonal.cones[1]]

    def test_fan_morphism_into_invalid_target_refused(self):
        src = fan_from_cones([cone_from_generators([(1, 0)], ambient_rank=2)])
        overlapping = fan_from_cones(
            [
                cone_from_generators([(1, 0), (0, 1)]),
                cone_from_generators([(1, 1), (1, -1)]),
            ]
        )
        with pytest.raises(ValueError, match="not a valid fan"):
            check_fan_morphism(((1, 0), (0, 1)), src, overlapping)

    def test_fan_morphism_is_kept_on_its_source(self, monkeypatch):
        # the maximal source cones are imaged, in index order, and no other
        # cone is: faces take a face of a coface's target; a second check of
        # the same (matrix, target) images nothing; a refused morphism is
        # not kept, so it is refused again
        line = fan_from_cones([cone_from_generators([(1,)]), cone_from_generators([(-1,)])])
        quadrants = p1p1_fan()
        expected = oracles.minimal_targets_by_scan(((1, 0),), quadrants, line)
        walked = []
        real = cones.image_cone
        monkeypatch.setattr(cones, "image_cone", lambda m, c: walked.append(c) or real(m, c))
        first = check_fan_morphism(((1, 0),), quadrants, line)
        maximal = [quadrants.cones[i] for i in quadrants.maximal_indices()]
        assert walked == maximal and len(maximal) == 4
        assert first.cone_assignment == expected
        assert check_fan_morphism([[1, 0]], quadrants, line) is first and walked == maximal
        # cones out of canonical order: cofaces are still walked before faces
        shuffled = Fan(2, tuple(reversed(quadrants.cones)))
        assert check_fan_morphism(((1, 0),), shuffled, line).cone_assignment == tuple(reversed(expected))
        walked.clear()
        for _ in range(2):
            with pytest.raises(NoTargetCone):
                check_fan_morphism(((1, 0),), p2_fan(), line)
            assert walked
            walked.clear()


class TestPairsReducedAlongSeparatingHalfspaces:
    """validate_fan replaces each pair of maximal cones by the faces that a
    separating facet hyperplane exposes, and intersects only a pair that no
    facet hyperplane separates further."""

    def test_crossed_facets_refused(self, monkeypatch):
        # the two cones lie on opposite sides of x = 0, where their facets
        # cross: the pair is reduced to those facets, and still refused
        a = cone_from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        b = cone_from_generators([(-1, 0, 0), (0, 1, 1), (0, 1, -1)])
        fan = fan_from_cones([a, b])
        pairs = []
        real = cones.intersect_cones
        monkeypatch.setattr(cones, "intersect_cones", lambda x, y: pairs.append((x, y)) or real(x, y))
        rep = validate_fan(fan)
        assert rep.violations == ("intersection of cones 13 and 14 is not a common face",)
        assert fan.maximal_indices() == (13, 14) and not rep.ok
        assert [set(p) for p in pairs] == [
            {cone_from_generators([(0, 1, 0), (0, 0, 1)]), cone_from_generators([(0, 1, 1), (0, 1, -1)])}
        ]
        assert not oracles.fan_ok_all_pairs(fan)

    def test_orthant_fan_needs_no_intersection(self, monkeypatch):
        calls = []
        real = cones.intersect_cones
        monkeypatch.setattr(cones, "intersect_cones", lambda x, y: calls.append((x, y)) or real(x, y))
        fan = orthant_fan(4)
        assert validate_fan(fan).ok and len(fan.maximal_indices()) == 16
        assert calls == []


@st.composite
def face_closed_collections(draw):
    """Faces of some maximal cones of a random complete fan, plus up to two
    cones of 1 to rank + 1 rays, which may overlap them or contain a line.
    Every ray has entries in [-3, 3]."""
    rank = draw(st.sampled_from([2, 3]))
    make = random_complete_fan_rank2 if rank == 2 else random_complete_fan_rank3
    base = make(random.Random(draw(st.integers(0, 1000))))
    tops = [
        c
        for c in base.cones
        if c.dim == rank and all(abs(x) <= 3 for g in c.generators for x in g)
    ]
    kept = draw(st.lists(st.sampled_from(tops), max_size=4))
    vectors = st.tuples(*[st.integers(-3, 3)] * rank).filter(any)
    extra = draw(st.lists(st.lists(vectors, min_size=1, max_size=rank + 1), max_size=2))
    cones = kept + [cone_from_generators(rays, ambient_rank=rank) for rays in extra]
    return fan_from_cones(cones, ambient_rank=rank)


def _assert_assignment_matches(matrix, src, dst):
    expected = oracles.minimal_targets_by_scan(matrix, src, dst)
    if expected is None:
        with pytest.raises(NoTargetCone):
            check_fan_morphism(matrix, src, dst)
    else:
        assert check_fan_morphism(matrix, src, dst).cone_assignment == expected


class TestFanIncidence:
    """Maximal cones, fan validation, relative-interior lookup and morphism
    targets read off the face poset, against the all-pairs scans."""

    @settings(deadline=None, max_examples=150)
    @given(face_closed_collections(), st.data())
    def test_matches_all_pairs_oracles(self, fan, data):
        if not check_fan_incidence(fan):
            return
        rank = fan.ambient_rank
        # drop the last coordinate, into the complete coordinate fan
        proj = tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank - 1))
        line = fan_from_cones([cone_from_generators([(1,)]), cone_from_generators([(-1,)])])
        _assert_assignment_matches(proj, fan, p1p1_fan() if rank == 3 else line)
        # rays into the fan by the identity
        vectors = st.tuples(*[st.integers(-3, 3)] * rank).filter(any)
        rays = data.draw(st.lists(vectors, min_size=1, max_size=3))
        src = fan_from_cones([cone_from_generators([r]) for r in rays])
        identity = tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))
        _assert_assignment_matches(identity, src, fan)


class TestFaceClosureOneFacetLevelDown:
    """validate_fan tests only the facets of each cone for face closure,
    which reaches every face by induction on dimension; its verdict
    against the all-faces scan on fans missing a face of codimension 2
    or 3, whose maximal cones keep all their facets."""

    @pytest.mark.parametrize("seed", range(3))
    def test_missing_deep_face_is_caught(self, seed):
        fan = random_complete_fan_rank3(random.Random(seed))
        assert validate_fan(fan).ok and oracles.fan_ok_all_pairs(fan)
        deep = [k for k, c in enumerate(fan.cones) if c.dim <= 1]
        assert deep
        for k in deep:
            doctored = Fan(3, fan.cones[:k] + fan.cones[k + 1 :])
            assert validate_fan(doctored).ok is oracles.fan_ok_all_pairs(doctored) is False
