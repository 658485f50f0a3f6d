import io
import random
from fractions import Fraction
from contextlib import ExitStack
from itertools import product
from math import atan2, gcd, prod
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import chowfan.monoids
from chowfan.cli import run
from chowfan import cones
from chowfan.cones import (
    Cone,
    NotStrictlyConvex,
    _pull_back,
    _span_lattice,
    all_faces,
    cone_from_generators,
    cone_from_halfspaces,
    is_face_of,
    zero_cone,
)
from chowfan.intlinalg import (
    Sublattice,
    coordinates_in,
    dot,
    full_lattice,
    mat_mul,
    mat_vec,
    solve_rational,
    sublattice,
    transpose,
    vadd,
    vscale,
)
from chowfan.monoids import (
    MonoidNotMapped,
    NotAFace,
    _grading,
    _hilbert_basis_full,
    _is_lattice_basis,
    _packed_columns,
    _parallelepiped_keys,
    _plane_chain,
    _hermite_box,
    _sieve,
    dual_monoid,
    member,
    monoid_from_cone,
    monoid_hom,
    restrict_to_face,
    saturated_monoid,
)

from conftest import check_monoid_hom, p2_fan, p1p1_fan
import oracles


class TestHilbertBases:
    def test_quadrant(self):
        m = monoid_from_cone(cone_from_generators([(1, 0), (0, 1)]))
        assert m.hilbert_basis == ((0, 1), (1, 0))

    def test_singular_cone_needs_interior_point(self):
        m = monoid_from_cone(cone_from_generators([(1, 0), (1, 2)]))
        assert m.hilbert_basis == ((1, 0), (1, 1), (1, 2))

    def test_ray(self):
        m = monoid_from_cone(cone_from_generators([(1, 2)]))
        assert m.hilbert_basis == ((1, 2),)

    def test_rejects_lineality(self):
        with pytest.raises(NotStrictlyConvex):
            monoid_from_cone(cone_from_generators([(1, 0), (-1, 0)], ambient_rank=2))

    def test_coarse_lattice(self):
        m = monoid_from_cone(
            cone_from_generators([(1, 0), (0, 1)]), sublattice(2, [(2, 0), (0, 2)])
        )
        assert m.hilbert_basis == ((0, 2), (2, 0))

    def test_minimality_randomized(self):
        rng = random.Random(7)
        for _ in range(25):
            rays = [
                tuple(rng.randrange(-3, 4) for _ in range(2))
                for _ in range(rng.randrange(1, 4))
            ]
            rays = [r for r in rays if any(r)]
            if not rays:
                continue
            c = cone_from_generators(rays, ambient_rank=2)
            if c.lineality_dim:
                continue
            m = monoid_from_cone(c)
            for b in m.hilbert_basis:
                rest = [x for x in m.hilbert_basis if x != b]
                assert not oracles.member_by_search(b, rest, m.cone, m.grading())

    def test_brute_force_agreement_small(self):
        # all monoid points of small grade are sums of basis elements
        c = cone_from_generators([(2, -1), (1, 3)])
        m = monoid_from_cone(c)
        for x in range(-8, 9):
            for y in range(-8, 9):
                if c.contains((x, y)):
                    assert oracles.exhaustive_member(m.hilbert_basis, (x, y), bound=9)


# rank-3 cones from 1-4 rays and at most one line, entries in [-3, 3]
rank3_vectors = st.tuples(*[st.integers(-3, 3)] * 3).filter(any)
rank3_cones = st.tuples(
    st.lists(rank3_vectors, min_size=1, max_size=4), st.lists(rank3_vectors, max_size=1)
).map(lambda t: cone_from_generators(t[0], t[1], ambient_rank=3))

# sublattices of Z^3 of index at most 6, or rank-2 sublattices of such
small_index_lattices = st.tuples(
    st.sampled_from([d for d in product(range(1, 7), repeat=3) if d[0] * d[1] * d[2] <= 6]),
    st.tuples(*[st.integers(-3, 3)] * 3),
    st.booleans(),
).map(
    lambda t: sublattice(
        3,
        [(t[0][0], t[1][0], t[1][1]), (0, t[0][1], t[1][2]), (0, 0, t[0][2])][: 2 if t[2] else 3],
    )
)

# rank-3 cones with a line, and lattices of finite index in Z^3 with skew
# HNF bases
cones_with_a_line = st.tuples(st.lists(rank3_vectors, max_size=2), rank3_vectors).map(
    lambda t: cone_from_generators(t[0], [t[1]], ambient_rank=3)
)
skew_lattices = st.tuples(st.tuples(*[st.integers(1, 8)] * 3), st.tuples(*[st.integers(-8, 8)] * 3)).map(
    lambda t: sublattice(3, [(t[0][0], t[1][0], t[1][1]), (0, t[0][1], t[1][2]), (0, 0, t[0][2])])
)


class TestSaturatedMonoidProperties:
    @settings(deadline=None, max_examples=150)
    @given(cones_with_a_line, skew_lattices)
    # equal to the monoid cut from <(2,0,0),(0,2,6),(0,0,16)>, whose basis is ((2, 0, 0),)
    @example(cone_from_generators([(1, 0, 0)], [(0, 1, 1)]), sublattice(3, [(1, 1, 2), (0, 2, 4), (0, 0, 8)]))
    def test_basis_with_units_is_fixed_by_the_group(self, c, lattice):
        m = saturated_monoid(c, lattice)
        again = saturated_monoid(c, m.group)
        assert again == m
        assert again.hilbert_basis == m.hilbert_basis

    @settings(deadline=None, max_examples=80)
    @given(rank3_cones, small_index_lattices)
    def test_basis_irreducible_and_generating(self, c, lattice):
        assume(c.is_strictly_convex)
        m = saturated_monoid(c, lattice)

        def in_monoid(x):
            return c.contains(x) and lattice.contains(x)

        hb = m.hilbert_basis
        assert all(in_monoid(b) for b in hb)
        for b in hb:  # irreducible: no other basis element leaves a monoid rest
            assert not any(a != b and in_monoid(tuple(p - q for p, q in zip(b, a))) for a in hb)
        grading = tuple(sum(h[i] for h in c.halfspaces) for i in range(3))
        assert all(dot(grading, b) >= 1 for b in hb)
        for x in product(range(-4, 5), repeat=3):
            if not in_monoid(x):
                continue
            # a summand b of x has x - b in the monoid and at most g(x)/g(b) copies
            below = [b for b in hb if in_monoid(tuple(p - q for p, q in zip(x, b)))]
            bound = max((dot(grading, x) // dot(grading, b) for b in below), default=0)
            if (bound + 1) ** len(below) <= 20000:
                assert oracles.exhaustive_member(below, x, bound=bound)

    @settings(deadline=None, max_examples=60)
    @given(rank3_cones, small_index_lattices)
    # a rank-2 lattice whose span meets the cone only in the ray (1,0,0)
    @example(
        cone_from_generators([(1, 0, 0), (0, 0, 1)]), sublattice(3, [(1, 0, 0), (0, 2, 0)])
    )
    def test_group_and_cone_are_generated_by_basis_and_units(self, c, lattice):
        m = saturated_monoid(c, lattice)
        assert m.group == sublattice(3, list(m.hilbert_basis) + list(m.units.basis))
        assert m.cone == cone_from_generators(m.hilbert_basis, m.units.basis, ambient_rank=3)

    @settings(deadline=None, max_examples=60)
    @given(rank3_cones, small_index_lattices)
    # units whose canonical representatives differ in the group's coordinates
    @example(
        cone_from_generators([(-3, -2, 2)], [(0, -2, 0)]),
        sublattice(3, [(3, 2, -3), (0, 1, 3), (0, 0, 2)]),
    )
    def test_group_coordinates_match_recomputation(self, c, lattice):
        m = saturated_monoid(c, lattice)
        coords, basis, hb = oracles.group_coordinates(m)
        k = len(basis)
        cone = cone_from_halfspaces(
            [tuple(dot(h, b) for b in basis) for h in m.cone.halfspaces],
            [tuple(dot(e, b) for b in basis) for e in m.cone.equations],
            k,
        )
        fresh = saturated_monoid(cone, full_lattice(k))
        assert coords == fresh and hb == fresh.hilbert_basis
        assert (coords.cone, coords.group) == (fresh.cone, fresh.group)

    @settings(deadline=None, max_examples=60)
    @given(rank3_cones, small_index_lattices)
    # the line through (0,0,1), whose only face is itself
    @example(cone_from_generators([], [(0, 0, 1)], ambient_rank=3), full_lattice(3))
    # a half-plane with a line: itself and its line, no zero cone
    @example(
        cone_from_generators([(1, 0, 0)], [(0, 0, 1)]),
        sublattice(3, [(2, 0, 0), (0, 1, 0), (0, 0, 1)]),
    )
    def test_faces_by_filtering_match_recomputation(self, c, lattice):
        m = saturated_monoid(c, lattice)
        for f in all_faces(m.cone):
            assert is_face_of(f, m.cone)
            face = restrict_to_face(m, f)
            fresh = saturated_monoid(f, lattice)
            assert (face.hilbert_basis, face.units, face.group) == (
                fresh.hilbert_basis, fresh.units, fresh.group
            )
            assert face.cone.key() == fresh.cone.key()


@pytest.mark.parametrize(
    "name", ["p1p1_diagonal.json", "p2_horizontal.json", "p2_weighted.json"]
)
def test_saturated_monoid_intersects_no_cones_on_fixtures(name, monkeypatch):
    # every caller passes a cone inside the span of its lattice
    calls = []
    real = chowfan.monoids.intersect_cones

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(chowfan.monoids, "intersect_cones", counted)
    path = Path(__file__).resolve().parent.parent / "fixtures" / name
    assert run(["all", str(path)], stdout=io.StringIO()) == 0
    assert calls == []


def _fields(w):
    """Values of one field of width ``w``: 0, the largest, and anything between."""
    largest = 2 ** (w - 1) - 1
    return st.one_of(st.sampled_from([0, largest]), st.integers(0, largest))


@st.composite
def packed_pairs(draw):
    """Two value tuples in fields of width ``w``, some fields equal."""
    w = draw(st.integers(1, 12))
    n = draw(st.integers(1, 6))
    xs = draw(st.lists(_fields(w), min_size=n, max_size=n))
    bs = draw(st.lists(_fields(w), min_size=n, max_size=n))
    equal = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    bs = [x if e else b for x, b, e in zip(xs, bs, equal)]
    return w, xs, bs


@st.composite
def packed_blocks(draw):
    """A value tuple and 1-9 slot tuples in fields of width ``w``, slot
    fields often equal to the tuple's."""
    w = draw(st.integers(1, 12))
    n = draw(st.integers(1, 6))
    xs = draw(st.lists(_fields(w), min_size=n, max_size=n))
    bs = []
    for _ in range(draw(st.integers(1, 9))):
        b = draw(st.lists(_fields(w), min_size=n, max_size=n))
        equal = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        bs.append([x if e else v for x, v, e in zip(xs, b, equal)])
    return w, xs, bs


@st.composite
def simplicial_cones(draw, low=1, high=200):
    """Simplicial cones of rank 2-4 and determinant ``low``-``high``: the
    rays ``e_1, ..., e_{n-1}`` and ``(p, d)`` with ``0 <= p < d``, sheared
    by a unimodular upper triangular matrix."""
    n = draw(st.integers(2, 4))
    d = draw(st.integers(low, high))
    last = tuple(draw(st.integers(0, d - 1)) for _ in range(n - 1)) + (d,)
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n - 1)] + [last]
    shear = [
        [int(i == j) if j <= i else draw(st.integers(-2, 2)) for j in range(n)] for i in range(n)
    ]
    return cone_from_generators([mat_vec(shear, r) for r in rays])


def _pointed_cones(rank, first, rest, size):
    """Cones of ``rank + 1`` to ``size`` rays whose first entry is in
    ``[1, first]``, so strictly convex, the others in ``[-rest, rest]``."""
    vectors = st.tuples(st.integers(1, first), *[st.integers(-rest, rest)] * (rank - 1))
    return st.lists(vectors, min_size=rank + 1, max_size=size).map(cone_from_generators)


@st.composite
def embedded_cones(draw):
    """Cones that are not full-dimensional: 1-4 rays of a strictly convex
    rank-3 cone, carried into ``Z^4`` by an injective integer matrix, so
    that their span lattice is often not the span of their rays."""
    rays = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=4))
    cols = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * 3), min_size=4, max_size=4).filter(lambda m: oracles.matrix_rank(m) == 3))
    return cone_from_generators([mat_vec(cols, r) for r in rays], ambient_rank=4)


# cones triangulated into two or more simplices, some of large determinant
several_simplices = st.one_of(_pointed_cones(3, 6, 9, 6), _pointed_cones(4, 3, 4, 6)).filter(
    lambda c: c.is_strictly_convex and len(c.generators) > c.dim
)


# two simplices whose bases have 8 or more elements of at most half the
# largest grade: the last of them is tested against four blocks
MANY_BLOCKS = (
    cone_from_generators([(1, 0, 0), (0, 1, 0), (175, 28, 200)]),
    cone_from_generators([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (57, 35, 110, 165)]),
)


# the explicit examples of test_packed_sieve_matches_tuple_sieve
PACKED_EXAMPLES = (
    # a candidate's value on (1, -3, 0) is 20, above every ray's (at most 12)
    cone_from_generators([(2, -3, 2), (3, -3, -2), (3, 1, -3), (3, 1, 0)]),
    MANY_BLOCKS[0],
    MANY_BLOCKS[1],
    cone_from_generators([(1, 0), (1, 200)]),
    cone_from_generators([(1, 0, 0), (1, 3, 0), (1, 0, 3), (1, 3, 3)]),
    cone_from_generators([(1, 0, 0, 0), (1, 2, 0, 0), (1, 0, 2, 0), (1, 0, 0, 2), (2, 1, 1, 1)]),
)

# the explicit examples of test_matches_vector_candidates
KEYED_EXAMPLES = (
    MANY_BLOCKS[0],
    MANY_BLOCKS[1],
    cone_from_generators([(1, 0, 0, 0), (1, 2, 0, 0), (0, 1, 2, 0)]),
    # not full-dimensional and not unimodular; in its span lattice the
    # halfspaces have elementary divisors (1, 3): keys are decoded over den = 3
    cone_from_generators([(1, 0, 0), (1, 3, 0)]),
    # the same in dimension 3, off height one, so sieved: elementary
    # divisors (1, 1, 3) and den = 3
    cone_from_generators([(0, 0, 0, 1), (0, 0, 3, 2), (0, 1, 0, 0)]),
    # six facets with entries up to 141, on which the earlier Smith loop did not return in 30 s
    cone_from_generators([(2, -4, -3, 4), (3, -4, -1, -3), (3, -1, 4, 2), (3, 0, -2, 3), (3, 2, -3, 0)]),
)


def examples(cases):
    """``hypothesis.example`` for each of ``cases``, in order."""

    def apply(test):
        for c in reversed(cases):
            test = example(c)(test)
        return test

    return apply


def counted_calls(monkeypatch, name):
    """Replace ``chowfan.monoids.<name>`` by a wrapper that records the
    arguments of each call in the returned list."""
    calls = []
    real = getattr(chowfan.monoids, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(chowfan.monoids, name, counted)
    return calls


def _in_span(c):
    """``(cy, lift)``: ``c`` in the coordinates of its span lattice, where
    it is full-dimensional as the Hilbert-basis rules need, and the matrix
    with ``lift @ y`` the point of coordinates ``y``."""
    span = _span_lattice(c).basis
    return _pull_back(c, span), transpose(span)


def _basis_of(c, out=None):
    """The Hilbert basis of ``c ∩ Z^rank`` by the rules on ``c`` in span
    coordinates, each element ``x`` given as ``out @ x``."""
    cy, lift = _in_span(c)
    return _hilbert_basis_full(cy, lift if out is None else mat_mul(out, lift))


@pytest.mark.parametrize("cases", [PACKED_EXAMPLES, KEYED_EXAMPLES], ids=["packed", "keyed"])
def test_explicit_examples_reach_the_keyed_sieve(cases, monkeypatch):
    # the plane and polygon rules take some examples; others still sieve
    sieved = counted_calls(monkeypatch, "_sieve")
    reached = []
    for c in cases:
        before = len(sieved)
        _basis_of(c)
        reached.append(len(sieved) > before)
    assert sum(reached) >= 3
    assert not all(reached)


def _matches_oracle_with_and_without_out(c):
    expected = oracles.hilbert_basis_by_tuple_sieve(c)
    assert _basis_of(c) == expected
    # built directly in other coordinates: x -> (x, sum(x))
    out = [tuple(int(i == j) for j in range(c.ambient_rank)) for i in range(c.ambient_rank)]
    out.append((1,) * c.ambient_rank)
    assert _basis_of(c, out) == tuple(sorted(mat_vec(out, x) for x in expected))


class TestPackedDominance:
    @settings(deadline=None, max_examples=300)
    @given(packed_pairs())
    @example((1, [0, 0], [0, 0]))
    @example((3, [3, 0, 3], [3, 0, 0]))
    @example((3, [3, 0, 3], [0, 1, 3]))
    @example((12, [2047] * 6, [2047] * 5 + [0]))
    def test_guard_test_is_componentwise_dominance(self, case):
        w, xs, bs = case
        n = len(xs)
        # with unit halfspaces the packed value of x is x itself, field by field
        units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        cols, guard = _packed_columns(units, n, 2 ** (w - 1) - 1)
        packed_x, packed_b = dot(cols, xs), dot(cols, bs)
        assert packed_x == sum(x << (i * w) for i, x in enumerate(xs))
        dominates = all(x >= b for x, b in zip(xs, bs))
        assert (((packed_x | guard) - packed_b) & guard == guard) == dominates

    @settings(deadline=None, max_examples=300)
    @given(packed_blocks())
    @example((1, [0], [[1]]))
    @example((3, [3, 0, 3], [[3, 1, 0], [0, 1, 3], [1, 1, 1], [2, 0, 3]]))
    @example((12, [2047] * 6, [[2047] * 5 + [0]] * 8 + [[2047] * 6]))
    def test_block_test_is_some_slot_dominated(self, case):
        w, xs, bs = case
        n = len(xs)
        units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        cols, guard = _packed_columns(units, n, 2 ** (w - 1) - 1)
        shift = guard.bit_length()
        # slot j is kept at grade 16 + j, none of them tested against another
        # (all grades are in [16, 32)), and their keys differ even where their
        # values agree; at grade 48 the candidate meets all of them, in
        # blocks of 1, 2, 4, 8; the candidate is labelled 15
        keys = [(16 + j) << shift | dot(cols, b) for j, b in enumerate(bs)]
        keys.append(48 << shift | dot(cols, xs))
        label = {k: j for j, k in enumerate(keys[:-1])} | {keys[-1]: 15}
        kept = [label[k] for k in _sieve(keys, guard)]
        dominated = any(all(x >= v for x, v in zip(xs, slot)) for slot in bs)
        assert kept == list(range(len(bs))) + ([] if dominated else [15])

    def test_many_block_examples_reach_the_fourth_block(self):
        for c in MANY_BLOCKS:
            grades = [dot(_grading(c), x) for x in _hilbert_basis_full(c)]
            assert sum(2 * g <= max(grades) for g in grades) >= 8

    @settings(deadline=None, max_examples=200)
    @given(st.one_of(rank3_cones, simplicial_cones(), _pointed_cones(3, 3, 3, 6), _pointed_cones(4, 2, 2, 6)))
    @examples(PACKED_EXAMPLES)
    def test_packed_sieve_matches_tuple_sieve(self, c):
        assume(c.is_strictly_convex)
        assert _basis_of(c) == oracles.hilbert_basis_by_tuple_sieve(c)


class TestKeyedCandidates:
    @settings(deadline=None, max_examples=150)
    @given(st.one_of(simplicial_cones(500, 4000), embedded_cones(), several_simplices))
    @examples(KEYED_EXAMPLES)
    def test_matches_vector_candidates(self, c):
        assume(c.is_strictly_convex)
        _matches_oracle_with_and_without_out(c)

    def test_vectors_are_built_for_kept_elements_only(self, monkeypatch):
        # past the unimodular exit, mat_vec runs once per decoded key of the
        # sieve: on MANY_BLOCKS and on a 3-dimensional cone off height one
        built = counted_calls(monkeypatch, "mat_vec")
        sieved = counted_calls(monkeypatch, "_sieve")
        off_height_one = cone_from_generators([(0, 0, 0, 1), (0, 0, 3, 2), (0, 1, 0, 0)])
        for c in MANY_BLOCKS + (off_height_one,):
            cy, _ = _in_span(c)
            del built[:]
            basis = _hilbert_basis_full(cy)
            assert len(built) == len(basis)
            points = sum(_hermite_box(s)[0] - 1 for s in chowfan.monoids._triangulate(cy))
            assert len(built) < points + len(c.generators)
        assert len(sieved) == len(MANY_BLOCKS) + 1


def _refused(*args):
    raise AssertionError("a geometric rule reached the keyed path")


def _keyed_path_refused():
    """Patches refusing the parallelepiped boxes, their keys and the sieve."""
    stack = ExitStack()
    for name in ("_hermite_box", "_parallelepiped_keys", "_sieve"):
        stack.enter_context(mock.patch.object(chowfan.monoids, name, _refused))
    return stack


def _shears(draw, n, bound):
    """A product of ``n`` unimodular shears of Z^2 with factors in
    ``[-bound, bound]``, alternately above and below the diagonal."""
    u = [[1, 0], [0, 1]]
    for i in range(n):
        k = draw(st.integers(-bound, bound))
        e = [[1, k], [0, 1]] if i % 2 else [[1, 0], [k, 1]]
        u = [[sum(a * b for a, b in zip(row, col)) for col in zip(*e)] for row in u]
    return u


@st.composite
def large_plane_cones(draw):
    """Plane cones with entries up to 2^40 and determinant at most 300: the
    rays ``(1, 0)`` and ``(p, d)`` carried by a product of shears, in Z^2
    or through ``x -> (x, m.x)`` into Z^3."""
    d = draw(st.integers(2, 300))
    p = draw(st.integers(0, d - 1))
    u = _shears(draw, draw(st.integers(0, 6)), 2**7)
    rays = [mat_vec(u, (1, 0)), mat_vec(u, (p, d))]
    if draw(st.booleans()):
        m = (draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
        rays = [r + (dot(m, r),) for r in rays]
    assume(max(abs(x) for r in rays for x in r) <= 2**40)
    return cone_from_generators(rays)


@st.composite
def height_one_cones(draw):
    """Cones over lattice polygons: 3-6 points ``(1, a, b)``, sheared by a
    unimodular upper triangular matrix ``U``, and in Z^3 or carried into Z^4
    by ``y -> (y, m.y)``, whose image is saturated."""
    points = draw(st.lists(st.tuples(st.just(1), st.integers(-5, 5), st.integers(-5, 5)), min_size=3, max_size=6))
    cols = [[int(i == j) if j <= i else draw(st.integers(-3, 3)) for j in range(3)] for i in range(3)]
    if draw(st.booleans()):
        cols.append(draw(st.lists(st.integers(-3, 3), min_size=3, max_size=3)))
    return cone_from_generators([mat_vec(cols, x) for x in points], ambient_rank=len(cols))


@st.composite
def large_polygon_cones(draw):
    """``(c, polygon, g)``: the cone over a lattice polygon with about 10^4
    to 10^5 points, given by its vertices ``polygon`` in the plane, carried
    by ``(1, y, z) -> T2 @ (1, a + U @ (y, z))`` into Z^3 with ``U`` a
    product of three shears with factors up to 2^13 (entries up to about
    2^40), ``a`` a translation and ``T2`` a shear of the first coordinate;
    ``g`` is 1 exactly on the image of the plane."""
    r = draw(st.integers(170, 300))
    corners = [(0, 0), (r, draw(st.integers(0, r // 2))), (draw(st.integers(0, r // 2)), r)]
    extra = draw(st.lists(st.tuples(st.integers(0, r), st.integers(0, r)), max_size=5))
    u = _shears(draw, 3, 2**13)
    a = draw(st.tuples(st.integers(-(2**40), 2**40), st.integers(-(2**40), 2**40)))
    k = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)))

    def carry(p):
        y = vadd(a, mat_vec(u, p))
        return (1 + k[0] * y[0] + k[1] * y[1],) + y

    points = corners + extra
    polygon = [(r[1], r[2]) for r in cone_from_generators([(1,) + p for p in points]).generators]
    return cone_from_generators([carry(p) for p in points]), polygon, (1, -k[0], -k[1])


# the 4 x 4 square at height one; the pulling triangulation cuts it along
# the diagonal from (1, 0, 0), whose three inner points lie in both halves
SQUARE = cone_from_generators([(1, 0, 0), (1, 4, 0), (1, 0, 4), (1, 4, 4)])

# a triangle of area 1 whose two long edges have lattice length 1 or 2
THIN = cone_from_generators([(1, 0, 0), (1, 2**40, 2), (1, 2**40 + 1, 2)])


class TestGeometricRules:
    @settings(deadline=None, max_examples=150)
    @given(large_plane_cones())
    @example(cone_from_generators([(1, 0), (1, 200)]))
    @example(cone_from_generators([(1, 0, 0), (1, 3, 0)]))
    # entries of 2^40, determinant 100
    @example(cone_from_generators([(2**40, 2**40 - 1), (2**40 - 100, 2**40 - 101)]))
    def test_plane_chain_matches_tuple_sieve(self, c):
        assume(c.dim == 2 and not _is_lattice_basis(_in_span(c)[0].generators, 2))
        with mock.patch.object(chowfan.monoids, "_hermite_box", _refused):
            _matches_oracle_with_and_without_out(c)

    def test_plane_chain_is_the_minimal_resolution(self):
        # in slope order, neighbours are lattice bases and b_{i-1} + b_{i+1}
        # is a_i b_i with a_i = det(b_{i-1}, b_{i+1}) >= 2
        def det(a, b):
            return a[0] * b[1] - a[1] * b[0]

        chain = sorted(_plane_chain(cone_from_generators([(1, 0), (23, 97)])), key=lambda x: Fraction(x[1], x[0]))
        assert chain[0] == (1, 0) and chain[-1] == (23, 97) and len(chain) > 3
        assert all(det(a, b) == 1 for a, b in zip(chain, chain[1:]))
        for a, b, c in zip(chain, chain[1:], chain[2:]):
            k = det(a, c)
            assert k >= 2 and vadd(a, c) == vscale(k, b)

    @settings(deadline=None, max_examples=150)
    @given(height_one_cones())
    @example(SQUARE)
    @example(cone_from_generators([(1, 0, 0), (1, 3, 0), (1, 0, 3), (1, 3, 3)]))
    @example(THIN)
    def test_height_one_points_match_tuple_sieve(self, c):
        assume(c.dim == 3 and not _is_lattice_basis(_in_span(c)[0].generators, 3))
        with _keyed_path_refused():
            _matches_oracle_with_and_without_out(c)

    def test_thin_triangle_takes_few_rows(self):
        # a scan over any lattice basis of the plane may cross 2^40 rows here
        n = 2**40
        with _keyed_path_refused():
            assert _hilbert_basis_full(THIN) == ((1, 0, 0), (1, n // 2, 1), (1, n, 2), (1, n + 1, 2))

    def test_height_one_points_build_no_key(self, monkeypatch):
        # the square's 25 points come from three mat_vec calls in all
        built = counted_calls(monkeypatch, "mat_vec")
        out = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
        with _keyed_path_refused():
            assert _hilbert_basis_full(SQUARE, out) == tuple(
                sorted((1, y, z, 1 + y + z) for y in range(5) for z in range(5))
            )
        assert len(built) <= 3

    @settings(deadline=None, max_examples=6)
    @given(large_polygon_cones())
    def test_large_polygons_satisfy_picks_theorem(self, case):
        c, polygon, g = case
        # Pick: #points = A + B/2 + 1, with A the area and B the boundary points
        centre = [sum(x) / len(polygon) for x in zip(*polygon)]
        ring = sorted(polygon, key=lambda p: atan2(p[1] - centre[1], p[0] - centre[0]))
        edges = list(zip(ring, ring[1:] + ring[:1]))
        twice_area = sum(p[0] * q[1] - p[1] * q[0] for p, q in edges)
        boundary = sum(gcd(q[0] - p[0], q[1] - p[1]) for p, q in edges)
        with _keyed_path_refused():
            basis = _hilbert_basis_full(c)
        assert 10**4 <= len(basis) == (twice_area + boundary) // 2 + 1 <= 10**5
        assert len(set(basis)) == len(basis)
        assert all(dot(g, x) == 1 for x in basis)
        assert all(map(c.contains, basis))

    def test_points_of_two_simplices_appear_once(self):
        boxes = [oracles.parallelepiped_points(s) for s in chowfan.monoids._triangulate(SQUARE)]
        found = [x for box in boxes for x in box if x[0] == 1]
        assert len(boxes) == 2 and len(found) == 21 + 3
        assert len(set(found)) == 21
        basis = _hilbert_basis_full(SQUARE)
        assert basis == tuple(sorted(product([1], range(5), range(5))))

    def test_cones_off_height_one_reach_the_sieve(self, monkeypatch):
        sieved = counted_calls(monkeypatch, "_sieve")
        for c in (MANY_BLOCKS[0], cone_from_generators([(1, 0, 0), (0, 1, 0), (1, 1, 2)])):
            assert c.dim == 3 and not _is_lattice_basis(c.generators, c.dim)
            assert solve_rational(c.generators, [1] * len(c.generators))[0] > 1
            del sieved[:]
            assert _hilbert_basis_full(c) == oracles.hilbert_basis_by_tuple_sieve(c)
            assert len(sieved) == 1


@st.composite
def lattice_basis_cones(draw):
    """The cone on 1-4 rows of a unimodular 4 x 4 matrix, a product of
    row additions, a row permutation and sign changes."""
    rows = [[int(i == j) for j in range(4)] for i in range(4)]
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.sampled_from([(i, j) for i in range(4) for j in range(4) if i != j]))
        a = draw(st.integers(-2, 2))
        rows[i] = [x + a * y for x, y in zip(rows[i], rows[j])]
    order = draw(st.permutations(range(4)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=4, max_size=4))
    k = draw(st.integers(1, 4))
    return cone_from_generators([[signs[i] * x for x in rows[order[i]]] for i in range(k)], ambient_rank=4)


class TestUnimodularExit:
    # cones of dimension 1-4 in Z^4, each facet 1 on one ray and 0 on the others
    CONES = (
        [(1, 0, 0, 0)],
        [(1, 0, 0, 0), (1, 1, 0, 0)],
        [(1, 0, 0, 0), (1, 1, 0, 0), (0, 2, 1, 0)],
        [(1, 0, 0, 0), (1, 1, 0, 0), (0, 2, 1, 0), (3, -1, 1, 1)],
    )
    # cones unimodular in their span lattice whose raw facet normals are not
    # primitive there: the raw value bounds are 2 and 4
    SPAN_UNIMODULAR = ([(1, 2)], [(1, 2, 0), (0, 1, 2)])
    # (rays, lattice rows, Hilbert basis): monoids whose cone, pulled back to
    # lattice coordinates, has rays on a basis of the lattice
    PULLED_BACK = (
        ([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)],
         ((0, 0, 0, 2), (0, 0, 2, 0), (0, 2, 0, 0), (2, 0, 0, 0))),
        ([(1, 1, 0, 0), (0, 0, 1, 0)], [(1, 1, 0, 0), (0, 0, 2, 0)], ((0, 0, 2, 0), (1, 1, 0, 0))),
        ([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], [(1, 1, 0, 0), (0, 0, 1, 1)],
         ((0, 0, 1, 1), (1, 1, 0, 0))),
        ([(1, 2, 3, 5)], [(1, 2, 3, 5)], ((1, 2, 3, 5),)),
    )

    @pytest.fixture
    def no_parallelepipeds(self, monkeypatch):
        """A cone cache of its own, and no Hermite box or box enumeration."""

        def refused(*args):
            raise AssertionError("a unimodular cone was triangulated")

        monkeypatch.setattr(cones, "_cone_cache", {})
        monkeypatch.setattr(chowfan.monoids, "_hermite_box", refused)
        monkeypatch.setattr(chowfan.monoids, "_parallelepiped_keys", refused)

    def test_cones_return_their_rays(self, no_parallelepipeds):
        for rays in self.CONES:
            c = cone_from_generators(rays)
            assert c.dim == len(rays) and _is_lattice_basis(_in_span(c)[0].generators, c.dim)
            assert _basis_of(c) == c.generators
            assert saturated_monoid(c, full_lattice(4)).hilbert_basis == c.generators

    def test_span_unimodular_cones_return_their_rays(self, no_parallelepipeds):
        for rays in self.SPAN_UNIMODULAR:
            c = cone_from_generators(rays)
            assert c.dim == len(rays) < c.ambient_rank
            assert max(sum(dot(h, r) for r in c.generators) for h in c.halfspaces) > 1
            assert _is_lattice_basis(_in_span(c)[0].generators, c.dim)
            assert _basis_of(c) == c.generators
            assert monoid_from_cone(c).hilbert_basis == c.generators

    def test_pulled_back_cones_return_their_rays(self, no_parallelepipeds):
        for rays, rows, basis in self.PULLED_BACK:
            m = saturated_monoid(cone_from_generators(rays), sublattice(4, rows))
            assert m.hilbert_basis == basis

    def test_unimodular_monoids_pull_no_cone_back(self, no_parallelepipeds, monkeypatch):
        # rule 1 reads the rays' coordinates in the group basis; only a
        # monoid it does not answer builds its pulled-back cone
        pulled = []
        real = chowfan.monoids._pull_back
        monkeypatch.setattr(chowfan.monoids, "_pull_back", lambda c, b: pulled.append(c) or real(c, b))
        monoids = [monoid_from_cone(cone_from_generators(rays)) for rays in self.CONES + self.SPAN_UNIMODULAR]
        monoids += [saturated_monoid(cone_from_generators(rays), sublattice(4, rows)) for rays, rows, _ in self.PULLED_BACK]
        assert all(m.hilbert_basis for m in monoids) and pulled == []
        plane = monoid_from_cone(cone_from_generators([(1, 0), (1, 2)]))
        assert plane.hilbert_basis == ((1, 0), (1, 1), (1, 2)) and pulled == [plane.cone]

    @settings(deadline=None, max_examples=150)
    @given(st.one_of(lattice_basis_cones(), _pointed_cones(4, 2, 2, 5), rank3_cones))
    @example(cone_from_generators([(1, 2)]))
    @example(cone_from_generators([(1, 2, 0), (0, 1, 2)]))
    @example(cone_from_generators([(2, 0, 0), (0, 2, 0)]))
    def test_top_one_means_a_lattice_basis(self, c):
        assume(c.is_strictly_convex and c.dim)
        cy, _ = _in_span(c)
        if len(c.generators) == c.dim and set(oracles.elementary_divisors_by_minors(c.generators)) == {1}:
            assert _is_lattice_basis(cy.generators, cy.dim)  # a cone on a basis of its span lattice always exits
        if _is_lattice_basis(cy.generators, cy.dim):
            assert len(c.generators) == c.dim
            assert oracles.elementary_divisors_by_minors(c.generators) == (1,) * c.dim
            assert _basis_of(c) == oracles.hilbert_basis_by_tuple_sieve(c) == c.generators


# 1-3 linearly independent rank-3 vectors, entries in [-3, 3]
rank3_simplices = st.lists(rank3_vectors, min_size=1, max_size=3).filter(
    lambda rays: oracles.matrix_rank(rays) == len(rays)
)


class TestParallelepipeds:
    @settings(deadline=None, max_examples=150)
    @given(rank3_simplices)
    @example([(1, 1, 0), (1, -1, 0)])
    @example([(1, 2, 3), (2, -1, 3)])
    @example([(2, 4, 6)])
    def test_matches_span_coordinates_oracle(self, rays):
        rays = tuple(rays)
        # the box of the rays' coordinates in their span lattice, where they
        # span the whole space
        span = _span_lattice(cone_from_generators(rays)).basis
        det, factors = _hermite_box(tuple(coordinates_in(span, r) for r in rays))
        # injective on points with entries in [-9, 9], the parallelepiped's box
        functional = (1, 1000, 1000000)
        keys = list(_parallelepiped_keys([dot(functional, r) for r in rays], det, factors)) if det > 1 else [0]
        assert len(keys) == det and keys[0] == 0
        for points in (
            oracles.parallelepiped_points_by_span_coordinates(rays, 3),
            oracles.parallelepiped_points(rays),
        ):
            assert sorted(keys[1:]) == sorted(dot(functional, x) for x in points)


class TestMembership:
    def test_examples(self):
        m = monoid_from_cone(cone_from_generators([(1, 0), (1, 2)]))
        assert member(m, (2, 2))
        assert not member(m, (0, 1))
        assert member(m, (0, 0))

    def test_agrees_with_exhaustive_search(self):
        rng = random.Random(9)
        m = monoid_from_cone(cone_from_generators([(1, 0), (2, 3)]))
        for _ in range(60):
            v = (rng.randrange(0, 9), rng.randrange(-2, 9))
            assert member(m, v) == oracles.exhaustive_member(
                m.hilbert_basis, v, bound=10
            )


class TestDuals:
    def test_self_dual(self):
        m = monoid_from_cone(cone_from_generators([(1, 0), (0, 1)]))
        assert dual_monoid(m).hilbert_basis == ((0, 1), (1, 0))

    def test_singular_dual_needs_interior_point(self):
        m = monoid_from_cone(cone_from_generators([(1, 0), (1, 2)]))
        d = dual_monoid(m)
        # the dual cone has rays (0,1) and (2,-1) and lattice index two, so
        # its Hilbert basis picks up the interior vector (1,0) as well
        assert d.hilbert_basis == ((0, 1), (1, 0), (2, -1))

    def test_zero_monoid_dual_is_group(self):
        d = dual_monoid(monoid_from_cone(zero_cone(1)))
        assert d.units.basis == ((1,),)
        assert set(d.generators()) == {(1,), (-1,)}

    def test_double_dual_randomized(self):
        rng = random.Random(13)
        count = 0
        while count < 30:
            rays = [
                tuple(rng.randrange(-3, 4) for _ in range(2))
                for _ in range(rng.randrange(1, 4))
            ]
            rays = [r for r in rays if any(r)]
            c = cone_from_generators(rays, ambient_rank=2)
            if c.lineality_dim or c.dim != 2:
                continue
            m = monoid_from_cone(c)
            assert dual_monoid(dual_monoid(m)) == m
            count += 1

    def test_group_coordinates(self):
        m = monoid_from_cone(
            cone_from_generators([(1, 0), (0, 1)]), sublattice(2, [(2, 0), (0, 1)])
        )
        coords, basis, hb = oracles.group_coordinates(m)
        assert hb == coords.hilbert_basis == ((0, 1), (1, 0))
        assert basis == ((2, 0), (0, 1))


class TestImagesAndFaces:
    def test_restrict_to_face_examples(self):
        m = monoid_from_cone(cone_from_generators([(1, 0), (0, 1)]))
        axis = cone_from_generators([(1, 0)], ambient_rank=2)
        assert restrict_to_face(m, axis).hilbert_basis == ((1, 0),)
        sing = monoid_from_cone(cone_from_generators([(1, 0), (1, 2)]))
        face = cone_from_generators([(1, 2)], ambient_rank=2)
        assert restrict_to_face(sing, face).hilbert_basis == ((1, 2),)
        assert restrict_to_face(m, zero_cone(2)).hilbert_basis == ()
        with pytest.raises(NotAFace):
            restrict_to_face(m, cone_from_generators([(1, 1)], ambient_rank=2))

    def test_face_compatibility_on_fixture_fans(self):
        for fan in (p2_fan(), p1p1_fan()):
            for c in fan.cones:
                m = monoid_from_cone(c)
                for f in all_faces(c):
                    assert restrict_to_face(m, f) == monoid_from_cone(f)


class TestHoms:
    def test_valid_hom(self):
        src = monoid_from_cone(cone_from_generators([(1, 0), (1, 2)]))
        dst = monoid_from_cone(cone_from_generators([(1, 0), (0, 1)]))
        h = monoid_hom(((1, 0), (0, 1)), src, dst)
        assert h.apply((1, 2)) == (1, 2)

    def test_invalid_hom_rejected(self):
        src = monoid_from_cone(cone_from_generators([(1, 0), (0, 1)]))
        dst = monoid_from_cone(cone_from_generators([(1, 0), (1, 2)]))
        with pytest.raises(ValueError):
            monoid_hom(((1, 0), (0, 1)), src, dst)

    def test_wrong_shape_refused(self):
        plane = monoid_from_cone(cone_from_generators([(1, 0), (0, 1)]))
        line = monoid_from_cone(cone_from_generators([(1,)]))
        with pytest.raises(ValueError, match="1 x 2 matrix"):
            monoid_hom(((1,),), plane, line)

    def test_matches_per_generator_oracle(self):
        source = saturated_monoid(cone_from_generators([(1, 0), (1, 2)]), full_lattice(2))
        target = saturated_monoid(source.cone, sublattice(2, [(1, 0), (0, 2)]))
        # every ray maps into the target, but the group vector (0, 1) does not
        assert all(member(target, r) for r in source.cone.generators)
        assert not target.group.contains((0, 1))
        verdicts = set()

        @settings(deadline=None, max_examples=200)
        @given(monoid_maps())
        @example((((1, 0), (0, 1)), source, target))
        def check(case):
            verdicts.add(check_monoid_hom(*case))

        check()
        assert verdicts == {True, False}

    def test_checks_rays_and_group_only(self, monkeypatch):
        source = monoid_from_cone(cone_from_generators([(1, 0), (1, 7)]))
        quadrant = monoid_from_cone(cone_from_generators([(1, 0), (0, 1)]))
        assert len(source.hilbert_basis) == 8
        calls = {"cone": 0, "lattice": 0}

        def counted(kind, real):
            def wrapped(self, v):
                calls[kind] += 1
                return real(self, v)

            return wrapped

        monkeypatch.setattr(Cone, "contains", counted("cone", Cone.contains))
        monkeypatch.setattr(Sublattice, "contains", counted("lattice", Sublattice.contains))
        monoid_hom(((1, 0), (0, 1)), source, quadrant)
        assert calls["cone"] <= 2 and calls["lattice"] <= 2

    def test_rays_and_group_basis_are_each_mapped_once(self, monkeypatch):
        # the monoid is free on (2,0,0), (0,3,0), (0,0,5), but that takes its
        # Hilbert basis to know: its rays and its group basis are mapped
        # instead, each vector once, and no basis is built
        octant = cone_from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        source = saturated_monoid(octant, sublattice(3, [(2, 0, 0), (0, 3, 0), (0, 0, 5)]))
        swap = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
        target = saturated_monoid(octant, full_lattice(3))
        coarse = saturated_monoid(octant, sublattice(3, [(2, 0, 0), (0, 1, 0), (0, 0, 1)]))
        mapped = []
        real = chowfan.monoids.mat_vec

        def counted(m, v):
            mapped.append(v)
            return real(m, v)

        real_basis, built = chowfan.monoids._hilbert_basis_full, []
        monkeypatch.setattr(chowfan.monoids, "_hilbert_basis_full", lambda *a: built.append(a) or real_basis(*a))
        monkeypatch.setattr(chowfan.monoids, "mat_vec", counted)
        monoid_hom(swap, source, target)
        assert sorted(mapped) == sorted(octant.generators + source.group.basis)
        assert built == []
        # on the full lattice the group basis is the rays: three images
        mapped.clear()
        monoid_hom(swap, target, target)
        assert sorted(mapped) == sorted(octant.generators)
        # the same images refuse a target lattice that misses one of them
        mapped.clear()
        with pytest.raises(MonoidNotMapped) as err:
            monoid_hom(swap, source, coarse)
        assert err.value.generator == (0, 3, 0) and err.value.image == (3, 0, 0)
        assert err.value.generator == oracles.monoid_map_escape_by_generators(swap, source, coarse)


def _saturated_monoids(rank):
    """``saturated_monoid`` of a cone of 1-4 rays and at most one line, with
    entries in [-3, 3], and a lattice of index at most 6 or, in rank 3, a
    rank-2 piece of one."""
    vectors = st.tuples(*[st.integers(-3, 3)] * rank).filter(any)
    cones = st.tuples(
        st.lists(vectors, min_size=1, max_size=4), st.lists(vectors, max_size=1)
    ).map(lambda t: cone_from_generators(t[0], t[1], ambient_rank=rank))

    def triangular(t):
        diagonal, above, piece = t
        entries = iter(above)
        rows = [
            tuple(diagonal[i] if j == i else next(entries) if j > i else 0 for j in range(rank))
            for i in range(rank)
        ]
        return sublattice(rank, rows[:2] if piece and rank == 3 else rows)

    lattices = st.tuples(
        st.sampled_from([d for d in product(range(1, 7), repeat=rank) if prod(d) <= 6]),
        st.lists(st.integers(-3, 3), min_size=rank * (rank - 1) // 2, max_size=rank * (rank - 1) // 2),
        st.booleans(),
    ).map(triangular)
    return st.builds(saturated_monoid, cones, lattices)


@st.composite
def monoid_maps(draw):
    """``(matrix, source, target)``: a source of rank 2 or 3, a target of
    rank 1-3, and a matrix of that shape with entries in [-2, 2]."""
    n = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(1, 3))
    matrix = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n), min_size=m, max_size=m))
    return tuple(matrix), draw(_saturated_monoids(n)), draw(_saturated_monoids(m))
