import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

import chowfan.stacks
from chowfan import intlinalg
from chowfan.intlinalg import (
    NotASublattice,
    NotSaturated,
    Sublattice,
    coordinates_in,
    elementary_divisors,
    full_lattice,
    hermite_normal_form,
    identity_matrix,
    image_lattice,
    integer_kernel,
    is_zero,
    lattice_index,
    lattice_intersection,
    lattice_sum,
    mat,
    mat_mul,
    mat_vec,
    preimage_lattice,
    quotient_map,
    row_lattice_hnf,
    saturate,
    solve_rational,
    sublattice,
    unimodular_inverse,
    vadd,
    vec,
    vec_gcd,
    primitive,
    vscale,
    vsub,
    zero_sublattice,
)

import oracles


small_matrices = st.integers(1, 3).flatmap(
    lambda rows: st.integers(1, 3).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
)


# Matrices on which the earlier Smith loop did not return in 30 s: the six
# facet normals of the cone on (2,-4,-3,4), (3,-4,-1,-3), (3,-1,4,2),
# (3,0,-2,3), (3,2,-3,0), and a 2 x 4 matrix of 80-bit entries.
STALLED_FACETS = [
    [-13, -75, -63, 108], [22, 3, 24, 10], [23, -57, -15, -33],
    [38, -21, 24, -22], [65, -31, -18, -77], [141, 125, -74, -1],
]
STALLED_WIDE = [
    [575822878546415673837380, 731570804745402152762101, -42069844295459649324013, -509000732513775332611141],
    [-578072605409891981235012, -90699707508681666394800, 99431712200191760218382, -826690878106292408482512],
]
# Entries: small ones, so that zero vectors, shared factors and lattice
# members are common, and ones beyond 2**64.
entries = st.one_of(
    st.integers(-3, 3), st.integers(-(2**80), 2**80), st.sampled_from([2**64, -(2**64) - 1])
)
large_matrices = st.tuples(st.integers(0, 6), st.integers(0, 4)).flatmap(
    lambda shape: st.lists(
        st.lists(entries, min_size=shape[1], max_size=shape[1]),
        min_size=shape[0], max_size=shape[0],
    )
)


def _with_zero_and_repeated_rows(shape):
    rows, cols = shape
    row = st.lists(st.integers(-9, 9), min_size=cols, max_size=cols)
    base = st.lists(st.one_of(row, st.just([0] * cols)), min_size=rows, max_size=rows)
    return base.flatmap(
        lambda b: st.lists(st.sampled_from(b), max_size=3).map(lambda extra: b + extra) if b else st.just(b)
    )


# up to 8 rows (tall) or 6 columns (wide), with zero rows and repeated rows
degenerate_matrices = st.tuples(st.integers(0, 8), st.integers(1, 6)).flatmap(_with_zero_and_repeated_rows)


class TestHermite:
    def test_identity(self):
        h, u = hermite_normal_form([[1, 0], [0, 1]])
        assert h == ((1, 0), (0, 1)) and u == ((1, 0), (0, 1))

    def test_worked_example(self):
        h, u = hermite_normal_form([[2, 4], [1, 1]])
        assert h == ((1, 1), (0, 2))
        assert mat_mul(u, ((2, 4), (1, 1))) == h

    def test_zero(self):
        h, u = hermite_normal_form([[0, 0], [0, 0]])
        assert h == ((0, 0), (0, 0)) and u == ((1, 0), (0, 1))

    @settings(deadline=None, max_examples=120)
    @given(small_matrices)
    def test_idempotent_and_transform(self, rows):
        h, u = hermite_normal_form(rows)
        assert mat_mul(u, mat(rows)) == h
        assert oracles.gcd_of_minors(u, len(u)) == 1  # |det U| = 1
        basis = row_lattice_hnf(rows)
        assert h == basis + ((0,) * len(rows[0]),) * (len(rows) - len(basis))
        h2, _ = hermite_normal_form(h)
        assert h2 == h

    @settings(deadline=None, max_examples=80)
    @given(small_matrices)
    def test_matches_schoolbook(self, rows):
        ours = row_lattice_hnf(rows)
        theirs = oracles.schoolbook_hnf(rows)
        assert ours == theirs

    @settings(deadline=None, max_examples=200)
    @given(degenerate_matrices)
    @example([[0, 0, 0], [1, 2, 3], [0, 0, 0], [1, 2, 3]])
    @example([[2], [4], [0], [-6], [2], [3], [0], [5]])
    @example([[0, 2, 4, 6, 8, 10], [0, 3, 5, 7, 9, 11], [0, 2, 4, 6, 8, 10]])
    def test_matches_schoolbook_with_zero_and_repeated_rows(self, rows):
        assert row_lattice_hnf(rows) == oracles.schoolbook_hnf(rows)

    def test_ragged_rows_raise_naming_the_row(self):
        with pytest.raises(ValueError, match=r"^row \(3, 4, 5\) does not have length 2$"):
            hermite_normal_form([[1, 2], [3, 4, 5]])
        with pytest.raises(ValueError, match=r"^row \(3,\) does not have length 2$"):
            hermite_normal_form([[1, 2], [3]])

    @settings(deadline=None, max_examples=80)
    @given(small_matrices)
    def test_unimodular_transform(self, rows):
        _, u = hermite_normal_form(rows)
        inv = unimodular_inverse(u)
        n = len(u)
        assert mat_mul(u, inv) == identity_matrix(n)


# (m, free target, planted solution, whether to use the planted target)
linear_systems = st.integers(1, 4).flatmap(
    lambda rows: st.integers(1, 5).flatmap(
        lambda cols: st.tuples(
            st.lists(
                st.lists(st.integers(-3, 3), min_size=cols, max_size=cols),
                min_size=rows,
                max_size=rows,
            ),
            st.lists(st.integers(-3, 3), min_size=rows, max_size=rows),
            st.lists(st.integers(-3, 3), min_size=cols, max_size=cols),
            st.booleans(),
        )
    )
)

# (n, row operations (i, j, c, swap) applied to the identity)
elementary_products = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.integers(-3, 3),
                st.booleans(),
            ),
            max_size=8,
        ),
    )
)


# linear_systems with entries of at most 80 bits
large_linear_systems = st.tuples(st.integers(1, 6), st.integers(1, 4)).flatmap(
    lambda shape: st.tuples(
        st.lists(st.lists(entries, min_size=shape[1], max_size=shape[1]),
                 min_size=shape[0], max_size=shape[0]),
        st.lists(entries, min_size=shape[0], max_size=shape[0]),
        st.lists(entries, min_size=shape[1], max_size=shape[1]),
        st.booleans(),
    )
)


class TestRationalKernel:
    @settings(deadline=None, max_examples=300)
    @given(st.one_of(linear_systems, large_linear_systems))
    @example((STALLED_FACETS, [1, 0, 0, 0, 0, 0], [3, -1, 4, 1], True))
    @example((STALLED_FACETS, [1, 0, 0, 0, 0, 0], [3, -1, 4, 1], False))
    @example((STALLED_WIDE, [2**80, -1], [1, 2, 3, 4], True))
    @example((STALLED_WIDE, [2**80, -1], [1, 2, 3, 4], False))
    def test_solve_rational_property(self, system):
        rows, free_target, x, planted = system
        m = mat(rows)
        target = mat_vec(m, x) if planted else tuple(free_target)
        rank = oracles.matrix_rank(m)
        solved = solve_rational(m, target)
        augmented_rank = oracles.matrix_rank([r + (t,) for r, t in zip(m, target)])
        if solved is None:
            assert augmented_rank == rank + 1
            return
        assert augmented_rank == rank
        d, sol = solved
        assert d > 0 and all(type(e) is int for e in (d, *sol))
        assert mat_vec(m, sol) == tuple(d * t for t in target)
        assert gcd(d, *sol) == 1
        if rank == len(m[0]):
            particular, _ = oracles.gauss_jordan_solve(m, target, len(m[0]))
            assert tuple(Fraction(e, d) for e in sol) == particular

    def test_solve_rational_without_rows(self):
        assert solve_rational((), ()) == (1, ())
        assert solve_rational(((), ()), (0, 0)) == (1, ())
        assert solve_rational(((), ()), (0, 1)) is None

    @settings(deadline=None, max_examples=100)
    @given(elementary_products)
    def test_unimodular_inverse_of_elementary_products(self, data):
        n, ops = data
        u = [list(r) for r in identity_matrix(n)]
        for i, j, c, swap in ops:
            if swap:
                u[i], u[j] = u[j], u[i]
            elif i != j:
                u[i] = [a + c * b for a, b in zip(u[i], u[j])]
            else:
                u[i] = [-a for a in u[i]]
        u = mat(u)
        assert mat_mul(unimodular_inverse(u), u) == identity_matrix(n)

    # malformed input raises before a zip transpose can truncate it
    def test_integer_kernel_of_ragged_rows_raises_naming_the_row(self):
        with pytest.raises(ValueError, match=r"^row \(4, 5\) does not have length 3$"):
            integer_kernel([[1, 2, 3], [4, 5]])
        with pytest.raises(ValueError, match=r"^row \(1, 2\) does not have length 3$"):
            integer_kernel([[1, 2]], 3)

    def test_solve_rational_with_a_long_target_raises_naming_it(self):
        with pytest.raises(ValueError, match=r"^target \(1, 1, 1\) does not have length 2$"):
            solve_rational([[1, 2], [3, 4]], [1, 1, 1])

    def test_solve_rational_with_a_short_target_raises_naming_it(self):
        with pytest.raises(ValueError, match=r"^target \(1,\) does not have length 2$"):
            solve_rational([[1, 2], [3, 4]], [1])

    def test_solve_rational_of_ragged_rows_raises_naming_the_row(self):
        with pytest.raises(ValueError, match=r"^row \(3,\) does not have length 2$"):
            solve_rational([[1, 2], [3]], [1, 1])

    def test_unimodular_inverse_of_a_non_unimodular_matrix_raises(self):
        # a ValueError, not an assert, so it holds under python -O too
        with pytest.raises(ValueError, match=r"^matrix \(\(2, 0\), \(0, 1\)\) is not unimodular$"):
            unimodular_inverse([[2, 0], [0, 1]])


class TestSmith:
    """The Smith diagonal as ``elementary_divisors`` reads it off alternating
    row and column Hermite forms, against the earlier Smith loop (now
    ``oracles.smith_normal_form``) and the gcds of the minors."""

    def test_identity(self):
        assert elementary_divisors([[1, 0], [0, 1]]) == (1, 1)

    def test_diag_2_3(self):
        assert elementary_divisors([[2, 0], [0, 3]]) == (1, 6)

    def test_shear(self):
        assert elementary_divisors([[1, 0], [1, 2]]) == (1, 2)

    @settings(deadline=None, max_examples=100)
    @given(small_matrices)
    def test_transforms_reproduce(self, rows):
        s, u, v = oracles.smith_normal_form(rows)
        assert mat_mul(mat_mul(u, mat(rows)), v) == s
        diag = tuple(s[i][i] for i in range(min(len(s), len(s[0]))) if s[i][i] != 0)
        assert elementary_divisors(rows) == diag

    @settings(deadline=None, max_examples=150)
    @given(st.one_of(small_matrices, large_matrices))
    @example(STALLED_FACETS)
    @example(STALLED_WIDE)
    def test_divisors_match_minor_gcds(self, rows):
        assert elementary_divisors(rows) == oracles.elementary_divisors_by_minors(rows)

    @settings(deadline=None, max_examples=100)
    @given(small_matrices)
    def test_divisibility_chain(self, rows):
        diag = elementary_divisors(rows)
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0


class TestSublattices:
    def test_saturate_examples(self):
        assert saturate(sublattice(2, [[2, 0]])).basis == ((1, 0),)
        assert saturate(sublattice(2, [[1, 2]])).basis == ((1, 2),)
        z = zero_sublattice(2)
        assert saturate(z) == z

    def test_saturate_idempotent_and_box_oracle(self):
        rng = random.Random(5)
        for _ in range(40):
            gens = [
                tuple(rng.randrange(-4, 5) for _ in range(3))
                for _ in range(rng.randrange(1, 3))
            ]
            s = sublattice(3, gens)
            sat = saturate(s)
            assert saturate(sat) == sat
            if s.rank:
                assert lattice_index(s, sat) is not None
                box_pts = oracles.saturation_by_box(s.basis, 3, box=4)
                for p in box_pts:
                    assert sat.contains(p), (s.basis, p)

    def test_sum_examples(self):
        a, b = sublattice(2, [[1, 0]]), sublattice(2, [[0, 1]])
        assert lattice_sum(a, b) == full_lattice(2)
        c = lattice_sum(sublattice(2, [[1, 2]]), sublattice(2, [[1, 0]]))
        assert c.basis == ((1, 0), (0, 2))
        assert lattice_index(c, full_lattice(2)) == 2
        assert lattice_sum(a, zero_sublattice(2)) == a

    def test_intersection_examples(self):
        a, b = sublattice(2, [[1, 0]]), sublattice(2, [[0, 1]])
        assert lattice_intersection(a, b).rank == 0
        d = sublattice(2, [[1, 1]])
        assert lattice_intersection(full_lattice(2), d) == d
        two = sublattice(2, [[2, 0], [0, 2]])
        three = sublattice(2, [[3, 0], [0, 3]])
        assert lattice_intersection(two, three).basis == ((6, 0), (0, 6))

    def test_index_examples(self):
        assert lattice_index(sublattice(2, [[1, 0], [1, 2]]), full_lattice(2)) == 2
        assert lattice_index(full_lattice(2), full_lattice(2)) == 1
        assert lattice_index(sublattice(2, [[1, 0]]), full_lattice(2)) is None
        with pytest.raises(NotASublattice):
            lattice_index(sublattice(2, [[1, 1]]), sublattice(2, [[2, 0], [0, 2]]))

    def test_index_matches_coset_count(self):
        rng = random.Random(11)
        for _ in range(25):
            sub_gens = [
                tuple(rng.randrange(-3, 4) for _ in range(2)) for _ in range(2)
            ]
            s = sublattice(2, sub_gens)
            if s.rank != 2:
                continue
            idx = lattice_index(s, full_lattice(2))
            assert idx == oracles.coset_count(s.basis, ((1, 0), (0, 1)))

    def test_kernel_is_saturated(self):
        k = integer_kernel(((2, 4),), 2)
        assert k == ((2, -1),)
        assert saturate(Sublattice(2, k)).basis == k

    @settings(deadline=None, max_examples=300)
    @given(
        st.integers(1, 6).flatmap(
            lambda cols: st.tuples(
                st.just(cols),
                st.lists(
                    st.lists(st.integers(-4, 4), min_size=cols, max_size=cols), max_size=6
                ),
            )
        )
    )
    def test_kernel_matches_two_hermite_passes(self, data):
        ncols, rows = data
        k = integer_kernel(rows, ncols)
        assert k == oracles.integer_kernel_by_two_hermite_passes(rows, ncols)
        assert all(is_zero(mat_vec(rows, x)) for x in k)

    def test_image_and_preimage(self):
        p = ((0, 1),)
        s = sublattice(2, [[0, 2]])
        assert image_lattice(p, s).basis == ((2,),)
        pre = preimage_lattice(p, 2, sublattice(1, [[2]]))
        assert pre.contains((5, 2)) and not pre.contains((5, 1))


class TestQuotientMap:
    def test_horizontal_kernel(self):
        p = quotient_map(2, sublattice(2, [[1, 0]]))
        assert p.matrix == ((0, 1),)
        assert p.apply((7, 3)) == (3,)
        assert p.apply(p.section[0]) == (1,)

    def test_diagonal_kernel(self):
        p = quotient_map(2, sublattice(2, [[1, 1]]))
        assert p.apply((1, 1)) == (0,)
        assert abs(p.apply((1, 0))[0]) == 1
        assert p.apply(p.lift((5,))) == (5,)

    def test_zero_kernel_is_identity(self):
        p = quotient_map(3, zero_sublattice(3))
        assert p.matrix == identity_matrix(3)

    def test_requires_saturated(self):
        with pytest.raises(NotSaturated):
            quotient_map(2, sublattice(2, [[2, 0]]))

    def test_internal_checks_raise_under_optimisation(self, monkeypatch):
        # raised, not asserted, so ``python -O`` keeps them; stacks re-exports the class
        assert chowfan.stacks.InternalConsistencyError is intlinalg.InternalConsistencyError
        with pytest.raises(intlinalg.InternalConsistencyError, match=r"^pivot 2 of the reduction of \[\(2, 0\)\] is not a unit$"):
            intlinalg._unit_pivot_transform(((2, 0),), 2)
        monkeypatch.setattr(intlinalg, "_unit_pivot_transform", lambda basis, n: identity_matrix(n))
        with pytest.raises(intlinalg.InternalConsistencyError, match=r"^kernel vector \(1, 1\) maps to \(1,\), not to zero$"):
            quotient_map(2, sublattice(2, [[1, 1]]))

    def test_surjectivity_and_kernel_on_random_input(self):
        rng = random.Random(3)
        for _ in range(30):
            gens = [
                tuple(rng.randrange(-4, 5) for _ in range(3))
                for _ in range(rng.randrange(1, 3))
            ]
            s = saturate(sublattice(3, gens))
            p = quotient_map(3, s)
            for g in s.basis:
                assert p.apply(g) == tuple(0 for _ in range(p.target_rank))
            # surjective: normal form of the matrix is (I | 0)
            assert elementary_divisors(p.matrix) == (1,) * p.target_rank
            # the section splits the projection
            for v in [(1,) + (0,) * (p.target_rank - 1)] if p.target_rank else []:
                assert p.apply(p.lift(v)) == v

    # generators of at most 80 bits; the pivot rule itself can still stall on
    # some saturated kernels with larger entries
    @settings(deadline=None, max_examples=300)
    @given(st.integers(0, 6).flatmap(
        lambda r: st.tuples(
            st.just(r),
            st.lists(
                st.lists(st.one_of(st.integers(-3, 3), st.integers(-(2**80), 2**80)), min_size=r, max_size=r),
                max_size=r,
            ),
            st.booleans(),
        )
    ))
    # unsaturated, and refused before the reduction: the pivot rule's Euclid
    # steps take about 20 s on it
    @example((5, [
        [1, 0, 1125251388496282109927, -1687877082744422601342, 9223372201026201424],
        [0, 2, 2232056032918854662081, -3348084049378280875263, 9223372365175365794],
        [0, 0, 2250502776992564219856, -3375754165488845202687, 328342494932],
        [0, 0, 0, 0, 18446744073709551739],
    ], False))
    @example((3, [[1, 2, 2], [0, 5, 6]], True))
    @example((3, [[2, 0, 0]], False))
    @example((0, [], False))
    def test_matches_completion_oracle(self, case):
        r, gens, saturated = case
        s = sublattice(r, gens)
        if saturated:
            s = saturate(s)
        expected = oracles.quotient_map_by_completion(r, s)
        if expected is None:
            with pytest.raises(NotSaturated):
                quotient_map(r, s)
        else:
            p = quotient_map(r, s)
            assert (p.matrix, p.section) == expected


vectors = st.lists(entries, max_size=5)
vector_pairs = st.integers(0, 5).flatmap(
    lambda n: st.tuples(*[st.lists(entries, min_size=n, max_size=n)] * 2)
)
matrices = st.tuples(st.integers(0, 4), st.integers(0, 4)).flatmap(
    lambda shape: st.lists(
        st.lists(entries, min_size=shape[1], max_size=shape[1]),
        min_size=shape[0],
        max_size=shape[0],
    )
)
BIG = 2**64 + 3


def _same(new, old):
    """Equal values of equal types, entry by entry."""
    assert new == old and type(new) is type(old)
    if isinstance(new, tuple):
        for x, y in zip(new, old):
            _same(x, y)


class TestKernels:
    """Each vector and matrix helper against its earlier generator form."""

    @settings(max_examples=300)
    @given(vectors)
    @example([])
    @example([0, 0, 0])
    @example([0, -BIG, 2 * BIG])
    @example([-6, 4, -10])
    def test_vector_helpers(self, v):
        _same(vec(v), oracles.vec_by_generator(v))
        _same(is_zero(v), oracles.is_zero_by_generator(v))
        _same(vec_gcd(v), oracles.vec_gcd_by_loop(v))
        _same(primitive(v), oracles.primitive_by_generator(v))
        _same(vscale(-BIG, v), oracles.vscale_by_generator(-BIG, v))

    @settings(max_examples=300)
    @given(vector_pairs)
    @example(([], []))
    @example(([0, 0], [0, 0]))
    @example(([BIG, -1], [-BIG, BIG]))
    def test_vector_arithmetic(self, pair):
        a, b = pair
        _same(vadd(a, b), oracles.vadd_by_generator(a, b))
        _same(vsub(a, b), oracles.vsub_by_generator(a, b))

    @settings(max_examples=300)
    @given(matrices, vectors)
    @example([], [])
    @example([[0, 0], [0, 0]], [0, 0])
    @example([[BIG, -BIG], [-1, 2]], [BIG, 3])
    def test_matrix_helpers(self, m, v):
        v = (v + [0] * 4)[: len(m[0]) if m else 0]
        _same(mat(m), oracles.mat_by_generator(m))
        _same(mat_vec(m, v), oracles.mat_vec_by_generator(m, v))
        t = [list(r) for r in zip(*m)]
        _same(mat_mul(m, t), oracles.mat_mul_by_generator(m, t))

    @settings(max_examples=300)
    @given(matrices, vectors)
    @example([], [])
    @example([[0, 0, 0]], [0, 0, 0])
    @example([[2, BIG], [0, 0], [0, 4]], [4, 2 * BIG + 8])
    def test_coordinates_in(self, rows, v):
        ncols = len(rows[0]) if rows else len(v)
        v = (v + [0] * 4)[:ncols]
        basis = row_lattice_hnf(rows) + tuple(tuple(0 for _ in r) for r in rows[:1])
        _same(coordinates_in(basis, v), oracles.coordinates_in_by_scan(basis, v))
        member = tuple(map(sum, zip(*basis))) if basis else ()
        _same(coordinates_in(basis, member), oracles.coordinates_in_by_scan(basis, member))

    @settings(max_examples=200)
    @given(small_matrices)
    @example([])
    @example([[0, 0], [0, 0]])
    @example([[BIG, 1], [-BIG, 2]])
    @example([[2**64, 0, 3], [0, 0, 0]])
    def test_normal_forms_return_tuples_of_ints(self, rows):
        _same(row_lattice_hnf(rows), mat(row_lattice_hnf(rows)))
        for part in hermite_normal_form(rows):
            _same(part, mat(part))
        _same(elementary_divisors(rows), vec(elementary_divisors(rows)))

    def test_identity_matrix_is_shared_and_immutable(self):
        for n in range(8):
            eye = identity_matrix(n)
            _same(eye, oracles.identity_matrix_by_generator(n))
            assert identity_matrix(n) is eye
            assert all(type(row) is tuple for row in eye)
        with pytest.raises(TypeError):
            identity_matrix(3)[0][0] = 5

    def test_no_caller_mutates_the_identity(self):
        # the normal forms copy the identity into working rows and eliminate
        rows = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
        elementary_divisors(rows)
        solve_rational(rows, [2, -6, 10])
        hermite_normal_form(rows)
        integer_kernel([[1, 2, 3]], 3)
        unimodular_inverse(((1, 1, 0), (0, 1, 0), (0, 0, 1)))
        quotient_map(3, sublattice(3, [[1, 1, 1]]))
        for n in range(8):
            _same(identity_matrix(n), oracles.identity_matrix_by_generator(n))
