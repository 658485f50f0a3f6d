from itertools import product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import chowfan.verify
from chowfan.chow import chow_quotient
from chowfan.cones import cone_from_generators, facets, fan_from_cones
from chowfan.family import VerificationFailed, universal_family
from chowfan.intlinalg import Sublattice, dot, mat_vec, sublattice, transpose, vadd, zero_sublattice
from chowfan.monoids import MonoidHom, dual_monoid, monoid_from_cone, monoid_hom, saturated_monoid
from chowfan.stacks import ToricStackDatum
from chowfan.verify import (
    check_basic_monoid,
    check_equidimensional,
    check_family_integral,
    check_integral,
    check_reduced,
    dual_projection_hom,
    equidimensional_report,
    reduced_report,
)

from conftest import corpus, p2_fan, p1p1_fan
import oracles


def _n(rank):
    if rank == 1:
        return monoid_from_cone(cone_from_generators([(1,)]))
    return monoid_from_cone(cone_from_generators([(1, 0), (0, 1)]))


def _vectors(rank, **kw):
    return st.lists(st.tuples(*[st.integers(-2, 2)] * rank), **kw)


@st.composite
def pointed_maps(draw):
    """A map of pointed saturated monoids of ranks 1-3: the source cone on
    1-4 random rays (often not full-dimensional) in a lattice of index 1 or
    2, the target cone spanned by the rays' images and at most one more
    vector.  Maps such as the addition map N^2 -> N are not integral."""
    rs = draw(st.integers(1, 3))
    rt = draw(st.integers(1, 3) | st.integers(1, rs))  # more maps that collapse
    rays = draw(_vectors(rs, min_size=1, max_size=4))
    source_cone = cone_from_generators(rays, ambient_rank=rs)
    assume(source_cone.dim > 0 and source_cone.is_strictly_convex)
    matrix = tuple(draw(_vectors(rs, min_size=rt, max_size=rt)))
    extra = draw(_vectors(rt, max_size=1))
    target_cone = cone_from_generators([mat_vec(matrix, r) for r in rays] + extra, ambient_rank=rt)
    assume(target_cone.is_strictly_convex)
    index = draw(st.integers(1, 2))
    lattice = sublattice(rs, [[index if i == j == 0 else int(i == j) for j in range(rs)] for i in range(rs)])
    return monoid_hom(matrix, saturated_monoid(source_cone, lattice), monoid_from_cone(target_cone))


class TestIntegral:
    def test_diagonal_embedding_passes(self):
        h = monoid_hom(((1,), (1,)), _n(1), _n(2))
        rep = check_integral(h, 8)
        assert rep.passed
        assert dict(rep.parameters)["degree_bound"] == 8

    def test_gap_inclusion_fails_with_witness(self):
        # the addition map N^2 -> N, whose failure must replay
        h = monoid_hom(((1, 1),), _n(2), _n(1))
        rep = check_integral(h, 8)
        assert rep.verdict == "fail"
        s1, s2, t1, t2 = rep.witnesses[0]
        # witness replay: the identity holds but admits no witness
        assert vadd(t1, h.apply(s1)) == vadd(t2, h.apply(s2))
        tables = chowfan.verify._witness_tables(h, 16)
        assert chowfan.verify._witness_search(tables, s1, s2, t1, t2) is None

    def test_addition_map_is_not_integral(self):
        # z[x,y] -> z[t] by x,y -> t kills x - y, so it cannot be flat and
        # the criterion must find an identity without a witness
        h = monoid_hom(((1, 1),), _n(2), _n(1))
        assert check_integral(h, 6).verdict == "fail"

    @pytest.mark.parametrize("bound", [0, -3])
    def test_bound_below_one_rejected(self, bound):
        h = monoid_hom(((1,), (1,)), _n(1), _n(2))
        with pytest.raises(ValueError):
            check_integral(h, bound)

    def test_target_enumerated_once(self, monkeypatch):
        # the witness tables: the target up to the bound, the source up to twice it
        calls = []
        real = chowfan.verify._enumerate_elements

        def counted(m, grading, bound):
            calls.append(bound)
            return real(m, grading, bound)

        monkeypatch.setattr(chowfan.verify, "_enumerate_elements", counted)
        check_integral(monoid_hom(((1,), (1,)), _n(1), _n(2)), 4)
        assert sorted(calls) == [4, 8]

    @settings(deadline=None, max_examples=80)
    @given(pointed_maps(), st.integers(0, 6))
    def test_enumeration_matches_the_search_oracle(self, h, bound):
        # the scan lists what the search over Hilbert-basis sums lists, for
        # the facet-sum grading and for one tilted by a facet normal
        for m in (h.source, h.target):
            g = m.grading()
            for grading in {g, *(vadd(g, t) for t in m.cone.halfspaces[:1])}:
                got = chowfan.verify._enumerate_elements(m, grading, bound)
                assert got == oracles.enumerate_elements_by_search(m, grading, bound)

    def test_enumeration_on_many_facets(self):
        # cones of dimension 3 and 4 with 20 to 36 facets, and their duals:
        # combining every pair of rows in each elimination built up to about
        # 10**8 rows for these
        polygon = [(2, 6), (-1, 5), (-3, 4), (-4, 3), (-5, 1), (-6, -2), (-6, -3), (-5, -5), (-4, -6)]
        polygon += [(-2, -7), (-1, -7), (2, -6), (4, -5), (5, -4), (6, -2), (7, 1), (7, 2), (6, 4)]
        plane = monoid_from_cone(cone_from_generators([(1, i, i * i) for i in range(20)]))
        prism = monoid_from_cone(cone_from_generators([(*p, h, 1) for p in polygon for h in (0, 1)]))
        for m in (plane, dual_monoid(plane), prism, dual_monoid(prism)):
            assert len(m.cone.halfspaces) >= 20
            g = m.grading()
            bound = 2 * min(dot(g, r) for r in m.cone.generators)
            got = chowfan.verify._enumerate_elements(m, g, bound)
            assert got == oracles.enumerate_elements_by_search(m, g, bound)
        # dimension 5, 20 facets with dense normals: without Chernikov's rule
        # the third elimination pairs millions of rows; its Hilbert basis
        # alone takes 27 s, so the elements are compared with those of its
        # image under a shear
        rays = [(1, i, i * i, i**3, i**4) for i in range(8)]
        shear = tuple(tuple(int(j in (i, i + 1)) for j in range(5)) for i in range(5))
        found = []
        for gens in (rays, [mat_vec(shear, r) for r in rays]):
            m = monoid_from_cone(cone_from_generators(gens))
            g = m.grading()
            found.append(chowfan.verify._enumerate_elements(m, g, min(dot(g, r) for r in gens)))
        assert len(m.cone.halfspaces) == 20 and len(found[0]) == 3
        assert sorted(mat_vec(shear, x) for x in found[0]) == sorted(found[1])

    def test_enumeration_in_skewed_coordinates(self):
        # N^3 written through the unimodular u, whose first two columns are
        # nearly parallel: a scan in the standard basis would meet about
        # 6 * 10**6 values of its first coordinate for these 84 elements
        k = 10**6
        u = ((k + 1, k, 0), (k, k - 1, 0), (0, 0, 1))
        m = monoid_from_cone(cone_from_generators(transpose(u)))
        expected = sorted((sum(a), mat_vec(u, a)) for a in product(range(7), repeat=3) if sum(a) <= 6)
        assert chowfan.verify._enumerate_elements(m, m.grading(), 6) == [x for _, x in expected]

    def test_each_source_element_mapped_once(self, monkeypatch):
        # one image per source element of the witness tables, shared with the
        # pair loop; mapping each pair anew took 145 and 155 images here
        cases = [
            (monoid_hom(((1, 0), (0, 1)), _n(2), _n(2)), 4, "pass", ()),
            (monoid_hom(((1, 1),), _n(2), _n(1)), 8, "fail", (((0, 1), (1, 0), (0,), (0,)),)),
        ]
        for h, bound, verdict, witnesses in cases:
            source = chowfan.verify._enumerate_elements(h.source, h.source.grading(), 2 * bound)
            mapped = []
            real = MonoidHom.apply

            def counted(self, v):
                mapped.append(v)
                return real(self, v)

            monkeypatch.setattr(MonoidHom, "apply", counted)
            rep = check_integral(h, bound)
            monkeypatch.setattr(MonoidHom, "apply", real)
            assert (rep.verdict, rep.witnesses) == (verdict, witnesses)
            assert mapped == source

    def test_no_lattice_tests(self, monkeypatch):
        # differences of monoid elements lie in the monoid's lattice
        fam = universal_family(chow_quotient(p2_fan(), sublattice(2, [[1, 2]])))
        rank = fam.fan.ambient_rank
        homs = [dual_projection_hom(fam, i) for i, c in enumerate(fam.fan.cones) if c.dim == rank]
        calls = []
        real = Sublattice.contains

        def counted(self, v):
            calls.append(v)
            return real(self, v)

        monkeypatch.setattr(Sublattice, "contains", counted)
        assert all(check_integral(h, 4).passed for h in homs)
        assert calls == []

    @settings(deadline=None, max_examples=150)
    @given(pointed_maps(), st.integers(1, 6))
    @example(monoid_hom(((1, 1),), _n(2), _n(1)), 4)  # the addition map, not integral
    # the addition map on a source cone that is not full-dimensional
    @example(
        monoid_hom(
            ((1, 1, 0),),
            monoid_from_cone(cone_from_generators([(1, 0, 0), (0, 1, 0)], ambient_rank=3)),
            _n(1),
        ),
        3,
    )
    def test_matches_the_pair_walk(self, h, bound):
        # the frontier per image difference and the packed order tests give
        # the pair walk's verdict, witnesses and parameters
        rep = check_integral(h, bound)
        want = oracles.check_integral_by_pair_walk(h, bound)
        assert (rep.verdict, rep.witnesses, rep.parameters) == (
            want.verdict, want.witnesses, want.parameters
        )

    def test_monotone_in_bound(self):
        h = monoid_hom(((1,), (1,)), _n(1), _n(2))
        for bound in (2, 4, 6):
            assert check_integral(h, bound).passed

    def test_family_dual_maps_pass(self):
        for fan, sub in [
            (p2_fan(), sublattice(2, [[1, 0]])),
            (p1p1_fan(), sublattice(2, [[1, 1]])),
            (p2_fan(), sublattice(2, [[1, 2]])),
        ]:
            fam = universal_family(chow_quotient(fan, sub))
            reports = check_family_integral(fam, 8)
            assert reports and all(r.passed for r in reports)

    def test_dual_projection_hom_requires_full_dim(self):
        fam = universal_family(chow_quotient(p2_fan(), sublattice(2, [[1, 0]])))
        ray = next(i for i, c in enumerate(fam.fan.cones) if c.dim == 1)
        with pytest.raises(ValueError):
            dual_projection_hom(fam, ray)


def _doubled(m):
    """The monoid ``cone ∩ 2G`` for ``m = cone ∩ G``: twice its Hilbert basis."""
    lat = m.group
    twice = [tuple(2 * x for x in b) for b in lat.basis]
    return saturated_monoid(m.cone, sublattice(lat.ambient_rank, twice))


class TestReduced:
    def test_fixture_families_pass(self):
        for fan, sub in [
            (p2_fan(), sublattice(2, [[1, 0]])),
            (p1p1_fan(), sublattice(2, [[1, 1]])),
        ]:
            fam = universal_family(chow_quotient(fan, sub))
            assert check_reduced(fam).passed

    def test_doubled_monoids_fail(self):
        for fan, sub in [
            (p2_fan(), sublattice(2, [[1, 0]])),
            (p1p1_fan(), sublattice(2, [[1, 1]])),
            (p2_fan(), sublattice(2, [[1, 2]])),
        ]:
            fam = universal_family(chow_quotient(fan, sub))
            doubled = tuple(_doubled(m) for m in fam.datum.monoids)
            assert all(
                d.hilbert_basis == tuple(tuple(2 * x for x in g) for g in m.hilbert_basis)
                for d, m in zip(doubled, fam.datum.monoids)
            )
            bad = ToricStackDatum(2, fam.fan, doubled)
            args = (bad, fam.base, [b for _, b in fam.provenance], fam.chow.projection.matrix)
            rep = reduced_report(*args)
            assert rep.verdict == "fail"
            assert rep.witnesses  # names the unhit basis element
            assert list(rep.witnesses) == oracles.reduced_witnesses_by_search(*args)

    def test_failing_monoid_maps_every_generator(self, monkeypatch):
        fam = universal_family(chow_quotient(p2_fan(), sublattice(2, [[1, 0]])))
        doubled = tuple(_doubled(m) for m in fam.datum.monoids)
        bad = ToricStackDatum(2, fam.fan, doubled)
        args = (bad, fam.base, [b for _, b in fam.provenance], fam.chow.projection.matrix)
        mapped = []

        def counted(m, v):
            mapped.append(v)
            return mat_vec(m, v)

        monkeypatch.setattr(chowfan.verify, "mat_vec", counted)
        rep = reduced_report(*args)
        assert rep == oracles.reduced_report_by_mapping_every_generator(*args)
        # a failing monoid maps all its generators, a passing one until its
        # base basis is hit
        failing = {i for i, _ in rep.witnesses}
        assert failing
        expected = 0
        for i, m in enumerate(doubled):
            if i in failing:
                expected += len(m.generators())
                continue
            unhit = set(fam.base.monoids[args[2][i]].hilbert_basis)
            for g in m.generators():
                if not unhit:
                    break
                unhit.discard(mat_vec(args[3], g))
                expected += 1
        assert len(mapped) == expected

    def test_target_with_units_rejected(self):
        line = monoid_from_cone(cone_from_generators([(1, 0)], ambient_rank=2))
        units = dual_monoid(line)  # the half-plane x >= 0
        assert not units.is_pointed
        fan = p2_fan()
        datum = ToricStackDatum(2, fan, tuple(units for _ in fan.cones))
        with pytest.raises(ValueError, match="units"):
            reduced_report(datum, datum, list(range(len(fan.cones))), ((1, 0), (0, 1)))

    def test_escaping_generator_rejected(self):
        fam = universal_family(chow_quotient(p2_fan(), sublattice(2, [[1, 0]])))
        base = ToricStackDatum(
            fam.base.lattice_rank, fam.base.fan, tuple(map(_doubled, fam.base.monoids))
        )
        with pytest.raises(ValueError, match="outside base monoid"):
            reduced_report(
                fam.datum, base, [b for _, b in fam.provenance], fam.chow.projection.matrix
            )

    def test_wrong_shape_refused(self):
        fam = universal_family(chow_quotient(p2_fan(), sublattice(2, [[1, 0]])))
        with pytest.raises(ValueError, match="1 x 2 matrix"):
            reduced_report(fam.datum, fam.base, [b for _, b in fam.provenance], ((1, 0, 0),))


class TestEquidimensional:
    def test_families_pass(self):
        for fan, sub in [
            (p2_fan(), sublattice(2, [[1, 0]])),
            (p1p1_fan(), sublattice(2, [[1, 1]])),
        ]:
            fam = universal_family(chow_quotient(fan, sub))
            assert check_equidimensional(fam).passed

    def test_unrefined_projection_fails(self):
        fan = p2_fan()
        cq = chow_quotient(fan, sublattice(2, [[1, 0]]))
        rep = equidimensional_report(cq.projection.matrix, fan, cq.quotient_fan)
        assert rep.verdict == "fail"

    def test_cone_into_but_not_onto_a_target_cone_fails(self):
        # the identity maps the half quadrant <(1,0),(1,1)> into the first
        # quadrant of the target fan, and onto none of its cones
        quadrants = [[(1, 0), (0, 1)], [(0, 1), (-1, 0)], [(-1, 0), (0, -1)], [(0, -1), (1, 0)]]
        dst = fan_from_cones(cone_from_generators(c) for c in quadrants)
        src = fan_from_cones(cone_from_generators(c) for c in [[(1, 0), (1, 1)], [(1, 1), (0, 1)]] + quadrants[1:])
        rep = equidimensional_report(((1, 0), (0, 1)), src, dst)
        half = src.index_of(cone_from_generators([(1, 0), (1, 1)]))
        assert rep.verdict == "fail"
        assert (half, ((1, 0), (1, 1)), ()) in rep.witnesses
        assert all(src.cones[i].dim and src.cones[i] not in dst for i, _, _ in rep.witnesses)

    def test_zero_sublattice_trivially_passes(self):
        fam = universal_family(chow_quotient(p2_fan(), zero_sublattice(2)))
        assert check_equidimensional(fam).passed

    def test_subdivided_family_cone_fails(self, monkeypatch):
        # corpus[1] with its first full-dimensional family cone stellarly
        # subdivided at the sum of its rays: the family still builds, as host
        # and base are the least cones holding each cone and its image, and
        # the new ray's image lies inside a quotient cone, onto none
        import chowfan.family

        real = chowfan.family.fan_from_cones
        new_rays = []

        def subdivided(cones, ambient_rank=None):
            fan = real(cones, ambient_rank)
            c = next(c for c in fan.cones if c.dim == fan.ambient_rank)
            v = tuple(map(sum, zip(*c.generators)))
            new_rays.append(v)
            kept = [fan.cones[i] for i in fan.maximal_indices() if fan.cones[i] != c]
            star = [cone_from_generators(f.generators + (v,)) for f in facets(c)]
            return real(kept + star, ambient_rank)

        fan, sub = corpus(count=2)[1]
        monkeypatch.setattr(chowfan.family, "fan_from_cones", subdivided)
        fam = universal_family(chow_quotient(fan, sub))
        (v,) = new_rays
        ray = fam.fan.index_of(cone_from_generators([v]))
        rep = check_equidimensional(fam)
        assert rep.verdict == "fail"
        assert (ray, ((-1, 2),), ()) in rep.witnesses


class TestBasicMonoid:
    def test_fixtures_pass(self):
        for fan, sub in [
            (p2_fan(), sublattice(2, [[1, 0]])),
            (p1p1_fan(), sublattice(2, [[1, 1]])),
            (p2_fan(), sublattice(2, [[1, 2]])),
        ]:
            fam = universal_family(chow_quotient(fan, sub))
            for k in range(len(fam.base.fan.cones)):
                assert check_basic_monoid(fam, k).passed

    def _patched_value(self, monkeypatch, error):
        # a maximal cone of P1xP1's quotient by the diagonal; the checker's
        # first loop reads one value per quotient basis element, and every
        # later call, one per presentation basis element, raises ``error``
        fam = universal_family(chow_quotient(p1p1_fan(), sublattice(2, [[1, 1]])))
        k = fam.base.fan.index_of(cone_from_generators([(1,)]))
        real = chowfan.verify.presentation_value
        passed = len(fam.chow.cone_data[k].monoid.hilbert_basis)
        calls = []

        def patched(fam, pres, t):
            calls.append(t)
            if len(calls) > passed:
                raise error
            return real(fam, pres, t)

        monkeypatch.setattr(chowfan.verify, "presentation_value", patched)
        return fam, k

    def test_unexpected_error_propagates(self, monkeypatch):
        # a bug raised while reading a value is not a blocks_disagree witness
        fam, k = self._patched_value(monkeypatch, RuntimeError("a bug"))
        with pytest.raises(RuntimeError, match="a bug") as err:
            check_basic_monoid(fam, k)
        assert type(err.value) is RuntimeError

    def test_disagreeing_blocks_are_witnessed(self, monkeypatch):
        fam, k = self._patched_value(monkeypatch, VerificationFailed("blocks disagree"))
        rep = check_basic_monoid(fam, k)
        pres = chowfan.verify.basic_monoid(fam, k)
        assert pres.monoid.hilbert_basis and rep.verdict == "fail"
        assert rep.witnesses == tuple(("blocks_disagree", t) for t in pres.monoid.hilbert_basis)

    def test_dropping_a_relation_fails(self):
        # rebuilding the presentation with a wall relation removed makes it
        # strictly larger, so the backward map escapes the quotient monoid
        from chowfan.family import basic_monoid, presentation_value
        from chowfan.monoids import member, saturated_monoid
        from chowfan.cones import cone_from_halfspaces
        from chowfan.intlinalg import full_lattice

        fam = universal_family(chow_quotient(p1p1_fan(), sublattice(2, [[1, 1]])))
        k = fam.base.fan.index_of(cone_from_generators([(1,)]))
        pres = basic_monoid(fam, k)
        rank = pres.block_rank
        n = len(pres.component_cones)
        total = rank * n  # drop the wall column and its relations entirely

        halfspaces = []
        for bi, ci in enumerate(pres.component_cones):
            c = fam.variety.fan.cones[ci]
            for h in c.halfspaces:
                row = [0] * total
                row[bi * rank : (bi + 1) * rank] = list(h)
                halfspaces.append(tuple(row))
        loose = saturated_monoid(
            cone_from_halfspaces(halfspaces, [], total), full_lattice(total)
        )
        q_monoid = fam.chow.cone_data[k].monoid
        escaped = []
        for t in loose.hilbert_basis:
            blocks = [tuple(t[i * rank : (i + 1) * rank]) for i in range(n)]
            images = {fam.chow.projection.apply(b) for b in blocks}
            if len(images) != 1 or not member(q_monoid, images.pop()):
                escaped.append(t)
        assert escaped  # the relation was load-bearing
