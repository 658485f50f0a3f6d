"""Acceptance suite: worked examples, theorem-as-test laws on the corpus,
oracle equivalences and randomized round-trip properties.

Each criterion prints one PASS line when it completes (run with ``-s`` to
see them); any failure is a build-blocking defect.
"""

import io
import json
import os
import random
from fractions import Fraction
from math import gcd

import pytest

from chowfan import (
    chow_quotient,
    chow_stack_datum,
    check_basic_monoid,
    check_equidimensional,
    check_reduced,
    cone_from_generators,
    cones_over,
    component_bijection,
    dual_cone,
    dual_monoid,
    fan_from_cones,
    fiber_complex,
    hermite_normal_form,
    is_refinement_fixed_point,
    meeting_cones,
    monoid_from_cone,
    multiplicity,
    relative_interior_sample,
    replace,
    segment_length,
    sublattice,
    tropical_moduli_cone,
    universal_family,
    validate_stack_datum,
    validate_stack_morphism,
    wall_monoid_structure,
    wall_structure,
)
from chowfan import cli, cones, monoids, verify
from chowfan.cli import parse_input, run
from chowfan.cones import (
    _pull_back,
    _span_lattice,
    all_faces,
    cone_from_halfspaces,
    facets,
    intersect_cones,
)
from chowfan.family import basic_monoid, lift_into_span
from chowfan.chow import InfiniteIndex
from chowfan.intlinalg import _span_cut, dot, identity_matrix, integer_kernel, mat_mul, mat_vec, saturate, solve_rational, transpose
from chowfan.monoids import (
    _hermite_box,
    _hilbert_basis_full,
    _parallelepiped_keys,
    _triangulate,
    restrict_to_face,
    saturated_monoid,
)
from chowfan.serialize import (
    decode_cone,
    decode_monoid,
    decode_sublattice,
    dumps,
    encode_cone,
    encode_monoid,
    encode_sublattice,
)
from chowfan.verify import check_family_integral, check_integral, dual_projection_hom, reduced_report

from conftest import check_fan_incidence, check_monoid_hom, corpus, corpus_documents, p2_fan, p1p1_fan
import oracles

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def _announce(line):
    print(f"\n[PASS] {line}")


@pytest.fixture(scope="module")
def corpus_families():
    """Fixtures plus ten randomized inputs, with quotients and families."""
    inputs = [
        (p2_fan(), sublattice(2, [[1, 0]])),
        (p1p1_fan(), sublattice(2, [[1, 1]])),
    ] + corpus(count=10)
    out = []
    for fan, sub in inputs:
        cq = chow_quotient(fan, sub)
        out.append((fan, sub, cq, universal_family(cq)))
    return out


def test_criterion_1_p2_worked_example():
    fan = p2_fan()
    sub = sublattice(2, [[1, 0]])
    cq = chow_quotient(fan, sub)
    # quotient fan is the complete fan of the line
    assert {c.generators for c in cq.quotient_fan.cones} == {(), ((1,),), ((-1,),)}
    fam = universal_family(cq)
    # family fan: the ray (-1, 0) is inserted, four maximal cones
    rays = {c.generators[0] for c in fam.fan.cones if c.dim == 1}
    assert rays == {(1, 0), (0, 1), (-1, 0), (-1, -1)}
    maximal = sorted(
        c.generators for c in fam.fan.cones if c.dim == 2
    )
    assert len(maximal) == 4
    # all stack monoids are the full lattice monoids of their cones
    for i, c in enumerate(cq.quotient_fan.cones):
        assert cq.cone_data[i].monoid == monoid_from_cone(c)
    for i, c in enumerate(fam.fan.cones):
        assert fam.datum.monoids[i] == monoid_from_cone(c)
    _announce("criterion 1: quotient of the plane by a horizontal line "
              "(line fan, four-chamber family, trivial monoids)")


def test_criterion_2_p1p1_worked_example():
    fan = p1p1_fan()
    sub = sublattice(2, [[1, 1]])
    cq = chow_quotient(fan, sub)
    assert {c.generators for c in cq.quotient_fan.cones} == {(), ((1,),), ((-1,),)}
    fam = universal_family(cq)
    for i, kappa in enumerate(cq.quotient_fan.cones):
        if kappa.dim != 1:
            continue
        fc = fiber_complex(fam, i)
        assert len(fc.components) == 2
        assert len(fc.internal_walls) == 1
        wall = fc.internal_walls[0]
        assert wall.direction in [(1, 1), (-1, -1)]
        basis = cq.cone_data[i].monoid.hilbert_basis
        assert len(basis) == 1
        # the gluing length is the identity on the monoid: c(v) = v
        for k in range(3):
            v = tuple(k * x for x in basis[0])
            assert segment_length(fam, i, wall.index, v) == k
        pres = basic_monoid(fam, i)
        assert len(pres.monoid.hilbert_basis) == 1  # the presentation is a line
        trop = tropical_moduli_cone(fam, i)
        assert trop.ambient_rank == 1 and trop.generators == ((1,),)
    _announce("criterion 2: quotient of the quadrant fan by the diagonal "
              "(broken line fibers, unit gluing, half-line moduli)")


def test_criterion_3_multiplicity_regression():
    fan = p2_fan()
    sub = sublattice(2, [[1, 2]])
    idx = fan.index_of(cone_from_generators([(1, 0)], ambient_rank=2))
    assert multiplicity(fan, sub, idx) == 2
    combined = list(sub.basis) + [(1, 0)]
    assert oracles.coset_count(combined, ((1, 0), (0, 1))) == 2
    _announce("criterion 3: index-two multiplicity, cross-checked against "
              "fundamental-domain coset enumeration")


def test_criterion_4a_quotient_datum_validates(corpus_families):
    for fan, sub, cq, fam in corpus_families:
        datum = chow_stack_datum(cq)
        assert validate_stack_datum(datum).ok
    _announce("criterion 4a: quotient stack data valid (incl. face "
              f"compatibility) on all {len(corpus_families)} corpus inputs")


def test_criterion_4b_family_morphisms_and_fixed_point(corpus_families):
    for fan, sub, cq, fam in corpus_families:
        assert validate_stack_morphism(
            cq.projection.matrix, fam.datum, fam.base
        ).cone_assignment == tuple(b for _, b in fam.provenance)
        identity = tuple(
            tuple(1 if i == j else 0 for j in range(fan.ambient_rank))
            for i in range(fan.ambient_rank)
        )
        assert validate_stack_morphism(identity, fam.datum, fam.variety)
        assert is_refinement_fixed_point(fam)
    _announce("criterion 4b: families map to both ends and refine to "
              "themselves on all corpus inputs")


def test_criterion_4c_reduced_and_integral(corpus_families):
    for fan, sub, cq, fam in corpus_families:
        assert check_reduced(fam).passed
        reports = check_family_integral(fam, 8)
        assert reports and all(r.passed for r in reports)
    _announce("criterion 4c: reduced fibers and integrality (bound 8) on "
              "all corpus inputs")


def test_reduced_report_matches_search_oracle(corpus_families):
    for fan, sub, cq, fam in corpus_families:
        args = (fam.datum, fam.base, [b for _, b in fam.provenance], cq.projection.matrix)
        rep = reduced_report(*args)
        expected = oracles.reduced_witnesses_by_search(*args)
        assert (rep.passed, list(rep.witnesses)) == (not expected, expected)


def test_reduced_report_maps_generators_lazily(corpus_families, monkeypatch):
    for fan, sub, cq, fam in corpus_families:
        args = (fam.datum, fam.base, [b for _, b in fam.provenance], cq.projection.matrix)
        assert reduced_report(*args) == oracles.reduced_report_by_mapping_every_generator(*args)
    # corpus[8]: each family monoid's generators are mapped until they hit
    # every basis element of its base monoid, and no further
    fan, sub, cq, fam = corpus_families[2 + 8]
    args = (fam.datum, fam.base, [b for _, b in fam.provenance], cq.projection.matrix)
    needed = 0
    for i, m in enumerate(fam.datum.monoids):
        unhit = set(fam.base.monoids[args[2][i]].hilbert_basis)
        for g in m.generators():
            if not unhit:
                break
            unhit.discard(mat_vec(args[3], g))
            needed += 1
    mapped = []
    real = verify.mat_vec

    def counted(m, v):
        mapped.append(v)
        return real(m, v)

    monkeypatch.setattr(verify, "mat_vec", counted)
    assert reduced_report(*args).passed
    total = sum(len(m.generators()) for m in fam.datum.monoids)
    assert len(mapped) == needed and 10 * needed < total
    _announce(f"reduced reports equal the map-every-generator oracle on all corpus "
              f"families; corpus[8] maps {needed} of {total} generators")


def _dual_maps(corpus_families):
    for fan, sub, cq, fam in corpus_families:
        for i, c in enumerate(fam.fan.cones):
            if c.dim == fan.ambient_rank:
                yield fam, i, dual_projection_hom(fam, i)


def test_dual_maps_match_the_group_coordinates_oracle(corpus_families):
    # the duals of the cones pulled back to the groups are the duals of the
    # monoids rewritten, Hilbert basis and all, in their groups' coordinates
    maps = 0
    for fam, i, h in _dual_maps(corpus_families):
        base = fam.base.monoids[fam.provenance[i][1]]
        for got, m in ((h.source, base), (h.target, fam.datum.monoids[i])):
            want = dual_monoid(oracles.group_coordinates(m)[0])
            assert (got, got.cone, got.group) == (want, want.cone, want.group)
        maps += 1
    assert maps
    _announce(f"dual maps equal the duals in group coordinates on {maps} family cones")


def test_element_enumeration_matches_the_search_oracle(corpus_families):
    # the grade-bounded scan of cone and group lists what the search over
    # sums of Hilbert-basis elements lists, on every family, base and dual monoid
    found = {id(m): m for _, _, _, fam in corpus_families for d in (fam.datum, fam.base) for m in d.monoids}
    found.update((id(m), m) for _, _, h in _dual_maps(corpus_families) for m in (h.source, h.target))
    elements = 0
    for m in found.values():
        for bound in (2, 8):
            got = verify._enumerate_elements(m, m.grading(), bound)
            assert got == oracles.enumerate_elements_by_search(m, m.grading(), bound)
            elements += len(got)
    _announce(f"element enumerations equal the search oracle on {len(found)} monoids ({elements} elements)")


def test_monoid_equality_is_equality_of_bases_and_units(corpus_families):
    # a monoid compares as its cone and group; on the corpus this groups the
    # monoids exactly as their Hilbert bases and units do
    found = [m for _, _, _, fam in corpus_families for d in (fam.datum, fam.base, fam.variety) for m in d.monoids]
    found += [m for _, _, h in _dual_maps(corpus_families) for m in (h.source, h.target)]
    by_basis, by_equality = {}, {}
    for k, m in enumerate(found):
        by_basis.setdefault((m.ambient_rank, m.hilbert_basis, m.units), []).append(k)
        by_equality.setdefault(m, []).append(k)
    assert sorted(by_basis.values()) == sorted(by_equality.values())
    assert len(by_equality) < len(found)  # some pairs are equal
    _announce(f"monoid equality equals basis-and-units equality on {len(found)} monoids")


def test_integrality_check_builds_no_family_or_dual_basis(monkeypatch, tmp_path):
    # check --integral reads the duals only up to a grade bound, by their
    # cones and groups: no Hilbert basis of a dual, nor of a family monoid
    monkeypatch.setattr(cones, "_cone_cache", {})
    calls, in_dual = [], []  # calls: (cone, whether inside _dual_in_group)
    real_basis, real_dual = monoids._hilbert_basis_full, verify._dual_in_group

    def counted_basis(c, out=None):
        calls.append((c, bool(in_dual)))
        return real_basis(c, out)

    def marked_dual(m):
        in_dual.append(m)
        try:
            return real_dual(m)
        finally:
            in_dual.pop()

    monkeypatch.setattr(monoids, "_hilbert_basis_full", counted_basis)
    monkeypatch.setattr(verify, "_dual_in_group", marked_dual)
    path = tmp_path / "corpus8.json"
    path.write_text(corpus_documents()[8])
    assert run(["check", str(path), "--integral", "--bound", "4"], stdout=io.StringIO()) == 0
    assert [c for c, inside in calls if inside] == []
    assert calls == []  # nor outside it: no dual read by the enumeration, no family monoid


def test_integrality_searches_the_pair_walk_identities(corpus_families, monkeypatch):
    # the frontier per image difference may find its targets differently,
    # but it searches the pair walk's identities, in the pair walk's order
    real = verify._witness_search
    maps = searches = 0
    for fam, i, h in _dual_maps(corpus_families):
        runs = []
        for check in (check_integral, oracles.check_integral_by_pair_walk):
            calls = []

            def recorded(tables, *identity, calls=calls):
                calls.append(identity)
                return real(tables, *identity)

            monkeypatch.setattr(verify, "_witness_search", recorded)
            rep = check(h, 4)
            runs.append((rep.verdict, rep.witnesses, rep.parameters, calls))
        assert runs[0] == runs[1]
        maps += 1
        searches += len(runs[0][3])
    assert searches
    _announce(f"integrality at bound 4 makes the pair walk's {searches} witness "
              f"searches on {maps} dual maps")


def test_monoid_maps_match_per_generator_oracle(corpus_families):
    verdicts = []
    for fan, sub, cq, fam in corpus_families:
        cases = [
            (morphism.lattice_map, m, morphism.target.monoids[j])
            for morphism in (fam.to_base, fam.to_target)
            for m, j in zip(fam.datum.monoids, morphism.cone_assignment)
        ]
        for i, c in enumerate(fam.fan.cones):
            if c.dim == fan.ambient_rank:
                h = dual_projection_hom(fam, i)
                cases.append((h.matrix, h.source, h.target))
        for matrix, source, target in cases:
            # the negated map sends every nonzero cone off its target
            for mtx in (matrix, tuple(tuple(-x for x in row) for row in matrix)):
                verdicts.append(check_monoid_hom(mtx, source, target))
    assert True in verdicts and False in verdicts
    _announce("monoid maps by rays and group agree with the per-generator test "
              f"on {len(verdicts)} maps of the corpus families")


def test_criterion_4d_equidimensional(corpus_families):
    for fan, sub, cq, fam in corpus_families:
        assert check_equidimensional(fam).passed
    _announce("criterion 4d: every family cone maps onto a quotient cone")


def test_criterion_4e_walls_have_one_or_two_sections(corpus_families):
    walls_seen = 0
    for fan, sub, cq, fam in corpus_families:
        for k in range(len(fam.base.fan.cones)):
            for w_idx in cones_over(fam, k, 1):
                w = wall_structure(fam, k, w_idx)  # raises on any other count
                assert len(w.iso_faces) in (1, 2)
                walls_seen += 1
    assert walls_seen > 0
    _announce(f"criterion 4e: all {walls_seen} walls carry one or two sections")


def test_criterion_4e_wall_monoids_split(corpus_families):
    kinds = {"boundary": "product", "internal": "fiber_product"}
    seen = {"product": 0, "fiber_product": 0}
    for fan, sub, cq, fam in corpus_families:
        for k in range(len(fam.base.fan.cones)):
            for w_idx in cones_over(fam, k, 1):
                ws = wall_monoid_structure(fam, k, w_idx)  # raises on failure
                assert ws.kind == kinds[ws.wall.kind]
                seen[ws.kind] += 1
    assert seen["product"] > 0 and seen["fiber_product"] > 0
    _announce(f"criterion 4e: {seen['product']} boundary wall monoids are "
              f"products, {seen['fiber_product']} internal ones fiber products")


def test_section_lifts_match_the_rational_oracle(corpus_families):
    lifts = 0
    for fan, sub, cq, fam in corpus_families:
        proj = cq.projection
        for k, kappa in enumerate(fam.base.fan.cones):
            values = list(cq.cone_data[k].monoid.hilbert_basis)
            if not kappa.is_zero():
                values.append(relative_interior_sample(kappa))
            for w_idx in cones_over(fam, k, 1):
                for s in wall_structure(fam, k, w_idx).iso_faces:
                    section = fam.fan.cones[s]
                    gens = section.generators + section.lineality
                    rows = [[sum(a * b for a, b in zip(p, g)) for g in gens]
                            for p in proj.matrix]
                    for v in values:
                        d, x = lift_into_span(proj, section, v)
                        coefs, _ = oracles.gauss_jordan_solve(rows, v, len(gens))
                        expected = tuple(
                            sum(c * g[i] for c, g in zip(coefs, gens))
                            for i in range(fan.ambient_rank)
                        )
                        assert tuple(Fraction(e, d) for e in x) == expected
                        assert gcd(d, *x) == 1
                        lifts += 1
    assert lifts > 0
    _announce(f"section lifts: {lifts} lifts equal the Gauss-Jordan oracle "
              "in lowest terms")


def test_criterion_4f_fibers_connected(corpus_families):
    fibers = 0
    for fan, sub, cq, fam in corpus_families:
        for k in range(len(fam.base.fan.cones)):
            fiber_complex(fam, k)  # asserts connectivity internally
            fibers += 1
    _announce(f"criterion 4f: all {fibers} fiber graphs connected")


def test_criterion_4g_component_bijection(corpus_families):
    for fan, sub, cq, fam in corpus_families:
        for k in range(len(fam.base.fan.cones)):
            mapping = component_bijection(fam, k)
            assert sorted(mapping.values()) == sorted(cq.cone_data[k].point_fiber_cones)
    _announce("criterion 4g: components biject onto single-point-slice cones")


def test_criterion_4h_basic_monoid_isomorphism(corpus_families):
    for fan, sub, cq, fam in corpus_families:
        for k in range(len(fam.base.fan.cones)):
            assert check_basic_monoid(fam, k).passed
    _announce("criterion 4h: presentation and quotient monoids isomorphic "
              "via both explicit maps")


def test_criterion_5_oracle_equivalences(corpus_families):
    checked = 0
    for fan, sub, cq, fam in corpus_families:
        if fan.ambient_rank == 2 and sub.rank == 1:
            walls = oracles.projected_ray_walls(fan, cq.projection.matrix, sub.basis)
            got = {c.generators[0][0] for c in cq.quotient_fan.cones if c.dim == 1}
            assert got == walls
            checked += 1
        for k, data in enumerate(cq.cone_data):
            kappa = cq.quotient_fan.cones[k]
            psi = cq.projection.lift(relative_interior_sample(kappa))
            types = [
                oracles.affine_slice_type_by_homogenisation(c, psi, sub)
                for c in fan.cones
            ]
            assert data.meeting_set == {i for i, t in enumerate(types) if t != "empty"}
            assert data.point_fiber_cones == tuple(
                i for i, t in enumerate(types) if t == "point"
            )
            if kappa.is_zero():
                continue
            for variant in range(10):
                sample = oracles.relative_interior_sample_by_sums(kappa, variant)
                assert kappa.contains_in_relint(sample)
                psi = cq.projection.lift(sample)
                assert meeting_cones(fan, sub, psi) == data.meeting_set
    assert checked >= 2
    _announce("criterion 5: projected-ray wall oracle, homogenised slice "
              "types and tenfold class-invariant resampling agree")


def test_criterion_6_involutions_and_round_trips():
    rng = random.Random(987654)
    failures = 0
    # duality is involutive on cones
    for _ in range(1000):
        rank = rng.choice([2, 3])
        rays = [
            tuple(rng.randrange(-3, 4) for _ in range(rank))
            for _ in range(rng.randrange(0, rank + 2))
        ]
        c = cone_from_generators([r for r in rays if any(r)], ambient_rank=rank)
        if dual_cone(dual_cone(c)) != c:
            failures += 1
    # duality is involutive on saturated full-dimensional monoids
    count = 0
    while count < 1000:
        rays = [
            (rng.randrange(-3, 4), rng.randrange(-3, 4)) for _ in range(3)
        ]
        c = cone_from_generators([r for r in rays if any(r)], ambient_rank=2)
        if c.lineality_dim or c.dim != 2:
            continue
        m = monoid_from_cone(c)
        if dual_monoid(dual_monoid(m)) != m:
            failures += 1
        count += 1
    # normal form idempotence
    for _ in range(1000):
        rows = [
            [rng.randrange(-9, 10) for _ in range(rng.randrange(1, 4))]
        ]
        rows = [
            [rng.randrange(-9, 10) for _ in range(len(rows[0]))]
            for _ in range(rng.randrange(1, 4))
        ]
        h, _ = hermite_normal_form(rows)
        h2, _ = hermite_normal_form(h)
        if h2 != h:
            failures += 1
    # serialization round-trips
    for _ in range(1000):
        kind = rng.randrange(3)
        if kind == 0:
            s = sublattice(
                3,
                [
                    tuple(rng.randrange(-4, 5) for _ in range(3))
                    for _ in range(rng.randrange(0, 3))
                ],
            )
            if decode_sublattice(json.loads(dumps(encode_sublattice(s)))) != s:
                failures += 1
        elif kind == 1:
            rays = [
                (rng.randrange(-3, 4), rng.randrange(-3, 4))
                for _ in range(rng.randrange(0, 4))
            ]
            c = cone_from_generators([r for r in rays if any(r)], ambient_rank=2)
            if decode_cone(json.loads(dumps(encode_cone(c)))) != c:
                failures += 1
        else:
            rays = [
                (rng.randrange(0, 4), rng.randrange(-2, 4))
                for _ in range(rng.randrange(1, 3))
            ]
            c = cone_from_generators([r for r in rays if any(r)], ambient_rank=2)
            if c.lineality_dim:
                continue
            m = monoid_from_cone(c)
            if decode_monoid(json.loads(dumps(encode_monoid(m)))) != m:
                failures += 1
    assert failures == 0
    _announce("criterion 6: 1000-case involution, idempotence and "
              "round-trip sweeps, zero failures")


def test_fan_incidence_matches_oracles(corpus_families):
    for fan, sub, cq, fam in corpus_families:
        for f in (fan, cq.quotient_fan, fam.fan):
            assert check_fan_incidence(f)
        rank = fan.ambient_rank
        assert fam.to_base.cone_assignment == oracles.minimal_targets_by_scan(
            cq.projection.matrix, fam.fan, cq.quotient_fan
        )
        assert fam.to_target.cone_assignment == oracles.minimal_targets_by_scan(
            identity_matrix(rank), fam.fan, fan
        )
    _announce("fan incidence: validation, maximal cones, relative-interior "
              "lookup and morphism targets equal the all-pairs scans on the "
              "input, quotient and family fans")


def test_refinement_matches_all_pairs(corpus_families):
    for fan, sub, cq, fam in corpus_families:
        pairs = oracles.refinement_all_pairs(cq)
        assert {c.key() for c in fam.fan.cones} == set(pairs)
        for c, prov in zip(fam.fan.cones, fam.provenance):
            assert prov in pairs[c.key()]
    _announce("refinement over maximal pairs equals the all-pairs refinement")


def test_meeting_pairs_are_the_maximal_family_cones(corpus_families):
    count = 0
    for fan, sub, cq, fam in corpus_families:
        maximal = set(fan.maximal_indices())
        pairs = {
            (h, b)
            for b in cq.quotient_fan.maximal_indices()
            for h in cq.cone_data[b].meeting_set & maximal
        }
        top = [fam.provenance[i] for i in fam.fan.maximal_indices()]
        assert all(fam.fan.cones[i].dim == fan.ambient_rank for i in fam.fan.maximal_indices())
        assert sorted(pairs) == sorted(top)
        count += len(top)
    _announce(f"the meeting pairs are exactly the {count} maximal family cones")


def _lattice_coordinate_cone(m):
    """The cone of a saturated monoid in coordinates of its group, as
    its Hilbert basis is sieved."""
    basis = m.group.basis
    return cone_from_halfspaces(
        [tuple(dot(h, b) for b in basis) for h in m.cone.halfspaces],
        [tuple(dot(e, b) for b in basis) for e in m.cone.equations],
        len(basis),
    )


def _fixture_families():
    out = []
    for name in sorted(os.listdir(FIXTURES)):
        with open(os.path.join(FIXTURES, name)) as f:
            fan, sub, _ = parse_input(f.read())
        out.append(universal_family(chow_quotient(fan, sub)))
    return out


def test_refinement_fixed_point_matches_all_pairs(corpus_families):
    verdicts = []
    for fam in [f for *_, f in corpus_families] + _fixture_families():
        # the family itself, and the family with its fan replaced by the input fan
        for candidate in (fam, replace(fam, datum=fam.variety)):
            verdict = is_refinement_fixed_point(candidate)
            assert verdict == oracles.refinement_fixed_point_all_pairs(candidate)
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts
    _announce("refinement fixed point over maximal pairs equals the all-pairs "
              f"check on {len(verdicts) // 2} families and their unrefined input fans")


def test_span_lattices_match_saturation_oracle(corpus_families):
    count = 0
    for fan, sub, cq, fam in corpus_families:
        for f in (fan, cq.quotient_fan, fam.fan):
            for c in f.cones:
                assert _span_lattice(c) == oracles.span_lattice_by_saturation(c)
                count += 1
    _announce(f"span lattices from the cone equations equal the saturation "
              f"oracle on all {count} input, quotient and family cones")


def test_kernels_and_multiplicities_match_earlier_forms(corpus_families):
    kernels = weights = 0
    for fan, sub, cq, fam in corpus_families:
        for f in (fan, cq.quotient_fan, fam.fan):
            for c in f.cones:
                rank = c.ambient_rank
                for rows in (c.generators + c.lineality, c.equations, c.halfspaces):
                    assert integer_kernel(rows, rank) == (
                        oracles.integer_kernel_by_two_hermite_passes(rows, rank)
                    )
                    kernels += 1
        finite = 0
        for i, c in enumerate(fan.cones):
            expected = oracles.multiplicity_by_saturation(c, sub)
            if expected is None:
                with pytest.raises(InfiniteIndex):
                    multiplicity(fan, sub, i)
            else:
                assert multiplicity(fan, sub, i) == expected
                finite += 1
            weights += 1
        assert 0 < finite < len(fan.cones)
    _announce(f"one Hermite pass per kernel on {kernels} cone matrices and elementary "
              f"divisors per multiplicity on all {weights} input cones equal the earlier forms")


def test_facet_equations_and_face_groups_match_their_kernels(corpus_families):
    facet_count = groups = 0
    for fan, sub, cq, fam in corpus_families:
        for f in (fan, cq.quotient_fan, fam.fan):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cones, "_cone_cache", {})  # every facet is built here
                for c in f.cones:
                    for g in facets(c):
                        assert g.equations == oracles.facet_equations_by_kernel(g)
                        assert g in f
                        facet_count += 1
        for m in [d.monoid for d in cq.cone_data] + list(fam.datum.monoids):
            lat = m.group
            for face in all_faces(m.cone):
                expected = oracles.face_group_by_intersection(face, lat)
                assert _span_cut(lat, face.equations) == expected
                assert restrict_to_face(m, face).group == expected
                groups += 1
    _announce(f"facet equations equal the kernel of their rays on {facet_count} facets of "
              f"corpus cones, and face groups the span-lattice intersection on {groups} monoid faces")


def _cone_fields(c):
    return c.generators, c.lineality, c.halfspaces, c.equations


def test_cones_match_two_conversions_oracle(corpus_families):
    count = 0
    for fan, sub, cq, fam in corpus_families:
        for f in (fan, cq.quotient_fan, fam.fan):
            for c in f.cones:
                faces = all_faces(c)
                assert set(faces) <= set(f.cones)
                rank = c.ambient_rank
                fields = _cone_fields(c)
                assert fields == oracles.cone_by_two_conversions(c.generators, c.lineality, rank)
                assert fields == oracles.cone_by_two_conversions(
                    c.halfspaces, c.equations, rank, from_halfspaces=True
                )
                assert c.incidence == oracles.incidence_by_dot_products(c)
                count += 1
        # the family cones carried into the coordinates of their groups
        for m in fam.datum.monoids:
            basis = m.group.basis
            pulled = _pull_back(m.cone, basis)
            assert _cone_fields(pulled) == oracles.cone_by_two_conversions(
                [tuple(dot(h, b) for b in basis) for h in m.cone.halfspaces],
                [tuple(dot(e, b) for b in basis) for e in m.cone.equations],
                len(basis),
                from_halfspaces=True,
            )
            assert pulled.incidence == oracles.incidence_by_dot_products(pulled)
            count += 1
    _announce(f"one conversion plus incidence equals two conversions on all {count} "
              "input, quotient and family cones and family lattice pull-backs")


def test_parallelepiped_points_match_span_coordinates_oracle(corpus_families):
    count = 0
    for fan, sub, cq, fam in corpus_families:
        cones = [c for f in (fan, cq.quotient_fan, fam.fan) for c in f.cones]
        # and the family cones as saturated_monoid triangulates them
        cones += [_lattice_coordinate_cone(m) for m in fam.datum.monoids]
        for c in cones:
            if c.dim == 0:
                continue
            # full-dimensional, in the coordinates of its span lattice
            c = _pull_back(c, _span_lattice(c).basis)
            for simplex in _triangulate(c):
                det, factors = _hermite_box(simplex)
                # every point has entries of at most the rays' total size, where
                # K(x) = sum_k x_k base^k is injective
                size = sum(abs(x) for r in simplex for x in r)
                functional = [(2 * size + 1) ** k for k in range(c.ambient_rank)]
                ray_keys = [dot(functional, r) for r in simplex]
                keys = list(_parallelepiped_keys(ray_keys, det, factors)) if det > 1 else [0]
                points = oracles.parallelepiped_points_by_span_coordinates(simplex, c.ambient_rank)
                assert len(keys) == det and keys[0] == 0
                assert sorted(keys[1:]) == sorted(dot(functional, x) for x in points)
                count += 1
    _announce("parallelepiped keys from one Hermite box equal the keys of the "
              f"span-coordinates oracle's points on all {count} simplices")


def test_basic_monoid_groups_are_saturated(corpus_families):
    count = 0
    for fan, sub, cq, fam in corpus_families:
        for k in range(len(fam.base.fan.cones)):
            group = basic_monoid(fam, k).monoid.group
            assert saturate(group) == group
            count += 1
    _announce(f"basic monoid groups are saturated on all {count} base cones")


def test_geometric_rules_match_tuple_sieve_on_acceptance_monoids(monkeypatch, tmp_path):
    """Every 2- and 3-dimensional cone whose Hilbert basis ``chowfan all``
    computes on the three fixtures and the ten corpus inputs, past the
    unimodular exit: the plane chain (dimension 2) and the height-one
    points (cones over lattice polygons) equal the tuple sieve, with the
    caller's ``out`` and without, and neither reaches the keyed path: no
    parallelepiped box, no key and no sieve."""
    calls = []
    real = monoids._hilbert_basis_full

    def recorded(c, out=None):
        calls.append((c, out))
        return real(c, out)

    monkeypatch.setattr(monoids, "_hilbert_basis_full", recorded)
    paths = [os.path.join(FIXTURES, name) for name in ("p2_horizontal.json", "p1p1_diagonal.json", "p2_weighted.json")]
    for k, text in enumerate(corpus_documents()):
        paths.append(tmp_path / f"corpus{k}.json")
        paths[-1].write_text(text)
    for path in paths:
        monkeypatch.setattr(cones, "_cone_cache", {})
        assert run(["all", "--bound", "4", str(path)], stdout=io.StringIO()) == 0
    keyed = []
    for name in ("_hermite_box", "_parallelepiped_keys", "_sieve"):

        def counted(*args, real_step=getattr(monoids, name), name=name):
            keyed.append(name)
            return real_step(*args)

        monkeypatch.setattr(monoids, name, counted)
    rules = {2: 0, 3: 0}
    for c, out in dict.fromkeys(calls):
        if c.dim not in rules or monoids._is_lattice_basis(c.generators, c.dim):
            continue
        height = solve_rational(c.generators, [1] * len(c.generators))
        if c.dim == 3 and (height is None or height[0] > 1):
            continue
        del keyed[:]
        expected = oracles.hilbert_basis_by_tuple_sieve(c)
        assert real(c) == expected
        if out is not None:
            assert real(c, out) == tuple(sorted(mat_vec(out, x) for x in expected))
        assert keyed == []
        rules[c.dim] += 1
    assert rules[2] > 10 and rules[3] > 10
    _announce(f"plane chains on {rules[2]} and height-one points on {rules[3]} cones "
              "equal the tuple sieve on the thirteen acceptance inputs")


def test_packed_sieve_matches_tuple_sieve_on_family_monoids(corpus_families, monkeypatch, tmp_path):
    """Every Hilbert basis ``chowfan all`` computes on the two worked
    examples and the ten corpus inputs, each with a cone cache of its own;
    the family-cone monoids are among them."""
    bases = {}
    real = monoids._hilbert_basis_full

    def recorded(c, out=None):
        bases[c, out] = real(c, out)
        return bases[c, out]

    monkeypatch.setattr(monoids, "_hilbert_basis_full", recorded)
    paths = [os.path.join(FIXTURES, name) for name in ("p2_horizontal.json", "p1p1_diagonal.json")]
    for k, text in enumerate(corpus_documents()):
        paths.append(tmp_path / f"corpus{k}.json")
        paths[-1].write_text(text)
    for path in paths:
        monkeypatch.setattr(cones, "_cone_cache", {})
        assert run(["all", "--bound", "4", str(path)], stdout=io.StringIO()) == 0
    for (c, out), hb in bases.items():
        expected = oracles.hilbert_basis_by_tuple_sieve(c)
        # out, the transposed lattice basis, is injective: equal images are equal bases
        assert hb == (expected if out is None else tuple(sorted(mat_vec(out, x) for x in expected)))
    assert max(len(hb) for hb in bases.values()) > 1000
    # every family monoid's basis, unimodular ones included, which rule 1
    # answers before any cone reaches _hilbert_basis_full
    for fan, sub, cq, fam in corpus_families:
        for m in fam.datum.monoids:
            expected = oracles.hilbert_basis_by_tuple_sieve(_lattice_coordinate_cone(m))
            assert m.hilbert_basis == tuple(sorted(mat_vec(transpose(m.group.basis), x) for x in expected))
    _announce(f"packed dominance sieve equals the tuple sieve on all {len(bases)} "
              "Hilbert bases of the twelve acceptance inputs")


def test_faces_by_filtering_on_quotient_data(corpus_families):
    count = 0
    for fan, sub, cq, fam in corpus_families:
        for data in cq.cone_data:
            m = data.monoid
            for f in all_faces(m.cone):
                face = restrict_to_face(m, f)
                fresh = saturated_monoid(f, m.group)
                assert (face.hilbert_basis, face.units, face.group) == (
                    fresh.hilbert_basis, fresh.units, fresh.group
                )
                count += 1
    _announce("restriction to a face by filtering equals the recomputed "
              f"saturated monoid on all {count} (quotient cone, face) pairs")


# products of elementary matrices: a swap, a sign change and shears
GL_CHANGES = {
    2: mat_mul(mat_mul(((0, 1), (1, 0)), ((1, 2), (0, 1))), ((1, 0), (-1, -1))),
    3: mat_mul(
        mat_mul(((1, 1, 0), (0, 1, 0), (0, 0, 1)), ((1, 0, 0), (0, 1, 0), (2, 0, 1))),
        ((1, 0, 0), (0, -1, -1), (0, 0, 1)),
    ),
}


def _invariants(fan, cq, fam):
    return (
        len(cq.quotient_fan.cones),
        sorted(tuple(sorted(m for _, m in d.cycle)) for d in cq.cone_data),
        len(fam.fan.cones),
        [len(f.maximal_indices()) for f in (fan, cq.quotient_fan, fam.fan)],
        sorted(len(m.hilbert_basis) for m in fam.datum.monoids),
    )


def test_change_of_coordinates_by_gl_n(corpus_families):
    for fan, sub, cq, fam in corpus_families[2:]:
        g = GL_CHANGES[fan.ambient_rank]
        moved_fan = fan_from_cones(
            cone_from_generators([mat_vec(g, r) for r in fan.cones[i].generators])
            for i in fan.maximal_indices()
        )
        moved_sub = sublattice(fan.ambient_rank, [mat_vec(g, b) for b in sub.basis])
        moved_cq = chow_quotient(moved_fan, moved_sub)
        moved = _invariants(moved_fan, moved_cq, universal_family(moved_cq))
        assert moved == _invariants(fan, cq, fam)
    _announce("change of coordinates: quotient and family cone counts, cycle "
              "multiplicities, maximal cones and Hilbert-basis sizes are "
              "invariant under GL_n(Z) on the ten corpus inputs")


def _memo_documents():
    """The fixture documents, then the corpus input documents."""
    docs = []
    for name in sorted(os.listdir(FIXTURES)):
        with open(os.path.join(FIXTURES, name)) as f:
            docs.append(f.read())
    return docs + list(corpus_documents())


def test_memo_hits_equal_fresh_computations(monkeypatch):
    monoids = intersections = 0
    for text in _memo_documents():
        # a cone cache of this input alone: every memo below was filled by it
        monkeypatch.setattr(cones, "_cone_cache", {})
        fan, sub, _ = parse_input(text)
        fam = universal_family(chow_quotient(fan, sub))
        for k in range(len(fam.base.fan.cones)):
            basic_monoid(fam, k)
            tropical_moduli_cone(fam, k)
        check_reduced(fam)
        for c in list(cones._cone_cache.values()):
            # a copy of an interned cone carries no memo, so it computes
            for (fn, *args), value in list((c._kept or {}).items()):
                if fn is saturated_monoid.__wrapped__:
                    (lattice,), m = args, value
                    fresh = saturated_monoid(replace(c), lattice)
                    assert (fresh.hilbert_basis, fresh.units, fresh.group, fresh.cone) == (
                        m.hilbert_basis, m.units, m.group, m.cone
                    )
                    monoids += 1
                elif fn is intersect_cones.__wrapped__:
                    (b,), inter = args, value
                    fresh = intersect_cones(replace(c), b)
                    assert fresh == inter and fresh.incidence == inter.incidence
                    intersections += 1
    assert monoids and intersections
    _announce(f"{monoids} memoised monoids and {intersections} memoised intersections "
              "equal fresh computations on the fixtures and the corpus")
