import random
import re
from itertools import product
from pathlib import Path

import pytest

import chowfan.monoids
import chowfan.stacks
from chowfan._record import replace
from chowfan.chow import chow_quotient, chow_stack_datum
from chowfan.cli import parse_input
from chowfan.family import universal_family
from chowfan.cones import NoTargetCone, cone_from_generators, fan_from_cones
from chowfan.intlinalg import mat_vec, sublattice
from chowfan.monoids import member, monoid_from_cone, saturated_monoid
from chowfan.stacks import (
    InternalConsistencyError,
    MonoidNotMapped,
    NotMaximalCone,
    ToricStackDatum,
    stabilizer_invariants,
    validate_stack_datum,
    validate_stack_morphism,
    variety_datum,
)

from conftest import corpus, p2_fan, p1p1_fan, random_complete_fan_rank3
import oracles

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _doubled(datum, cones=None):
    """Replace ``cone ∩ G`` by ``cone ∩ 2G``, whose Hilbert basis is doubled,
    on the ``cones`` given by index (by default the maximal ones)."""
    fan = datum.fan
    which = set(fan.maximal_indices() if cones is None else cones)
    monoids = []
    for i, m in enumerate(datum.monoids):
        if i in which and m.hilbert_basis:
            twice = [tuple(2 * x for x in b) for b in m.group.basis]
            monoids.append(saturated_monoid(m.cone, sublattice(datum.lattice_rank, twice)))
        else:
            monoids.append(m)
    return ToricStackDatum(datum.lattice_rank, fan, tuple(monoids))


class TestDatumValidation:
    def test_variety_datum_is_valid(self):
        for fan in (p2_fan(), p1p1_fan()):
            assert validate_stack_datum(variety_datum(fan)).ok

    def test_chow_datum_is_valid(self):
        cq = chow_quotient(p2_fan(), sublattice(2, [[1, 0]]))
        assert validate_stack_datum(chow_stack_datum(cq)).ok

    def test_doubled_max_cone_breaks_face_compatibility(self):
        bad = _doubled(variety_datum(p2_fan()))
        rep = validate_stack_datum(bad)
        assert not rep.ok
        assert any("face compatibility" in v for v in rep.violations)

    def test_escaping_monoid_reported(self):
        fan = p2_fan()
        monoids = list(variety_datum(fan).monoids)
        # replace the origin's monoid by something outside the zero cone
        zero_idx = next(i for i, c in enumerate(fan.cones) if c.dim == 0)
        monoids[zero_idx] = monoid_from_cone(cone_from_generators([(1, 0)], ambient_rank=2))
        rep = validate_stack_datum(ToricStackDatum(2, fan, tuple(monoids)))
        assert not rep.ok
        assert any("outside its cone" in v for v in rep.violations)

    @staticmethod
    def _ray_monoid_moved(fan, source, target):
        """The variety datum of ``fan`` with the monoid of the ray ``source``
        put on the cone spanned by ``target``."""
        monoids = list(variety_datum(fan).monoids)
        ray = fan.index_of(cone_from_generators([source], ambient_rank=2))
        monoids[fan.index_of(cone_from_generators(target, ambient_rank=2))] = monoids[ray]
        return ToricStackDatum(2, fan, tuple(monoids))

    def test_monoid_escaping_a_ray_reported_not_raised(self):
        # the ray (0,1) is no face of the ray (1,0), so face compatibility
        # at the ray (1,0) cannot be tested with that monoid
        bad = self._ray_monoid_moved(p1p1_fan(), (0, 1), [(1, 0)])
        rep = validate_stack_datum(bad)
        assert not rep.ok
        assert any(v.endswith("outside its cone") for v in rep.violations)
        assert rep.ok is oracles.stack_datum_ok_by_all_faces(bad)

    def test_monoid_short_of_its_cone_reported_not_raised(self):
        bad = self._ray_monoid_moved(p1p1_fan(), (1, 0), [(1, 0), (0, 1)])
        rep = validate_stack_datum(bad)
        assert not rep.ok
        assert any(v.endswith("not all of its cone") for v in rep.violations)

    def test_quotient_monoid_escaping_its_cone_is_internal(self):
        # through chow_stack_datum a misplaced quotient monoid is an
        # internal-consistency failure, which the CLI exits 4 on
        cq = chow_quotient(p1p1_fan(), sublattice(2, [[1, 1]]))
        rays = [k for k, c in enumerate(cq.quotient_fan.cones) if c.dim == 1]
        data = list(cq.cone_data)
        data[rays[0]] = replace(data[rays[0]], monoid=data[rays[1]].monoid)
        with pytest.raises(InternalConsistencyError, match="outside its cone"):
            chow_stack_datum(replace(cq, cone_data=tuple(data)))


class TestFaceCompatibilityOneFacetLevelDown:
    """validate_stack_datum restricts each monoid to its own cone and its
    facets only; restriction is transitive, so that reaches every face.
    Verdicts against the all-faces version on doctored data."""

    @pytest.fixture(scope="class")
    def datum(self):
        return variety_datum(random_complete_fan_rank3(random.Random(2)))

    def test_valid_datum(self, datum):
        assert validate_stack_datum(datum).ok is oracles.stack_datum_ok_by_all_faces(datum) is True

    def test_doctored_codimension_2_face_monoid(self, datum):
        rays = [k for k, c in enumerate(datum.fan.cones) if c.dim == 1]
        assert rays
        for k in rays:
            bad = _doubled(datum, [k])
            assert validate_stack_datum(bad).ok is oracles.stack_datum_ok_by_all_faces(bad) is False

    def test_doctored_maximal_monoid(self, datum):
        for k in datum.fan.maximal_indices():
            bad = _doubled(datum, [k])
            assert validate_stack_datum(bad).ok is oracles.stack_datum_ok_by_all_faces(bad) is False


class TestMorphisms:
    def test_identity_morphism(self):
        d = variety_datum(p2_fan())
        sm = validate_stack_morphism(((1, 0), (0, 1)), d, d)
        assert sm.cone_assignment == tuple(range(len(d.fan.cones)))

    def test_coarser_target_monoids_fail_monoid_check(self):
        d = variety_datum(p2_fan())
        bad = _doubled(d, range(len(d.fan.cones)))
        with pytest.raises(MonoidNotMapped):
            validate_stack_morphism(((1, 0), (0, 1)), d, bad)

    def test_monoid_not_mapped_names_cones_and_generator(self):
        d = variety_datum(p2_fan())
        bad = _doubled(d, range(len(d.fan.cones)))
        with pytest.raises(MonoidNotMapped) as err:
            validate_stack_morphism(((1, 0), (0, 1)), d, bad)
        found = re.fullmatch(
            r"generator (\(.*\)) of the monoid at cone (\d+) does not map into "
            r"the monoid at target cone (\d+)",
            str(err.value),
        )
        assert found
        g = tuple(int(x) for x in found[1].strip("()").split(","))
        i, j = int(found[2]), int(found[3])
        assert j == i  # the identity assigns every cone to itself
        assert g in d.monoids[i].generators()
        assert not member(bad.monoids[j], mat_vec(((1, 0), (0, 1)), g))

    def test_wrong_shape_refused(self):
        d = variety_datum(p2_fan())
        with pytest.raises(ValueError, match="2 x 2 matrix"):
            validate_stack_morphism(((1, 0, 5), (0, 1, 7)), d, d)

    def test_passing_morphisms_test_no_member(self, monkeypatch):
        # rays and group decide; generators are scanned only on a failure
        assert "member" not in vars(chowfan.stacks)
        families = []
        for path in sorted(FIXTURES.glob("*.json")):
            fan, sub, _ = parse_input(path.read_text())
            families.append(universal_family(chow_quotient(fan, sub)))
        assert len(families) == 3
        calls = []
        real = chowfan.monoids.member

        def counted(m, v):
            calls.append(v)
            return real(m, v)

        monkeypatch.setattr(chowfan.monoids, "member", counted)
        for fam in families:
            for morphism in (fam.to_base, fam.to_target):
                validate_stack_morphism(morphism.lattice_map, fam.datum, morphism.target)
        assert calls == []


def _outcome(check, matrix, src, dst):
    """The morphism ``check`` returns, or the type, text, generator and
    image of the error it raises."""
    try:
        return check(matrix, src, dst)
    except (ValueError, MonoidNotMapped) as e:
        return type(e), str(e), getattr(e, "generator", None), getattr(e, "image", None)


def _agree(matrix, src, dst):
    """Assert the check by distinct pairs agrees with the per-cone oracle,
    and return the outcome."""
    got = _outcome(validate_stack_morphism, matrix, src, dst)
    assert got == _outcome(oracles.stack_morphism_by_cone, matrix, src, dst)
    return got


class TestMorphismByDistinctPairs:
    """validate_stack_morphism tests each distinct (vector, target cone)
    pair once, in one pass over the sources in order, and runs
    ``monoid_hom`` only on the first that fails: the same morphism on the
    families, the same error on every mutant."""

    @pytest.fixture(scope="class")
    def families(self):
        inputs = [parse_input(path.read_text())[:2] for path in sorted(FIXTURES.glob("*.json"))]
        orthant = fan_from_cones(
            cone_from_generators([[s[i] * (j == i) for j in range(4)] for i in range(4)])
            for s in product((1, -1), repeat=4)
        )
        inputs += corpus(count=10)
        inputs += [(orthant, sublattice(4, rows)) for rows in ([[1, 2, 3, 5]], [[1, 1, 1, 1], [0, 1, -1, 1]])]
        return [universal_family(chow_quotient(fan, sub)) for fan, sub in inputs]

    def test_family_morphisms_match_the_per_cone_check(self, families):
        assert len(families) == 15
        for fam in families:
            for morphism in (fam.to_base, fam.to_target):
                assert _agree(morphism.lattice_map, fam.datum, morphism.target) == morphism

    def test_one_doubled_target_group_names_the_first_failing_cone(self, families):
        # the first source assigned to the doubled cone is doubled too, so
        # it maps in and the error must name a later source
        later = 0
        for fam in families[:3]:
            for morphism in (fam.to_base, fam.to_target):
                for j in sorted(set(morphism.cone_assignment)):
                    first = morphism.cone_assignment.index(j)
                    src, dst = _doubled(fam.datum, [first]), _doubled(morphism.target, [j])
                    got = _agree(morphism.lattice_map, src, dst)
                    if isinstance(got, tuple):
                        assert got[0] is MonoidNotMapped
                        i = int(re.search(r"monoid at cone (\d+) ", got[1])[1])
                        assert morphism.cone_assignment[i] == j and i > first
                        later += 1
        assert later >= 3

    def test_source_monoid_of_the_wrong_rank(self, families):
        for fam in families[:3]:
            rank = fam.datum.lattice_rank
            wrong = monoid_from_cone(cone_from_generators([(1,) * (rank + 1)]))
            for i in (len(fam.datum.monoids) // 2, len(fam.datum.monoids) - 1):
                monoids = list(fam.datum.monoids)
                monoids[i] = wrong
                src = ToricStackDatum(rank, fam.datum.fan, tuple(monoids))
                for morphism in (fam.to_base, fam.to_target):
                    got = _agree(morphism.lattice_map, src, morphism.target)
                    assert got[0] is ValueError and "matrix" in got[1]

    def test_a_ray_sent_out_of_its_target(self):
        d = variety_datum(p2_fan())
        # the matrix folds the fan: the image of some cone lies in no cone
        got = _agree(((1, 0), (0, 2)), d, d)
        assert got[0] is NoTargetCone
        # a monoid on another ray than its cone's: the fan maps, that ray escapes
        ray = next(i for i, c in enumerate(d.fan.cones) if c.generators == ((1, 0),))
        monoids = list(d.monoids)
        monoids[ray] = monoid_from_cone(cone_from_generators([(1, 1)]))
        got = _agree(((1, 0), (0, 1)), ToricStackDatum(2, d.fan, tuple(monoids)), d)
        assert got[:3] == (
            MonoidNotMapped,
            f"generator (1, 1) of the monoid at cone {ray} does not map into the monoid at target cone {ray}",
            (1, 1),
        )


class TestStabilizers:
    def test_variety_point_trivial(self):
        d = variety_datum(p2_fan())
        for i in d.fan.maximal_indices():
            assert all(x == 1 for x in stabilizer_invariants(d, i))

    def test_index_two_stabilizer(self):
        fan = fan_from_cones([cone_from_generators([(1,)])])
        monoids = tuple(
            monoid_from_cone(c, sublattice(1, [(2,)])) if c.dim == 1 else monoid_from_cone(c)
            for c in fan.cones
        )
        d = ToricStackDatum(1, fan, monoids)
        ray = next(i for i, c in enumerate(fan.cones) if c.dim == 1)
        assert stabilizer_invariants(d, ray) == (2,)

    def test_chow_datum_of_p2_is_a_variety(self):
        cq = chow_quotient(p2_fan(), sublattice(2, [[1, 0]]))
        d = chow_stack_datum(cq)
        for i in d.fan.maximal_indices():
            assert all(x == 1 for x in stabilizer_invariants(d, i))

    def test_requires_maximal_cone(self):
        d = variety_datum(p2_fan())
        ray = next(i for i, c in enumerate(d.fan.cones) if c.dim == 1)
        with pytest.raises(NotMaximalCone):
            stabilizer_invariants(d, ray)

    def test_invariant_product_equals_index(self):
        from chowfan.intlinalg import full_lattice, lattice_index

        cq = chow_quotient(p2_fan(), sublattice(2, [[1, 2]]))
        d = chow_stack_datum(cq)
        for i in d.fan.maximal_indices():
            inv = stabilizer_invariants(d, i)
            prod = 1
            for x in inv:
                prod *= x
            assert prod == lattice_index(
                d.monoids[i].group, full_lattice(d.lattice_rank)
            )


class TestEquality:
    def test_self_equality(self):
        d = variety_datum(p2_fan())
        assert d == d

    def test_permuted_input_gives_equal_datum(self):
        a = variety_datum(p2_fan())
        permuted = fan_from_cones(
            [
                cone_from_generators(g)
                for g in [[(-1, -1), (1, 0)], [(1, 0), (0, 1)], [(0, 1), (-1, -1)]]
            ]
        )
        b = variety_datum(permuted)
        assert a == b

    def test_truncated_copy_differs(self):
        d = variety_datum(p2_fan())
        partial = fan_from_cones([cone_from_generators([(1, 0), (0, 1)])])
        e = variety_datum(partial)
        assert d != e
