import functools
import json
import random
from itertools import combinations, product

import pytest

from chowfan import (
    Fan,
    Sublattice,
    cone_from_generators,
    fan_from_cones,
    relative_interior_sample,
    saturate,
    sublattice,
    validate_fan,
    is_complete,
)
from chowfan.intlinalg import mat_vec, vadd
from chowfan.monoids import MonoidNotMapped, member, monoid_hom

import oracles


def p2_fan() -> Fan:
    return fan_from_cones(
        [
            cone_from_generators(g)
            for g in [[(1, 0), (0, 1)], [(0, 1), (-1, -1)], [(-1, -1), (1, 0)]]
        ]
    )


def p1p1_fan() -> Fan:
    return fan_from_cones(
        [
            cone_from_generators(g)
            for g in [
                [(1, 0), (0, 1)],
                [(0, 1), (-1, 0)],
                [(-1, 0), (0, -1)],
                [(0, -1), (1, 0)],
            ]
        ]
    )


def orthant_fan(rank: int) -> Fan:
    """The fan of the coordinate orthants of ``Z^rank``."""
    return fan_from_cones(
        cone_from_generators([[s[i] * (j == i) for j in range(rank)] for i in range(rank)])
        for s in product((1, -1), repeat=rank)
    )


@pytest.fixture
def p2():
    return p2_fan()


@pytest.fixture
def p1p1():
    return p1p1_fan()


@pytest.fixture
def l_horizontal():
    return sublattice(2, [[1, 0]])


@pytest.fixture
def l_diagonal():
    return sublattice(2, [[1, 1]])


# ---------------------------------------------------------------------------
# randomized corpus of complete fans with saturated sublattices


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def random_complete_fan_rank2(rng: random.Random) -> Fan:
    """A complete rank-2 fan from a random set of primitive rays."""
    rays = {(1, 0), (0, 1), (-1, 0), (0, -1)}
    for _ in range(rng.randrange(0, 4)):
        v = (rng.randrange(-3, 4), rng.randrange(-3, 4))
        if v != (0, 0):
            from chowfan.intlinalg import primitive

            rays.add(primitive(v))

    import functools

    def compare_ccw(a, b):
        # exact counterclockwise order starting at the positive x-axis
        def half(v):
            return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1

        if half(a) != half(b):
            return half(a) - half(b)
        c = _cross(a, b)
        return 0 if c == 0 else (-1 if c > 0 else 1)

    ordered = sorted(rays, key=functools.cmp_to_key(compare_ccw))
    cones = []
    for i, r in enumerate(ordered):
        s = ordered[(i + 1) % len(ordered)]
        cones.append(cone_from_generators([r, s]))
    return fan_from_cones(cones)


def random_complete_fan_rank3(rng: random.Random) -> Fan:
    """The octant fan, randomly stellarly subdivided, then sheared."""
    cones = []
    for sx in (1, -1):
        for sy in (1, -1):
            for sz in (1, -1):
                cones.append(
                    cone_from_generators([(sx, 0, 0), (0, sy, 0), (0, 0, sz)])
                )
    for _ in range(rng.randrange(0, 3)):
        idx = rng.randrange(len(cones))
        target = cones[idx]
        weights = [rng.randrange(1, 3) for _ in target.generators]
        from chowfan.intlinalg import primitive

        new_ray = primitive(
            tuple(
                sum(w * g[i] for w, g in zip(weights, target.generators))
                for i in range(3)
            )
        )
        replaced = []
        for pair in (
            (0, 1), (0, 2), (1, 2),
        ):
            sub_rays = [target.generators[pair[0]], target.generators[pair[1]], new_ray]
            replaced.append(cone_from_generators(sub_rays))
        cones = cones[:idx] + cones[idx + 1 :] + replaced
    shear = rng.choice(
        [
            ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
            ((1, 1, 0), (0, 1, 0), (0, 0, 1)),
            ((1, 0, 0), (0, 1, 1), (0, 0, 1)),
        ]
    )
    from chowfan.intlinalg import mat_vec, primitive

    sheared = [
        cone_from_generators([primitive(mat_vec(shear, g)) for g in c.generators])
        for c in cones
    ]
    return fan_from_cones(sheared)


def random_saturated_sublattice(rng: random.Random, rank: int, dim: int) -> Sublattice:
    while True:
        gens = [
            tuple(rng.randrange(-2, 3) for _ in range(rank)) for _ in range(dim)
        ]
        s = saturate(sublattice(rank, gens))
        if s.rank == dim:
            return s


def corpus(seed: int = 20240811, count: int = 10):
    """Deterministic randomized corpus of (fan, sublattice) inputs."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        pick = len(out) % 3
        if pick == 0:
            fan = random_complete_fan_rank2(rng)
            sub = random_saturated_sublattice(rng, 2, 1)
        elif pick == 1:
            fan = random_complete_fan_rank3(rng)
            sub = random_saturated_sublattice(rng, 3, 1)
        else:
            fan = random_complete_fan_rank3(rng)
            sub = random_saturated_sublattice(rng, 3, 2)
        if validate_fan(fan).ok and is_complete(fan):
            out.append((fan, sub))
    return out


@functools.lru_cache(maxsize=None)
def corpus_documents():
    """The ten corpus inputs as CLI input documents (JSON text)."""
    return tuple(
        json.dumps(
            {
                "lattice_rank": fan.ambient_rank,
                "maximal_cones": [
                    [list(r) for r in fan.cones[i].generators] for i in fan.maximal_indices()
                ],
                "sublattice": [list(b) for b in sub.basis],
            }
        )
        for fan, sub in corpus(count=10)
    )


def check_fan_incidence(fan: Fan) -> bool:
    """Assert that the fan's incidence agrees with the all-pairs oracles.

    Returns whether the collection is a fan.  On a fan, compares the
    maximal cones, and the cone holding in its relative interior each
    generator sum: of every nonzero cone, and of every two rays.
    """
    ok = validate_fan(fan).ok
    assert ok == oracles.fan_ok_all_pairs(fan)
    if not ok:
        return False
    assert fan.maximal_indices() == oracles.maximal_by_containment(fan)
    rays = [c.generators[0] for c in fan.cones if c.dim == 1]
    probes = [relative_interior_sample(c) for c in fan.cones if not c.is_zero()]
    probes += [vadd(a, b) for a, b in combinations(rays, 2)]
    for v in probes:
        assert fan.cone_containing_in_relint(v) == oracles.relint_cone_by_scan(fan, v)
    return True


def check_monoid_hom(matrix, source, target) -> bool:
    """Assert that :func:`monoid_hom` agrees with the per-generator oracle.

    Returns whether ``matrix`` maps ``source`` into ``target``.  On a
    failure, the generator the error names must be one whose image really
    escapes the target.
    """
    escape = oracles.monoid_map_escape_by_generators(matrix, source, target)
    try:
        monoid_hom(matrix, source, target)
    except MonoidNotMapped as e:
        assert escape is not None
        assert e.generator in source.generators()
        assert e.image == mat_vec(matrix, e.generator)
        assert not member(target, e.image)
        return False
    assert escape is None
    return True
