"""Seeded input documents for the benchmark workloads.

The randomized generators reproduce ``tests/conftest.corpus`` draw for
draw, so ``corpus(seed=20240811, count=10)`` is the acceptance corpus of
the test suite.  Everything here runs in the benchmark's parent process:
children receive only the JSON documents, so their cone caches start
cold.
"""

from __future__ import annotations

import functools
import json
import os
import random

from chowfan import (
    cone_from_generators,
    fan_from_cones,
    is_complete,
    saturate,
    sublattice,
    validate_fan,
)
from chowfan.intlinalg import mat_vec, primitive

CORPUS_SEED = 20240811
FIXTURES = ("p1p1_diagonal.json", "p2_horizontal.json", "p2_weighted.json")
ORTHANT4_SUBLATTICES = (
    ((1, 2, 3, 5),),
    ((1, 1, 1, 1), (0, 1, -1, 1)),
)


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _half(v):
    return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1


def _compare_ccw(a, b):
    # exact counterclockwise order starting at the positive x-axis
    if _half(a) != _half(b):
        return _half(a) - _half(b)
    c = _cross(a, b)
    return 0 if c == 0 else (-1 if c > 0 else 1)


def random_complete_fan_rank2(rng: random.Random):
    """A complete rank-2 fan from a random set of primitive rays."""
    rays = {(1, 0), (0, 1), (-1, 0), (0, -1)}
    for _ in range(rng.randrange(0, 4)):
        v = (rng.randrange(-3, 4), rng.randrange(-3, 4))
        if v != (0, 0):
            rays.add(primitive(v))
    ordered = sorted(rays, key=functools.cmp_to_key(_compare_ccw))
    return fan_from_cones(
        cone_from_generators([r, ordered[(i + 1) % len(ordered)]])
        for i, r in enumerate(ordered)
    )


def random_complete_fan_rank3(rng: random.Random):
    """The octant fan, randomly stellarly subdivided, then sheared."""
    cones = [
        cone_from_generators([(sx, 0, 0), (0, sy, 0), (0, 0, sz)])
        for sx in (1, -1)
        for sy in (1, -1)
        for sz in (1, -1)
    ]
    for _ in range(rng.randrange(0, 3)):
        idx = rng.randrange(len(cones))
        target = cones[idx]
        weights = [rng.randrange(1, 3) for _ in target.generators]
        new_ray = primitive(
            tuple(
                sum(w * g[i] for w, g in zip(weights, target.generators))
                for i in range(3)
            )
        )
        replaced = [
            cone_from_generators([target.generators[a], target.generators[b], new_ray])
            for a, b in ((0, 1), (0, 2), (1, 2))
        ]
        cones = cones[:idx] + cones[idx + 1 :] + replaced
    shear = rng.choice(
        [
            ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
            ((1, 1, 0), (0, 1, 0), (0, 0, 1)),
            ((1, 0, 0), (0, 1, 1), (0, 0, 1)),
        ]
    )
    return fan_from_cones(
        cone_from_generators([primitive(mat_vec(shear, g)) for g in c.generators])
        for c in cones
    )


def random_saturated_sublattice(rng: random.Random, rank: int, dim: int):
    while True:
        gens = [tuple(rng.randrange(-2, 3) for _ in range(rank)) for _ in range(dim)]
        s = saturate(sublattice(rank, gens))
        if s.rank == dim:
            return s


def _generate(seed: int, count: int, kinds: int):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        pick = len(out) % kinds
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


def corpus(seed: int = CORPUS_SEED, count: int = 10):
    """The test suite's randomized corpus: rank 2, rank 3 / 1, rank 3 / 2."""
    return _generate(seed, count, 3)


def batch_inputs(seed: int, count: int):
    """Alternating rank-2 fans and subdivided rank-3 octant fans, each with
    a random rank-1 saturated sublattice."""
    return _generate(seed, count, 2)


def document(fan, sub) -> str:
    """The CLI input document of a (fan, sublattice) pair."""
    maximal = [list(map(list, fan.cones[i].generators)) for i in fan.maximal_indices()]
    return json.dumps(
        {
            "format_version": 1,
            "lattice_rank": fan.ambient_rank,
            "maximal_cones": maximal,
            "sublattice": [list(r) for r in sub.basis],
        },
        sort_keys=True,
    )


def orthant4_document(sub_rows) -> str:
    cones = [
        [[sign[i] * (j == i) for j in range(4)] for i in range(4)]
        for sign in (
            (a, b, c, d)
            for a in (1, -1) for b in (1, -1) for c in (1, -1) for d in (1, -1)
        )
    ]
    return json.dumps(
        {
            "format_version": 1,
            "lattice_rank": 4,
            "maximal_cones": cones,
            "sublattice": [list(r) for r in sub_rows],
        },
        sort_keys=True,
    )


def acceptance_documents(root: str) -> list[tuple[str, str]]:
    """(name, text) of the three fixtures and the ten-input corpus."""
    out = []
    for name in FIXTURES:
        with open(os.path.join(root, "fixtures", name)) as fh:
            out.append((f"fixtures/{name}", fh.read()))
    for i, (fan, sub) in enumerate(corpus(CORPUS_SEED, 10)):
        out.append((f"corpus[{i}]", document(fan, sub)))
    return out


def rank4_documents() -> list[tuple[str, str]]:
    return [
        ("orthant4/" + ",".join("(" + ",".join(map(str, r)) + ")" for r in rows),
         orthant4_document(rows))
        for rows in ORTHANT4_SUBLATTICES
    ]
