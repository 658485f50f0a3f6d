"""Independent brute-force oracles used to derive expected test values.

Everything here is deliberately naive (box enumeration, schoolbook row
reduction, exhaustive search) and shares no code with the library paths it
is used to check.  The fan oracles at the end are the all-pairs scans that
fan incidence once used; they build on the library's cone primitives
(containment, intersection, faces) but not on its fan-level incidence.
The strict-feasibility test and the cell split after the grid slice
test are the library's earlier ones, one double description per test and
a sample per cell built from the samples of its sides; the homogenised
slice classifier and the cell-hull quotient use them.
The Smith normal form after the minor gcds is the library's earlier
elimination loop with both unimodular transforms; the parallelepiped and
quotient-map oracles below read their boxes and completions off it.
The Hilbert-basis oracle after them is the library's earlier candidate
path, one vector per parallelepiped point from one Smith form per
simplex, with a tuple-by-tuple sieve.  The lattice oracles after it are
the library's earlier span-lattice and parallelepiped routines, built on
saturation and coordinates in a saturated span rather than on the cone's
equations or one Hermite box.  The
membership search at the end decides membership in a monoid given by
generators, which need not be saturated, and the surjectivity check built
on it tests each base basis element for a representation by projected
generators; the report after it is the library's earlier surjectivity
check, which maps every generator.  The cone oracles after it are the library's earlier
canonicalisation, two double descriptions per cone, and incidence by dot
products.  The monoid-map oracle after them is the library's earlier
test of a map of monoids, one membership test per generator, before the
test by rays and group.  The two after it are the library's earlier
integer kernel, with a second Hermite pass over the kernel block, and its
earlier multiplicity, by a lattice intersection, a saturation and an index.
The kernel forms at the end are the library's earlier vector and matrix
helpers and cone predicates, one generator frame per entry (or one ``dot``
call per halfspace), before each became one builtin pass.  The last is
the library's earlier document writer, the standard ``json`` encoder.
The two after it are the library's earlier forms of the integrality
check: a monoid rewritten in its group's coordinates by mapping every
Hilbert-basis element, and the pair walk that scans every target element
for each pair of incomparable sources, with ``Cone.contains`` as its order
test.  The last is the library's earlier quotient map: the kernel basis
completed by the Smith transform to a unimodular matrix and that matrix
inverted a second time.  The two after it are the library's earlier
matrix rank, the rank of the row lattice, and its earlier fiber
dimension, one double description of a homogenised cone per fiber.
The three after it are the library's earlier lineality basis of a
double description, the saturation of the Hermite form of its lines (here
lines of a rational null space by Gaussian elimination), the group of a
face, a lattice intersection with the face's span lattice, and facet
equations, the integer kernel of the facet's rays and lines.  The three
at the end are the library's earlier face walk, from one cone at a time,
its earlier quotient, each class the hull of its cells' closures, and its
earlier stack-datum verdict, which restricts each monoid to every face.
The last is the library's earlier stack-morphism check, one monoid map
test per source cone in source order, against which the test run once
per distinct vector and target cone is compared, verdicts and errors.
After it comes the library's earlier provenance check of a universal
family, which cut every family cone out again as ``p^{-1}(base) ∩ host``.
The last is the CLI's earlier argv reader, an ``argparse`` parser whose
errors raise ``chowfan.cli.UsageError`` and whose ``--help`` exits 0.
After it comes the library's earlier lift into a span, one
``solve_rational`` (so one Hermite form) per lift, on the span basis.
"""

import argparse
import json
from fractions import Fraction
from itertools import product
from math import gcd, prod


def schoolbook_hnf(rows):
    """Row Hermite form by direct integer row reduction (no transform)."""
    rows = [list(map(int, r)) for r in rows]
    if not rows:
        return ()
    ncols = len(rows[0])
    out = []
    work = [r[:] for r in rows]
    for col in range(ncols):
        nz = [r for r in work if r[col] != 0]
        rest = [r for r in work if r[col] == 0]
        if not nz:
            work = rest
            continue
        while len(nz) > 1:
            nz.sort(key=lambda r: abs(r[col]))
            base = nz[0]
            reduced = [base]
            for r in nz[1:]:
                q = r[col] // base[col]
                r2 = [a - q * b for a, b in zip(r, base)]
                if r2[col] != 0:
                    reduced.append(r2)
                elif any(r2):
                    rest.append(r2)
            nz = reduced
        pivot = nz[0]
        if pivot[col] < 0:
            pivot = [-x for x in pivot]
        for prev in out:
            q = prev[col] // pivot[col]
            if q:
                prev[:] = [a - q * b for a, b in zip(prev, pivot)]
        out.append(pivot)
        work = rest
    return tuple(tuple(r) for r in out)


def gcd_of_minors(mat, k):
    """GCD of all k x k minors (0 when all vanish)."""
    rows = [list(map(int, r)) for r in mat]
    m, n = len(rows), len(rows[0]) if rows else 0
    from itertools import combinations

    def det(sub):
        size = len(sub)
        if size == 1:
            return sub[0][0]
        total = 0
        for j in range(size):
            minor = [r[:j] + r[j + 1 :] for r in sub[1:]]
            total += (-1) ** j * sub[0][j] * det(minor)
        return total

    g = 0
    for ri in combinations(range(m), k):
        for ci in combinations(range(n), k):
            sub = [[rows[i][j] for j in ci] for i in ri]
            g = gcd(g, abs(det(sub)))
    return g


def elementary_divisors_by_minors(mat):
    """Invariant factors d_i = gcd_i / gcd_{i-1} of an integer matrix."""
    rows = [r for r in mat if any(r)]
    if not rows:
        return ()
    bound = min(len(rows), len(rows[0]))
    out = []
    prev = 1
    for k in range(1, bound + 1):
        g = gcd_of_minors(rows, k)
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return tuple(out)


def smith_normal_form(m):
    """Smith normal form ``S = U @ m @ V`` with divisibility d1 | d2 | ...

    ``U`` and ``V`` are unimodular; the diagonal entries are nonnegative.
    The library's earlier elimination loop.  It stalls on some tall
    matrices and on some with large entries, so the tests feed it small
    matrices and saturated kernel bases of 80-bit generators only.
    """
    from chowfan.intlinalg import identity_matrix

    rows = [list(map(int, r)) for r in m]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    u = [list(r) for r in identity_matrix(nrows)]
    v = [list(r) for r in identity_matrix(ncols)]

    def row_op(i, j, q):  # row_i -= q * row_j
        rows[i] = [x - q * y for x, y in zip(rows[i], rows[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in rows:
            r[i] -= q * r[j]
        for r in v:
            r[i] -= q * r[j]

    def swap_rows(i, j):
        rows[i], rows[j] = rows[j], rows[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in rows:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    t = 0
    while t < min(nrows, ncols):
        # find a nonzero pivot in the remaining block
        piv = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if rows[i][j] != 0:
                    if piv is None or abs(rows[i][j]) < abs(rows[piv[0]][piv[1]]):
                        piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, nrows):
                if rows[i][t] != 0:
                    q = rows[i][t] // rows[t][t]
                    row_op(i, t, q)
                    if rows[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, ncols):
                if rows[t][j] != 0:
                    q = rows[t][j] // rows[t][t]
                    col_op(j, t, q)
                    if rows[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        # pivot must divide every remaining entry; if not, mix the row in
        fixed = True
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if rows[i][j] % rows[t][t] != 0:
                    row_op(t, i, -1)
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            if rows[t][t] < 0:
                rows[t] = [-x for x in rows[t]]
                u[t] = [-x for x in u[t]]
            t += 1
    return tuple(map(tuple, rows)), tuple(map(tuple, u)), tuple(map(tuple, v))


def lattice_points_in_box(basis, box):
    """All integer combinations of basis rows landing in [-box, box]^n."""
    if not basis:
        return {tuple(0 for _ in range(box * 0))}
    n = len(basis[0])
    # coefficient bound: crude but safe for small examples
    coeff = box * max(1, max(abs(x) for row in basis for x in row)) * len(basis)
    *head, last = basis
    pts = set()
    for coeffs in product(range(-coeff, coeff + 1), repeat=len(head)):
        p = [sum(c * row[i] for c, row in zip(coeffs, head)) for i in range(n)]
        # the last coefficients t within the bound with |p + t*last| <= box
        # in every coordinate: an interval, cut coordinate by coordinate
        lo, hi = -coeff, coeff
        for x, b in zip(p, last):
            if b < 0:
                x, b = -x, -b
            if b:
                lo, hi = max(lo, -((box + x) // b)), min(hi, (box - x) // b)
            elif abs(x) > box:
                lo, hi = 1, 0
        pts.update(tuple(x + t * b for x, b in zip(p, last)) for t in range(lo, hi + 1))
    return pts


def saturation_by_box(basis, ambient, box=6):
    """Primitive integer points of the rational span inside a box."""
    if not basis:
        return set()
    pts = set()
    for v in product(range(-box, box + 1), repeat=ambient):
        if all(x == 0 for x in v):
            continue
        # v in span <=> rank of stacked matrix does not grow
        if _rank([list(b) for b in basis]) == _rank([list(b) for b in basis] + [list(v)]):
            pts.add(v)
    return pts


def _rank(rows):
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    while rank < len(rows) and col < ncols:
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col] != 0:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def gauss_jordan_solve(m, target, ncols):
    """All rational solutions of ``m @ x == target``, or None if inconsistent.

    Schoolbook Gauss-Jordan elimination over Q.  Returns ``(particular,
    basis)``: the solutions are ``particular`` plus the span of the
    null-space ``basis``.  Each column pivots on the first row with a
    nonzero entry and free variables are 0 in ``particular``.
    """
    nrows = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(t)] for row, t in zip(m, target)]
    pivots = []
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][col]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(nrows):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
    if any(aug[i][ncols] != 0 for i in range(r, nrows)):
        return None
    particular = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        particular[col] = aug[i][ncols]
    basis = []
    for fcol in (c for c in range(ncols) if c not in pivots):
        b = [Fraction(0)] * ncols
        b[fcol] = Fraction(1)
        for i, col in enumerate(pivots):
            b[col] = -aug[i][fcol]
        basis.append(tuple(b))
    return tuple(particular), tuple(basis)


def coset_count(sub_basis, super_basis, box=8):
    """Index [super : sub] by counting residues in a fundamental domain.

    Enumerates super-lattice points in a box and counts equivalence classes
    modulo the sublattice; only valid when the index is finite and small.
    """
    ambient = len(super_basis[0])
    supers = lattice_points_in_box(super_basis, box)
    subs = lattice_points_in_box(sub_basis, 3 * box)
    classes = []
    for v in sorted(supers):
        found = False
        for c in classes:
            d = tuple(a - b for a, b in zip(v, c))
            if d in subs:
                found = True
                break
        if not found:
            classes.append(v)
    return len(classes)


def exhaustive_member(generators, v, bound=10):
    """Nonnegative combinations with coefficients up to ``bound``."""
    gens = [g for g in generators if any(g)]
    if all(x == 0 for x in v):
        return True
    for coeffs in product(range(bound + 1), repeat=len(gens)):
        s = tuple(
            sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(len(v))
        )
        if s == tuple(v):
            return True
    return False


def grid_slice_nonempty(halfspaces, equations, psi, directions, steps=24, span=6):
    """Sample the affine slice on a rational grid, testing strict positivity."""
    if not directions:
        ok = all(
            sum(h[i] * psi[i] for i in range(len(psi))) > 0 for h in halfspaces
        ) and all(
            sum(e[i] * psi[i] for i in range(len(psi))) == 0 for e in equations
        )
        return ok
    grid = [Fraction(span) * Fraction(2 * i - steps, steps) for i in range(steps + 1)]
    for coeffs in product(grid, repeat=len(directions)):
        pt = [
            Fraction(psi[i]) + sum(c * d[i] for c, d in zip(coeffs, directions))
            for i in range(len(psi))
        ]
        if all(sum(h[i] * pt[i] for i in range(len(pt))) > 0 for h in halfspaces) and all(
            sum(e[i] * pt[i] for i in range(len(pt))) == 0 for e in equations
        ):
            return True
    return False


def strict_sample(strict, eqs, rank):
    """An integer point of ``{x : s.x > 0 for s in strict, e.x == 0}``, or
    None: the library's earlier strict-feasibility routine.

    The set is nonempty exactly when it is the relative interior of its
    closure ``{s.x >= 0, e.x == 0}``, and the sum of the closure's rays lies
    in that relative interior; so it is nonempty exactly when every ``s`` is
    positive on the sum.
    """
    from chowfan.cones import double_description

    rays, _, _ = double_description(strict, eqs, rank)
    total = tuple(map(sum, zip(*rays))) if rays else (0,) * rank
    return total if all(_dot(s, total) > 0 for s in strict) else None


def cells_by_feasibility(normals, rank):
    """One integer sample per nonempty relatively open cell of a central
    arrangement: the library's earlier cell split, one strict-feasibility
    test per cell and normal.

    Each cell's signs on the normals before ``h`` are read off its sample.
    A cell off the hyperplane of ``h`` splits iff the opposite open side is
    nonempty, and the cell on the hyperplane between the two sides is then
    sampled by a positive combination of the two samples; a cell on the
    hyperplane either lies inside it or is cut into both sides.
    """
    cells = [(0,) * rank]
    for idx, h in enumerate(normals):
        prior = normals[:idx]
        new_cells = []
        for sample in cells:
            vals = [_dot(n, sample) for n in prior]
            eqs = [n for n, v in zip(prior, vals) if v == 0]
            strict = [n if v > 0 else tuple(-x for x in n) for n, v in zip(prior, vals) if v != 0]

            def side(sign):
                return strict_sample(strict + [tuple(sign * x for x in h)], eqs, rank)

            val = _dot(h, sample)
            if val != 0:
                new_cells.append(sample)
                opp = side(-1 if val > 0 else 1)
                if opp is not None:
                    b = _dot(h, opp)
                    middle = [abs(val) * y + abs(b) * x for x, y in zip(sample, opp)]
                    g = gcd(*middle)
                    new_cells += [opp, tuple(x // g for x in middle)]
            else:
                plus = side(1)
                if plus is None:
                    new_cells.append(sample)
                else:
                    minus = side(-1)
                    if minus is None:
                        raise AssertionError(f"the open cell of sample {sample} meets {h} > 0 but not {h} < 0")
                    new_cells += [plus, minus, sample]
        cells = new_cells
    return cells


def affine_slice_type_by_homogenisation(c, psi, sub):
    """Classify ``relint(c) ∩ (psi + span_R(sub))`` by one strict-feasibility
    test in the slice coordinates.

    The slice ``psi + sum t_i b_i`` is homogenised by a variable ``s > 0``;
    it is a point when the equations of ``c`` restricted to ``span(sub)``
    have full rank.
    """
    basis = sub.basis

    def restrict(f):
        return tuple(sum(a * x for a, x in zip(f, b)) for b in basis) + (
            sum(a * x for a, x in zip(f, psi)),
        )

    eqs = [restrict(e) for e in c.equations]
    strict = [restrict(h) for h in c.halfspaces]
    strict.append(tuple(0 for _ in basis) + (1,))
    if strict_sample(strict, eqs, len(basis) + 1) is None:
        return "empty"
    restricted = [e[:-1] for e in eqs]
    return "point" if matrix_rank(restricted) == len(basis) else "positive_dim"


def segment_integer_points(a, b):
    """Integer points on the segment [a, b] inclusive."""
    diff = tuple(y - x for x, y in zip(a, b))
    g = 0
    for x in diff:
        g = gcd(g, abs(x))
    if g == 0:
        return [tuple(a)]
    step = tuple(x // g for x in diff)
    return [tuple(x + k * s for x, s in zip(a, step)) for k in range(g + 1)]


def projected_ray_walls(fan, projection_matrix, sub_basis):
    """Rank-2/rank-1 oracle: quotient walls are the projected uncollapsed rays."""
    walls = set()
    for c in fan.cones:
        if c.dim != 1:
            continue
        ray = c.generators[0]
        img = sum(projection_matrix[0][i] * ray[i] for i in range(len(ray)))
        if img != 0:
            walls.add(1 if img > 0 else -1)
    return walls


def fan_ok_all_pairs(fan):
    """Fan test over every pair of cones: strictly convex, closed under faces,
    and every two cones meet in a common face of both."""
    from chowfan.cones import intersect_cones, is_face_of

    keys = {c.key() for c in fan.cones}
    for c in fan.cones:
        if c.lineality or any(f.key() not in keys for f in faces_by_facet_walk(c)):
            return False
    for i, a in enumerate(fan.cones):
        for b in fan.cones[i + 1 :]:
            inter = intersect_cones(a, b)
            if not (is_face_of(inter, a) and is_face_of(inter, b)):
                return False
    return True


def maximal_by_containment(fan):
    """Indices of the cones contained in no other cone of the fan."""
    return tuple(
        i
        for i, c in enumerate(fan.cones)
        if not any(j != i and o.contains_cone(c) for j, o in enumerate(fan.cones))
    )


def relint_cone_by_scan(fan, v):
    """First cone of the fan whose relative interior contains ``v``, or None."""
    for i, c in enumerate(fan.cones):
        if c.contains_in_relint(v):
            return i
    return None


def minimal_targets_by_scan(matrix, src, dst):
    """Per source cone, the target cone of least dimension containing its
    image, required to lie in every target cone containing the image; None
    when some image has no such target cone."""
    from chowfan.cones import image_cone

    out = []
    for c in src.cones:
        img = image_cone(matrix, c)
        cands = [j for j, t in enumerate(dst.cones) if t.contains_cone(img)]
        if not cands:
            return None
        low = min(cands, key=lambda j: dst.cones[j].dim)
        if not all(dst.cones[j].contains_cone(dst.cones[low]) for j in cands):
            return None
        out.append(low)
    return tuple(out)


def parallelepiped_points(simplex_rays):
    """Nonzero lattice points of the half-open parallelepiped of independent
    rays, each built as a vector from its ray coefficients.

    With ``R`` the ``n x r`` ray matrix and Smith form ``D = U @ R @ V``,
    the points are the classes of the box of ``d`` modulo the rays, and
    their ray coefficients are ``z @ (det/d) U / det``; taken mod ``det``
    they give the point ``sum(num_i r_i) / det`` in integers.
    """
    s, u, _ = smith_normal_form(simplex_rays)
    diag = [s[i][i] for i in range(len(simplex_rays))]
    det = prod(diag)
    nums = [(0,) * len(diag)]
    for d, row in zip(diag, u):
        step = det // d
        nums = [tuple(x + a * step * y for x, y in zip(t, row)) for t in nums for a in range(d)]
    out = []
    for t in nums:
        num = [x % det for x in t]
        if any(num):
            out.append(tuple(
                sum(n * r[k] for n, r in zip(num, simplex_rays)) // det
                for k in range(len(simplex_rays[0]))
            ))
    return out


def hilbert_basis_by_tuple_sieve(c):
    """Hilbert basis of ``c ∩ Z^rank`` by the tuple-by-tuple dominance sieve.

    The library's earlier candidate path: the pulling triangulation's
    parallelepiped points, each built as a vector, collected in a set with
    the rays and valued one by one; then its grade-order, half-grade
    cutoff, where each dominance test compares the two tuples of halfspace
    values entry by entry, with no packing and no unimodular exit.
    """
    from chowfan.monoids import _grading, _triangulate

    if c.dim == 0:
        return ()
    candidates = set(c.generators)
    for simplex in _triangulate(c):
        candidates.update(parallelepiped_points(simplex))
    grading = _grading(c)

    def value(h, x):
        return sum(a * b for a, b in zip(h, x))

    valued = sorted(
        (value(grading, x), x, tuple(value(h, x) for h in c.halfspaces)) for x in candidates
    )
    basis = []
    for gx, x, hx in valued:
        reducible = False
        for gb, _b, hb in basis:
            if 2 * gb > gx:
                break
            if all(p >= q for p, q in zip(hx, hb)):
                reducible = True
                break
        if not reducible:
            basis.append((gx, x, hx))
    return tuple(sorted(x for _, x, _hx in basis))


def refinement_all_pairs(cq):
    """The common refinement ``{p^{-1}(kappa) ∩ sigma}`` over every pair of
    quotient and input cones, as a dict from cone key to the set of
    ``(host, base)`` pairs whose intersection it is."""
    from chowfan.cones import intersect_cones, preimage_cone

    rank = cq.fan.ambient_rank
    out = {}
    for base, kappa in enumerate(cq.quotient_fan.cones):
        pre = preimage_cone(cq.projection.matrix, kappa, rank)
        for host, sigma in enumerate(cq.fan.cones):
            out.setdefault(intersect_cones(pre, sigma).key(), set()).add((host, base))
    return out


def refinement_fixed_point_all_pairs(fam):
    """Refine the family fan by every (quotient-cone preimage, family cone)
    pair and compare the resulting cone keys with the family fan's."""
    from chowfan.cones import intersect_cones, preimage_cone

    proj = fam.chow.projection
    rank = fam.fan.ambient_rank
    keys = set()
    for kappa in fam.base.fan.cones:
        pre = preimage_cone(proj.matrix, kappa, rank)
        for c in fam.fan.cones:
            keys.add(intersect_cones(pre, c).key())
    return keys == {c.key() for c in fam.fan.cones}


def span_lattice_by_saturation(c):
    """``span_R(c) ∩ Z^r`` as the saturation of the HNF of the cone's
    generators and lineality (an HNF and two integer kernels)."""
    from chowfan.intlinalg import saturate, sublattice

    return saturate(sublattice(c.ambient_rank, c.generators + c.lineality))


def parallelepiped_points_by_span_coordinates(simplex_rays, rank):
    """Nonzero lattice points of the half-open parallelepiped of independent
    rays, from the Smith form of the rays' coordinates in an HNF basis of
    their saturated span."""
    from chowfan.intlinalg import coordinates_in, saturate, sublattice

    span = saturate(sublattice(rank, simplex_rays))
    coords = tuple(coordinates_in(span.basis, r) for r in simplex_rays)
    s, u, _ = smith_normal_form(coords)
    diag = [s[i][i] for i in range(len(simplex_rays))]
    det = prod(diag)
    nums = [(0,) * len(diag)]
    for d, row in zip(diag, u):
        step = det // d
        nums = [tuple(x + a * step * y for x, y in zip(t, row)) for t in nums for a in range(d)]
    out = []
    for t in nums:
        num = [x % det for x in t]
        if any(num):
            out.append(tuple(
                sum(n * r[k] for n, r in zip(num, simplex_rays)) // det for k in range(rank)
            ))
    return out


def member_by_search(v, gens, cone, grading):
    """Is ``v`` a sum of ``gens``?  A recursive search inside ``cone``.

    ``cone`` must contain the monoid generated by ``gens``, and ``grading``
    must be strictly positive on the nonzero generators, so every step
    lowers the grade and the search terminates.
    """
    v = tuple(v)
    if not any(v):
        return True
    if not cone.contains(v):
        return False
    memo = {}
    usable = [tuple(g) for g in gens if any(g)]

    def grade(x):
        return sum(a * b for a, b in zip(grading, x))

    def reach(x):
        if not any(x):
            return True
        known = memo.get(x)
        if known is not None:
            return known
        memo[x] = False  # cycle guard; the grade strictly decreases anyway
        for g in usable:
            rest = tuple(a - b for a, b in zip(x, g))
            if grade(g) <= grade(x) and cone.contains(rest) and reach(rest):
                memo[x] = True
                return True
        return memo[x]

    return reach(v)


def reduced_witnesses_by_search(family_datum, base_datum, base_assignment, projection):
    """``(i, hb)`` for every basis element ``hb`` of the base monoid of
    family cone ``i`` that is no sum of projected generators of that
    cone's monoid, found by :func:`member_by_search` (pointed bases)."""
    out = []
    for i, m in enumerate(family_datum.monoids):
        target = base_datum.monoids[base_assignment[i]]
        images = [
            tuple(sum(a * b for a, b in zip(row, g)) for row in projection)
            for g in m.generators()
        ]
        grading = target.grading()
        for hb in target.hilbert_basis:
            if not member_by_search(hb, images, target.cone, grading):
                out.append((i, hb))
    return out


def reduced_report_by_mapping_every_generator(family_datum, base_datum, base_assignment, projection):
    """The library's earlier surjectivity report: every generator of every
    family monoid is mapped, and the base basis elements missing from the
    images are the witnesses."""
    from chowfan.intlinalg import mat_vec
    from chowfan.monoids import MonoidNotMapped, monoid_hom
    from chowfan.verify import CheckReport

    failures = []
    for i, m in enumerate(family_datum.monoids):
        j = base_assignment[i]
        target = base_datum.monoids[j]
        if not target.is_pointed:
            raise ValueError(f"base monoid {j} has units")
        try:
            monoid_hom(projection, m, target)
        except MonoidNotMapped as e:
            raise ValueError(
                f"family monoid {i} maps {e.generator} to {e.image} outside base monoid {j}"
            ) from e
        images = {mat_vec(projection, g) for g in m.generators()}
        failures.extend((i, hb) for hb in target.hilbert_basis if hb not in images)
    if failures:
        return CheckReport("reduced", "fail", tuple(failures))
    return CheckReport("reduced", "pass", ())


def cone_by_two_conversions(vectors, subspace, rank, from_halfspaces=False):
    """Canonical ``(generators, lineality, halfspaces, equations)`` of a cone
    by two double descriptions, one to each side.

    The cone is generated by the rays ``vectors`` and the lines
    ``subspace``, or, with ``from_halfspaces``, cut out by the halfspaces
    ``vectors`` and the equations ``subspace``.
    """
    from chowfan.cones import double_description

    first, first_lin, _ = double_description(vectors, subspace, rank)
    second, second_lin, _ = double_description(first, first_lin, rank)
    if from_halfspaces:
        return first, first_lin, second, second_lin
    return second, second_lin, first, first_lin


def incidence_by_dot_products(c):
    """For each halfspace of ``c``, the bitmask of the generators it vanishes on."""
    return tuple(
        sum(
            1 << k
            for k, g in enumerate(c.generators)
            if sum(a * b for a, b in zip(h, g)) == 0
        )
        for h in c.halfspaces
    )


def monoid_map_escape_by_generators(matrix, source, target):
    """The first generator of ``source`` that ``matrix`` sends outside
    ``target``, by one membership test per generator, or None."""
    from chowfan.monoids import member

    for g in source.generators():
        if not member(target, tuple(sum(a * b for a, b in zip(row, g)) for row in matrix)):
            return g
    return None


def integer_kernel_by_two_hermite_passes(m, ncols):
    """HNF basis of ``{x : m @ x == 0}``: the transform rows of the Hermite
    form of ``m`` transposed whose Hermite part is zero, put into HNF again."""
    from chowfan.intlinalg import hermite_normal_form, identity_matrix, row_lattice_hnf

    rows = [tuple(r) for r in m]
    if not rows:
        return identity_matrix(ncols)
    h, u = hermite_normal_form(tuple(zip(*rows)))
    kernel_rows = [u[i] for i in range(len(h)) if not any(h[i])]
    return row_lattice_hnf(kernel_rows) if kernel_rows else ()


def multiplicity_by_saturation(cone, sub):
    """``[sat(T) : T]`` for ``T = sub + span(cone) ∩ Z^r``, by saturating
    ``T`` and taking the index; None when the spans meet beyond 0, which
    a lattice intersection decides."""
    from chowfan.cones import _span_lattice
    from chowfan.intlinalg import lattice_index, lattice_intersection, lattice_sum, saturate

    span = _span_lattice(cone)
    if lattice_intersection(span, sub).rank != 0:
        return None
    total = lattice_sum(sub, span)
    return lattice_index(total, saturate(total))


# ---------------------------------------------------------------------------
# kernel forms: one generator frame per entry


def vec_by_generator(entries):
    return tuple(int(e) for e in entries)


def vadd_by_generator(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vsub_by_generator(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vscale_by_generator(c, a):
    return tuple(c * x for x in a)


def is_zero_by_generator(a):
    return all(x == 0 for x in a)


def vec_gcd_by_loop(a):
    g = 0
    for x in a:
        g = gcd(g, abs(x))
    return g


def primitive_by_generator(a):
    g = vec_gcd_by_loop(a)
    if g <= 1:
        return tuple(a)
    return tuple(x // g for x in a)


def mat_by_generator(rows):
    return tuple(vec_by_generator(r) for r in rows)


def identity_matrix_by_generator(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def mat_mul_by_generator(a, b):
    bt = tuple(zip(*b)) if b else ()
    return tuple(tuple(_dot(row, col) for col in bt) for row in a)


def mat_vec_by_generator(m, v):
    return tuple(_dot(row, v) for row in m)


def coordinates_in_by_scan(basis_hnf, v):
    """Integer coordinates of ``v`` in an HNF row basis, or None: pivots
    found by enumerating each row."""
    residue = list(v)
    coeffs = []
    for row in basis_hnf:
        piv = next((j for j, x in enumerate(row) if x != 0), None)
        if piv is None:
            coeffs.append(0)
            continue
        if residue[piv] % row[piv] != 0:
            return None
        q = residue[piv] // row[piv]
        coeffs.append(q)
        residue = [x - q * y for x, y in zip(residue, row)]
    if not is_zero_by_generator(residue):
        return None
    return tuple(coeffs)


def cone_contains_by_dot(c, v, relint=False):
    """``Cone.contains`` (or ``contains_in_relint``) by one dot product per
    halfspace and equation."""
    inside = all((_dot(h, v) > 0) if relint else (_dot(h, v) >= 0) for h in c.halfspaces)
    return inside and all(_dot(e, v) == 0 for e in c.equations)


def relative_interior_sample_by_sums(c, variant=0):
    """``relative_interior_sample`` as a running sum of weighted rays; a
    ``variant > 0`` weights the ``i``-th ray, counted from 1, by
    ``1 + variant * i``: another point of the relative interior, for
    resampling tests."""
    total = tuple(0 for _ in range(c.ambient_rank))
    for i, g in enumerate(c.generators):
        total = vadd_by_generator(total, vscale_by_generator(1 + variant * (i + 1), g))
    return total


def dumps_by_json(doc):
    """``serialize.dumps`` as the ``json`` module's indented encoder."""
    return json.dumps(doc, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def group_coordinates(m):
    """``(monoid', basis, hilbert_basis')``: the monoid rewritten in the
    coordinates of the rows ``basis`` of its group, a point ``y`` of the new
    monoid standing for ``y @ basis``; its cone is carried through the
    basis, and its Hilbert basis and units are mapped through
    ``coordinates_in``."""
    from chowfan.cones import _pull_back
    from chowfan.intlinalg import Sublattice, coordinates_in, full_lattice, row_lattice_hnf
    from chowfan.monoids import AffineMonoid, _reduce_mod_units

    basis = m.group.basis
    k = len(basis)
    cone = _pull_back(m.cone, basis)
    units = Sublattice(k, row_lattice_hnf([coordinates_in(basis, u) for u in m.units.basis]))
    hb = tuple(sorted(
        _reduce_mod_units(coordinates_in(basis, g), units) for g in m.hilbert_basis
    ))
    return AffineMonoid(k, units, cone, full_lattice(k)), basis, hb


def check_integral_by_pair_walk(h, degree_bound):
    """``verify.check_integral`` as the walk over every target element for
    each pair of incomparable sources, each order test a ``Cone.contains``.

    Shares the library's witness tables and witness search (looked up on
    the module at each call, so a wrapper on ``verify._witness_search``
    sees this walk's searches too).
    """
    from chowfan import verify

    if degree_bound < 1:
        raise ValueError(f"degree bound must be at least 1, got {degree_bound}")
    source, target = h.source, h.target
    tables = verify._witness_tables(h, degree_bound)
    t_elems = [t for _, t in tables[1]]
    grading_s = source.grading()
    mapped = [(s, image) for s, image in tables[3] if _dot(grading_s, s) <= degree_bound]
    t_set = set(t_elems)
    params = (("degree_bound", degree_bound),)
    for a, (s1, image1) in enumerate(mapped):
        for s2, image2 in mapped[a + 1:]:
            if source.cone.contains(vsub_by_generator(s1, s2)) or source.cone.contains(
                vsub_by_generator(s2, s1)
            ):
                continue
            delta = vsub_by_generator(image1, image2)
            witnessed = []
            for t1 in t_elems:
                t2 = vadd_by_generator(t1, delta)
                if t2 not in t_set:
                    continue
                if any(target.cone.contains(vsub_by_generator(t1, t0)) for t0 in witnessed):
                    continue
                if verify._witness_search(tables, s1, s2, t1, t2) is None:
                    return verify.CheckReport(
                        "integral",
                        "fail",
                        ((s1, s2, t1, t2),),
                        params + (("witness_bound", 2 * degree_bound),),
                    )
                witnessed.append(t1)
    return verify.CheckReport("integral", "pass", (), params)


def quotient_map_by_completion(ambient_rank, kernel):
    """``(matrix, section)`` of the projection ``Z^r -> Z^r / kernel``, or
    None if the kernel is not saturated.

    The kernel's HNF basis is completed by the last rows of ``inv(V)``, for
    ``V`` the column transform of its Smith form, to a unimodular ``W``; the
    projection is the last ``q`` coordinates in the basis of ``W``'s rows,
    read off ``inv(W)``, and the section is those last rows of ``W``.
    """
    from chowfan.intlinalg import saturate, transpose, unimodular_inverse

    if saturate(kernel) != kernel:
        return None
    k = kernel.rank
    if k == 0:
        w = tuple(tuple(int(i == j) for j in range(ambient_rank)) for i in range(ambient_rank))
    else:
        _, _, v = smith_normal_form(kernel.basis)
        w = kernel.basis + unimodular_inverse(v)[k:]
    w_inv = unimodular_inverse(w) if ambient_rank else ()
    return transpose(w_inv)[k:], w[k:]


def matrix_rank(m):
    """Rank over Q: the rank of the row lattice."""
    from chowfan.intlinalg import row_lattice_hnf

    return len(row_lattice_hnf(m))


def fiber_dimension(c, matrix, value):
    """Dimension of the closed fiber ``c ∩ {x : matrix @ x == value}``.

    Returns None when the fiber is empty.  The fiber is the slice ``s = 1``
    of the homogenised cone ``(c × {s >= 0}) ∩ {matrix @ x == s * value}``:
    it is nonempty when some ray of that cone has ``s > 0``, and then has
    one dimension less than the cone.
    """
    from chowfan.cones import double_description

    ineqs = [tuple(h) + (0,) for h in c.halfspaces]
    ineqs.append((0,) * c.ambient_rank + (1,))
    eqs = [tuple(e) + (0,) for e in c.equations]
    eqs += [tuple(row) + (-v,) for row, v in zip(matrix, value)]
    rays, lines, _ = double_description(ineqs, eqs, c.ambient_rank + 1)
    if all(r[-1] == 0 for r in rays):
        return None
    return matrix_rank(rays + lines) - 1


def enumerate_elements_by_search(m, grading, bound):
    """The library's earlier element enumeration: a search from zero over
    sums of Hilbert-basis elements, keeping each element of grade at most
    ``bound`` once; sorted by ``(grade, element)`` (pointed monoids)."""
    gens = sorted((sum(a * b for a, b in zip(grading, g)), g) for g in m.hilbert_basis if any(g))
    zero = (0,) * m.ambient_rank
    grade = {zero: 0}
    frontier = [(0, zero)]
    while frontier:
        gx, x = frontier.pop()
        for gg, g in gens:
            gy = gx + gg
            if gy > bound:
                break  # gens is sorted by grade
            y = tuple(a + b for a, b in zip(x, g))
            if y not in grade:
                grade[y] = gy
                frontier.append((gy, y))
    return sorted(grade, key=lambda v: (grade[v], v))


def lineality_by_saturation(ineqs, eqs, rank):
    """HNF basis of the saturated lineality lattice of ``{ineqs.x >= 0,
    eqs.x == 0}``: integer lines spanning the rational null space of all
    constraints, by Gauss-Jordan elimination over Fractions, then
    ``saturate(Sublattice(rank, row_lattice_hnf(lines)))``."""
    from chowfan.intlinalg import Sublattice, row_lattice_hnf, saturate

    rows = [[Fraction(x) for x in r] for r in list(ineqs) + list(eqs)]
    pivots = []
    for col in range(rank):
        piv = next((i for i in range(len(pivots), len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        k = len(pivots)
        rows[k], rows[piv] = rows[piv], rows[k]
        rows[k] = [x / rows[k][col] for x in rows[k]]
        for i in range(len(rows)):
            if i != k and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[k])]
        pivots.append(col)
    lines = []
    for free in (j for j in range(rank) if j not in pivots):
        x = [Fraction(0)] * rank
        x[free] = Fraction(1)
        for k, col in enumerate(pivots):
            x[col] = -rows[k][free]
        den = 1
        for v in x:
            den = den * v.denominator // gcd(den, v.denominator)
        lines.append([int(v * den) for v in x])
    if not lines:
        return ()
    return saturate(Sublattice(rank, row_lattice_hnf(lines))).basis


def face_group_by_intersection(face, lattice):
    """``span(face) ∩ lattice`` as the intersection of the face's span
    lattice with ``lattice``."""
    from chowfan.cones import _span_lattice
    from chowfan.intlinalg import lattice_intersection

    return lattice_intersection(_span_lattice(face), lattice)


def facet_equations_by_kernel(facet):
    """The equations of a cone as the integer kernel of its rays and lines."""
    from chowfan.intlinalg import integer_kernel

    return integer_kernel(facet.generators + facet.lineality, facet.ambient_rank)


def faces_by_facet_walk(c):
    """Every face of ``c``, walked down through facets from ``c`` alone."""
    from chowfan.cones import facets

    seen = {c.key(): c}
    frontier = [c]
    while frontier:
        nxt = []
        for f in frontier:
            for g in facets(f):
                if g.key() not in seen:
                    seen[g.key()] = g
                    nxt.append(g)
        frontier = nxt
    return list(seen.values())


def chow_quotient_by_cell_hulls(fan, sub):
    """The library's earlier quotient: each class closed up as the hull of
    the closures of its arrangement cells, one double description per
    cell; the fan completed by walking the faces of each class cone on its
    own; and each quotient cone's meeting set found again by scanning every
    image at a sample of its relative interior.  A cell's signs are read
    off its sample, which lies in its relative interior."""
    from chowfan.chow import ChowQuotient, _canonical_normal, _cone_data, _meeting_set, multiplicity
    from chowfan.cones import (
        Fan,
        _cone_sort_key,
        _span_lattice,
        cone_from_generators,
        cone_from_halfspaces,
        image_cone,
        relative_interior_sample,
    )
    from chowfan.intlinalg import image_lattice, lattice_intersection, quotient_map

    proj = quotient_map(fan.ambient_rank, sub)
    q = proj.target_rank
    images = tuple(image_cone(proj.matrix, c) for c in fan.cones)
    normals = sorted({_canonical_normal(h) for img in images for h in img.halfspaces + img.equations if any(h)})
    groups = {}
    for sample in cells_by_feasibility(tuple(normals), q):
        signs = [(d > 0) - (d < 0) for d in (_dot(n, sample) for n in normals)]
        groups.setdefault(_meeting_set(images, sample), []).append(signs)
    merged = []
    for members in groups.values():
        gens, lines = [], []
        for signs in members:
            closure = cone_from_halfspaces(
                [tuple(s * x for x in n) for n, s in zip(normals, signs) if s],
                [n for n, s in zip(normals, signs) if not s],
                q,
            )
            gens += closure.generators
            lines += closure.lineality
        merged.append(cone_from_generators(gens, lines, q))
    faces = {f.key(): f for c in merged for f in faces_by_facet_walk(c)}
    gfan = Fan(q, tuple(sorted(faces.values(), key=_cone_sort_key)))
    point_facts = {
        i: (multiplicity(fan, sub, i), image_lattice(proj.matrix, _span_lattice(c)))
        for i, c in enumerate(fan.cones)
        if images[i].dim == c.dim
    }
    data = tuple(
        _cone_data(
            images, point_facts, lattice_intersection, kappa, _meeting_set(images, relative_interior_sample(kappa)), k
        )
        for k, kappa in enumerate(gfan.cones)
    )
    return ChowQuotient(fan, sub, proj, gfan, data)


def stack_datum_ok_by_all_faces(d):
    """The library's earlier stack-datum verdict: each monoid restricted to
    every face of its cone that is in the fan, not just to its facets."""
    from chowfan.monoids import restrict_to_face

    fan, index = d.fan, d.fan._index()
    for c, m in zip(fan.cones, d.monoids):
        if m.ambient_rank != d.lattice_rank or not c.contains_cone(m.cone):
            return False
        for face in faces_by_facet_walk(c):
            j = index.get(face.key())
            if j is not None and restrict_to_face(m, face) != d.monoids[j]:
                return False
    return all(
        fan.cones[i].dim == d.lattice_rank and d.monoids[i].group.rank == d.lattice_rank
        for i in fan.maximal_indices()
    )


def raw_cone_and_its_span_cut(cq, data):
    """``(raw, cut)`` for the quotient cone data ``data`` of ``cq``: ``raw``
    the intersection of the images of its point-fiber cones, and ``cut``
    that intersection also cut by ``span(lift_lattice)``, the two-step cone
    the raw-monoid diagnostic once tested.  Each is one conversion of the
    images' halfspaces and equations, plus the lattice span's equations for
    ``cut``."""
    from chowfan.cones import cone_from_halfspaces, image_cone
    from chowfan.intlinalg import integer_kernel

    q = cq.projection.target_rank
    images = [image_cone(cq.projection.matrix, cq.fan.cones[i]) for i in data.point_fiber_cones]
    halfspaces = [h for c in images for h in c.halfspaces]
    equations = [e for c in images for e in c.equations]
    raw = cone_from_halfspaces(halfspaces, equations, q)
    span_equations = list(integer_kernel(data.lift_lattice.basis, q))
    return raw, cone_from_halfspaces(halfspaces, equations + span_equations, q)


def stack_morphism_by_cone(matrix, src, dst):
    """The library's earlier :func:`~chowfan.stacks.validate_stack_morphism`:
    the fan morphism, then :func:`~chowfan.monoids.monoid_hom` from each
    source monoid into the monoid of its assigned cone, in source order."""
    from chowfan.cones import check_fan_morphism
    from chowfan.intlinalg import mat
    from chowfan.monoids import MonoidNotMapped, monoid_hom
    from chowfan.stacks import StackMorphism

    mtx = mat(matrix)
    fm = check_fan_morphism(mtx, src.fan, dst.fan)
    for i, m in enumerate(src.monoids):
        j = fm.cone_assignment[i]
        try:
            monoid_hom(mtx, m, dst.monoids[j])
        except MonoidNotMapped as e:
            raise MonoidNotMapped(
                f"generator {e.generator} of the monoid at cone {i} does not map into "
                f"the monoid at target cone {j}",
                e.generator,
                e.image,
            ) from e
    return StackMorphism(mtx, src, dst, fm)


def provenance_by_intersection(fam):
    """Each family cone's ``p^{-1}(base) ∩ host``, for ``(host, base)`` its
    provenance: one preimage per quotient cone and one intersection per
    family cone, aligned with the family fan's cones."""
    from chowfan.cones import intersect_cones, preimage_cone

    rank = fam.fan.ambient_rank
    preimages = [preimage_cone(fam.chow.projection.matrix, kappa, rank) for kappa in fam.base.fan.cones]
    return tuple(intersect_cones(preimages[base], fam.variety.fan.cones[host]) for host, base in fam.provenance)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want exit 1
        from chowfan.cli import UsageError

        raise UsageError(message)


def _degree_bound(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> _Parser:
    p = _Parser(prog="chowfan", description=__doc__)
    p.add_argument("command", choices=[
        "validate", "quotient", "multiplicities", "cycle", "family", "fiber",
        "check", "all",
    ])
    p.add_argument("input", help="input document path, or - for stdin")
    p.add_argument("--saturate", action="store_true",
                   help="replace the sublattice by its saturation instead of failing")
    p.add_argument("--cone", type=int, default=None,
                   help="quotient cone index for cycle/fiber")
    p.add_argument("--bound", type=_degree_bound, default=8,
                   help="degree bound for the integrality check")
    p.add_argument("--integral", action="store_true")
    p.add_argument("--reduced", action="store_true")
    p.add_argument("--equidim", action="store_true")
    p.add_argument("--basic", action="store_true")
    p.add_argument("--output", default=None, help="write the document here instead of stdout")
    p.add_argument("--graph-out", default=None,
                   help="also write the fiber graph in DOT format to this path")
    return p


def lift_into_span_by_solving(proj, c, value):
    """``(d, x)`` with ``x / d`` the preimage of ``value`` in the span of
    ``c``, solved afresh on the HNF basis of the span; ValueError when there
    is none."""
    from chowfan.intlinalg import dot, solve_rational

    span = span_lattice_by_saturation(c)
    rows = [tuple(dot(prow, b) for b in span.basis) for prow in proj.matrix]
    solved = solve_rational(rows, value)
    if solved is None:
        raise ValueError("value is not in the projected span")
    d, coefs = solved
    out = [0] * c.ambient_rank
    for coef, b in zip(coefs, span.basis):
        out = [x + coef * y for x, y in zip(out, b)]
    return d, tuple(out)
