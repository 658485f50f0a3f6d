"""Exact integer linear algebra over Z^r.

Everything in this module works with plain Python integers (arbitrary
precision) and tuples; there is no floating point and no rational
arithmetic anywhere.  The central objects are

* :func:`row_lattice_hnf`, the one general elimination loop; it builds no
  transform.  :func:`hermite_normal_form` reads ``H`` and a unimodular
  ``U`` off the Hermite basis of ``[m | I]``, and rank, kernels,
  unimodular inverses and elementary divisors (row and column Hermite
  forms in turn) come from these,
* :func:`solve_rational`, which solves rational linear systems by forward
  substitution on one Hermite form (kept per span for a lift into it), as
  an integer numerator over a least common denominator,
* :class:`Sublattice`, a canonicalized (row HNF) subgroup of Z^r, with
  saturation, sum, intersection and index computations,
* :class:`QuotientMap`, a surjection Z^r -> Z^q with a prescribed saturated
  kernel and a deterministic integral section, read off a unit-pivot
  reduction of the kernel basis that only it uses.

Vectors are tuples of Python ints, matrices are tuples of row tuples.
Inside the library that is an invariant, so each vector or matrix kernel
is one builtin pass (``map`` over :mod:`operator`, ``sum``, ``gcd(*v)``)
and converts nothing.  Entries are read with :func:`operator.index` only
at the boundaries: the decoders, the public constructors (:func:`vec`,
:func:`mat`, :func:`sublattice`, the cone constructors) and
:func:`row_lattice_hnf`, under every normal form; a float, a ``Fraction``
or a string raises ``TypeError`` there instead of being truncated.
:func:`identity_matrix` is memoised; its tuples are shared.
Most Hermite forms are kernels: the cone code takes none for a facet of a
full-dimensional cone and one for a lineality (not a saturation of the
lines); a monoid's group ``span(c) ∩ L``, and the group of each of its
faces, is one kernel in the coordinates of ``L`` (:func:`_span_cut`), none
for a full-dimensional ``c``.  Private steps only are memoised by value: as
``1.0 == 1``, a public one would answer a float from an int's entry.
"""

from __future__ import annotations

from functools import cache
from math import gcd, prod
from operator import add, index, mul, sub
from typing import Iterable, Optional, Sequence

from ._record import Record

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]


class NotASublattice(ValueError):
    """Raised when a claimed sublattice containment fails."""


class NotSaturated(ValueError):
    """Raised when an operation requires a saturated sublattice."""


class InternalConsistencyError(RuntimeError):
    """A property the theory guarantees failed: on valid input, a bug, not a user error."""


# ---------------------------------------------------------------------------
# vector helpers


def vec(entries: Iterable[int]) -> Vec:
    return tuple(map(index, entries))


def vadd(a: Sequence[int], b: Sequence[int]) -> Vec:
    return tuple(map(add, a, b))


def vsub(a: Sequence[int], b: Sequence[int]) -> Vec:
    return tuple(map(sub, a, b))


def vscale(c: int, a: Sequence[int]) -> Vec:
    return tuple([c * x for x in a])


def dot(a: Sequence, b: Sequence):
    return sum(map(mul, a, b))


def is_zero(a: Sequence[int]) -> bool:
    return not any(a)


def vec_gcd(a: Sequence[int]) -> int:
    return gcd(*a)


def primitive(a: Sequence[int]) -> Vec:
    """Divide out the content of an integer vector (zero stays zero)."""
    g = vec_gcd(a)
    if g <= 1:
        return tuple(a)
    return tuple([x // g for x in a])


def mat(rows: Iterable[Iterable[int]]) -> Mat:
    return tuple([tuple(map(index, r)) for r in rows])


def require_shape(m: Mat, rows: int, cols: int) -> None:
    """Raise ``ValueError`` unless ``m`` has ``rows`` rows of ``cols`` entries
    (``zip`` would silently truncate a map of the wrong shape)."""
    if len(m) != rows or any(len(r) != cols for r in m):
        raise ValueError(f"expected a {rows} x {cols} matrix, got {m}")


@cache
def identity_matrix(n: int) -> Mat:
    return tuple(tuple([int(i == j) for j in range(n)]) for i in range(n))


def transpose(m: Mat) -> Mat:
    if not m:
        return ()
    return tuple(zip(*m))


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple([tuple([sum(map(mul, row, col)) for col in bt]) for row in a])


def mat_vec(m: Mat, v: Sequence) -> tuple:
    return tuple([sum(map(mul, row, v)) for row in m])


# ---------------------------------------------------------------------------
# normal forms


def row_lattice_hnf(rows: Sequence[Sequence[int]]) -> Mat:
    """HNF basis of the lattice generated by the rows (zero rows dropped).

    Pivots are positive, entries above each pivot lie in ``[0, pivot)``; the
    result is the unique canonical basis of the row lattice.  This is the
    library's only Hermite elimination loop.
    """
    work = [w for w in [list(map(index, r)) for r in rows] if any(w)]
    done: list[list[int]] = []
    col = 0
    while work:
        nz, rest = [], []
        for r in work:
            (nz if r[col] else rest).append(r)
        work = rest
        while len(nz) > 1:  # Euclid on column col: reduce all by the smallest
            p = min(nz, key=lambda r: abs(r[col]))
            rest = [p]
            for r in nz:
                if r is not p:
                    q = r[col] // p[col]
                    r = [x - q * y for x, y in zip(r, p)]
                    if r[col] or any(r):  # work never holds a zero row
                        (rest if r[col] else work).append(r)
            nz = rest
        if nz:
            p = nz[0] if nz[0][col] > 0 else [-x for x in nz[0]]
            for i, d in enumerate(done):
                q = d[col] // p[col]
                if q:
                    done[i] = [x - q * y for x, y in zip(d, p)]
            done.append(p)
        col += 1
    return tuple(map(tuple, done))


def _require_row_length(m: Sequence[Sequence[int]], ncols: int) -> None:
    """Name the first row not of length ``ncols``, which a ``zip`` transpose would drop."""
    for bad in (r for r in m if len(r) != ncols):
        raise ValueError(f"row {tuple(bad)} does not have length {ncols}")


def hermite_normal_form(m: Sequence[Sequence[int]]) -> tuple[Mat, Mat]:
    """Row Hermite normal form with a unimodular transform.

    Returns ``(H, U)`` with ``H = U @ m``, ``U`` unimodular and ``H`` the
    row HNF of ``m`` padded with zero rows at the bottom.  Both are read off
    :func:`row_lattice_hnf` of ``[m | I]``, whose rows are ``(x @ m, x)``.
    """
    n = len(m)
    if n == 0:
        return (), ()
    ncols = len(m[0])
    _require_row_length(m, ncols)
    aug = row_lattice_hnf([tuple(r) + e for r, e in zip(m, identity_matrix(n))])
    return tuple([r[:ncols] for r in aug]), tuple([r[ncols:] for r in aug])


def elementary_divisors(m: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The nonzero diagonal ``d1 | d2 | ...`` of the Smith form of ``m``.

    Row and column Hermite forms alternate until the matrix is diagonal
    (Kannan & Bachem, SIAM J. Comput. 8(4), 1979): a pass that keeps the
    leading pivot clears its row and column, and one that changes it makes
    it smaller.  Each pair of diagonal entries is then replaced by its gcd
    and lcm, which sorts the exponent of every prime.
    """
    h = row_lattice_hnf(m)
    while any(x for i, row in enumerate(h) for j, x in enumerate(row) if i != j):
        h = row_lattice_hnf(transpose(h))
    diag = [row[i] for i, row in enumerate(h)]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] // g * diag[j]
    return tuple(diag)


def unimodular_inverse(m: Mat) -> Mat:
    """Inverse of a unimodular integer matrix (exact, integer output)."""
    h, u = hermite_normal_form(m)
    if h != identity_matrix(len(m)):
        raise ValueError(f"matrix {tuple(map(tuple, m))} is not unimodular")
    return u


def integer_kernel(m: Sequence[Sequence[int]], ncols: Optional[int] = None) -> Mat:
    """Basis (HNF rows) of ``{x in Z^n : m @ x == 0}``.

    The kernel of an integer matrix is automatically saturated.  Its basis
    is the transform block of the zero rows of the Hermite form of ``m``
    transposed, already in canonical HNF as the tail of one Hermite basis.
    """
    if ncols is None:
        if not m:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(m[0])
    if not m:
        return identity_matrix(ncols)
    _require_row_length(m, ncols)
    h, u = hermite_normal_form(transpose(m))
    return tuple([ui for hi, ui in zip(h, u) if not any(hi)])


def solve_rational(
    m: Sequence[Sequence[int]], target: Sequence[int]
) -> Optional[tuple[int, Vec]]:
    """A rational solution of ``m @ x == target`` as ``(d, x)``, or None.

    ``x`` is integral, ``d > 0`` is least and ``m @ x == d * target``; None
    means the system is inconsistent.  With ``H = W @ transpose(m)`` the
    Hermite form, the system reads ``transpose(H) @ y == d * target`` for
    ``x = y @ W``.  The rows of ``H`` are in echelon form, so forward
    substitution along their pivots fixes ``y`` on the nonzero rows, each
    entry over the least denominator so far; the other entries of ``y`` are
    0, and a residual left off the pivots means no solution.  When ``m``
    has full column rank, ``x / d`` is the unique solution.  A ragged ``m``
    or a ``target`` of the wrong length raises ``ValueError``.
    """
    if len(target) != len(m):
        raise ValueError(f"target {tuple(target)} does not have length {len(m)}")
    if m:
        _require_row_length(m, len(m[0]))
    h, w = hermite_normal_form(transpose(m))
    solved = _substitute(h, target)
    return None if solved is None else (solved[0], mat_vec(transpose(w), solved[1]))


def _substitute(h: Mat, target: Sequence[int]) -> Optional[tuple[int, list[int]]]:
    """``(d, y)``, one entry per row of ``h``, by the substitution above, or None."""
    d, y = 1, []
    rest = list(target)  # d * target - sum_i y_i h_i
    for row in h:
        lead = next(filter(None, row), 0)
        if not lead:
            break
        j = row.index(lead)
        if rest[j] % lead:
            f = lead // gcd(rest[j], lead)
            d *= f
            y = [f * x for x in y]
            rest = [f * x for x in rest]
        q = rest[j] // lead
        y.append(q)
        rest = [x - q * r for x, r in zip(rest, row)]
    return None if any(rest) else (d, y + [0] * (len(h) - len(y)))


@cache
def _lift_factor(span: Sublattice, matrix: Mat) -> tuple[Mat, Mat]:
    """``H = W @ B @ transpose(matrix)``, ``B = span.basis``, and the columns of ``W @ B``."""
    h, w = hermite_normal_form(transpose([mat_vec(span.basis, prow) for prow in matrix]))
    return h, transpose(mat_mul(w, span.basis)) or ((),) * span.ambient_rank


# ---------------------------------------------------------------------------
# sublattices


class Sublattice(Record):
    """A subgroup of Z^r in canonical row-HNF form."""

    ambient_rank: int
    basis: Mat

    @property
    def rank(self) -> int:
        return len(self.basis)

    def contains(self, v: Sequence[int]) -> bool:
        return coordinates_in(self.basis, v) is not None

    def __str__(self) -> str:
        return f"Sublattice(rank {self.rank} of Z^{self.ambient_rank})"


def coordinates_in(basis_hnf: Mat, v: Sequence[int]) -> Optional[Vec]:
    """Integer coordinates of ``v`` in an HNF row basis, or None."""
    residue = list(v)
    coeffs = []
    for row in basis_hnf:
        lead = next(filter(None, row), 0)  # the pivot entry; 0 on a zero row
        q, r = divmod(residue[row.index(lead)], lead) if lead else (0, 0)
        if r:
            return None
        coeffs.append(q)
        if q:
            residue = [x - q * y for x, y in zip(residue, row)]
    return None if any(residue) else tuple(coeffs)


def sublattice(ambient_rank: int, generators: Sequence[Sequence[int]]) -> Sublattice:
    for g in generators:
        if len(g) != ambient_rank:
            raise ValueError(f"generator {tuple(g)} does not have length {ambient_rank}")
    return Sublattice(ambient_rank, row_lattice_hnf(mat(generators)))


def full_lattice(ambient_rank: int) -> Sublattice:
    return Sublattice(ambient_rank, identity_matrix(ambient_rank))


def zero_sublattice(ambient_rank: int) -> Sublattice:
    return Sublattice(ambient_rank, ())


def saturate(s: Sublattice) -> Sublattice:
    """Saturation ``span_Q(s) ∩ Z^r``; contains ``s`` with finite index."""
    if s.rank == 0:
        return s
    orth = integer_kernel(s.basis, s.ambient_rank)
    if not orth:
        return full_lattice(s.ambient_rank)
    return Sublattice(s.ambient_rank, integer_kernel(orth, s.ambient_rank))


def lattice_sum(a: Sublattice, b: Sublattice) -> Sublattice:
    if a.ambient_rank != b.ambient_rank:
        raise ValueError("ambient ranks differ")
    return Sublattice(a.ambient_rank, row_lattice_hnf(a.basis + b.basis))


def lattice_intersection(a: Sublattice, b: Sublattice) -> Sublattice:
    if a.ambient_rank != b.ambient_rank:
        raise ValueError("ambient ranks differ")
    if a.rank == 0 or b.rank == 0:
        return zero_sublattice(a.ambient_rank)
    # rows (u, v) with u @ A == v @ B give intersection elements u @ A
    stacked = transpose(a.basis + tuple(vscale(-1, r) for r in b.basis))
    pairs = integer_kernel(stacked, len(a.basis) + len(b.basis))
    at = transpose(a.basis)
    gens = [mat_vec(at, row[: len(a.basis)]) for row in pairs]
    return Sublattice(a.ambient_rank, row_lattice_hnf(gens))


@cache
def _span_cut(lat: Sublattice, equations: Mat) -> Sublattice:
    """``{x in lat : equations @ x == 0}`` as ``y @ B``, ``B`` the basis of
    ``lat`` and ``y`` in the kernel of ``equations @ transpose(B)``: one kernel
    where an intersection with the span lattice of ``equations`` takes two.
    Memoised by value: equal lattices and one span share it."""
    if not equations or not lat.basis:
        return lat
    coords = integer_kernel([mat_vec(lat.basis, e) for e in equations], lat.rank)
    bt = transpose(lat.basis)
    return Sublattice(lat.ambient_rank, row_lattice_hnf([mat_vec(bt, y) for y in coords]))


def lattice_index(sub: Sublattice, sup: Sublattice) -> Optional[int]:
    """Index ``[sup : sub]``; None means infinite (rank drop).

    Raises :class:`NotASublattice` if ``sub`` is not contained in ``sup``.
    """
    if sub.ambient_rank != sup.ambient_rank:
        raise ValueError("ambient ranks differ")
    coords = []
    for g in sub.basis:
        c = coordinates_in(sup.basis, g)
        if c is None:
            raise NotASublattice(f"{g} is not in the claimed superlattice")
        coords.append(c)
    if sub.rank < sup.rank:
        return None
    return prod(elementary_divisors(coords))


def image_lattice(matrix: Mat, s: Sublattice) -> Sublattice:
    """Image of a sublattice under an integer matrix (rows act on columns)."""
    target_rank = len(matrix)
    gens = [mat_vec(matrix, g) for g in s.basis]
    return Sublattice(target_rank, row_lattice_hnf(gens))


def preimage_lattice(matrix: Mat, source_rank: int, s: Sublattice) -> Sublattice:
    """``{x in Z^source : matrix @ x in s}`` as a sublattice."""
    if s.rank == 0:
        return Sublattice(source_rank, integer_kernel(matrix, source_rank))
    bt = transpose(s.basis)
    stacked = tuple(row_m + tuple(-x for x in row_b) for row_m, row_b in zip(matrix, bt))
    pairs = integer_kernel(stacked, source_rank + s.rank)
    gens = [row[:source_rank] for row in pairs]
    return Sublattice(source_rank, row_lattice_hnf(gens))


# ---------------------------------------------------------------------------
# quotient maps


class QuotientMap(Record):
    """A surjection p: Z^r -> Z^q with saturated kernel L.

    ``matrix`` has shape q x r, ``section`` is an r-column matrix whose rows
    s_1..s_q satisfy p(s_i) = e_i, giving an integral section of p.  Both
    are read off the column transform of the unit-pivot reduction of the
    kernel basis (:func:`quotient_map`), a fixed rule, so results are
    reproducible bit for bit.
    """

    source_rank: int
    target_rank: int
    matrix: Mat
    kernel: Sublattice
    section: Mat

    def apply(self, v: Sequence) -> tuple:
        return mat_vec(self.matrix, v)

    def lift(self, v: Sequence) -> tuple:
        """The section applied to a target vector (an integral preimage)."""
        x = [0] * self.source_rank
        for c, row in zip(v, self.section):
            x = [p + c * q for p, q in zip(x, row)]
        return tuple(x)


def _unit_pivot_transform(basis: Mat, ncols: int) -> list[list[int]]:
    """The column transform ``V`` that reduces the saturated ``basis`` to
    ``(±I | 0)`` by row and column operations.

    Step ``t`` moves the entry of least absolute value in rows and columns
    ``>= t`` (the first in row order on a tie) to ``(t, t)``, then clears
    column ``t`` below it and row ``t`` right of it by Euclid, each
    nonzero remainder swapped in as the new pivot, until both are clear.
    The gcd of the maximal minors of ``basis``, 1 as it is saturated, is
    the product of the pivots (up to sign), so every pivot is a unit.
    """
    rows = [list(r) for r in basis]
    v = [list(r) for r in identity_matrix(ncols)]

    def swap_cols(i, j):
        for r in rows + v:
            r[i], r[j] = r[j], r[i]

    for t in range(len(rows)):
        _, i, j = min(
            (abs(x), i, j) for i in range(t, len(rows)) for j, x in enumerate(rows[i][t:], t) if x
        )
        rows[t], rows[i] = rows[i], rows[t]
        swap_cols(t, j)
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, len(rows)):
                if rows[i][t]:
                    q = rows[i][t] // rows[t][t]
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[t])]
                    if rows[i][t]:
                        rows[t], rows[i] = rows[i], rows[t]
                        dirty = True
            for j in range(t + 1, ncols):
                if rows[t][j]:
                    q = rows[t][j] // rows[t][t]
                    for r in rows + v:
                        r[j] -= q * r[t]
                    if rows[t][j]:
                        swap_cols(t, j)
                        dirty = True
        if abs(rows[t][t]) != 1:
            raise InternalConsistencyError(f"pivot {rows[t][t]} of the reduction of {list(basis)} is not a unit")
    return v


def quotient_map(ambient_rank: int, kernel: Sublattice) -> QuotientMap:
    """Projection Z^r -> Z^r/L for a saturated sublattice L.

    With ``D = U @ B @ V`` the reduction of the kernel basis ``B`` by
    :func:`_unit_pivot_transform`, ``D = (±I | 0)``, so
    ``B = inv(U) @ D @ inv(V)`` and the rows ``inv(V)[k:]`` complete ``B``
    to a basis of Z^r; in the coordinates of that basis a point ``x`` has
    last ``q`` coordinates ``x @ V[:, k:]``.  The zero kernel gives the
    identity.  Saturation is tested first, by the elementary divisors of
    ``B``: on an unsaturated basis with large entries the Euclid steps of
    the reduction can run for seconds before they reach a pivot that is
    not a unit.
    """
    if kernel.ambient_rank != ambient_rank:
        raise ValueError("kernel has wrong ambient rank")
    k = kernel.rank
    if elementary_divisors(kernel.basis) != (1,) * k:
        raise NotSaturated("sublattice must be saturated")
    v = mat(_unit_pivot_transform(kernel.basis, ambient_rank))
    section = unimodular_inverse(v)[k:]
    qm = QuotientMap(ambient_rank, ambient_rank - k, transpose(v)[k:], kernel, section)
    for g in kernel.basis:
        if not is_zero(qm.apply(g)):
            raise InternalConsistencyError(f"kernel vector {g} maps to {qm.apply(g)}, not to zero")
    return qm
