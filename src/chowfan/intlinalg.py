"""Exact integer linear algebra over Z^r.

Everything in this module works with plain Python integers (arbitrary
precision) and tuples; there is no floating point anywhere.  The central
objects are

* row Hermite and Smith normal forms with unimodular transforms; rank and
  unimodular inverses are read off the Hermite form,
* :func:`solve_rational`, the library's one Gauss-Jordan elimination over
  Q (Fractions): every rational linear system in the package is solved
  there,
* :class:`Sublattice`, a canonicalized (row HNF) subgroup of Z^r, with
  saturation, sum, intersection and index computations,
* :class:`QuotientMap`, a surjection Z^r -> Z^q with a prescribed saturated
  kernel and a deterministic integral section.

Vectors are tuples of ints, matrices are tuples of row tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]


class NotASublattice(ValueError):
    """Raised when a claimed sublattice containment fails."""


class NotSaturated(ValueError):
    """Raised when an operation requires a saturated sublattice."""


# ---------------------------------------------------------------------------
# vector helpers


def vec(entries: Iterable[int]) -> Vec:
    return tuple(int(e) for e in entries)


def vadd(a: Sequence[int], b: Sequence[int]) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Sequence[int], b: Sequence[int]) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def vscale(c: int, a: Sequence[int]) -> Vec:
    return tuple(c * x for x in a)


def dot(a: Sequence, b: Sequence):
    return sum(x * y for x, y in zip(a, b))


def is_zero(a: Sequence[int]) -> bool:
    return all(x == 0 for x in a)


def vec_gcd(a: Sequence[int]) -> int:
    g = 0
    for x in a:
        g = gcd(g, abs(x))
    return g


def primitive(a: Sequence[int]) -> Vec:
    """Divide out the content of an integer vector (zero stays zero)."""
    g = vec_gcd(a)
    if g <= 1:
        return tuple(a)
    return tuple(x // g for x in a)


def clear_denominators(v: Sequence) -> tuple[int, Vec]:
    """``(d, d * v)`` for the least positive ``d`` making ``d * v`` integral."""
    fractions = [Fraction(x) for x in v]
    d = lcm(*(x.denominator for x in fractions))
    return d, tuple(int(x * d) for x in fractions)


def mat(rows: Iterable[Iterable[int]]) -> Mat:
    return tuple(vec(r) for r in rows)


def identity_matrix(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m: Mat) -> Mat:
    if not m:
        return ()
    return tuple(zip(*m))


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def mat_vec(m: Mat, v: Sequence) -> tuple:
    return tuple(dot(row, v) for row in m)


def matrix_rank(m: Sequence[Sequence[int]]) -> int:
    """Rank over Q: the rank of the row lattice."""
    return len(row_lattice_hnf(m))


# ---------------------------------------------------------------------------
# normal forms


def hermite_normal_form(m: Sequence[Sequence[int]]) -> tuple[Mat, Mat]:
    """Row Hermite normal form.

    Returns ``(H, U)`` with ``H = U @ m``, ``U`` unimodular, pivots positive,
    entries above each pivot reduced into ``[0, pivot)`` and zero rows at the
    bottom.  The result is the unique canonical form of the row lattice.
    """
    rows = [list(map(int, r)) for r in m]
    nrows = len(rows)
    u = [list(r) for r in identity_matrix(nrows)]
    if nrows == 0:
        return (), ()
    ncols = len(rows[0])
    pivot_row = 0
    for col in range(ncols):
        # clear below pivot_row in this column using extended gcd row ops
        nz = [i for i in range(pivot_row, nrows) if rows[i][col] != 0]
        if not nz:
            continue
        i0 = nz[0]
        rows[pivot_row], rows[i0] = rows[i0], rows[pivot_row]
        u[pivot_row], u[i0] = u[i0], u[pivot_row]
        for i in range(pivot_row + 1, nrows):
            while rows[i][col] != 0:
                a, b = rows[pivot_row][col], rows[i][col]
                if abs(a) > abs(b) or a == 0:
                    rows[pivot_row], rows[i] = rows[i], rows[pivot_row]
                    u[pivot_row], u[i] = u[i], u[pivot_row]
                    continue
                q = rows[i][col] // rows[pivot_row][col]
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[pivot_row])]
                u[i] = [x - q * y for x, y in zip(u[i], u[pivot_row])]
        if rows[pivot_row][col] < 0:
            rows[pivot_row] = [-x for x in rows[pivot_row]]
            u[pivot_row] = [-x for x in u[pivot_row]]
        # reduce entries above the pivot
        p = rows[pivot_row][col]
        for i in range(pivot_row):
            q = rows[i][col] // p
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[pivot_row])]
                u[i] = [x - q * y for x, y in zip(u[i], u[pivot_row])]
        pivot_row += 1
        if pivot_row == nrows:
            break
    return mat(rows), mat(u)


def row_lattice_hnf(rows: Sequence[Sequence[int]]) -> Mat:
    """HNF basis (zero rows dropped) of the lattice generated by the rows."""
    h, _ = hermite_normal_form(rows)
    return tuple(r for r in h if not is_zero(r))


def smith_normal_form(m: Sequence[Sequence[int]]) -> tuple[Mat, Mat, Mat]:
    """Smith normal form ``S = U @ m @ V`` with divisibility d1 | d2 | ...

    ``U`` and ``V`` are unimodular; the diagonal entries are nonnegative.
    """
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
    return mat(rows), mat(u), mat(v)


def elementary_divisors(m: Sequence[Sequence[int]]) -> tuple[int, ...]:
    s, _, _ = smith_normal_form(m)
    diag = [s[i][i] for i in range(min(len(s), len(s[0]) if s else 0))]
    return tuple(d for d in diag if d != 0)


def unimodular_inverse(m: Mat) -> Mat:
    """Inverse of a unimodular integer matrix (exact, integer output)."""
    h, u = hermite_normal_form(m)
    assert h == identity_matrix(len(m)), "matrix was not unimodular"
    return u


def integer_kernel(m: Sequence[Sequence[int]], ncols: Optional[int] = None) -> Mat:
    """Basis (HNF rows) of ``{x in Z^n : m @ x == 0}``.

    The kernel of an integer matrix is automatically saturated.
    """
    rows = mat(m)
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(rows[0])
    if not rows:
        return identity_matrix(ncols)
    h, u = hermite_normal_form(transpose(rows))
    kernel_rows = [u[i] for i in range(len(h)) if is_zero(h[i])]
    return row_lattice_hnf(kernel_rows) if kernel_rows else ()


def solve_rational(
    m: Sequence[Sequence], target: Sequence, ncols: Optional[int] = None
) -> Optional[tuple[tuple[Fraction, ...], tuple[tuple[Fraction, ...], ...]]]:
    """All rational solutions of ``m @ x == target``, or None if inconsistent.

    Returns ``(particular, basis)``: the solutions are ``particular`` plus
    the span of the null-space ``basis``.  This is the library's only
    Gauss-Jordan elimination over Q.  Each column pivots on the first row
    with a nonzero entry and free variables are 0 in ``particular``, so the
    result depends only on the reduced row echelon form.  Entries may be
    ints or Fractions; ``ncols`` is needed only when ``m`` has no rows.
    """
    nrows = len(m)
    if ncols is None:
        ncols = len(m[0]) if nrows else 0
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


# ---------------------------------------------------------------------------
# sublattices


@dataclass(frozen=True)
class Sublattice:
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
        piv = next((j for j, x in enumerate(row) if x != 0), None)
        if piv is None:
            coeffs.append(0)
            continue
        if residue[piv] % row[piv] != 0:
            return None
        q = residue[piv] // row[piv]
        coeffs.append(q)
        residue = [x - q * y for x, y in zip(residue, row)]
    if not is_zero(residue):
        return None
    return tuple(coeffs)


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


def is_saturated_lattice(s: Sublattice) -> bool:
    return s == saturate(s)


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
    gens = []
    for row in pairs:
        u = row[: len(a.basis)]
        x = [0] * a.ambient_rank
        for c, brow in zip(u, a.basis):
            x = [p + c * q for p, q in zip(x, brow)]
        gens.append(tuple(x))
    return Sublattice(a.ambient_rank, row_lattice_hnf(gens))


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
    idx = 1
    for d in elementary_divisors(mat(coords)):
        idx *= d
    return idx


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


@dataclass(frozen=True)
class QuotientMap:
    """A surjection p: Z^r -> Z^q with saturated kernel L.

    ``matrix`` has shape q x r, ``section`` is an r-column matrix whose rows
    s_1..s_q satisfy p(s_i) = e_i, giving an integral section of p.  The
    basis of the target is the deterministic HNF completion of the kernel
    basis, so results are reproducible bit for bit.
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


def unimodular_completion(s: Sublattice) -> Mat:
    """Unimodular r x r matrix whose first rows are the HNF basis of ``s``.

    Requires ``s`` saturated.
    """
    if not is_saturated_lattice(s):
        raise NotSaturated("sublattice must be saturated")
    r = s.ambient_rank
    k = s.rank
    if k == 0:
        return identity_matrix(r)
    _, _, v = smith_normal_form(s.basis)
    w0 = unimodular_inverse(v)
    # The first k rows of w0 span the same lattice as s, so swapping them for
    # the HNF basis is a unimodular change of the top block.
    return s.basis + tuple(w0[k:])


def quotient_map(ambient_rank: int, kernel: Sublattice) -> QuotientMap:
    """Projection Z^r -> Z^r/L for a saturated sublattice L."""
    if kernel.ambient_rank != ambient_rank:
        raise ValueError("kernel has wrong ambient rank")
    w = unimodular_completion(kernel)  # raises NotSaturated if not saturated
    k = kernel.rank
    q = ambient_rank - k
    w_inv = unimodular_inverse(w) if ambient_rank else ()
    # coordinates of x in the basis rows of w are x @ w_inv; keep the last q
    proj = tuple(tuple(w_inv[i][k + j] for i in range(ambient_rank)) for j in range(q))
    section = tuple(w[k + j] for j in range(q))
    qm = QuotientMap(ambient_rank, q, proj, kernel, section)
    for g in kernel.basis:
        assert is_zero(qm.apply(g))
    return qm
