"""Full-rank ideal lattices in Z[zeta_m] as Hermite-normal-form bases, the
library's one fraction-free elimination over Z, and its one exact solve
over Q.

An ideal is stored as a degree x degree integer matrix in canonical row HNF
(upper triangular, positive diagonal, entries above each pivot reduced mod
the pivot); rows are a Z-basis in the power basis of Z[zeta_m], and the
quotient index is the HNF determinant.

`numerator_index` gives [O : Num(e)] (O = Z[zeta_m], n = its degree) without
building Num(e).  With d the denominator of e, Num(e) = (1/d)((d*e) cap (d)),
and for full-rank lattices [O : I cap J] * [O : I + J] = [O : I] * [O : J].
The [O : (d)] = d^n on the right cancels the 1/d, so
[O : Num(e)] = |N(d*e)| / [O : (d*e) + (d)]: a norm, and for d > 1 one HNF of
(d*e) + (d).  That lattice contains d*Z^n, so `hnf` takes d itself as the
modulus of every column, and no entry grows past d.

`hnf` works modulo an integer D with D*Z^n inside the lattice L (Cohen, GTM
138, Alg. 2.4.8; Domich-Kannan-Trotter 1987), so entries can be reduced mod D
without leaving L.  Each column's pivot p = gcd(D, column entries) is an HNF
diagonal entry, and the rows left, zero in that column, together with D*Z^n
span the part of L that is zero in the columns done so far; so a D given by
the caller serves every column.  By default D is |det| of n independent input
rows, a multiple of det L; the rows left then span a lattice of determinant
det L / p, so D // p serves for the next column and no entry grows past the
first D.

`echelon` is Bareiss's fraction-free Gauss-Jordan elimination (Math. Comp.
22, 1968); `modsym`, `hnf` and `solve` eliminate through it.  Each pivot is,
up to sign, the minor of the input on the pivot rows and columns so far, so
with n pivots the last one is +-det of n independent input rows: `hnf`'s
default D.  `solve` gives the exact solution over Q of a system A X = B with
A of full column rank: each row of [A | B] scaled to integers, `echelon`,
then each row of R over its pivot.  The Hankel systems of `modsym` and the
basis changes of the newform fixture script go through it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import DomainError, record, xgcd
from .cyclotomic import CycElement, _CycField


def echelon(rows):
    """Fraction-free Gauss-Jordan elimination over Z (Bareiss): (R, pivots)
    with R / p the reduced row echelon form of the rows, p the last pivot,
    which every pivot entry of R equals."""
    rows = [list(r) for r in rows]
    pivots, prev = [], 1
    for c in range(len(rows[0]) if rows else 0):
        k = len(pivots)
        piv = next((i for i in range(k, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[k], rows[piv] = rows[piv], rows[k]
        top = rows[k]
        p = top[c]
        rows = [r if i == k else [(p * x - r[c] * y) // prev for x, y in zip(r, top)]
                for i, r in enumerate(rows)]
        prev = p
        pivots.append(c)
        if k + 1 == len(rows):
            break
    return rows[:len(pivots)], pivots


def solve(A, B):
    """The X with A X = B over Q, as rows of Fractions, for A (int or
    Fraction rows) of full column rank and a consistent system.  Each row of
    [A | B] is scaled to integers for `echelon`; a singular A or an
    inconsistent system is a DomainError."""
    n = len(A[0])
    rows = []
    for a, b in zip(A, B):
        row = [Fraction(x) for x in (*a, *b)]
        m = math.lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (m // x.denominator) for x in row])
    R, pivots = echelon(rows)
    if pivots != list(range(n)):
        raise DomainError("singular or inconsistent linear system")
    return [[Fraction(x, row[i]) for x in row[n:]] for i, row in enumerate(R)]


def hnf(rows: list[list[int]], modulus: int | None = None) -> list[list[int]]:
    """Canonical row HNF of the full-rank lattice spanned by integer rows.

    With `modulus` D > 0 the lattice is that of the rows and D*Z^n, and D is
    the modulus of every column.  Without it, D is |last pivot| of `echelon`,
    and DomainError is raised when the rows do not span a full-rank lattice.
    """
    if not rows:
        return []
    n = len(rows[0])
    if not modulus:
        R, piv = echelon(rows)
        if len(piv) < n:
            raise DomainError("rows do not span a full-rank lattice")
    D = modulus or abs(R[-1][piv[-1]])
    work = [list(r) for r in rows]
    basis: list[list[int]] = []
    for i in range(n):
        # D*e_i is in the current lattice; fold every row's column i into it
        work = [[x % D for x in r] for r in work]
        pivot = [0] * n
        pivot[i] = D
        for r in work:
            a, b = pivot[i], r[i]
            if b:
                g, u, v = xgcd(a, b)
                pivot, r[:] = (
                    [(u * x + v * y) % D for x, y in zip(pivot, r)],
                    [(a // g * y - b // g * x) % D for x, y in zip(pivot, r)],
                )
        basis.append(pivot)
        if modulus is None:
            D //= pivot[i]
    # reduce entries above each pivot
    for i in range(n):
        for k in range(i):
            q = basis[k][i] // basis[i][i]
            if q:
                basis[k] = [x - q * y for x, y in zip(basis[k], basis[i])]
    return basis


@record
class IntegralIdeal:
    """Full-rank sublattice of Z[zeta_m], rows = canonical HNF basis."""

    field: _CycField
    basis: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.basis) != self.field.degree:
            raise DomainError("ideal lattice is not full rank")

    def index(self) -> int:
        """|Z[zeta_m] / L| = product of the HNF diagonal."""
        return math.prod(self.basis[i][i] for i in range(len(self.basis)))


def _mult_rows(e: CycElement) -> list[list[int]]:
    """Coordinates of e * zeta^i for i < degree, e integral: e's numerator
    rotated by i, read off the field's zeta table."""
    K = e.field
    return [K.rotate(e.num, i) for i in range(K.degree)]


def numerator_index(e: CycElement) -> int:
    """[Z[zeta_m] : Num(e)] for nonzero e, Num(e) = (e) cap Z[zeta_m].

    With d the denominator of e, this is |N(d*e)| // [Z[zeta_m] : (d*e) + (d)]
    (see the module notes), and just |N(e)| when e is integral.
    """
    if e.is_zero():
        raise DomainError("numerator_index requires a nonzero element")
    d = e.denominator()
    de = e * d
    norm = abs(int(de.norm_to_Q()))
    if d == 1:
        return norm
    basis = hnf(_mult_rows(de), modulus=d)
    return norm // math.prod(basis[i][i] for i in range(len(basis)))
