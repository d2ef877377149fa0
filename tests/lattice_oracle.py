"""Reference lattice kernels: Euclid-step row HNF, two lattice intersections,
the numerator ideal, and membership tests.

`eiscong.lattices` takes its HNF modulo a determinant multiple.  These are the
direct algorithms it replaced, kept verbatim as an oracle: `hnf` reduces with
unbounded Euclid steps (entries can blow up, so it is slow on some degree-40
inputs), and `lattice_intersect` intersects through the left kernel of the
stacked bases.

`eiscong.lattices.numerator_index` gives [Z[zeta_m] : Num(e)] from a norm and
one HNF of (d*e) + (d).  The code it replaced builds Num(e) itself:
`numerator_ideal` is (1/d)((d*e) cap (d)), with the intersection taken by
`block_lattice_intersect` from one HNF of [[A, A], [B, 0]] (both on the
library's modular `hnf`).  `solve_membership`, `contains`, `is_subset_of` and
`is_ideal` are the membership tests that went with it.

`ideal_from_element`, the HNF of a principal ideal (e), left the library
because only tests called it; it is verbatim but for the `lattices.` prefixes.
"""

from __future__ import annotations

from eiscong import lattices
from eiscong.arith import DomainError
from eiscong.cyclotomic import CycElement, _CycField
from eiscong.lattices import IntegralIdeal


def hnf(rows: list[list[int]]) -> list[list[int]]:
    """Canonical row HNF of the lattice spanned by integer rows."""
    if not rows:
        return []
    n = len(rows[0])
    work = [list(r) for r in rows if any(r)]
    basis: list[list[int]] = []
    for col in range(n):
        pivot = None
        rest = []
        for r in work:
            if r[col]:
                if pivot is None:
                    pivot = r
                else:
                    rest.append(r)
            else:
                rest.append(r)
        if pivot is None:
            work = rest
            continue
        for r in rest:
            while r[col]:
                q = r[col] // pivot[col]
                if q:
                    for j in range(col, n):
                        r[j] -= q * pivot[j]
                if r[col]:
                    pivot[:], r[:] = r[:], pivot[:]
        if pivot[col] < 0:
            pivot[:] = [-x for x in pivot]
        basis.append(pivot)
        work = [r for r in rest if any(r)]
    # reduce entries above each pivot
    for i in range(len(basis)):
        pc = next(j for j in range(n) if basis[i][j])
        for k in range(i):
            q = basis[k][pc] // basis[i][pc]
            if q:
                for j in range(pc, n):
                    basis[k][j] -= q * basis[i][j]
    return basis


def kernel_basis(rows: list[list[int]]) -> list[list[int]]:
    """Z-basis of the left kernel {u : u * M = 0} of the integer matrix M."""
    r = len(rows)
    n = len(rows[0]) if rows else 0
    aug = [list(rows[i]) + [0] * i + [1] + [0] * (r - i - 1) for i in range(r)]
    work = list(aug)
    for col in range(n):
        pivot = None
        rest = []
        for row in work:
            if row[col]:
                if pivot is None:
                    pivot = row
                else:
                    rest.append(row)
            else:
                rest.append(row)
        if pivot is None:
            work = rest
            continue
        for row in rest:
            while row[col]:
                q = row[col] // pivot[col]
                if q:
                    for j in range(len(row)):
                        row[j] -= q * pivot[j]
                if row[col]:
                    pivot[:], row[:] = row[:], pivot[:]
        work = rest
    return [row[n:] for row in work if not any(row[:n])]


def lattice_intersect(I: IntegralIdeal, J: IntegralIdeal) -> IntegralIdeal:
    """HNF basis of I cap J via the left kernel of the stacked bases."""
    if I.field.m != J.field.m:
        raise DomainError("lattice_intersect requires ideals of the same field")
    A = [list(r) for r in I.basis]
    B = [list(r) for r in J.basis]
    stacked = A + B
    d = I.field.degree
    rows = []
    for u in kernel_basis(stacked):
        vec = [sum(u[i] * A[i][j] for i in range(d)) for j in range(d)]
        rows.append(vec)
    basis = hnf(rows)
    return IntegralIdeal(I.field, tuple(tuple(r) for r in basis))


def block_lattice_intersect(I: IntegralIdeal, J: IntegralIdeal) -> IntegralIdeal:
    """HNF basis of I cap J: the bottom-right block of the HNF of [[A, A], [B, 0]].

    Rows of that block are the vectors xA with xA + yB = 0, i.e. I cap J.
    """
    if I.field.m != J.field.m:
        raise DomainError("lattice_intersect requires ideals of the same field")
    d = I.field.degree
    stacked = [list(a) * 2 for a in I.basis] + [list(b) + [0] * d for b in J.basis]
    basis = lattices.hnf(stacked)[d:]
    return IntegralIdeal(I.field, tuple(tuple(r[d:]) for r in basis))


def ideal_from_element(e: CycElement) -> IntegralIdeal:
    """HNF lattice of the principal ideal (e), for integral nonzero e."""
    if e.is_zero():
        raise DomainError("ideal_from_element requires a nonzero element")
    if not e.is_integral():
        raise DomainError("ideal_from_element requires integral coefficients")
    basis = lattices.hnf(lattices._mult_rows(e))
    return IntegralIdeal(e.field, tuple(tuple(r) for r in basis))


def numerator_ideal(e: CycElement) -> IntegralIdeal:
    """Num(e) = (e) cap Z[zeta_m], via (1/d)((d*e) cap (d)) with d clearing e."""
    if e.is_zero():
        raise DomainError("numerator_ideal requires a nonzero element")
    d = e.denominator()
    if d == 1:
        return ideal_from_element(e)
    de = e * d
    I = ideal_from_element(de)
    J = ideal_from_element(e.field.from_rational(d))
    K = block_lattice_intersect(I, J)
    rows = []
    for r in K.basis:
        assert all(x % d == 0 for x in r), "division by d must be exact on the intersection"
        rows.append([x // d for x in r])
    basis = lattices.hnf(rows)
    return IntegralIdeal(e.field, tuple(tuple(r) for r in basis))


def full_ring(field: _CycField) -> IntegralIdeal:
    d = field.degree
    basis = tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))
    return IntegralIdeal(field, basis)


def solve_membership(basis: list[list[int]], v: list[int]) -> list[int] | None:
    """Coefficients c with sum(c_i * basis_i) = v, or None; basis in HNF."""
    n = len(v)
    v = list(v)
    coeffs = []
    pivots = [next(j for j in range(n) if row[j]) for row in basis]
    for i, row in enumerate(basis):
        pc = pivots[i]
        for j in range(pc):
            if v[j]:
                return None
        if v[pc] % row[pc]:
            return None
        c = v[pc] // row[pc]
        coeffs.append(c)
        if c:
            for j in range(pc, n):
                v[j] -= c * row[j]
    if any(v):
        return None
    return coeffs


def contains(I: IntegralIdeal, e: CycElement) -> bool:
    if e.field.m != I.field.m or not e.is_integral():
        return False
    return solve_membership([list(r) for r in I.basis], list(e.num)) is not None


def is_subset_of(I: IntegralIdeal, other: IntegralIdeal) -> bool:
    ob = [list(r) for r in other.basis]
    return all(
        solve_membership(ob, list(r)) is not None for r in I.basis
    )


def is_ideal(I: IntegralIdeal) -> bool:
    """Closed under multiplication by zeta (membership of zeta * each row)."""
    z = I.field.zeta()
    for row in I.basis:
        e = I.field.element(row) * z
        if not contains(I, e):
            return False
    return True
