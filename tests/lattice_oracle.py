"""Reference lattice kernels: Euclid-step row HNF and kernel-based intersection.

`eiscong.lattices` takes its HNF modulo a determinant multiple.  These are the
direct algorithms it replaced, kept verbatim as an oracle: `hnf` reduces with
unbounded Euclid steps (entries can blow up, so it is slow on some degree-40
inputs), and `lattice_intersect` intersects through the left kernel of the
stacked bases.
"""

from __future__ import annotations

from eiscong.arith import DomainError
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
