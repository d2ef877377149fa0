"""The dense elimination that scripts/make_newform_fixtures.py replaced,
kept as a test oracle.

`rref` is the script's former reduced row echelon form over Q by
Gauss-Jordan elimination in Fractions; the script now scales each row to
integers and eliminates with the fraction-free `eiscong.lattices.echelon`.
The code is verbatim.
"""

from __future__ import annotations

from fractions import Fraction


def rref(rows):
    """Reduced row echelon form over Q: (nonzero rows, their pivot columns).

    This is the one dense Gauss-Jordan elimination in the script; the
    solves below read its output.
    """
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows[:len(pivots)], pivots
