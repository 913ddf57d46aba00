"""Test-only reference: the Fraction Gauss-Jordan linear algebra as it
stood before ``kmrd.linalg`` became integer Bareiss elimination, kept
verbatim below this docstring so that the differential tests can compare
determinants, inverses and leading minors against it.  Not part of the
package.

Everything works on tuples of tuples of Fraction/int.  No floating
point: the callers make sign decisions on the results.
"""

from fractions import Fraction


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_vec(a, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in a)


def _echelon(rows, width):
    """In-place fraction Gaussian elimination; returns (rows, pivot count, det factor)."""
    n = len(rows)
    det = Fraction(1)
    piv = 0
    for col in range(width):
        if piv == n:
            break
        pivot_row = next((r for r in range(piv, n) if rows[r][col] != 0), None)
        if pivot_row is None:
            det = Fraction(0)
            continue
        if pivot_row != piv:
            rows[piv], rows[pivot_row] = rows[pivot_row], rows[piv]
            det = -det
        det *= rows[piv][col]
        inv = Fraction(1, 1) / rows[piv][col]
        rows[piv] = [x * inv for x in rows[piv]]
        for r in range(n):
            if r != piv and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[piv])]
        piv += 1
    return rows, piv, det


def mat_det(a):
    n = len(a)
    if n == 0:
        return Fraction(1)
    rows = [[Fraction(x) for x in row] for row in a]
    _, piv, det = _echelon(rows, n)
    return det if piv == n else Fraction(0)


def mat_inv(a):
    """Exact inverse, or None if singular."""
    n = len(a)
    rows = [
        [Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
        for i, row in enumerate(a)
    ]
    rows, piv, _ = _echelon(rows, n)
    if piv < n:
        return None
    return tuple(tuple(rows[i][n:]) for i in range(n))


def mat_solve(a, rhs):
    """Solve a x = rhs exactly; None if the system is singular."""
    n = len(a)
    rows = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(a)]
    rows, piv, _ = _echelon(rows, n)
    if piv < n:
        return None
    return tuple(rows[i][n] for i in range(n))


def leading_principal_minors(a):
    """Determinants of the k x k upper-left blocks, k = 1..n."""
    n = len(a)
    return [mat_det(tuple(tuple(a[i][j] for j in range(k)) for i in range(k)))
            for k in range(1, n + 1)]
