"""Exact integer linear algebra for small dense matrices.

Everything works on tuples of tuples of ints and stays in ints:
fraction-free (Bareiss) elimination keeps every intermediate entry an
integer minor of the input, so each of its divisions is exact (Bareiss,
"Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 22, 1968).  No floating point and no Fraction:
callers divide by det A only where a rational leaves the program.
"""


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_vec(a, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in a)


def adjugate(a):
    """(adj A, det A) of a square integer matrix, or (None, 0) when A is
    singular.

    Fraction-free Gauss-Jordan on [A | I] with row swaps: once every
    column is eliminated the left half is d I and the right half d (PA)^-1
    P = d A^-1, with d = det(PA) the last pivot, so the row swaps' sign
    turns d into det A and the right half into adj A = det(A) A^-1."""
    n = len(a)
    rows = [list(row) + [int(i == j) for j in range(n)]
            for i, row in enumerate(a)]
    sign = prev = 1
    for k in range(n):
        p = next((r for r in range(k, n) if rows[r][k]), None)
        if p is None:
            return None, 0
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            sign = -sign
        top = rows[k]
        pivot = top[k]
        for r, row in enumerate(rows):
            if r != k:
                f = row[k]
                rows[r] = [(pivot * x - f * y) // prev for x, y in zip(row, top)]
        prev = pivot
    return tuple(tuple(sign * x for x in row[n:]) for row in rows), sign * prev


def is_positive_definite(sym):
    """Sylvester's criterion: every leading principal minor is positive.

    The minors are the pivots of Bareiss elimination without row swaps;
    it stops at the first one that is not positive."""
    rows = [list(row) for row in sym]
    n = len(rows)
    prev = 1
    for k in range(n):
        top = rows[k]
        pivot = top[k]
        if pivot <= 0:
            return False
        for row in rows[k + 1:]:
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (pivot * row[j] - f * top[j]) // prev
        prev = pivot
    return True
