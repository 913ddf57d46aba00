"""Test-only reference: ``gcm._symmetrizer`` as it stood before it carried
integer ratios instead of ``Fraction``s along the Dynkin graph, kept
verbatim below this docstring so that the differential tests can compare
d, the Gram matrix and the ``NotSymmetrizable`` messages against it.  Not
part of the package.
"""

import math
from fractions import Fraction
from functools import reduce

from kmrd.gcm import NotSymmetrizable


def _symmetrizer(matrix):
    """Positive rationals d with diag(d) A symmetric, via Dynkin-graph traversal,
    normalized to coprime positive integers."""
    n = len(matrix)
    d = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i == j or matrix[i][j] == 0:
                    continue
                # d_i a_ij = d_j a_ji along every edge
                dj = d[i] * Fraction(matrix[i][j], matrix[j][i])
                if d[j] is None:
                    d[j] = dj
                    stack.append(j)
                elif d[j] != dj:
                    raise NotSymmetrizable(
                        f"inconsistent symmetrizer constraint at edge ({i+1},{j+1})"
                    )
    lcm = reduce(lambda x, y: x * y // math.gcd(x, y), (x.denominator for x in d), 1)
    ints = [int(x * lcm) for x in d]
    g = reduce(math.gcd, ints)
    d_int = tuple(x // g for x in ints)
    gram = tuple(
        tuple(d_int[i] * matrix[i][j] for j in range(n)) for i in range(n)
    )
    for i in range(n):
        for j in range(i + 1, n):
            if gram[i][j] != gram[j][i]:
                raise NotSymmetrizable(
                    f"diag(d) A not symmetric at ({i+1},{j+1})"
                )
    return d_int, gram
