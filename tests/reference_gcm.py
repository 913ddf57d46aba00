"""Test-only reference: parts of ``kmrd.gcm`` as they stood before they
became integer inside, kept verbatim below this docstring so that the
differential tests can compare against them.  Not part of the package.

- ``_symmetrizer``, from before it carried integer ratios instead of
  ``Fraction``s along the Dynkin graph: d, the Gram matrix and the
  ``NotSymmetrizable`` messages.
- ``bilinear_form``, ``pair_with_coroot`` and ``make_parabolic`` (with the
  ``fundamental_weight`` and ``weyl_vector`` it calls), from before the
  pairings were taken in int over one denominator and the parabolic data
  built as one ``Fraction`` per entry: values, types, ``NullNorm``
  messages and ``ParabolicSpec``s.
"""

import math
from fractions import Fraction
from functools import reduce

from kmrd import linalg
from kmrd.gcm import (
    GCMError,
    NotFiniteTypeLevi,
    NotSymmetrizable,
    NullNorm,
    ParabolicSpec,
    _check_theta,
    is_finite_type,
)


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


def bilinear_form(spec, lam, mu):
    """W-invariant symmetric form, (alpha_i | alpha_j) = d_i a_ij."""
    g = spec.gram
    n = spec.rank
    return sum(lam[i] * g[i][j] * mu[j] for i in range(n) for j in range(n))


def pair_with_coroot(spec, lam, alpha):
    """Exact <lambda, alpha^vee> = 2 (lambda|alpha) / (alpha|alpha)."""
    norm = bilinear_form(spec, alpha, alpha)
    if norm <= 0:
        raise NullNorm(f"(alpha|alpha) = {norm} <= 0")
    return Fraction(2 * bilinear_form(spec, lam, alpha), 1) / norm


def fundamental_weight(spec, j):
    """Coordinates of the fundamental weight dual to alpha_j^vee."""
    if not 1 <= j <= spec.rank:
        raise GCMError(f"index {j} out of range")
    return tuple(Fraction(row[j - 1], spec.det) for row in spec.adjugate)


def weyl_vector(spec):
    """rho, the weight pairing to 1 with every simple coroot."""
    return tuple(Fraction(sum(row), spec.det) for row in spec.adjugate)


def make_parabolic(spec, theta):
    """Assemble the parabolic data for a finite-type theta."""
    idx = tuple(sorted(theta))
    _check_theta(spec, idx)
    if not is_finite_type(spec, idx):
        raise NotFiniteTypeLevi(f"theta {idx} has non-finite Weyl group")
    sub = tuple(tuple(spec.matrix[i - 1][j - 1] for j in idx) for i in idx)
    # rho_M solves sub x = (1, ..., 1): x = adj(sub) (1, ..., 1) / det(sub)
    adj, det = linalg.adjugate(sub)
    rho_m = [Fraction(0)] * spec.rank
    for row, i in zip(adj, idx):
        rho_m[i - 1] = Fraction(sum(row), det)
    rho_m = tuple(rho_m)
    i_p = omega_p = rho_p = None
    if len(idx) == spec.rank - 1:
        (i_p,) = set(range(1, spec.rank + 1)) - set(idx)
        omega_p = fundamental_weight(spec, i_p)
        rho = weyl_vector(spec)
        rho_p = tuple(r - m for r, m in zip(rho, rho_m))
    return ParabolicSpec(
        spec=spec, theta=idx, excluded_index=i_p,
        rho_M=rho_m, omega_P=omega_p, rho_P=rho_p,
    )
