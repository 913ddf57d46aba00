"""Generalized Cartan matrices and the derived rational linear-algebra objects.

All indices in the public API are 1-based.  Vectors are coordinate tuples
in the simple-root basis; entries are ints or Fractions, never floats.
"""

import json
import math
import warnings
from collections import namedtuple
from fractions import Fraction
from operator import mul

from . import linalg


class GCMError(ValueError):
    pass


class NotGCM(GCMError):
    """A generalized-Cartan-matrix axiom is violated."""


class NotSymmetrizable(GCMError):
    pass


class Singular(GCMError):
    pass


class FiniteType(GCMError):
    """The matrix is of finite type; the toolkit targets infinite-type algebras."""


class NotFiniteTypeLevi(GCMError):
    pass


class NotMaximal(GCMError):
    pass


class NullNorm(GCMError):
    """Coroot pairing requested against a vector of non-positive norm."""


class NoAdmissibleD(GCMError):
    """No positive D makes D*omega_P + rho_M coordinate-positive on theta."""


class CartanSpec(namedtuple(
    "CartanSpec",
    "rank matrix symmetrizer adjugate det name gram",
    defaults=(None, None),
)):
    """A validated GCM and its integer data: ``matrix`` (rank x rank
    integer entries), ``symmetrizer`` (positive integers, gcd 1),
    ``adjugate`` (adj A = det(A) A^-1), ``det`` (det A, nonzero), ``name``
    (a string or None) and ``gram`` (diag(d) @ A, symmetric)."""

    __slots__ = ()

    def simple_root(self, i):
        return tuple(1 if j == i - 1 else 0 for j in range(self.rank))


def _check_gcm_axioms(matrix):
    n = len(matrix)
    for i, row in enumerate(matrix):
        if len(row) != n:
            raise NotGCM("matrix is not square")
        for j, a in enumerate(row):
            if isinstance(a, bool) or not isinstance(a, int):
                raise NotGCM(f"entry a[{i+1}][{j+1}] = {a!r} is not an integer")
            if i == j and a != 2:
                raise NotGCM(f"diagonal entry a[{i+1}][{i+1}] = {a} != 2")
            if i != j and a > 0:
                raise NotGCM(f"off-diagonal entry a[{i+1}][{j+1}] = {a} > 0")
            if i != j and (a == 0) != (matrix[j][i] == 0):
                raise NotGCM(
                    f"zero pattern is not symmetric at a[{i+1}][{j+1}]"
                )


def _symmetrizer(matrix):
    """Positive rationals d with diag(d) A symmetric, via Dynkin-graph traversal,
    normalized to coprime positive integers.

    The matrix must satisfy the GCM axioms, so every edge has two negative
    entries and a zero entry has a zero transpose.  Each d_j is carried as
    a ratio of positive integers num[j]/den[j] in lowest terms, and scaled
    by the lcm of the denominators at the end.  The traversal sets or
    checks d_i a_ij = d_j a_ji on every edge, and the scaling keeps it, so
    diag(d) A is symmetric once no edge is inconsistent.
    """
    n = len(matrix)
    num = [0] * n
    den = [0] * n  # 0 until the traversal reaches the node
    for start in range(n):
        if den[start]:
            continue
        num[start] = den[start] = 1
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i == j or matrix[i][j] == 0:
                    continue
                # d_i a_ij = d_j a_ji along every edge
                p = num[i] * -matrix[i][j]
                q = den[i] * -matrix[j][i]
                if den[j] == 0:
                    g = math.gcd(p, q)
                    num[j], den[j] = p // g, q // g
                    stack.append(j)
                elif num[j] * q != p * den[j]:
                    raise NotSymmetrizable(
                        f"inconsistent symmetrizer constraint at edge ({i+1},{j+1})"
                    )
    lcm = math.lcm(*den)
    ints = [x * (lcm // y) for x, y in zip(num, den)]
    g = math.gcd(*ints)
    d_int = tuple(x // g for x in ints)
    gram = tuple(
        tuple(d_int[i] * matrix[i][j] for j in range(n)) for i in range(n)
    )
    return d_int, gram


def validate_gcm(matrix, name=None):
    """Validate a generalized Cartan matrix and assemble its CartanSpec.

    Rejects singular matrices and matrices of finite type (the toolkit
    only deals with infinite-dimensional algebras), and a name that is
    neither None nor a string.
    """
    if name is not None and not isinstance(name, str):
        raise GCMError(
            f"name must be a string or null, got {type(name).__name__}"
        )
    if not (isinstance(matrix, (list, tuple)) and matrix
            and all(isinstance(row, (list, tuple)) for row in matrix)):
        raise NotGCM("matrix must be a non-empty list of rows")
    matrix = tuple(tuple(row) for row in matrix)
    _check_gcm_axioms(matrix)
    d, gram = _symmetrizer(matrix)
    if linalg.is_positive_definite(gram):
        raise FiniteType("matrix is of finite type")
    adj, det = linalg.adjugate(matrix)
    if adj is None:
        raise Singular("det(A) = 0")
    return CartanSpec(
        rank=len(matrix),
        matrix=matrix,
        symmetrizer=d,
        adjugate=adj,
        det=det,
        name=name,
        gram=gram,
    )


def is_finite_type(spec, theta):
    """True iff the theta x theta symmetrized submatrix is positive definite,
    i.e. W_theta is finite."""
    idx = sorted(theta)
    _check_theta(spec, idx, allow_full=True)
    sub = tuple(
        tuple(spec.gram[i - 1][j - 1] for j in idx) for i in idx
    )
    return linalg.is_positive_definite(sub)


def _check_theta(spec, idx, allow_full=False):
    if len(set(idx)) != len(idx):
        raise GCMError("theta contains repeated indices")
    for i in idx:
        if not 1 <= i <= spec.rank:
            raise GCMError(f"theta index {i} out of range 1..{spec.rank}")
    if not allow_full and len(idx) >= spec.rank:
        raise GCMError("theta must be a proper subset of the node set")


def _gram_times(spec, mu):
    """The Gram matrix contracted with mu: ((alpha_i | mu))_i."""
    return [sum(map(mul, row, mu)) for row in spec.gram]


def bilinear_form(spec, lam, mu):
    """W-invariant symmetric form, (alpha_i | alpha_j) = d_i a_ij.

    Contracts the Gram matrix with mu first, then takes n products with
    lam: an int for int vectors, a Fraction when an entry is one."""
    return sum(map(mul, lam, _gram_times(spec, mu)))


def _over_common_denominator(v):
    """(v', l): ints v' and l, the lcm of the entries' denominators, with
    v = v' / l.  An int entry has denominator 1."""
    l = math.lcm(*[x.denominator for x in v])
    return [x.numerator * (l // x.denominator) for x in v], l


def pair_with_coroot(spec, lam, alpha):
    """Exact <lambda, alpha^vee> = 2 (lambda|alpha) / (alpha|alpha).

    With lam = lam' / l and alpha = alpha' / a over common denominators,
    both forms are read in int off one contraction of the Gram matrix with
    alpha', and one Fraction is built: 2 a (lam'|alpha') / (l norm'), with
    norm' = (alpha'|alpha')."""
    alpha, a = _over_common_denominator(alpha)
    g_alpha = _gram_times(spec, alpha)
    norm = sum(map(mul, alpha, g_alpha))
    if norm <= 0:
        raise NullNorm(f"(alpha|alpha) = {Fraction(norm, a * a)} <= 0")
    lam, l = _over_common_denominator(lam)
    return Fraction(2 * a * sum(map(mul, lam, g_alpha)), l * norm)


def fundamental_weight(spec, j):
    """Coordinates of the fundamental weight dual to alpha_j^vee."""
    if not 1 <= j <= spec.rank:
        raise GCMError(f"index {j} out of range")
    return tuple(Fraction(row[j - 1], spec.det) for row in spec.adjugate)


def weyl_vector(spec):
    """rho, the weight pairing to 1 with every simple coroot."""
    return tuple(Fraction(sum(row), spec.det) for row in spec.adjugate)


class ParabolicSpec(namedtuple(
    "ParabolicSpec", "spec theta excluded_index rho_M omega_P rho_P",
)):
    """The parabolic data of ``make_parabolic``: ``theta`` holds the sorted
    1-based node indices, and ``excluded_index`` (i_P), ``omega_P`` and
    ``rho_P`` are set only when |theta| = rank - 1."""

    __slots__ = ()


def make_parabolic(spec, theta):
    """Assemble the parabolic data for a finite-type theta.

    rho_M solves sub x = (1, ..., 1) on theta, sub the theta block of A,
    so x_i = num_i / det(sub) with num the row sums of adj(sub); it is 0
    off theta.  rho_P = rho - rho_M is built from the row sums r of adj A
    as (r_i det(sub) - num_i det A) / (det A det(sub)).  All of it is
    integer; each entry becomes one Fraction."""
    idx = tuple(sorted(theta))
    _check_theta(spec, idx)
    if not is_finite_type(spec, idx):
        raise NotFiniteTypeLevi(f"theta {idx} has non-finite Weyl group")
    sub = tuple(tuple(spec.matrix[i - 1][j - 1] for j in idx) for i in idx)
    adj, det_m = linalg.adjugate(sub)
    num = [0] * spec.rank
    for row, i in zip(adj, idx):
        num[i - 1] = sum(row)
    rho_m = tuple(Fraction(x, det_m) for x in num)
    i_p = omega_p = rho_p = None
    if len(idx) == spec.rank - 1:
        (i_p,) = set(range(1, spec.rank + 1)) - set(idx)
        omega_p = fundamental_weight(spec, i_p)
        det = spec.det
        rho_p = tuple(
            Fraction(sum(row) * det_m - x * det, det * det_m)
            for row, x in zip(spec.adjugate, num)
        )
    return ParabolicSpec(
        spec=spec, theta=idx, excluded_index=i_p,
        rho_M=rho_m, omega_P=omega_p, rho_P=rho_p,
    )


def matrix_hash(matrix):
    import hashlib

    payload = json.dumps([list(r) for r in matrix], separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def load_gcm(path):
    """Read a {"name": ..., "matrix": [[...]]} JSON file into a CartanSpec."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "matrix" not in data:
        raise GCMError(f"{path}: expected a JSON object with a 'matrix' key")
    known = {"name", "matrix"}
    for key in data:
        if key not in known:
            warnings.warn(f"{path}: ignoring unknown key {key!r}")
    return validate_gcm(data["matrix"], name=data.get("name"))
