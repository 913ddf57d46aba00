"""Generalized Cartan matrices and the derived rational linear-algebra objects.

All indices in the public API are 1-based.  Vectors are coordinate tuples
in the simple-root basis; entries are ints or Fractions, never floats.
"""

import json
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce

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


@dataclass(frozen=True)
class CartanSpec:
    rank: int
    matrix: tuple          # rank x rank, integer entries
    symmetrizer: tuple     # positive integers, gcd 1
    inverse: tuple         # rank x rank, Fractions
    name: str | None = None
    labels: tuple | None = None
    gram: tuple = field(default=None, repr=False)  # diag(d) @ A, symmetric

    def simple_root(self, i):
        return tuple(1 if j == i - 1 else 0 for j in range(self.rank))


def _check_gcm_axioms(matrix):
    n = len(matrix)
    for i, row in enumerate(matrix):
        if len(row) != n:
            raise NotGCM("matrix is not square")
        for j, a in enumerate(row):
            if not isinstance(a, int):
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


def _is_positive_definite(sym):
    return all(m > 0 for m in linalg.leading_principal_minors(sym))


def validate_gcm(matrix, name=None, labels=None):
    """Validate a generalized Cartan matrix and assemble its CartanSpec.

    Rejects singular matrices and matrices of finite type (the toolkit
    only deals with infinite-dimensional algebras).
    """
    if not (isinstance(matrix, (list, tuple)) and matrix
            and all(isinstance(row, (list, tuple)) for row in matrix)):
        raise NotGCM("matrix must be a non-empty list of rows")
    matrix = tuple(tuple(row) for row in matrix)
    _check_gcm_axioms(matrix)
    d, gram = _symmetrizer(matrix)
    if _is_positive_definite(gram):
        raise FiniteType("matrix is of finite type")
    inverse = linalg.mat_inv(matrix)
    if inverse is None:
        raise Singular("det(A) = 0")
    return CartanSpec(
        rank=len(matrix),
        matrix=matrix,
        symmetrizer=d,
        inverse=inverse,
        name=name,
        labels=tuple(labels) if labels else None,
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
    return _is_positive_definite(sub)


def _check_theta(spec, idx, allow_full=False):
    if len(set(idx)) != len(idx):
        raise GCMError("theta contains repeated indices")
    for i in idx:
        if not 1 <= i <= spec.rank:
            raise GCMError(f"theta index {i} out of range 1..{spec.rank}")
    if not allow_full and len(idx) >= spec.rank:
        raise GCMError("theta must be a proper subset of the node set")


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
    return tuple(spec.inverse[i][j - 1] for i in range(spec.rank))


def weyl_vector(spec):
    """rho, the weight pairing to 1 with every simple coroot."""
    return tuple(
        sum(spec.inverse[i][j] for j in range(spec.rank)) for i in range(spec.rank)
    )


@dataclass(frozen=True)
class ParabolicSpec:
    spec: CartanSpec
    theta: tuple                # sorted 1-based node indices
    excluded_index: int | None  # i_P, set only when |theta| = rank - 1
    rho_M: tuple
    omega_P: tuple | None
    rho_P: tuple | None


def make_parabolic(spec, theta):
    """Assemble the parabolic data for a finite-type theta."""
    idx = tuple(sorted(theta))
    _check_theta(spec, idx)
    if not is_finite_type(spec, idx):
        raise NotFiniteTypeLevi(f"theta {idx} has non-finite Weyl group")
    sub = tuple(tuple(spec.matrix[i - 1][j - 1] for j in idx) for i in idx)
    coeffs = linalg.mat_solve(sub, [1] * len(idx))
    rho_m = [Fraction(0)] * spec.rank
    for pos, i in enumerate(idx):
        rho_m[i - 1] = coeffs[pos]
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
