"""Differential tests: the integer Bareiss routines of ``kmrd.linalg``, and
the CartanSpec and parabolic data built on them, agree with the Fraction
Gauss-Jordan code frozen in ``reference_linalg``; every determinant and
adjugate entry is a plain int."""

import itertools
import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import reference_gcm
import reference_linalg as ref
from kmrd import gcm, linalg, rank2
from kmrd.gcm import (
    FiniteType,
    GCMError,
    NotFiniteTypeLevi,
    NotSymmetrizable,
    Singular,
    fundamental_weight,
    is_finite_type,
    make_parabolic,
    validate_gcm,
    weyl_vector,
)
from test_differential import PAIRS


def all_ints(rows):
    return all(type(x) is int for row in rows for x in row)


def assert_matches_reference(a):
    """det, adj/det against mat_inv, None exactly when singular, and
    Sylvester's criterion against the leading minors."""
    adj, det = linalg.adjugate(a)
    assert type(det) is int
    assert det == ref.mat_det(a)
    inverse = ref.mat_inv(a)
    assert (adj is None) == (inverse is None) == (det == 0)
    if adj is not None:
        assert all_ints(adj)
        assert tuple(
            tuple(Fraction(x, det) for x in row) for row in adj
        ) == inverse
    assert linalg.is_positive_definite(a) == all(
        m > 0 for m in ref.leading_principal_minors(a)
    )


@st.composite
def int_matrices(draw):
    """n x n, n = 1..6, entries -3..3, with or without a diagonal of 2s."""
    n = draw(st.integers(1, 6))
    diagonal_two = draw(st.booleans())
    return tuple(
        tuple(
            2 if diagonal_two and i == j else draw(st.integers(-3, 3))
            for j in range(n)
        )
        for i in range(n)
    )


@settings(max_examples=400, deadline=None)
@given(a=int_matrices())
def test_random_matrices_match_reference(a):
    assert_matches_reference(a)


def test_fixed_cases(ff_spec):
    swap = ((0, 1), (1, 0))  # needs a row swap at the first pivot
    assert linalg.adjugate(swap) == (((0, -1), (-1, 0)), -1)
    singular = ((2, -2), (-2, 2))
    assert linalg.adjugate(singular) == (None, 0)
    assert not linalg.is_positive_definite(singular)
    # ff: the 2 x 2 leading minor is 0, so the last pivot needs a swap
    ff = ff_spec.matrix
    assert ref.leading_principal_minors(ff) == [2, 0, -2]
    assert linalg.adjugate(ff) == (((3, 4, 2), (4, 4, 2), (2, 2, 0)), -2)
    assert (ff_spec.adjugate, ff_spec.det) == linalg.adjugate(ff)
    assert linalg.adjugate(()) == ((), 1)
    assert linalg.is_positive_definite(())
    for a in (swap, singular, ff, ((2, -1), (-1, 2)), ((5,),), ((0,),)):
        assert_matches_reference(a)


def reference_outcome(matrix):
    """What the Fraction code gave for a matrix: the class of the error
    validate_gcm raised, or the fundamental weights, rho and, for each
    maximal theta, (rho_M, omega_P, rho_P) or NotFiniteTypeLevi."""
    try:
        _, gram = reference_gcm._symmetrizer(matrix)
    except NotSymmetrizable:
        return NotSymmetrizable
    if all(m > 0 for m in ref.leading_principal_minors(gram)):
        return FiniteType
    inverse = ref.mat_inv(matrix)
    if inverse is None:
        return Singular
    n = len(matrix)
    rho = tuple(sum(row) for row in inverse)
    out = {
        "weights": [tuple(row[j] for row in inverse) for j in range(n)],
        "rho": rho,
    }
    for p in range(n):
        theta = [i for i in range(n) if i != p]
        sub_gram = [[gram[i][j] for j in theta] for i in theta]
        if not all(m > 0 for m in ref.leading_principal_minors(sub_gram)):
            out[p + 1] = NotFiniteTypeLevi
            continue
        sub = [[matrix[i][j] for j in theta] for i in theta]
        coeffs = ref.mat_solve(sub, [1] * len(theta))
        rho_m = [Fraction(0)] * n
        for pos, i in enumerate(theta):
            rho_m[i] = coeffs[pos]
        out[p + 1] = (
            tuple(rho_m),
            out["weights"][p],
            tuple(r - m for r, m in zip(rho, rho_m)),
        )
    return out


def outcome(matrix):
    """The same data from validate_gcm, fundamental_weight, weyl_vector and
    make_parabolic."""
    try:
        spec = validate_gcm(matrix)
    except GCMError as exc:
        return type(exc)
    assert type(spec.det) is int and all_ints(spec.adjugate)
    n = spec.rank
    out = {
        "weights": [fundamental_weight(spec, j) for j in range(1, n + 1)],
        "rho": weyl_vector(spec),
    }
    for p in range(1, n + 1):
        theta = [i for i in range(1, n + 1) if i != p]
        try:
            par = make_parabolic(spec, theta)
        except NotFiniteTypeLevi:
            out[p] = NotFiniteTypeLevi
            continue
        out[p] = (par.rho_M, par.omega_P, par.rho_P)
    for size in range(1, n + 1):
        for theta in itertools.combinations(range(1, n + 1), size):
            sub = [[spec.gram[i - 1][j - 1] for j in theta] for i in theta]
            assert is_finite_type(spec, theta) == all(
                m > 0 for m in ref.leading_principal_minors(sub)
            )
    return out


def assert_symmetrizer_matches_reference(matrix):
    """The integer symmetrizer gives the Fraction reference's d and Gram
    matrix, or the same NotSymmetrizable message."""
    def run(symmetrizer):
        try:
            return symmetrizer(matrix)
        except NotSymmetrizable as exc:
            return str(exc)

    got = run(gcm._symmetrizer)
    assert got == run(reference_gcm._symmetrizer), matrix
    if not isinstance(got, str):
        assert all(type(x) is int for x in got[0])


def gcm_of(n, choice):
    matrix = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for (i, j), (x, y) in zip(itertools.combinations(range(n), 2), choice):
        matrix[i][j], matrix[j][i] = x, y
    return matrix


def test_every_small_gcm_matches_reference():
    """All rank-2 and rank-3 GCMs with off-diagonal entries -3..0; each of
    the three rejections and the accepted case occur."""
    seen = set()
    for n in (2, 3):
        for choice in itertools.product(PAIRS, repeat=n * (n - 1) // 2):
            matrix = gcm_of(n, choice)
            assert_symmetrizer_matches_reference(matrix)
            expected = reference_outcome(matrix)
            assert outcome(matrix) == expected, matrix
            seen.add(expected if isinstance(expected, type) else dict)
    assert seen == {NotSymmetrizable, FiniteType, Singular, dict}


@st.composite
def gcms(draw):
    """Rank 2-5 matrices with off-diagonal pairs from PAIRS, seldom
    symmetrizable past rank 3, or built from a symmetrizer d with
    d_i a_ij = d_j a_ji = -k lcm(d_i, d_j), k = 0, 1, 2."""
    n = draw(st.integers(2, 5))
    pairs = list(itertools.combinations(range(n), 2))
    if draw(st.booleans()):
        return gcm_of(n, [draw(st.sampled_from(PAIRS)) for _ in pairs])
    d = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    choice = []
    for i, j in pairs:
        k = draw(st.integers(0, 2)) * math.lcm(d[i], d[j])
        choice.append((-k // d[i], -k // d[j]))
    return gcm_of(n, choice)


@settings(max_examples=200, deadline=None)
@given(matrix=gcms())
def test_random_gcms_match_reference(matrix):
    assert_symmetrizer_matches_reference(matrix)
    assert outcome(matrix) == reference_outcome(matrix)


def test_h_is_plain_ints():
    for a, b in ((2, 3), (3, 2), (2, 5), (4, 4)):
        for n in range(25):
            value = rank2.h(n, a, b)
            assert type(value.x) is int and type(value.y) is int
