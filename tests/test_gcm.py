from fractions import Fraction

import pytest

from kmrd import (
    FiniteType,
    NotFiniteTypeLevi,
    NotGCM,
    NullNorm,
    Singular,
    bilinear_form,
    fundamental_weight,
    is_finite_type,
    make_parabolic,
    pair_with_coroot,
    validate_gcm,
    weyl_vector,
)

FF = [[2, -2, 0], [-2, 2, -1], [0, -1, 2]]


def test_ff_matrix_accepted(ff_spec):
    assert ff_spec.symmetrizer == (1, 1, 1)
    assert ff_spec.det == -2


def test_rank7_accepted(rank7_spec):
    assert rank7_spec.rank == 7


def test_zero_pattern_violation_rejected():
    with pytest.raises(NotGCM):
        validate_gcm([[2, -1], [0, 2]])


def test_positive_offdiagonal_rejected():
    with pytest.raises(NotGCM):
        validate_gcm([[2, 1], [-1, 2]])


def test_bad_diagonal_rejected():
    with pytest.raises(NotGCM):
        validate_gcm([[1, -2], [-2, 2]])


def test_singular_rejected():
    with pytest.raises(Singular):
        validate_gcm([[2, -2], [-2, 2]])


def test_rank1_finite_type_rejected():
    with pytest.raises(FiniteType):
        validate_gcm([[2]])


def test_a2_finite_type_rejected():
    with pytest.raises(FiniteType):
        validate_gcm([[2, -1], [-1, 2]])


def test_nonsymmetric_symmetrizer():
    spec = validate_gcm([[2, -3], [-2, 2]])
    # d1 * (-3) == d2 * (-2), coprime positive integers
    assert spec.symmetrizer == (2, 3)
    assert spec.gram[0][1] == spec.gram[1][0]


def test_finite_type_subsets(ff_spec):
    assert is_finite_type(ff_spec, {2, 3})      # A2
    assert not is_finite_type(ff_spec, {1, 2})  # affine 2x2, det 0
    assert is_finite_type(ff_spec, {1, 3})      # A1 x A1


def test_rank7_theta_finite(rank7_spec):
    assert is_finite_type(rank7_spec, set(range(1, 7)))


def test_bilinear_values(ff_spec):
    a1 = ff_spec.simple_root(1)
    a2 = ff_spec.simple_root(2)
    assert bilinear_form(ff_spec, a1, a2) == -2
    v = tuple(x + y for x, y in zip(a1, a2))
    assert bilinear_form(ff_spec, v, v) == 0


def test_diagonal_norms():
    spec = validate_gcm([[2, -3], [-2, 2]])
    for i in (1, 2):
        ai = spec.simple_root(i)
        assert bilinear_form(spec, ai, ai) == 2 * spec.symmetrizer[i - 1]


def test_coroot_pairing_matches_cartan_entries(ff_spec):
    for i in range(1, 4):
        for j in range(1, 4):
            assert pair_with_coroot(
                ff_spec, ff_spec.simple_root(j), ff_spec.simple_root(i)
            ) == ff_spec.matrix[i - 1][j - 1]


def test_weyl_vector_pairs_to_one(ff_spec, rank7_spec):
    for spec in (ff_spec, rank7_spec):
        rho = weyl_vector(spec)
        for i in range(1, spec.rank + 1):
            assert pair_with_coroot(spec, rho, spec.simple_root(i)) == 1


def test_null_norm_rejected(ff_spec):
    null = (1, 1, 0)  # (v|v) = 0
    with pytest.raises(NullNorm):
        pair_with_coroot(ff_spec, ff_spec.simple_root(1), null)


def test_fundamental_weight_ff(ff_spec):
    w1 = fundamental_weight(ff_spec, 1)
    assert w1 == (Fraction(-3, 2), Fraction(-2), Fraction(-1))
    for j in range(1, 4):
        wj = fundamental_weight(ff_spec, j)
        for i in range(1, 4):
            expected = 1 if i == j else 0
            assert pair_with_coroot(ff_spec, wj, ff_spec.simple_root(i)) == expected


def test_parabolic_ff_a2(ff_spec):
    par = make_parabolic(ff_spec, (2, 3))
    assert par.excluded_index == 1
    assert par.rho_M == (0, 1, 1)
    rho = weyl_vector(ff_spec)
    assert par.rho_P == tuple(r - m for r, m in zip(rho, par.rho_M))


def test_parabolic_rejects_affine_levi(ff_spec):
    with pytest.raises(NotFiniteTypeLevi):
        make_parabolic(ff_spec, (1, 2))


def test_parabolic_rank7(rank7_spec):
    par = make_parabolic(rank7_spec, tuple(range(1, 7)))
    assert par.excluded_index == 7
    for i in range(1, 7):
        assert pair_with_coroot(
            rank7_spec, par.rho_M, rank7_spec.simple_root(i)
        ) == 1
    assert par.rho_M[6] == 0


def test_prop56_pairing_values(ff_spec):
    beta3 = (2, 1, 1)
    beta1 = (0, 1, 1)
    p1 = make_parabolic(ff_spec, (2, 3))
    p2 = make_parabolic(ff_spec, (1, 3))
    assert pair_with_coroot(ff_spec, p1.rho_M, beta3) == -2
    assert pair_with_coroot(ff_spec, p2.rho_M, beta1) == Fraction(-1, 2)
