import functools
from fractions import Fraction

import pytest

import reference_rank2
from kmrd import apply, is_real_root, rank2, word_to_element
from kmrd.rank2 import (
    A1_FAMILY,
    A2_FAMILY,
    QuadNum,
    h,
    published_a2_coefficient,
    rank2_spec,
    reflection_oracle,
    root_closed_form,
    verify_prop52,
)
from kmrd.weyl import CapExceeded

GRID = [(a, b) for a in range(2, 5) for b in range(2, 5) if a * b >= 5]


def q(x, y, rad):
    return QuadNum(Fraction(x), Fraction(y), rad)


def test_quadnum_arithmetic():
    u = q(1, 2, 6)
    v = q(3, -1, 6)
    assert u + v == q(4, 1, 6)
    assert u - v == q(-2, 3, 6)
    assert u * v == q(3 - 12, 6 - 1, 6)
    assert -u == q(-1, -2, 6)
    with pytest.raises(ValueError):
        u + q(1, 1, 5)


def test_quadnum_sign_exact():
    assert q(0, 0, 6).sign() == 0
    assert q(-7, 3, 6).sign() == 1    # 3*sqrt(6) = sqrt(54) > 7
    assert q(7, -3, 6).sign() == -1
    assert q(5, -2, 6).sign() == 1    # 25 > 24
    assert q(-5, 2, 6).sign() == -1
    assert q(2, 1, 6).sign() == 1
    assert q(-2, -1, 6).sign() == -1


def test_quadnum_extraction():
    assert q(7, 0, 6).as_integer() == 7
    assert q(0, 3, 6).sqrt_multiple() == 3
    with pytest.raises(ValueError):
        q(1, 1, 6).as_integer()
    with pytest.raises(ValueError):
        q(1, 1, 6).sqrt_multiple()


def test_h_small_values():
    # (a, b) = (2, 3): h0=0, h1=1, h2=sqrt6, h3=5, h4=4*sqrt6, h5=19
    assert h(0, 2, 3) == q(0, 0, 6)
    assert h(1, 2, 3) == q(1, 0, 6)
    assert h(2, 2, 3) == q(0, 1, 6)
    assert h(3, 2, 3).as_integer() == 5
    assert h(4, 2, 3).sqrt_multiple() == 4
    assert h(5, 2, 3).as_integer() == 19


def test_h_recurrence():
    rad = q(0, 1, 10)
    for n in range(1, 20):
        assert h(n + 1, 2, 5) == rad * h(n, 2, 5) - h(n - 1, 2, 5)


def test_closed_form_base_cases():
    for a, b in GRID:
        assert root_closed_form(0, A1_FAMILY, a, b) == (1, 0)
        assert root_closed_form(0, A2_FAMILY, a, b) == (b, 1)


def test_closed_form_matches_oracle():
    for a, b in GRID:
        for n in range(11):
            for kind in (A1_FAMILY, A2_FAMILY):
                assert root_closed_form(n, kind, a, b) == reflection_oracle(
                    n, kind, a, b
                )


def test_reflection_oracle_matches_matrix_action():
    # the oracle reflects letter by letter; the word's matrix gives the same
    for a, b in GRID:
        spec = rank2_spec(a, b)
        for n in range(11):
            for kind, word, target in (
                (A1_FAMILY, (1, 2) * n, spec.simple_root(1)),
                (A2_FAMILY, (1, 2) * n + (1,), spec.simple_root(2)),
            ):
                w = word_to_element(spec, word)
                assert reflection_oracle(n, kind, a, b) == apply(w, target)


def test_closed_form_roots_are_real():
    spec = rank2_spec(2, 3)
    for n in range(8):
        for kind in (A1_FAMILY, A2_FAMILY):
            assert is_real_root(spec, root_closed_form(n, kind, 2, 3))


def test_published_a2_index_disagrees():
    # the printed alpha_2 coefficient h_{2n+2} is an sqrt-multiple, never
    # the rational integer the oracle produces
    printed = published_a2_coefficient(0, 2, 3)
    assert printed == q(0, 1, 6)
    oracle = reflection_oracle(0, A2_FAMILY, 2, 3)
    assert oracle[1] == 1


def test_hyperbolic_guard():
    with pytest.raises(ValueError):
        rank2_spec(2, 2)
    with pytest.raises(ValueError):
        rank2_spec(1, 9)
    with pytest.raises(ValueError):
        h(3, 2, 2)
    with pytest.raises(ValueError):
        h(-1, 2, 3)
    with pytest.raises(ValueError):
        reflection_oracle(-1, A1_FAMILY, 2, 3)
    for entry_point in (root_closed_form, reflection_oracle):
        with pytest.raises(ValueError, match="unknown family kind"):
            entry_point(0, "A3-type", 2, 3)


def test_verify_prop52_ok():
    report = verify_prop52(2, 3, 10)
    assert report["ok"] is True
    assert report["sign_inequalities_hold"] is True
    assert report["first_violation"] is None
    assert report["closed_form_matches_oracle"] is True
    assert report["published_display_matches_oracle"] is False
    assert report["resolved_a2_coefficient"] == "h_{2n+1}"
    assert report["resolved_a1_radical_factor"] == "sqrt(b/a)"
    assert report["rd_verdicts"] == {
        "theta=[2]": "HOLDS_UP_TO_BOUND",
        "theta=[1]": "HOLDS_UP_TO_BOUND",
    }


def test_verify_prop52_asymmetric():
    report = verify_prop52(2, 4, 8, rd_max_length=12)
    assert report["ok"] is True
    assert report["rd_max_length"] == 12


def test_sign_inequality_direct():
    # <alpha, alpha_2^vee> = 2q - a p < 0 along both families
    for a, b in GRID:
        for n in range(12):
            for kind in (A1_FAMILY, A2_FAMILY):
                p, qq = root_closed_form(n, kind, a, b)
                assert 2 * qq - a * p < 0


def test_verify_prop52_rejects_negative_bounds():
    with pytest.raises(ValueError, match="max_n"):
        verify_prop52(2, 3, -1)
    with pytest.raises(ValueError, match="max_length"):
        verify_prop52(2, 3, 2, rd_max_length=-1)


def test_verify_prop52_refuses_over_cap_bound_before_scanning(monkeypatch):
    # max_n = 60000 puts the rd bound's ball (2 L + 1 elements at
    # L = 120002) past the default cap; the refusal must come before the
    # family scans, which are O(max_n) big-integer passes.
    monkeypatch.delenv("KMRD_MAX_ELEMENTS", raising=False)

    def scan(*args):
        raise AssertionError("family scan ran before the cap check")

    monkeypatch.setattr(rank2, "_family_scan", scan)
    with pytest.raises(CapExceeded):
        verify_prop52(2, 3, 60000)


def test_verify_prop52_matches_reference(monkeypatch):
    """Whole reports, rd cross-check included, against the frozen O(max_n^2)
    scans for every max_n 0..40.  The grid holds (a, b) and (b, a), so both
    orientations of each matrix are scanned as the theta=[2] family.  The
    reference's h and reflection_oracle are pure, so caching them changes
    only its cost."""
    monkeypatch.setattr(reference_rank2, "h", functools.cache(reference_rank2.h))
    monkeypatch.setattr(reference_rank2, "reflection_oracle",
                        functools.cache(reference_rank2.reflection_oracle))
    for a in range(2, 8):
        for b in range(2, 8):
            if a * b < 5:
                continue
            for max_n in range(41):
                assert verify_prop52(a, b, max_n) == reference_rank2.verify_prop52(
                    a, b, max_n
                ), (a, b, max_n)


def test_verify_prop52_is_one_pass(monkeypatch):
    """verify_prop52 reads one h sequence and one growing reflection word
    per orientation: the per-n entry points are never called, and each
    orientation's matrix is validated once, plus once for the rd check."""
    def refuse(*args, **kwargs):
        raise AssertionError("per-n entry point called inside verify_prop52")

    for name in ("h", "root_closed_form", "reflection_oracle",
                 "published_a2_coefficient"):
        monkeypatch.setattr(rank2, name, refuse)
    validated = []
    real_validate = rank2.validate_gcm

    def counting_validate(matrix, *args, **kwargs):
        validated.append(matrix)
        return real_validate(matrix, *args, **kwargs)

    monkeypatch.setattr(rank2, "validate_gcm", counting_validate)
    report = verify_prop52(2, 5, 30)
    assert report["ok"] is True
    assert sorted(validated) == sorted([
        [[2, -5], [-2, 2]], [[2, -5], [-2, 2]], [[2, -2], [-5, 2]],
    ])
