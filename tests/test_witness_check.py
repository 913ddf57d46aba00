"""The integer witness re-check against the Fraction re-check it replaced.

``check_rd`` and ``check_prop51`` replay each witness root from its word
and check the walk's pairings against it in int, as
2 (lam|root) scale = value den (root|root) (``criteria._replayed_root``).
The reference kept here is the Fraction path they took before:
``pair_with_coroot`` with ``make_parabolic``'s rho_M and omega_P for
check rd, and with the simple root alpha_i for check prop51.  Every FAILED
report below must agree with it, and the integer check must accept
exactly the reference's pairings."""

from fractions import Fraction

import pytest

import reference_gcm
from kmrd import criteria, gcm, survey
from kmrd.criteria import (
    FAILED,
    _coset_start,
    _replayed_root,
    check_prop51,
    check_rd,
)
from kmrd.gcm import (
    GCMError,
    make_parabolic,
    pair_with_coroot,
    scaled_rho_M,
    validate_gcm,
)


def frac(value):
    return Fraction(value["num"], value["den"])


def assert_check_is_pair_with_coroot(spec, word, lam, den, pairing):
    """The integer claim <lam / den, root^vee> = pairing holds for the
    root that word adds, also with den and the pairing's denominator both
    doubled, and the claim with the pairing's numerator one larger is
    refused."""
    value, scale = pairing.numerator, pairing.denominator
    _replayed_root(spec, word, [(lam, den, value, scale),
                                (lam, 2 * den, value, 2 * scale)])
    with pytest.raises(GCMError, match="disagrees with the orbit walk"):
        _replayed_root(spec, word, [(lam, den, value + 1, scale)])


def assert_rd_matches_reference(spec, report):
    """Each witness of a FAILED check rd report has make_parabolic's
    pairings, and the weights check_rd re-checks against are
    make_parabolic's in root coordinates.  Returns the witness count."""
    assert report.verdict == FAILED
    theta = report.theta
    par = make_parabolic(spec, theta)
    assert par == reference_gcm.make_parabolic(spec, theta)
    r, d = scaled_rho_M(spec, theta)
    assert tuple(Fraction(x, d) for x in r) == par.rho_M
    p = par.excluded_index
    omega = tuple(row[p - 1] for row in spec.adjugate)
    assert tuple(Fraction(x, spec.det) for x in omega) == par.omega_P
    for witness in report.witnesses:
        word, root = tuple(witness["word"]), tuple(witness["root"])
        rho_pair = pair_with_coroot(spec, par.rho_M, root)
        omega_pair = pair_with_coroot(spec, par.omega_P, root)
        assert rho_pair == frac(witness["rho_M_pairing"]) >= 0
        assert omega_pair == frac(witness["omega_P_pairing"]) > 0
        # an inherited witness's root was added by a shorter prefix
        prefix = next(word[:k] for k in range(1, len(word) + 1)
                      if _replayed_root(spec, word[:k], ()) == root)
        for lam, den, pairing in ((r, d, rho_pair),
                                  (omega, spec.det, omega_pair)):
            assert_check_is_pair_with_coroot(spec, prefix, lam, den, pairing)
    return len(report.witnesses)


def test_rank7_witnesses_match_reference(rank7_spec):
    report = check_rd(rank7_spec, tuple(range(1, 7)), 12, all_witnesses=True)
    assert assert_rd_matches_reference(rank7_spec, report) == 281


@pytest.mark.parametrize("node, max_length, count", [(7, 8, 13), (6, 10, 1)])
def test_e10_witnesses_match_reference(e10_spec, node, max_length, count):
    theta = tuple(i for i in range(1, 11) if i != node)
    report = check_rd(e10_spec, theta, max_length, all_witnesses=True)
    assert assert_rd_matches_reference(e10_spec, report) == count


def test_prop51_witnesses_match_reference(ff_spec):
    report = check_prop51(ff_spec, 18, all_witnesses=True)
    assert report.verdict == FAILED
    for witness in report.witnesses:
        alpha = ff_spec.simple_root(witness["simple_index"])
        pairing = pair_with_coroot(ff_spec, alpha, tuple(witness["root"]))
        assert pairing == frac(witness["pairing"]) > 0
    first = report.witnesses[0]
    assert_check_is_pair_with_coroot(
        ff_spec, tuple(first["word"]),
        ff_spec.simple_root(first["simple_index"]), 1, frac(first["pairing"]),
    )


def failed_survey_items():
    """The FAILED (spec, theta) items of the rank-3 family with entries
    down to -4 at L=6, the family of CI's "Survey start pin"."""
    family = survey._validated_family(survey.SurveySpec(3, -4, 6))
    return [
        (cs, theta) for cs, thetas in family for theta in thetas
        if check_rd(cs, theta, 6).failed
    ]


@pytest.fixture(scope="module")
def survey_failures():
    return failed_survey_items()


def test_survey_witnesses_match_reference(survey_failures):
    # All 21 matrices are non-symmetric, which tells the Gram matrix from
    # A, and 6 starts are scaled by 2, which tests the scale in each claim.
    assert len(survey_failures) == 21
    nonsymmetric = scaled = 0
    for cs, theta in survey_failures:
        report = check_rd(cs, theta, 6, all_witnesses=True)
        assert assert_rd_matches_reference(cs, report) >= 1
        nonsymmetric += cs.matrix != tuple(zip(*cs.matrix))
        scaled += _coset_start(cs, theta)[0] == 2
    assert (nonsymmetric, scaled) == (21, 6)


# The two items of the rank-4 family with entries down to -2 at L=6 that
# fail with a non-symmetric A_theta (theta = 2, 3, 4, a B2 x A1 block), the
# second from a start scaled by 2: where rho_M's numerators are row sums of
# adj(A_theta), column sums would give another weight.
NONSYMMETRIC_LEVI = [
    ((2, -2, -1, 0), (-2, 2, 0, 0), (-1, 0, 2, -2), (0, 0, -1, 2)),
    ((2, -2, -1, 0), (-2, 2, 0, 0), (-1, 0, 2, -1), (0, 0, -2, 2)),
]


@pytest.mark.parametrize("matrix", NONSYMMETRIC_LEVI)
def test_nonsymmetric_levi_witnesses_match_reference(matrix):
    spec = validate_gcm(matrix)
    theta = (2, 3, 4)
    block = [[matrix[i - 1][j - 1] for j in theta] for i in theta]
    assert block != [list(column) for column in zip(*block)]
    report = check_rd(spec, theta, 6, all_witnesses=True)
    assert assert_rd_matches_reference(spec, report) >= 1


def shifted_start(spec, theta, shift=0):
    """_coset_start with sigma's entry at p one too large: the walk then
    pairs with rho_M + omega_P / scale, a weight that _coset_start's
    identity does not give.  It calls the unpatched _coset_start."""
    scale, (tau, sigma) = _coset_start(spec, theta, shift)
    p = tau.index(scale)
    return scale, (tau, sigma[:p] + (sigma[p] + 1,) + sigma[p + 1:])


def test_start_off_by_one_disagrees(rank7_spec, survey_failures, monkeypatch):
    # Every tested root pairs positively with omega_P, so the shifted walk
    # fails wherever the true one does, and the re-check, which solves
    # for rho_M on A_theta, must refuse its first witness.
    monkeypatch.setattr(criteria, "_coset_start", shifted_start)
    cases = [(rank7_spec, tuple(range(1, 7)), 12)]
    cases += [(cs, theta, 6) for cs, theta in survey_failures]
    cases += [(validate_gcm(m), (2, 3, 4), 6) for m in NONSYMMETRIC_LEVI]
    for spec, theta, max_length in cases:
        with pytest.raises(GCMError, match="disagrees with the orbit walk"):
            check_rd(spec, theta, max_length)


def test_rd_builds_no_parabolic_data(rank7_spec, survey_failures, monkeypatch):
    # No call path from check_rd reaches make_parabolic or pair_with_coroot,
    # FAILED runs with every witness included.
    def refuse(*args):
        raise AssertionError("parabolic data or a Fraction pairing was built")

    for module in (gcm, criteria):
        for name in ("make_parabolic", "pair_with_coroot"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    assert check_rd(rank7_spec, tuple(range(1, 7)), 12, all_witnesses=True).failed
    for cs, theta in survey_failures:
        assert check_rd(cs, theta, 6, all_witnesses=True).failed
