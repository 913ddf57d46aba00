import math
from fractions import Fraction

import pytest

from kmrd import (
    FAILED,
    HOLDS,
    GCMError,
    NotMaximal,
    __version__,
    check_lemma44,
    check_prop51,
    check_property25,
    check_rd,
    make_parabolic,
    report_to_dict,
)
from kmrd import survey, weyl
from kmrd.criteria import _coset_start, admissible_d
from kmrd.gcm import NoAdmissibleD, is_finite_type, matrix_hash


def test_rd_rank7_fails_with_known_witness(rank7_spec):
    report = check_rd(rank7_spec, tuple(range(1, 7)), 6, all_witnesses=True)
    assert report.verdict == FAILED
    assert report.d_sup is None
    first = report.witnesses[0]
    assert first["word"] == [7, 2, 1, 3, 2, 7]
    assert first["root"] == [1, 2, 1, 0, 0, 0, 1]
    assert first["rho_M_pairing"] == {"num": 0, "den": 1}
    assert first["omega_P_pairing"] == {"num": 1, "den": 1}
    assert report.stats["elements_enumerated"] == 1542
    assert report.stats["coset_reps"] == 62


def test_rd_rank7_other_parabolic_holds(rank7_spec):
    report = check_rd(rank7_spec, (1, 2, 3, 4, 5, 7), 8)
    assert report.verdict == HOLDS
    assert report.witnesses == []
    assert report.d_sup == 9


def test_rd_ff_both_parabolics_hold(ff_spec):
    for theta in ((2, 3), (1, 3)):
        report = check_rd(ff_spec, theta, 12)
        assert report.verdict == HOLDS
        assert report.d_sup is not None and report.d_sup > 0


def test_rd_requires_maximal_theta(ff_spec):
    with pytest.raises(NotMaximal):
        check_rd(ff_spec, (3,), 4)


def test_rd_witness_replay_must_agree_with_walk(rank7_spec, monkeypatch):
    # The witness root is replayed from its word; a root whose pairings
    # differ from the walk's is an internal error, not a witness.
    monkeypatch.setattr(
        weyl, "inversion_set_of_word", lambda spec, word: ((1, 0, 0, 0, 0, 0, 0),)
    )
    with pytest.raises(GCMError, match="disagrees with the orbit walk"):
        check_rd(rank7_spec, tuple(range(1, 7)), 6)


def test_rd_early_stop_vs_all_witnesses(rank7_spec):
    theta = tuple(range(1, 7))
    early = check_rd(rank7_spec, theta, 6)
    full = check_rd(rank7_spec, theta, 6, all_witnesses=True)
    assert early.verdict == full.verdict == FAILED
    assert len(early.witnesses) == 1
    assert len(full.witnesses) >= 1
    assert early.witnesses[0] == full.witnesses[0]
    assert early.stats["roots_checked"] <= full.stats["roots_checked"]


def test_prop51_ff_fails(ff_spec):
    report = check_prop51(ff_spec, 10)
    assert report.verdict == FAILED
    w = report.witnesses[0]
    assert w["word"] == [2, 3]
    assert w["root"] == [0, 1, 1]
    assert w["simple_index"] == 3
    assert w["pairing"] == {"num": 1, "den": 1}


def test_prop51_witness_replay_must_agree_with_walk(ff_spec, monkeypatch):
    # The witness root is replayed from its word; a root whose pairing
    # differs from the row the walk carried is an internal error.
    monkeypatch.setattr(
        weyl, "inversion_set_of_word", lambda spec, word: ((1, 0, 0),)
    )
    with pytest.raises(GCMError, match="disagrees with the orbit walk"):
        check_prop51(ff_spec, 10)


def test_prop51_rank2_holds():
    from kmrd.rank2 import rank2_spec

    report = check_prop51(rank2_spec(2, 3), 20)
    assert report.verdict == HOLDS


def test_admissible_d_ff(ff_spec):
    par = make_parabolic(ff_spec, (2, 3))
    d = admissible_d(par)
    assert 0 < d <= 1
    # all theta-coordinates of D*omega_P + rho_M strictly positive
    vec = [d * n + m for n, m in zip(par.omega_P, par.rho_M)]
    assert all(vec[i - 1] > 0 for i in par.theta)
    # ...and the next-larger 1/k fails if d < 1
    if d < 1:
        k = d.denominator - 1
        worse = [Fraction(1, k) * n + m for n, m in zip(par.omega_P, par.rho_M)]
        assert any(worse[i - 1] <= 0 for i in par.theta)


def test_scaled_weight_coords_match_fraction_sums(ff_spec, rank7_spec):
    # The Fraction form the start read off the definitions replaced: the
    # weight coordinates (A v)_i of omega_P and shift omega_P + rho_M
    # summed as Fractions, scaled by the lcm of all their denominators.
    def fraction_coords(spec, vectors):
        coords = [
            [Fraction(sum(a * x for a, x in zip(row, v)))
             for row in spec.matrix]
            for v in vectors
        ]
        scale = math.lcm(*(x.denominator for c in coords for x in c))
        return scale, tuple(tuple(int(x * scale) for x in c) for c in coords)

    family = survey.enumerate_family(
        survey.SurveySpec(rank=3, entry_min=-3, max_length=2)
    )
    specs = [ff_spec, rank7_spec] + [
        survey.validate_gcm(matrix) for matrix, _ in family
    ]
    checked = 0
    for spec in specs:
        nodes = set(range(1, spec.rank + 1))
        for i in nodes:
            if not is_finite_type(spec, nodes - {i}):
                continue
            par = make_parabolic(spec, nodes - {i})
            shifts = [0]
            try:
                shifts.append(admissible_d(par))
            except NoAdmissibleD:
                pass
            for shift in shifts:
                vec = tuple(
                    shift * n + m for n, m in zip(par.omega_P, par.rho_M)
                )
                assert _coset_start(spec, par, shift) == (
                    fraction_coords(spec, (par.omega_P, vec))
                )
                checked += 1
    assert checked > 100


def test_lemma44_ff_holds_strictly(ff_spec):
    report = check_lemma44(ff_spec, (2, 3), 8)
    assert report.verdict == HOLDS
    assert report.extra["D"] == {"num": 1, "den": 3}
    assert report.extra["strict_everywhere"] is True


def test_lemma44_rank7_holds(rank7_spec):
    report = check_lemma44(rank7_spec, tuple(range(1, 7)), 6)
    assert report.verdict == HOLDS


def test_lemma44_explicit_d(ff_spec):
    report = check_lemma44(ff_spec, (2, 3), 6, D=Fraction(1, 4))
    assert report.extra["D"] == {"num": 1, "den": 4}
    assert report.verdict == HOLDS


def test_property25_ff_fails_on_braid_element(ff_spec):
    # s2 s3 s2 (A2 subsystem longest element) blocks both right descents:
    # alpha_2 + alpha_3 minus either simple root is again a real root
    report = check_property25(ff_spec, 4)
    assert report.verdict == FAILED
    w = report.witnesses[0]
    assert w["word"] == [2, 3, 2]
    assert w["blocking"] == {"2": [[0, 1, 1]], "3": [[0, 1, 1]]}


def test_property25_rank2_holds():
    from kmrd.rank2 import rank2_spec

    for a, b in ((2, 3), (3, 3), (2, 4)):
        assert check_property25(rank2_spec(a, b), 8).verdict == HOLDS


def test_report_dict_shape(ff_spec):
    report = check_rd(ff_spec, (2, 3), 6)
    data = report_to_dict(report)
    assert list(data) == [
        "schema_version", "tool_version", "check", "gcm", "theta",
        "max_length", "verdict", "witnesses", "d_sup", "stats", "meta",
    ]
    assert data["tool_version"] == __version__
    assert data["check"] == "rd"
    assert data["gcm"]["sha256"] == matrix_hash(ff_spec.matrix)
    assert data["verdict"] == HOLDS
    assert set(data["d_sup"]) == {"num", "den"}
    assert data["meta"]["wall_time_ms"] >= 0


def test_report_dict_extra_section(ff_spec):
    report = check_lemma44(ff_spec, (2, 3), 4)
    data = report_to_dict(report)
    assert "extra" in data
    assert data["extra"]["D"] == {"num": 1, "den": 3}
