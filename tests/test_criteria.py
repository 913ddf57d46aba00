import hashlib
import json
import math
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import reference_criteria as ref
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
from kmrd import criteria, survey, weyl
from kmrd.criteria import _coset_start, _scan, admissible_d
from kmrd.gcm import NoAdmissibleD, is_finite_type, matrix_hash
from test_differential import gcms, report_body


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
    # The first witness's word has six letters, so its replay reflects.
    monkeypatch.setattr(
        weyl, "reflect_simple", lambda spec, i, v: (1, 0, 0, 0, 0, 0, 0)
    )
    with pytest.raises(GCMError, match="disagrees with the orbit walk"):
        check_rd(rank7_spec, tuple(range(1, 7)), 6)


def test_rd_e10_at_length_10(e10_spec):
    # E10 is the T_{2,3,7} diagram: a chain 1-9 with node 10 joined to
    # node 7.  Its ball up to L=10 has 141 273 elements, under the default
    # cap; leaving out node 1 leaves affine E9, which has no finite Levi.
    assert e10_spec.name == "E10"
    assert e10_spec.det == -1
    assert e10_spec.symmetrizer == (1,) * 10
    assert not is_finite_type(e10_spec, range(2, 11))
    fails = {
        7: ([7, 6, 5, 4, 3, 2], [0, 1, 1, 1, 1, 1, 1, 0, 0, 0]),
        6: ([6, 7, 8, 9, 10, 7, 6, 8, 7, 10], [0, 0, 0, 0, 0, 1, 2, 2, 1, 1]),
    }
    holds = {
        2: Fraction(43, 2), 3: Fraction(13, 2), 4: Fraction(3, 2), 5: 1,
        8: Fraction(1, 2), 9: 10, 10: Fraction(7, 2),
    }
    for node in range(2, 11):
        theta = tuple(i for i in range(1, 11) if i != node)
        report = check_rd(e10_spec, theta, 10)
        assert report.stats["elements_enumerated"] == 141273
        if node in fails:
            assert report.verdict == FAILED
            first = report.witnesses[0]
            assert (first["word"], first["root"]) == fails[node]
        else:
            assert report.verdict == HOLDS
            assert report.d_sup == holds[node]


def test_rd_early_stop_vs_all_witnesses(rank7_spec):
    theta = tuple(range(1, 7))
    early = check_rd(rank7_spec, theta, 6)
    full = check_rd(rank7_spec, theta, 6, all_witnesses=True)
    assert early.verdict == full.verdict == FAILED
    assert len(early.witnesses) == 1
    assert len(full.witnesses) >= 1
    assert early.witnesses[0] == full.witnesses[0]
    assert early.stats["roots_checked"] <= full.stats["roots_checked"]


def test_rd_rank7_all_witnesses_at_length_12(rank7_spec, monkeypatch):
    # Measured before the scan driver took over the inherited failing
    # roots; they must not move.  The parabolic data that the witness
    # replays check against is built once, at the first witness.
    built = []

    def counted(*args):
        built.append(args)
        return make_parabolic(*args)

    monkeypatch.setattr(criteria, "make_parabolic", counted)
    report = check_rd(rank7_spec, tuple(range(1, 7)), 12, all_witnesses=True)
    assert len(built) == 1
    assert len(report.witnesses) == 281
    assert report.stats == {
        "elements_enumerated": 51332, "coset_reps": 1020,
        "roots_checked": 10449,
    }
    text = json.dumps(report.witnesses, sort_keys=True).encode()
    assert hashlib.sha256(text).hexdigest() == (
        "008d9660268daaafb3ac7c205552213cab94400097a97a9d8ba1c21c64447480"
    )


# E10's HOLDS reports at L=10 as reference_criteria.check_rd gives them,
# about 8 s each there: (d_sup, coset_reps, roots_checked) by the node
# left out of theta.
E10_HOLDS_AT_10 = {
    2: (Fraction(43, 2), 45, 325), 3: (Fraction(13, 2), 89, 687),
    4: (Fraction(3, 2), 137, 1096), 5: (1, 191, 1562),
    8: (Fraction(1, 2), 144, 1159), 9: (10, 36, 271),
    10: (Fraction(7, 2), 76, 600),
}


def test_rd_holds_without_parabolic_data(ff_spec, e10_spec, monkeypatch):
    # A HOLDS run reads its start off adj A and never needs rho_M or
    # omega_P, which only a witness's replay checks against.
    runs = [(ff_spec, theta, 18) for theta in ((2, 3), (1, 3))]
    runs += [
        (survey.validate_gcm(matrix), theta, 4)
        for matrix, thetas in survey.enumerate_family(
            survey.SurveySpec(rank=4, entry_min=-2, max_length=4)
        )
        for theta in thetas
    ]
    expected = [report_body(ref.check_rd(*run)) for run in runs]
    holds = [
        (run, body) for run, body in zip(runs, expected)
        if body["verdict"] == HOLDS
    ]
    assert len(holds) == 2 + 205
    for node, (d_sup, reps, roots) in E10_HOLDS_AT_10.items():
        theta = tuple(i for i in range(1, 11) if i != node)
        # The reference's report at L=0, with its values at L=10 put in.
        holds.append(((e10_spec, theta, 10), {
            **report_body(ref.check_rd(e10_spec, theta, 0)),
            "max_length": 10, "d_sup": criteria._frac(d_sup),
            "stats": {"elements_enumerated": 141273, "coset_reps": reps,
                      "roots_checked": roots},
        }))

    def refuse(*args):
        raise AssertionError("make_parabolic was called")

    monkeypatch.setattr(criteria, "make_parabolic", refuse)
    for (spec, theta, max_length), body in holds:
        got = report_body(check_rd(spec, theta, max_length))
        assert got == body, (spec.matrix, theta)


class _State:
    def __init__(self, word):
        self.word = word


@pytest.mark.parametrize("all_witnesses", [False, True])
def test_scan_hands_each_node_its_parents_state(ff_spec, all_witnesses):
    # A synthetic visit on the ff ball: each node's inherited state is what
    # visit returned for its parent (first for the identity), the states of
    # layers below the parents' are freed, and the counts cover exactly the
    # nodes visited, the one that gives the first witness included.
    first = _State(())
    refs = {}  # word -> weakref to the state visit returned for it
    visited = []

    def visit(word, vecs, inherited, out):
        if len(word) == 1:
            assert inherited is first
        else:
            assert refs[word[:-1]]() is inherited
        if not visited or len(word) > len(visited[-1]):
            assert all(
                ref() is None for w, ref in refs.items()
                if len(w) < len(word) - 1
            )
        visited.append(word)
        if len(word) == 4:
            out.append({"word": list(word)})
        state = _State(word)
        refs[word] = weakref.ref(state)
        return state

    report = _scan(
        "synthetic", ff_spec, None, 7, all_witnesses, visit,
        (weyl.rho(ff_spec),), first, "nodes", "letters",
    )
    sizes = weyl.growth_series(ff_spec, 7)
    assert len(visited) == (sum(sizes) - 1 if all_witnesses else sum(sizes[:4]))
    assert len(report.witnesses) == (sizes[4] if all_witnesses else 1)
    assert report.stats == {
        "elements_enumerated": sum(sizes),
        "nodes": len(visited),
        "letters": sum(map(len, visited)),
    }


@pytest.mark.parametrize("all_witnesses", [False, True])
def test_scan_keeps_the_first_of_two_witnesses_at_one_node(ff_spec,
                                                           all_witnesses):
    # A synthetic visit on the ff ball appends two witnesses at the third
    # node of length 4, which is not the last of its layer: a first-witness
    # scan returns the first of them alone, and its counts stop at that
    # node, not at the end of its layer.
    start = (weyl.rho(ff_spec),)
    sizes = weyl.growth_series(ff_spec, 6)
    layer = list(weyl.orbit_walk(ff_spec.matrix, 6, start))[3]
    assert len(layer) > 3
    target = layer[2][0]
    visited = []

    def visit(word, vecs, inherited, out):
        visited.append(word)
        if word == target:
            out.append({"word": list(word), "at": 1})
            out.append({"word": list(word), "at": 2})

    report = _scan(
        "synthetic", ff_spec, None, 6, all_witnesses, visit, start, None,
        "nodes", "letters",
    )
    both = [{"word": list(target), "at": at} for at in (1, 2)]
    if all_witnesses:
        assert report.witnesses == both
        assert len(visited) == sum(sizes) - 1
    else:
        assert report.witnesses == both[:1]
        assert visited[-1] == target
        assert len(visited) == sum(sizes[:4]) + 2
    assert report.verdict == FAILED
    assert report.stats == {
        "elements_enumerated": sum(sizes),
        "nodes": len(visited),
        "letters": sum(map(len, visited)),
    }

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
    # The first witness's word is [2, 3], so its replay reflects.
    monkeypatch.setattr(weyl, "reflect_simple", lambda spec, i, v: (1, 0, 0))
    with pytest.raises(GCMError, match="disagrees with the orbit walk"):
        check_prop51(ff_spec, 10)


def assert_simple_exactly_at_height_one(spec, max_length):
    """On every node x s_j of the walk from (rho, alpha_1, ..., alpha_n),
    the root beta = x alpha_j it adds has <rho, beta^vee> = -vecs[0][j]
    equal to 1 exactly when its pairings (<alpha_i, beta^vee>)_i =
    (-vecs[1+i][j])_i are a row of A, that is when beta is simple.
    Returns how often each side occurred, as {False: n, True: m}."""
    rows = set(spec.matrix)
    seen = {False: 0, True: 0}
    start = (weyl.rho(spec), *zip(*spec.matrix))
    for layer in weyl.orbit_walk(spec.matrix, max_length, start):
        for word, vecs, _ in layer:
            j = word[-1] - 1
            simple = tuple(-v[j] for v in vecs[1:]) in rows
            assert (vecs[0][j] == -1) == simple
            seen[simple] += 1
    return seen


@pytest.mark.parametrize("gcm, max_length", [
    ("ff_spec", 14), ("rank7_spec", 6), ("e10_spec", 5),
])
def test_simple_roots_are_the_height_one_coroots(request, gcm, max_length):
    seen = assert_simple_exactly_at_height_one(
        request.getfixturevalue(gcm), max_length
    )
    assert min(seen.values()) > 0


@settings(max_examples=40, deadline=None)
@given(spec=gcms(), max_length=st.integers(min_value=1, max_value=6))
def test_simple_roots_are_the_height_one_coroots_on_random_gcms(
        spec, max_length):
    assert_simple_exactly_at_height_one(spec, max_length)


def test_prop51_height_one_root_must_be_a_row_of_a(ff_spec, monkeypatch):
    # Every node of the first layer adds a simple root; pairings shifted
    # off the rows of A there are an internal error, not a new ascent.
    walk = weyl.orbit_walk

    def shifted(spec, max_length, start):
        for layer in walk(spec, max_length, start):
            yield [
                (word, (vecs[0], *[tuple(x + 1 for x in v) for v in vecs[1:]]),
                 parent)
                for word, vecs, parent in layer
            ]

    monkeypatch.setattr(weyl, "orbit_walk", shifted)
    with pytest.raises(GCMError, match="no row of A"):
        check_prop51(ff_spec, 3)


def test_prop51_ff_counts_at_length_18(ff_spec):
    # Computed before the scan inherited its state; they must not move.
    report = check_prop51(ff_spec, 18, all_witnesses=True)
    assert len(report.witnesses) == 836
    assert report.stats == {
        "elements_enumerated": 1885, "roots_checked": 28340,
    }


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


def test_scaled_weight_coords_match_fraction_sums(ff_spec, rank7_spec,
                                                 e10_spec):
    # The Fraction form that the start read off adj A replaced: the
    # weight coordinates (A v)_i of omega_P and shift omega_P + rho_M
    # summed as Fractions, scaled by the lcm of all their denominators.
    # Most matrices of the rank-3 and rank-4 families are not symmetric,
    # so row i_P of adj A differs from its column i_P.
    def fraction_coords(spec, vectors):
        coords = [
            [Fraction(sum(a * x for a, x in zip(row, v)))
             for row in spec.matrix]
            for v in vectors
        ]
        scale = math.lcm(*(x.denominator for c in coords for x in c))
        return scale, tuple(tuple(int(x * scale) for x in c) for c in coords)

    families = [
        survey.enumerate_family(survey.SurveySpec(rank, entry_min, 2))
        for rank, entry_min in ((3, -3), (4, -2))
    ]
    specs = [ff_spec, rank7_spec, e10_spec] + [
        survey.validate_gcm(matrix) for family in families
        for matrix, _ in family
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
                assert _coset_start(spec, par.theta, shift) == (
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


# Every finite-Levi theta of E10 and rank7 at L=10, as the node left out:
# (node, D = 1/k as k, coset reps).  E10 without node 1 and rank7 without
# node 4 have an infinite Levi.
LEMMA44_AT_10 = {
    "e10_spec": (141273, [
        (2, 3, 45), (3, 5, 89), (4, 7, 137), (5, 9, 191), (6, 13, 258),
        (7, 43, 346), (8, 19, 144), (9, 1, 36), (10, 3, 76),
    ]),
    "rank7_spec": (18484, [
        (1, 1, 113), (2, 7, 522), (3, 3, 208), (5, 1, 97), (6, 1, 97),
        (7, 6, 435),
    ]),
}


@pytest.mark.parametrize("fixture", list(LEMMA44_AT_10))
def test_lemma44_every_finite_levi_at_10(request, fixture):
    spec = request.getfixturevalue(fixture)
    elements, cases = LEMMA44_AT_10[fixture]
    nodes = set(range(1, spec.rank + 1))
    assert [node for node, _, _ in cases] == [
        i for i in sorted(nodes) if is_finite_type(spec, nodes - {i})
    ]
    for node, k, reps in cases:
        report = check_lemma44(spec, tuple(sorted(nodes - {node})), 10)
        assert report.verdict == HOLDS
        assert report.extra == {
            "D": {"num": 1, "den": k},
            "strict_everywhere": True,
            "first_non_strict": None,
        }
        assert report.stats == {
            "elements_enumerated": elements, "coset_reps": reps,
        }


def test_lemma44_explicit_d(ff_spec, monkeypatch):
    monkeypatch.setattr(
        criteria, "admissible_d", lambda par: Fraction(1, 4)
    )
    report = check_lemma44(ff_spec, (2, 3), 6)
    assert report.extra["D"] == {"num": 1, "den": 4}
    assert report.verdict == HOLDS


def test_lemma44_witnesses_at_a_fixed_d(ff_spec, monkeypatch):
    # admissible_d refuses D = 5 on ff with theta = (2, 3); with it
    # bypassed, every image leaves the positive cone.
    monkeypatch.setattr(criteria, "admissible_d", lambda par, D=None: 5)
    report = check_lemma44(ff_spec, (2, 3), 6, all_witnesses=True)
    assert report.verdict == FAILED
    assert len(report.witnesses) == 13
    assert report.witnesses[0] == {"word": [1], "image": [
        {"num": -21, "den": 2}, {"num": -9, "den": 1}, {"num": -4, "den": 1},
    ]}
    assert report.stats == {"elements_enumerated": 53, "coset_reps": 13}
    text = json.dumps(report.witnesses, sort_keys=True).encode()
    assert hashlib.sha256(text).hexdigest() == (
        "f7aed66f15c52f9fb5ce0804e5e723124e08fedd04858c4b033f48fe110a1610"
    )


def test_lemma44_first_non_strict_at_a_fixed_d(ff_spec, monkeypatch):
    # D = 1/2 is the edge of the admissible range: the image of s_1 has
    # a zero coordinate, so the lemma holds but not strictly.
    monkeypatch.setattr(
        criteria, "admissible_d", lambda par, D=None: Fraction(1, 2)
    )
    report = check_lemma44(ff_spec, (2, 3), 6, all_witnesses=True)
    assert report.verdict == HOLDS
    assert report.extra == {
        "D": {"num": 1, "den": 2},
        "strict_everywhere": False,
        "first_non_strict": {"word": [1], "image": [
            {"num": 3, "den": 4}, {"num": 0, "den": 1}, {"num": 1, "den": 2},
        ]},
    }


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


@pytest.mark.parametrize("gcm, max_length, count, stats, digest", [
    ("ff_spec", 18, 198, (1885, 1884),
     "7b3f66d4540c190ac82b60734bb92acf805c348060e672adea54c61857592f7b"),
    ("rank7_spec", 8, 973, (5859, 5858),
     "387a3dd1dbca0c1be0923d154d67b1cb8e4c74512abdb381727f4972b19d1107"),
])
def test_property25_all_witnesses_at_full_size(request, gcm, max_length,
                                               count, stats, digest):
    # Measured before check_property25 decided on its inherited
    # inversion set; they must not move.
    spec = request.getfixturevalue(gcm)
    report = check_property25(spec, max_length, all_witnesses=True)
    assert report.verdict == FAILED
    assert len(report.witnesses) == count
    assert report.stats == dict(
        zip(("elements_enumerated", "elements_checked"), stats)
    )
    text = json.dumps(report.witnesses, sort_keys=True).encode()
    assert hashlib.sha256(text).hexdigest() == digest


def assert_property25_lemma(spec, max_length):
    """For each w in the ball, each right descent i and each alpha in
    Phi_v, v = w s_i: alpha - alpha_i is a real root exactly when
    s_i(alpha - alpha_i) is in Phi_w.  Returns how often each side of
    that equivalence occurred, as {False: n, True: m}."""
    rho = weyl.rho(spec)
    words = {rho: ()}  # mu = w^-1 rho -> word of w
    for layer in weyl.orbit_walk(spec.matrix, max_length, (rho,)):
        words.update((vecs[0], word) for word, vecs, _ in layer)
    seen = {False: 0, True: 0}
    for mu, word in words.items():
        phi_w = set(weyl.inversion_set_of_word(spec, word))
        for i in range(1, spec.rank + 1):
            if mu[i - 1] > 0:
                continue  # not a right descent
            v = words[weyl.reflect_weight(spec, i, mu)]
            for alpha in weyl.inversion_set_of_word(spec, v):
                diff = tuple(
                    a - b for a, b in zip(alpha, spec.simple_root(i))
                )
                real = weyl.is_real_root(spec, diff)
                assert real == (weyl.reflect_simple(spec, i, diff) in phi_w)
                seen[real] += 1
    return seen


@pytest.mark.parametrize("gcm, max_length", [
    ("ff_spec", 10), ("rank7_spec", 5),
])
def test_property25_lemma(request, gcm, max_length):
    seen = assert_property25_lemma(request.getfixturevalue(gcm), max_length)
    assert min(seen.values()) > 0


@settings(max_examples=40, deadline=None)
@given(spec=gcms(), max_length=st.integers(min_value=1, max_value=6))
def test_property25_lemma_on_random_gcms(spec, max_length):
    assert_property25_lemma(spec, max_length)


def test_property25_runs_no_real_root_test(ff_spec, monkeypatch):
    expected = report_body(ref.check_property25(ff_spec, 10, True))

    def refuse(*args):
        raise AssertionError("is_real_root was called")

    monkeypatch.setattr(weyl, "is_real_root", refuse)
    got = report_body(check_property25(ff_spec, 10, all_witnesses=True))
    assert got == expected
    assert len(got["witnesses"]) == 19


@pytest.mark.parametrize("gcm, max_length, verdict, count, checked", [
    ("rank2", 20, HOLDS, 0, 40),
    ("ff", 10, FAILED, 19, 187),
], ids=["holds", "fails"])
def test_property25_decides_without_inversion_sets_from_words(
        ff_spec, monkeypatch, gcm, max_length, verdict, count, checked):
    # No inversion set is rebuilt from a word, not even for a witness:
    # each reads Phi_v from the walk's previous length.
    from kmrd.rank2 import rank2_spec

    spec = rank2_spec(2, 3) if gcm == "rank2" else ff_spec
    expected = report_body(ref.check_property25(spec, max_length, True))

    def refuse(*args):
        raise AssertionError("an inversion set was rebuilt from a word")

    monkeypatch.setattr(weyl, "inversion_set_of_word", refuse)
    got = report_body(check_property25(spec, max_length, all_witnesses=True))
    assert got == expected
    assert got["verdict"] == verdict
    assert len(got["witnesses"]) == count
    assert got["stats"]["elements_checked"] == checked


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
