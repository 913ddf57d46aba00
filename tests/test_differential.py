"""Differential tests: every decider, run on the shared scan driver, gives
the same report as the straightforward loops in ``reference_criteria``
(everything but ``meta.wall_time_ms``), and raises the same error type
wherever the reference raises.  The positive real roots up to a height
match the closure in root coordinates of ``reference_weyl``, under every
root cap."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import reference_criteria as ref
import reference_weyl
from kmrd import criteria, ff, weyl
from kmrd.gcm import GCMError, NotSymmetrizable, is_finite_type, validate_gcm

PAIRS = [(0, 0)] + list(itertools.product(range(-1, -4, -1), repeat=2))


def report_body(report):
    """The report as a dict without its ``meta``, which holds the timing."""
    data = criteria.report_to_dict(report)
    del data["meta"]
    return data


def outcome(decider, *args, **kwargs):
    """The report without its timing, or the type of the error raised."""
    try:
        report = decider(*args, **kwargs)
    except GCMError as exc:
        return type(exc)
    return report_body(report)


def maximal_thetas(spec):
    nodes = set(range(1, spec.rank + 1))
    return [
        tuple(sorted(nodes - {i})) for i in sorted(nodes)
        if is_finite_type(spec, nodes - {i})
    ]


def assert_same_reports(spec, max_length, thetas=None, scan_length=None):
    """Compare all four deciders, for both all_witnesses values: check_rd
    and check_lemma44 at max_length on each theta (every finite-type
    maximal one by default), check_prop51 and check_property25 at
    scan_length (max_length by default)."""
    if thetas is None:
        thetas = maximal_thetas(spec)
    if scan_length is None:
        scan_length = max_length
    for all_witnesses in (False, True):
        for theta in thetas:
            for name in ("check_rd", "check_lemma44"):
                args = (spec, theta, max_length)
                kwargs = {"all_witnesses": all_witnesses}
                assert outcome(getattr(criteria, name), *args, **kwargs) == \
                    outcome(getattr(ref, name), *args, **kwargs), (name, theta)
        for name in ("check_prop51", "check_property25"):
            args = (spec, scan_length, all_witnesses)
            assert outcome(getattr(criteria, name), *args) == \
                outcome(getattr(ref, name), *args), name


def symmetrizable_matrix(n, choose):
    """A rank-n matrix with pairs from PAIRS that has a symmetrizer.

    The pairs (a_ij, a_ji) are taken in combinations order, each by
    ``choose(options)`` among the PAIRS that keep d_i a_ij = d_j a_ji
    solvable: all of them when i and j are not yet joined by nonzero
    pairs, else those whose ratio the joined pairs have fixed.  So every
    matrix with a symmetrizer can come out, and no other."""
    d = [Fraction(1)] * n  # d_i relative to its component's first node
    component = list(range(n))
    matrix = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        if component[i] == component[j]:
            options = [(x, y) for x, y in PAIRS if d[i] * x == d[j] * y]
        else:
            options = PAIRS
        x, y = matrix[i][j], matrix[j][i] = choose(options)
        if x and component[i] != component[j]:
            # join j's component to i's, scaled so that d_j y = d_i x
            scale, old = d[i] * x / (d[j] * y), component[j]
            for k in range(n):
                if component[k] == old:
                    component[k], d[k] = component[i], d[k] * scale
    return matrix


@st.composite
def gcms(draw):
    # No draw is rejected as not symmetrizable; finite-type and singular
    # ones still are.
    n = draw(st.integers(min_value=2, max_value=4))
    matrix = symmetrizable_matrix(n, lambda options: draw(st.sampled_from(options)))
    try:
        return validate_gcm(matrix)
    except GCMError:
        assume(False)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(min_value=2, max_value=6), data=st.data())
def test_symmetrizable_matrix_has_a_symmetrizer(n, data):
    matrix = symmetrizable_matrix(
        n, lambda options: data.draw(st.sampled_from(options))
    )
    try:
        validate_gcm(matrix)
    except GCMError as exc:
        assert not isinstance(exc, NotSymmetrizable), matrix


@pytest.mark.parametrize("n", [2, 3])
def test_gcms_can_return_every_accepted_matrix(n):
    # What gcms can return, over every sequence of choices, against every
    # matrix with pairs from PAIRS that validate_gcm accepts; an index past
    # a shorter option list is skipped by the IndexError it raises.
    def outcome(matrix):
        try:
            return validate_gcm(matrix).matrix
        except GCMError as exc:
            return type(exc)

    pairs = list(itertools.combinations(range(n), 2))
    every = set()
    for choices in itertools.product(PAIRS, repeat=len(pairs)):
        matrix = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for (i, j), (x, y) in zip(pairs, choices):
            matrix[i][j], matrix[j][i] = x, y
        every.add(outcome(matrix))
    drawable = set()
    for indices in itertools.product(range(len(PAIRS)), repeat=len(pairs)):
        steps = iter(indices)
        try:
            matrix = symmetrizable_matrix(n, lambda options: options[next(steps)])
        except IndexError:
            continue
        drawable.add(outcome(matrix))
    assert NotSymmetrizable not in drawable
    accepted = {m for m in every if isinstance(m, tuple)}
    assert {m for m in drawable if isinstance(m, tuple)} == accepted
    assert len(accepted) > 1


@settings(max_examples=40, deadline=None)
@given(spec=gcms(), max_length=st.integers(min_value=0, max_value=5))
def test_deciders_match_reference_on_random_gcms(spec, max_length):
    assert_same_reports(spec, max_length)


def test_deciders_match_reference_on_ff(ff_spec):
    assert_same_reports(ff_spec, 10)


def test_deciders_match_reference_on_rank7(rank7_spec):
    # theta = 1..6 first fails at length 6 (criterion 1's witness).
    assert_same_reports(
        rank7_spec, 6, thetas=[(1, 2, 3, 4, 5, 6)], scan_length=4
    )


def test_lemma_scan_matches_reference():
    assert ff.verify_lemma55(10) == ref.verify_lemma55(10)


# The lemma scan, whose nodes inherit their parent's ascents and failing
# pairs, at larger bounds than the comparisons above.

def assert_same_prop51(spec, max_length):
    for all_witnesses in (False, True):
        args = (spec, max_length, all_witnesses)
        assert outcome(criteria.check_prop51, *args) == \
            outcome(ref.check_prop51, *args), all_witnesses


@settings(max_examples=60, deadline=None)
@given(spec=gcms(), max_length=st.integers(min_value=0, max_value=7))
def test_prop51_matches_reference_on_random_gcms(spec, max_length):
    assert_same_prop51(spec, max_length)


@st.composite
def reduced_words(draw):
    """A GCM and a nonempty reduced word, one letter at a time: w s_i is
    longer than w exactly when (w^-1 rho)_i > 0."""
    spec = draw(gcms())
    length = draw(st.integers(min_value=1, max_value=12))
    word, mu = (), weyl.rho(spec)
    for _ in range(length):
        i = draw(st.sampled_from([i for i, c in enumerate(mu, 1) if c > 0]))
        word, mu = word + (i,), weyl.reflect_weight(spec, i, mu)
    return spec, word


@settings(max_examples=60, deadline=None)
@given(reduced_words())
def test_replayed_root_is_last_inversion_root(spec_word):
    # The witness replay folds one root; inversion_set_of_word of the
    # reversed word ends with it.
    spec, word = spec_word
    assert criteria._replayed_root(spec, word, ()) == (
        weyl.inversion_set_of_word(spec, word[::-1])[-1]
    )


def test_prop51_matches_reference_on_ff_at_length_12(ff_spec):
    assert_same_prop51(ff_spec, 12)


def test_prop51_matches_reference_on_rank7_at_length_6(rank7_spec):
    assert_same_prop51(rank7_spec, 6)


# The orbit walk behind check_rd and check_lemma44, at larger bounds and on
# labellings and matrices the tests above do not reach.

RANK7_THETA = (1, 2, 3, 4, 5, 6)


def assert_same_theta_reports(spec, theta, max_length, names, all_witnesses):
    for name in names:
        args = (spec, theta, max_length)
        kwargs = {"all_witnesses": all_witnesses}
        assert outcome(getattr(criteria, name), *args, **kwargs) == \
            outcome(getattr(ref, name), *args, **kwargs), (name, theta)


def test_walk_matches_reference_on_ff_at_length_14(ff_spec):
    for theta in ((2, 3), (1, 3)):
        assert_same_theta_reports(
            ff_spec, theta, 14, ("check_rd", "check_lemma44"), False
        )


def test_walk_keeps_repeated_witnesses_on_rank7(rank7_spec):
    # Every element whose inversion set holds a failing root reports it
    # again, so 16 entries name only 4 distinct roots.
    args = (rank7_spec, RANK7_THETA, 8)
    report = outcome(criteria.check_rd, *args, all_witnesses=True)
    assert len(report["witnesses"]) == 16
    assert len({tuple(w["root"]) for w in report["witnesses"]}) == 4
    assert report == outcome(ref.check_rd, *args, all_witnesses=True)


def test_walk_matches_reference_on_relabelled_rank7(rank7_spec):
    # A seeded simultaneous row/column permutation changes the ShortLex
    # order, and with it the first witness and the scan counts; the
    # shortest failing element still has length 6.
    n = rank7_spec.rank
    perm = list(range(n))  # new node k is old node perm[k]
    random.Random(3).shuffle(perm)
    matrix = rank7_spec.matrix
    spec = validate_gcm(
        [[matrix[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    )
    theta = tuple(k + 1 for k in range(n) if perm[k] + 1 in RANK7_THETA)
    assert_same_theta_reports(
        spec, theta, 6, ("check_rd", "check_lemma44"), False
    )


@pytest.mark.parametrize("matrix", [
    [[2, -3, -3], [-1, 2, 0], [-1, 0, 2]],
    [[2, -1, -1], [-2, 2, -2], [-2, -2, 2]],
    [[2, 0, -2, 0], [0, 2, -2, 0], [-1, -1, 2, -1], [0, 0, -1, 2]],
    [[2, 0, -1, -1], [0, 2, 0, -2], [-4, 0, 2, 0], [-1, -1, 0, 2]],
])
def test_walk_matches_reference_on_non_symmetric_gcms(matrix):
    spec = validate_gcm(matrix)
    assert spec.symmetrizer != (1,) * spec.rank
    for theta in maximal_thetas(spec):
        # lemma44 holds on all of these, so all_witnesses changes nothing
        assert_same_theta_reports(
            spec, theta, 7, ("check_rd", "check_lemma44"), False
        )
        assert_same_theta_reports(spec, theta, 7, ("check_rd",), True)


# The positive real roots up to a height: the growth series' raising
# closure in weight coordinates against the closure in root coordinates.

def root_outcome(fn, spec, max_height):
    """The sorted roots, or the message and stats of the CapExceeded."""
    try:
        return fn(spec, max_height)
    except weyl.CapExceeded as exc:
        return str(exc), exc.stats


def assert_same_roots(spec, max_height):
    """Same roots under the default cap, and under every cap from 1 to one
    past the number of roots the same list or the same refusal."""
    roots = reference_weyl.positive_real_roots_up_to_height(spec, max_height)
    assert weyl.positive_real_roots_up_to_height(spec, max_height) == roots
    with pytest.MonkeyPatch.context() as mp:
        for cap in range(1, len(roots) + 2):
            mp.setenv("KMRD_MAX_ELEMENTS", str(cap))
            expected = root_outcome(
                reference_weyl.positive_real_roots_up_to_height,
                spec, max_height,
            )
            assert root_outcome(
                weyl.positive_real_roots_up_to_height, spec, max_height
            ) == expected, (max_height, cap)
            assert (cap >= len(roots)) == isinstance(expected, list)


def test_roots_match_reference_on_ff(ff_spec):
    for max_height in range(1, 61):
        assert_same_roots(ff_spec, max_height)


def test_roots_match_reference_on_rank7(rank7_spec):
    for max_height in range(1, 15):
        assert_same_roots(rank7_spec, max_height)


@settings(max_examples=40, deadline=None)
@given(spec=gcms(), max_height=st.integers(min_value=1, max_value=20))
def test_roots_match_reference_on_random_gcms(spec, max_height):
    assert_same_roots(spec, max_height)


def test_roots_make_no_reflection_in_root_coordinates(ff_spec, monkeypatch):
    def refuse(*args):
        raise AssertionError("reflect_simple called")

    monkeypatch.setattr(weyl, "reflect_simple", refuse)
    assert len(weyl.positive_real_roots_up_to_height(ff_spec, 50)) == 150


# The finite parabolics of the growth series: the node subsets grown from
# the survivors only against every subset closed on its own.

def growth_outcome(spec, max_length):
    """The growth series built afresh, or the message and stats of the
    CapExceeded."""
    weyl._recurrence.cache_clear()
    try:
        return weyl.growth_series(spec, max_length)
    except weyl.CapExceeded as exc:
        return str(exc), exc.stats


def assert_same_parabolics(spec, max_length):
    """The same (|J|, heights) list, in the same order, and the same
    growth series, or the same refusal, under the default cap and under
    small ones."""
    parabolics = reference_weyl._finite_parabolics(spec, max_length)
    assert weyl._finite_parabolics(spec, max_length) == parabolics
    with pytest.MonkeyPatch.context() as mp:
        for cap in (None, 1, 7, 60, 1000):
            if cap is not None:
                mp.setenv("KMRD_MAX_ELEMENTS", str(cap))
            got = growth_outcome(spec, max_length)
            with pytest.MonkeyPatch.context() as frozen:
                frozen.setattr(weyl, "_finite_parabolics",
                               reference_weyl._finite_parabolics)
                assert growth_outcome(spec, max_length) == got, cap
    weyl._recurrence.cache_clear()


GROWTH_LENGTHS = (0, 1, 2, 3, 5, 8, 13)


def test_parabolics_match_reference(ff_spec, rank7_spec):
    for spec in (ff_spec, rank7_spec):
        for max_length in GROWTH_LENGTHS + (40,):
            assert_same_parabolics(spec, max_length)


@settings(max_examples=60, deadline=None)
@given(spec=gcms(), max_length=st.sampled_from(GROWTH_LENGTHS))
def test_parabolics_match_reference_on_random_gcms(spec, max_length):
    assert_same_parabolics(spec, max_length)
