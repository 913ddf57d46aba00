"""Differential tests: every decider, run on the shared scan driver, gives
the same report as the straightforward loops in ``reference_criteria``
(everything but ``meta.wall_time_ms``), and raises the same error type
wherever the reference raises."""

import itertools

from hypothesis import assume, given, settings, strategies as st

import reference_criteria as ref
from kmrd import criteria, ff
from kmrd.gcm import GCMError, is_finite_type, validate_gcm

PAIRS = [(0, 0)] + list(itertools.product(range(-1, -4, -1), repeat=2))


def outcome(decider, *args, **kwargs):
    """The report without its timing, or the type of the error raised."""
    try:
        report = decider(*args, **kwargs)
    except GCMError as exc:
        return type(exc)
    data = criteria.report_to_dict(report)
    del data["meta"]
    return data


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


@st.composite
def gcms(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    matrix = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        matrix[i][j], matrix[j][i] = draw(st.sampled_from(PAIRS))
    try:
        return validate_gcm(matrix)
    except GCMError:
        assume(False)


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
