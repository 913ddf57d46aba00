"""The Weyl ball as the walk on the orbit W.rho: layer for layer the same
words and matrices as the frozen matrix-based enumerator in
``reference_weyl``, the same CapExceeded, and no matrix built by any of
the four deciders."""

import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import reference_weyl as ref
from kmrd import criteria, weyl
from kmrd.gcm import GCMError, validate_gcm

PAIRS = [(0, 0)] + list(itertools.product(range(-1, -4, -1), repeat=2))
RANK7_THETA = (1, 2, 3, 4, 5, 6)


def assert_same_ball(spec, max_length, reverse=False):
    """Per layer: the same words, matrices and inverse matrices, and mu
    positive in exactly the coordinates i with w(alpha_i) > 0.  With
    reverse, the matrices are asked for longest element first."""
    expected = ref.enumerate_by_length(spec, max_length)
    layers = weyl.enumerate_by_length(spec, max_length)
    assert [len(l) for l in layers] == [len(l) for l in expected]
    pairs = list(zip(layers, expected))
    for layer, ref_layer in reversed(pairs) if reverse else pairs:
        assert [w.word for w in layer] == [w.word for w in ref_layer]
        assert [w.inverse for w in layer] == [w.inverse for w in ref_layer]
        assert [w.matrix for w in layer] == [w.matrix for w in ref_layer]
        for w in layer:
            assert [x > 0 for x in w.mu] == [
                weyl.is_positive_vec(col) for col in zip(*w.matrix)
            ]


def relabelled(spec, seed):
    """The GCM with its nodes permuted by a seeded permutation."""
    n = spec.rank
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return validate_gcm(
        [[spec.matrix[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    )


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


def test_ball_matches_reference_on_ff(ff_spec):
    assert_same_ball(ff_spec, 12)


def test_ball_matches_reference_on_rank7(rank7_spec):
    assert_same_ball(rank7_spec, 8)


def test_ball_matches_reference_on_relabelled_rank7(rank7_spec):
    assert_same_ball(relabelled(rank7_spec, 7), 8, reverse=True)


@settings(max_examples=40, deadline=None)
@given(spec=gcms(), max_length=st.integers(min_value=0, max_value=6),
       reverse=st.booleans())
def test_ball_matches_reference_on_random_gcms(spec, max_length, reverse):
    assert_same_ball(spec, max_length, reverse)


# The ff ball of length <= 6 has 53 elements.
@pytest.mark.parametrize("cap", [1, 2, 3, 8, 10, 27, 52])
def test_cap_matches_reference(ff_spec, rank7_spec, cap, monkeypatch):
    for spec in (ff_spec, rank7_spec):
        with pytest.raises(weyl.CapExceeded) as expected:
            ref.enumerate_by_length(spec, 6, max_elements=cap)
        with pytest.raises(weyl.CapExceeded) as got:
            weyl.enumerate_by_length(spec, 6, max_elements=cap)
        assert got.value.stats == expected.value.stats
        assert str(got.value) == str(expected.value)
        monkeypatch.setenv("KMRD_MAX_ELEMENTS", str(cap))
        with pytest.raises(weyl.CapExceeded) as counted:
            weyl.ball_size(spec, 6)
        monkeypatch.delenv("KMRD_MAX_ELEMENTS")
        assert counted.value.stats == expected.value.stats


def test_ball_size_counts_the_ball(ff_spec, rank7_spec):
    for spec, max_length in ((ff_spec, 12), (rank7_spec, 6)):
        layers = ref.enumerate_by_length(spec, max_length)
        assert weyl.ball_size(spec, max_length) == sum(len(l) for l in layers)


def report_body(report):
    data = criteria.report_to_dict(report)
    del data["meta"]
    return data


def test_walk_deciders_build_no_matrix(ff_spec, rank7_spec, monkeypatch):
    runs = [
        (criteria.check_rd, (rank7_spec, RANK7_THETA, 8)),
        (criteria.check_lemma44, (ff_spec, (2, 3), 12)),
        (criteria.check_lemma44, (ff_spec, (1, 3), 12)),
        (criteria.check_property25, (ff_spec, 8)),
        (criteria.check_prop51, (ff_spec, 12)),
    ]
    expected = [report_body(f(*args, all_witnesses=True)) for f, args in runs]

    def no_matrix(*args):
        raise AssertionError("a Weyl-group matrix was built")

    monkeypatch.setattr(weyl, "_mul_right_simple", no_matrix)
    monkeypatch.setattr(weyl, "_mul_left_simple", no_matrix)
    got = [report_body(f(*args, all_witnesses=True)) for f, args in runs]
    assert got == expected
    assert len(got[0]["witnesses"]) == 16
