"""The Weyl ball as the walk on the orbit W.rho: layer for layer the same
words and matrices as the frozen matrix-based enumerator in
``reference_weyl``, the same CapExceeded, and no matrix built by any of
the four deciders.  Its size comes from the growth series, which must
give the walk's layer sizes and the reference's CapExceeded, and no
decider walks W.rho to count it."""

import itertools
import math
import os
import random
from unittest import mock

import pytest
from types import SimpleNamespace

from hypothesis import assume, given, settings, strategies as st

import reference_weyl as ref
from kmrd import criteria, weyl
from kmrd.gcm import GCMError, validate_gcm
from kmrd.rank2 import rank2_spec
from test_differential import gcms, maximal_thetas, report_body

RANK7_THETA = (1, 2, 3, 4, 5, 6)


def assert_same_ball(spec, max_length):
    """Per layer: the same words, matrices and inverse matrices, and mu
    positive in exactly the coordinates i with w(alpha_i) > 0."""
    expected = ref.enumerate_by_length(spec, max_length)
    layers = weyl.enumerate_by_length(spec, max_length)
    assert [len(l) for l in layers] == [len(l) for l in expected]
    for layer, ref_layer in zip(layers, expected):
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


def test_ball_matches_reference_on_ff(ff_spec):
    assert_same_ball(ff_spec, 12)


def test_ball_matches_reference_on_rank7(rank7_spec):
    assert_same_ball(rank7_spec, 8)


def test_ball_matches_reference_on_relabelled_rank7(rank7_spec):
    assert_same_ball(relabelled(rank7_spec, 7), 8)


def assert_parents_by_position(spec, max_length, start):
    """In every layer of the walk from start, each node's parent position
    points at the node of its word less the last letter in the previous
    layer (the identity for the first)."""
    previous = [((), tuple(start), None)]
    for layer in weyl.orbit_walk(spec.matrix, max_length, start):
        for word, _, parent in layer:
            assert previous[parent][0] == word[:-1]
        previous = layer


def coset_weight(spec, theta):
    """0 on theta and 1 off it: its stabiliser is W_theta, so its walk
    gives the coset representatives W^theta."""
    return tuple(int(i not in theta) for i in range(1, spec.rank + 1))


@pytest.mark.parametrize("gcm, max_length", [
    ("ff", 14), ("relabelled rank7", 6),
])
def test_walk_gives_each_node_its_parent_position(ff_spec, rank7_spec,
                                                  gcm, max_length):
    spec = ff_spec if gcm == "ff" else relabelled(rank7_spec, 7)
    assert_parents_by_position(spec, max_length, (weyl.rho(spec),))
    for p in range(1, spec.rank + 1):
        theta = set(range(1, spec.rank + 1)) - {p}
        assert_parents_by_position(
            spec, max_length + 4, (coset_weight(spec, theta),)
        )


def assert_companions_fold(matrix, max_length, start):
    """Every node's vecs[k] is start[k] folded through ``reflect_weight``
    along the node's word, vecs[0] and the companion vectors alike.
    Returns the number of nodes compared."""
    spec = SimpleNamespace(matrix=matrix)  # all reflect_weight reads
    compared = 0
    for layer in weyl.orbit_walk(matrix, max_length, start):
        for word, vecs, _ in layer:
            folded = []
            for v in start:
                for i in word:
                    v = weyl.reflect_weight(spec, i, v)
                folded.append(v)
            assert vecs == tuple(folded), word
            compared += 1
    return compared


def rho_and_simple_roots(matrix):
    """(rho, alpha_1, ..., alpha_n) in weight coordinates, the start of
    ``check_prop51``: alpha_i is column i of the matrix."""
    return ((1,) * len(matrix), *zip(*matrix))


def test_companions_fold_on_ff(ff_spec):
    assert assert_companions_fold(
        ff_spec.matrix, 12, rho_and_simple_roots(ff_spec.matrix)
    ) == 338


@pytest.mark.parametrize("gcm, max_length, nodes", [
    ("rank7_spec", 8, 604), ("e10_spec", 6, 257),
])
def test_companions_fold_on_coset_starts(request, gcm, max_length, nodes):
    # (tau, sigma) of check_rd for every finite-Levi maximal theta
    spec = request.getfixturevalue(gcm)
    assert sum(
        assert_companions_fold(
            spec.matrix, max_length, criteria._coset_start(spec, theta)[1]
        )
        for theta in maximal_thetas(spec)
    ) == nodes


@pytest.mark.parametrize("nodes, max_length, compared", [
    (range(3, 11), 200, 239), (range(2, 11), 20, 69),
])
def test_companions_fold_on_e10_sub_diagrams(e10_spec, nodes, max_length,
                                             compared):
    # E10's nodes 3-10 are E8 (finite: the walk from the weight that is 1
    # at node 3 ends after 239 nodes) and nodes 2-10 are E9 = E8^(1)
    matrix = tuple(
        tuple(e10_spec.matrix[i - 1][j - 1] for j in nodes) for i in nodes
    )
    start = ((1,) + (0,) * (len(matrix) - 1), *rho_and_simple_roots(matrix))
    assert assert_companions_fold(matrix, max_length, start) == compared


@settings(max_examples=40, deadline=None)
@given(spec=gcms(), max_length=st.integers(min_value=0, max_value=5))
def test_companions_fold_on_random_gcms(spec, max_length):
    assert_companions_fold(
        spec.matrix, max_length, rho_and_simple_roots(spec.matrix)
    )
    for theta in maximal_thetas(spec):
        assert_companions_fold(
            spec.matrix, max_length + 2, criteria._coset_start(spec, theta)[1]
        )

@settings(max_examples=40, deadline=None)
@given(spec=gcms(), max_length=st.integers(min_value=0, max_value=6),
       data=st.data())
def test_walk_gives_each_node_its_parent_position_on_random_gcms(
        spec, max_length, data):
    theta = data.draw(st.sets(st.integers(1, spec.rank)))
    assert_parents_by_position(spec, max_length, (weyl.rho(spec),))
    assert_parents_by_position(
        spec, max_length, (coset_weight(spec, theta),)
    )


def test_ball_matrices_step_from_the_parent(rank7_spec, monkeypatch):
    """Only the identity folds its word; every other element of an
    enumerated ball takes one step from its parent's matrices."""
    folded = []
    fold = weyl._fold

    def recording_fold(spec, word, step):
        folded.append(word)
        return fold(spec, word, step)

    monkeypatch.setattr(weyl, "_fold", recording_fold)
    layers = weyl.enumerate_by_length(rank7_spec, 5)
    for layer in layers:
        for w in layer:
            w.inverse, w.matrix
    assert folded == [(), ()]
    word = layers[5][-1].word
    assert weyl.word_to_element(rank7_spec, word).matrix == layers[5][-1].matrix
    assert folded == [(), (), word, word]


@settings(max_examples=40, deadline=None)
@given(spec=gcms(), max_length=st.integers(min_value=0, max_value=6))
def test_ball_matches_reference_on_random_gcms(spec, max_length):
    assert_same_ball(spec, max_length)


# The ff ball of length <= 6 has 53 elements.  A cap below 1 is refused
# (tests/test_weyl.py).
@pytest.mark.parametrize("cap", range(1, 53))
def test_cap_matches_reference(ff_spec, rank7_spec, cap, monkeypatch):
    for spec in (ff_spec, rank7_spec):
        with pytest.raises(weyl.CapExceeded) as expected:
            ref.enumerate_by_length(spec, 6, max_elements=cap)
        monkeypatch.setenv("KMRD_MAX_ELEMENTS", str(cap))
        with pytest.raises(weyl.CapExceeded) as got:
            weyl.enumerate_by_length(spec, 6)
        assert got.value.stats == expected.value.stats
        assert str(got.value) == str(expected.value)
        with pytest.raises(weyl.CapExceeded) as counted:
            weyl.ball_size(spec, 6)
        with pytest.raises(weyl.CapExceeded) as series:
            weyl.growth_series(spec, 6)
        # nothing is counted past the identity at max_length 0
        assert len(ref.enumerate_by_length(spec, 0, max_elements=cap)) == 1
        assert weyl.ball_size(spec, 0) == 1
        monkeypatch.delenv("KMRD_MAX_ELEMENTS")
        for refused in (counted, series):
            assert refused.value.stats == expected.value.stats
            assert str(refused.value) == str(expected.value)


def test_enumerate_by_length_refuses_the_cap_before_walking(ff_spec,
                                                           monkeypatch):
    with pytest.raises(weyl.CapExceeded) as expected:
        ref.enumerate_by_length(ff_spec, 6, max_elements=52)

    def no_walk(*args):
        raise AssertionError("walked a bound past the cap")

    monkeypatch.setattr(weyl, "orbit_walk", no_walk)
    monkeypatch.setenv("KMRD_MAX_ELEMENTS", "52")
    with pytest.raises(weyl.CapExceeded) as got:
        weyl.enumerate_by_length(ff_spec, 6)
    assert got.value.stats == expected.value.stats
    assert str(got.value) == str(expected.value)


def test_ball_size_memo_never_keeps_the_cap(ff_spec, rank7_spec,
                                            monkeypatch):
    weyl._recurrence.cache_clear()
    assert weyl.ball_size(ff_spec, 12) == 339
    monkeypatch.setenv("KMRD_MAX_ELEMENTS", "338")
    with pytest.raises(weyl.CapExceeded):
        weyl.ball_size(ff_spec, 12)
    monkeypatch.delenv("KMRD_MAX_ELEMENTS")
    for spec, size in ((ff_spec, 339), (rank7_spec, 51332), (ff_spec, 339)):
        assert weyl.ball_size(spec, 12) == size
    # a miss for the first ff, rank7 and the ff after it
    assert weyl._recurrence.cache_info().misses == 3


def test_ball_size_counts_the_ball(ff_spec, rank7_spec):
    for spec, max_length in ((ff_spec, 12), (rank7_spec, 6)):
        layers = ref.enumerate_by_length(spec, max_length)
        assert weyl.ball_size(spec, max_length) == sum(len(l) for l in layers)


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


def walk_sizes(spec, max_length, cap=None):
    """The ball's layer sizes recounted on the walk from rho, once
    ``ball_size`` has passed the bound under cap (by default the element
    cap already set)."""
    env = {"KMRD_MAX_ELEMENTS": str(cap)} if cap else {}
    with mock.patch.dict(os.environ, env):
        weyl.ball_size(spec, max_length)
    return [1] + [
        len(layer) for layer in
        weyl.orbit_walk(spec.matrix, max_length, (weyl.rho(spec),))
    ]


def test_growth_series_matches_walk(ff_spec, rank7_spec):
    for spec, max_length, total in (
        (ff_spec, 30, 55393),
        (rank7_spec, 12, 51332),
        (relabelled(rank7_spec, 3), 12, 51332),
    ):
        sizes = weyl.growth_series(spec, max_length)
        assert sizes == walk_sizes(spec, max_length)
        assert weyl.ball_size(spec, max_length) == sum(sizes) == total


def test_growth_series_rank2_is_infinite_dihedral():
    spec = rank2_spec(2, 3)
    assert weyl.growth_series(spec, 500) == [1] + [2] * 500
    assert weyl.growth_series(spec, 0) == [1]


def test_growth_series_closes_only_surviving_subsets(monkeypatch):
    # W is the free product of 24 copies of Z/2: at L = 2 the 24
    # singletons survive, the 276 pairs (infinite dihedral) are cut off,
    # and no larger subset is closed
    spec = validate_gcm(
        [[2 if i == j else -2 for j in range(24)] for i in range(24)]
    )
    calls = []
    closure = weyl._closure

    def counting_closure(*args):
        calls.append(args[1])
        return closure(*args)

    monkeypatch.setattr(weyl, "_closure", counting_closure)
    weyl._recurrence.cache_clear()
    assert weyl.growth_series(spec, 2) == [1, 24, 24 * 23]
    assert len(calls) <= 300
    weyl._recurrence.cache_clear()


@st.composite
def symmetrizable_gcms(draw):
    """Rank 2-5 GCMs built from a symmetrizer d: d_i a_ij = d_j a_ji =
    -k lcm(d_i, d_j), k = 0, 1, 2, so every edge from A2, B2 and G2 to
    infinite dihedral can occur."""
    n = draw(st.integers(min_value=2, max_value=5))
    d = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    matrix = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        k = draw(st.integers(0, 2)) * math.lcm(d[i], d[j])
        matrix[i][j], matrix[j][i] = -k // d[i], -k // d[j]
    try:
        return validate_gcm(matrix)
    except GCMError:
        assume(False)


@settings(max_examples=40, deadline=None)
@given(spec=symmetrizable_gcms(),
       max_length=st.integers(min_value=0, max_value=8))
def test_growth_series_matches_walk_on_random_gcms(spec, max_length):
    sizes = weyl.growth_series(spec, max_length)
    assert len(sizes) == max_length + 1
    try:
        assert sizes == walk_sizes(spec, max_length, 20_000)
    except weyl.CapExceeded as exc:
        # the walk stopped inside the layer after its whole ones
        done = exc.stats["layer_sizes"]
        assert sizes[:len(done)] == done
        assert sum(sizes[:len(done) + 1]) > 20_000


def test_negative_bounds_rejected(ff_spec):
    for run in (
        lambda: weyl.growth_series(ff_spec, -1),
        lambda: weyl.ball_size(ff_spec, -1),
        lambda: list(weyl.orbit_walk(ff_spec.matrix, -1, (weyl.rho(ff_spec),))),
        lambda: criteria.check_prop51(ff_spec, -1),
        lambda: criteria.check_rd(ff_spec, (2, 3), -2),
    ):
        with pytest.raises(GCMError, match="max_length must be >= 0"):
            run()


def test_no_decider_walks_the_ball_to_count_it(ff_spec, rank7_spec,
                                               monkeypatch):
    """With a walk from (rho,) forbidden, check_rd and check_lemma44 give
    the same reports, each from one walk, and their elements_enumerated
    is the ball recounted on the walk."""
    runs = [
        (criteria.check_rd, (rank7_spec, RANK7_THETA, 12)),
        (criteria.check_lemma44, (ff_spec, (2, 3), 12)),
        (criteria.check_lemma44, (ff_spec, (1, 3), 12)),
    ]
    expected = [report_body(f(*args)) for f, args in runs]
    assert expected[0]["stats"] == {
        "elements_enumerated": 51332, "coset_reps": 39, "roots_checked": 166,
    }
    walk = weyl.orbit_walk
    starts = []

    def guarded(matrix, max_length, start, *args):
        if tuple(start) == ((1,) * len(matrix),):
            raise AssertionError("walked W.rho")
        starts.append(start)
        return walk(matrix, max_length, start, *args)

    monkeypatch.setattr(weyl, "orbit_walk", guarded)
    assert [report_body(f(*args)) for f, args in runs] == expected
    assert len(starts) == len(runs)
    monkeypatch.undo()
    for (_, (spec, _, max_length)), body in zip(runs, expected):
        assert body["stats"]["elements_enumerated"] == sum(
            walk_sizes(spec, max_length)
        )


def test_ball_deciders_walk_once(ff_spec, monkeypatch):
    walk = weyl.orbit_walk
    starts = []

    def counted(spec, max_length, start, *args):
        starts.append(start)
        return walk(spec, max_length, start, *args)

    monkeypatch.setattr(weyl, "orbit_walk", counted)
    criteria.check_prop51(ff_spec, 8, all_witnesses=True)
    criteria.check_property25(ff_spec, 8, all_witnesses=True)
    weyl.ball_size(ff_spec, 8)
    assert len(starts) == 2


def test_check_rd_far_past_the_default_cap(rank7_spec, monkeypatch):
    monkeypatch.setenv("KMRD_MAX_ELEMENTS", str(10**15))
    short = criteria.check_rd(rank7_spec, RANK7_THETA, 12)
    long = criteria.check_rd(rank7_spec, RANK7_THETA, 40)
    assert long.failed
    assert long.witnesses[0] == short.witnesses[0]
    assert long.witnesses[0]["word"] == [7, 2, 1, 3, 2, 7]
    assert long.stats["coset_reps"] == short.stats["coset_reps"] == 39
    assert long.stats["elements_enumerated"] == 1383649544
