import itertools

import pytest
from hypothesis import given, settings, strategies as st

from kmrd import (
    CapExceeded,
    apply,
    enumerate_by_length,
    inversion_set,
    inversion_set_of_inverse,
    is_real_root,
    min_coset_reps,
    positive_real_roots_up_to_height,
    reflect_simple,
    word_to_element,
)
from kmrd.gcm import GCMError
from kmrd.linalg import identity
from kmrd.weyl import (
    DEFAULT_MAX_ELEMENTS,
    element_cap,
    growth_series,
    in_min_coset_reps,
    inversion_set_of_word,
    is_positive_vec,
)
from test_differential import gcms


def mat_mul(a, b):
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b))
        for row in a
    )


def test_layer_sizes_ff(ff_spec):
    layers = enumerate_by_length(ff_spec, 6)
    assert [len(l) for l in layers] == [1, 3, 5, 7, 9, 12, 16]


def test_layer_sizes_rank7(rank7_spec):
    layers = enumerate_by_length(rank7_spec, 6)
    assert [len(l) for l in layers] == [1, 7, 27, 78, 190, 413, 826]


def test_words_are_canonical_shortlex(ff_spec):
    layers = enumerate_by_length(ff_spec, 5)
    for layer in layers:
        words = [w.word for w in layer]
        assert words == sorted(words)
        for w in layer:
            rebuilt = word_to_element(ff_spec, w.word)
            assert rebuilt.matrix == w.matrix
            assert rebuilt.inverse == w.inverse


def test_braid_relation_order_three(ff_spec):
    # a23 * a32 = 1, so s2 and s3 braid: s2 s3 s2 = s3 s2 s3
    left = word_to_element(ff_spec, (2, 3, 2))
    right = word_to_element(ff_spec, (3, 2, 3))
    assert left.matrix == right.matrix


def simple_reflection_matrix(spec, i):
    """Matrix of s_i: column j is alpha_j - a_ij alpha_i."""
    n = spec.rank
    a = spec.matrix[i - 1]
    return tuple(
        tuple((1 if r == c else 0) - (a[c] if r == i - 1 else 0) for c in range(n))
        for r in range(n)
    )


def test_matrix_matches_reflection_product(ff_spec):
    word = (1, 2, 3, 1)
    w = word_to_element(ff_spec, word)
    m = identity(3)
    for i in word:
        m = mat_mul(m, simple_reflection_matrix(ff_spec, i))
    assert w.matrix == m


def test_inverse_matrix(ff_spec):
    for layer in enumerate_by_length(ff_spec, 5):
        for w in layer:
            assert mat_mul(w.matrix, w.inverse) == identity(3)


def test_apply_on_simple_roots(ff_spec):
    w = word_to_element(ff_spec, (1,))
    # s1(alpha_2) = alpha_2 - a_12 alpha_1 = alpha_2 + 2 alpha_1
    assert apply(w, ff_spec.simple_root(2)) == (2, 1, 0)
    assert apply(w, ff_spec.simple_root(1)) == (-1, 0, 0)


def test_inversion_set_example():
    from kmrd.rank2 import rank2_spec

    spec = rank2_spec(2, 3)
    roots = inversion_set_of_word(spec, (1, 2))
    # alpha_2, then s_2(alpha_1) = alpha_1 + 2 alpha_2
    assert roots == ((0, 1), (1, 2))


def test_inversion_set_size_is_length(ff_spec, rank7_spec):
    for spec in (ff_spec, rank7_spec):
        for layer in enumerate_by_length(spec, 4):
            for w in layer:
                inv = inversion_set(spec, w)
                assert len(inv) == w.length
                assert len(set(inv)) == w.length
                for alpha in inv:
                    assert is_positive_vec(alpha)
                    assert is_real_root(spec, tuple(int(x) for x in alpha))


def test_inversion_set_brute_force(ff_spec):
    roots = positive_real_roots_up_to_height(ff_spec, 12)
    for layer in enumerate_by_length(ff_spec, 5):
        for w in layer:
            fast = {alpha for alpha in inversion_set(ff_spec, w) if sum(alpha) <= 12}
            brute = {
                alpha for alpha in roots
                if all(x <= 0 for x in apply(w, alpha))
            }
            assert fast == brute


def test_inversion_set_of_inverse(ff_spec):
    for layer in enumerate_by_length(ff_spec, 5):
        for w in layer:
            winv = word_to_element(ff_spec, tuple(reversed(w.word)))
            assert set(inversion_set_of_inverse(ff_spec, w)) == set(
                inversion_set(ff_spec, winv)
            )


def test_min_coset_reps_rank7(rank7_spec):
    theta = tuple(range(1, 7))
    layers = enumerate_by_length(rank7_spec, 6)
    reps = min_coset_reps(rank7_spec, theta, layers)
    assert sum(len(l) for l in reps) == 63  # identity plus 62 nontrivial
    assert sum(len(l) for l in reps[1:]) == 62
    assert reps[0][0].word == ()
    assert [w.word for w in reps[1]] == [(7,)]


def test_coset_reps_partition(ff_spec):
    # every element factors as (theta-part) * (rep) with additive lengths
    theta = (2, 3)
    layers = enumerate_by_length(ff_spec, 4)
    reps = [w for layer in min_coset_reps(ff_spec, theta, layers) for w in layer]
    assert all(in_min_coset_reps(ff_spec, w, theta) for w in reps)
    # reps of an A2 Levi complement: identity and words starting points
    words = {w.word for w in reps}
    assert () in words and (1,) in words


def test_is_real_root_ff(ff_spec):
    assert is_real_root(ff_spec, (1, 0, 0))
    assert is_real_root(ff_spec, (2, 1, 1))
    assert is_real_root(ff_spec, (-2, -1, -1))
    assert not is_real_root(ff_spec, (1, 1, 0))   # null norm
    assert not is_real_root(ff_spec, (1, 1, 1))   # null norm
    assert not is_real_root(ff_spec, (1, 2, 1))   # norm 0 via psi det 0
    assert not is_real_root(ff_spec, (1, -1, 0))  # mixed sign
    assert not is_real_root(ff_spec, (0, 0, 0))


def test_root_counts(ff_spec, rank7_spec):
    assert len(positive_real_roots_up_to_height(ff_spec, 12)) == 24
    assert len(positive_real_roots_up_to_height(rank7_spec, 12)) == 119


def test_roots_sorted_and_real(ff_spec):
    roots = positive_real_roots_up_to_height(ff_spec, 12)
    assert roots == sorted(roots, key=lambda r: (sum(r), r))
    assert all(is_real_root(ff_spec, r) for r in roots)


@settings(max_examples=30, deadline=None)
@given(spec=gcms(), max_height=st.integers(min_value=1, max_value=12))
def test_is_real_root_matches_root_closure(spec, max_height):
    # the descent of is_real_root against the raising closure, both ways,
    # on every nonnegative vector up to the height
    roots = set(positive_real_roots_up_to_height(spec, max_height))
    for v in itertools.product(range(max_height + 1), repeat=spec.rank):
        if sum(v) <= max_height:
            assert is_real_root(spec, v) == (v in roots), v


def test_element_cap(ff_spec, monkeypatch):
    monkeypatch.setenv("KMRD_MAX_ELEMENTS", "10")
    with pytest.raises(CapExceeded) as info:
        enumerate_by_length(ff_spec, 6)
    assert info.value.stats["elements_enumerated"] == 10


def test_element_cap_env(ff_spec, monkeypatch):
    monkeypatch.setenv("KMRD_MAX_ELEMENTS", "5")
    with pytest.raises(CapExceeded):
        enumerate_by_length(ff_spec, 6)
    monkeypatch.delenv("KMRD_MAX_ELEMENTS")
    enumerate_by_length(ff_spec, 6)


@pytest.mark.parametrize("value", ["0", "-3", "abc"])
def test_element_cap_refuses_non_positive(ff_spec, monkeypatch, value):
    monkeypatch.setenv("KMRD_MAX_ELEMENTS", value)
    for call in (element_cap, lambda: sum(growth_series(ff_spec, 0))):
        with pytest.raises(GCMError, match="KMRD_MAX_ELEMENTS"):
            call()


def test_element_cap_empty_is_default(monkeypatch):
    monkeypatch.setenv("KMRD_MAX_ELEMENTS", "")
    assert element_cap() == DEFAULT_MAX_ELEMENTS


def test_reflect_simple_involution(ff_spec):
    v = (3, -1, 4)
    for i in (1, 2, 3):
        assert reflect_simple(ff_spec, i, reflect_simple(ff_spec, i, v)) == v
