"""The orbit walk on a Levi sub-diagram A_J, which ``validate_gcm`` refuses
as finite (``FiniteType``) or affine (``Singular``), and the lemma that
lets RD be decided one root support at a time.

Lemma.  Take a maximal theta, p = i_P, and a set J of nodes with p in J.
The roots with support in J that W^theta tests up to length L are the
roots that W_J^(J - p) tests up to L, each first at the same length, and
the walk on A_J from the J coordinates of check_rd's start (tau, sigma)
gives their pairings -tau[i] and -sigma[i] with omega_P and with
omega_P + rho_M.  README's Weyl-machinery section has the proof."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings

from kmrd import criteria, weyl
from test_differential import gcms, maximal_thetas
from test_orbit_walk import assert_parents_by_position


def submatrix(matrix, nodes):
    """A_J for the 1-based nodes J, as a tuple of rows."""
    return tuple(tuple(matrix[i - 1][j - 1] for j in nodes) for i in nodes)


def layer_sizes(matrix, max_length, weight):
    """The walk's layer sizes from weight, after the identity's, with each
    node's parent position checked on the way."""
    # assert_parents_by_position reads nothing of its spec but the matrix
    assert_parents_by_position(
        SimpleNamespace(matrix=matrix), max_length, (weight,)
    )
    return [
        len(layer) for layer in weyl.orbit_walk(matrix, max_length, (weight,))
    ]


def test_walk_on_a2_from_rho_is_the_finite_group():
    # |W(A2)| = 6, and the longest element has length 3
    assert layer_sizes(((2, -1), (-1, 2)), 10, (1, 1)) == [2, 2, 1]


def test_walk_on_e8_is_the_orbit_of_its_highest_root(e10_spec):
    # E10's nodes 3-10 are E8, and node 3's fundamental weight is its
    # highest root: an orbit of 240 = |W(E8)| / |W(E7)| weights, whose
    # longest coset representative has length 120 - 63, the numbers of
    # positive roots of E8 and E7
    e8 = submatrix(e10_spec.matrix, range(3, 11))
    sizes = layer_sizes(e8, 200, (1,) + (0,) * 7)
    assert 1 + sum(sizes) == 240
    assert len(sizes) == 57 == 120 - 63


def test_walk_on_affine_e9_grows_polynomially(e10_spec):
    # E10's nodes 2-10 are E9 = E8^(1), from the weight that is 1 at node 2
    e9 = submatrix(e10_spec.matrix, range(2, 11))
    sizes = layer_sizes(e9, 60, (1,) + (0,) * 8)
    assert len(sizes) == 60
    assert [sizes[length - 1] for length in (10, 20, 40, 58, 60)] == [
        2, 9, 58, 213, 243,
    ]


def connected_supports(spec, p):
    """The connected proper subsets J of the nodes that contain p, as
    sorted tuples: the supports that a real root tested at i_P = p can
    have, short of the whole diagram (Kac, Lemma 1.6)."""
    found, layer = set(), {frozenset((p,))}
    while layer:
        found |= layer
        layer = {
            J | {k}
            for J in layer for j in J for k in range(1, spec.rank + 1)
            if k not in J and spec.matrix[j - 1][k - 1]
        } - found
    return sorted(tuple(sorted(J)) for J in found if len(J) < spec.rank)


def levi_start(start, J):
    """The J coordinates of each weight of start: the weights' pairings
    with the coroots of J, all that a walk on A_J reads."""
    return tuple(tuple(v[j - 1] for j in J) for v in start)


def first_tests(spec, matrix, letters, max_length, start):
    """{root: (first length, -tau[i], -sigma[i])} over the walk on matrix
    from start = (tau, sigma), each word mapped to the letters of spec's
    nodes and its root replayed in spec."""
    tests = {}
    for layer in weyl.orbit_walk(matrix, max_length, start):
        for word, (tau, sigma), _ in layer:
            i = word[-1] - 1
            word = tuple(letters[k - 1] for k in word)
            root = criteria._replayed_root(spec, word, ())
            tests.setdefault(root, (len(word), -tau[i], -sigma[i]))
    return tests


def assert_levi_lemma(spec, max_length):
    """For each finite-Levi maximal theta and each connected proper J that
    contains p, the sub-walk on A_J tests exactly the full walk's roots
    with support in J, first at the same length and with the same
    pairings.  Returns the number of (theta, J) compared."""
    compared = 0
    for theta in maximal_thetas(spec):
        (p,) = set(range(1, spec.rank + 1)) - set(theta)
        _, start = criteria._coset_start(spec, theta)
        full = first_tests(spec, spec.matrix, range(1, spec.rank + 1),
                           max_length, start)
        for J in connected_supports(spec, p):
            sub = first_tests(spec, submatrix(spec.matrix, J), J,
                              max_length, levi_start(start, J))
            assert sub == {
                root: test for root, test in full.items()
                if all(x == 0 for k, x in enumerate(root, 1) if k not in J)
            }, (theta, J)
            compared += 1
    return compared


@pytest.mark.parametrize("gcm, max_length, supports", [
    ("ff_spec", 14, 5), ("rank7_spec", 8, 120), ("e10_spec", 6, 271),
])
def test_levi_sub_walk_tests_the_roots_of_its_support(request, gcm,
                                                      max_length, supports):
    spec = request.getfixturevalue(gcm)
    assert assert_levi_lemma(spec, max_length) == supports


@settings(max_examples=40, deadline=None)
@given(spec=gcms())
def test_levi_sub_walk_tests_the_roots_of_its_support_on_random_gcms(spec):
    assert_levi_lemma(spec, 5)

