import itertools

import pytest

from kmrd import criteria, weyl
from kmrd.ff import (
    BETA1,
    BETA2,
    BETA3,
    GENERATORS,
    PGL2Elem,
    SymMat,
    W1,
    W2,
    W3,
    ff_act,
    ff_bilinear,
    ff_cartan_spec,
    ff_word_matrix,
    is_positive_real_root_ff,
    phi_v_membership_ff,
    psi,
    psi_inv,
    satisfies_phi_v_inequalities,
    verify_lemma55,
    verify_prop56,
)
from kmrd.gcm import bilinear_form


def test_psi_roundtrip():
    for v in itertools.product(range(-3, 4), repeat=3):
        assert psi_inv(psi(v)) == v


def test_psi_on_named_roots():
    assert psi(BETA1) == SymMat(0, 1, 1)
    assert psi(BETA2) == SymMat(1, 2, 3)
    assert psi(BETA3) == SymMat(0, -1, 1)
    for beta in (BETA1, BETA2, BETA3):
        assert psi(beta).det() == -1
        assert is_positive_real_root_ff(psi(beta))


def test_pgl2_sign_canonicalization():
    assert PGL2Elem(-1, 0, 0, 1) == PGL2Elem(1, 0, 0, -1)
    assert PGL2Elem(0, -1, -1, 0) == PGL2Elem(0, 1, 1, 0)
    with pytest.raises(ValueError):
        PGL2Elem(1, 0, 0, 2)


def test_equal_specs_share_the_growth_cache():
    a, b = ff_cartan_spec(), ff_cartan_spec()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    criteria.check_rd(a, (2, 3), 8)
    hits = weyl._recurrence.cache_info().hits
    criteria.check_rd(b, (2, 3), 8)
    assert weyl._recurrence.cache_info().hits > hits


@pytest.mark.parametrize("make, fields", [
    (SymMat, (0, -1, 1)),
    (PGL2Elem, (0, 1, 1, 0)),
])
def test_ring_elements_hash_and_are_not_tuples(make, fields):
    x = make(*fields)
    assert hash(x) == hash(make(*fields))
    assert len({x, make(*fields)}) == 1
    assert x != fields and fields != x


def test_generators_are_involutions():
    eye = PGL2Elem(1, 0, 0, 1)
    for g in (W1, W2, W3):
        assert g * g == eye


def test_action_matches_simple_reflections():
    spec = ff_cartan_spec()
    for v in itertools.product(range(-2, 3), repeat=3):
        for i, g in GENERATORS.items():
            expected = weyl.reflect_simple(spec, i, v)
            assert psi_inv(ff_act(g, psi(v))) == expected


def test_word_matrix_homomorphism():
    for word in ((1, 2), (2, 3, 1), (3, 2, 3, 1, 2)):
        g = ff_word_matrix(word)
        step = PGL2Elem(1, 0, 0, 1)
        for i in word:
            step = step * GENERATORS[i]
        assert g == step


def test_equivariance_on_words_and_roots():
    spec = ff_cartan_spec()
    roots = weyl.positive_real_roots_up_to_height(spec, 12)
    layers = weyl.enumerate_by_length(spec, 8)
    for layer in layers:
        for w in layer:
            g = ff_word_matrix(w.word)
            for alpha in roots:
                assert psi(tuple(int(x) for x in weyl.apply(w, alpha))) == ff_act(
                    g, psi(alpha)
                )


def test_bilinear_matches_cartan_form():
    spec = ff_cartan_spec()
    vecs = list(itertools.product(range(-2, 3), repeat=3))[:60]
    for u in vecs[::7]:
        for v in vecs[::5]:
            assert ff_bilinear(psi(u), psi(v)) == bilinear_form(spec, u, v)


def test_root_set_equality_to_height_20():
    spec = ff_cartan_spec()
    by_orbit = set(weyl.positive_real_roots_up_to_height(spec, 20))
    by_arith = {
        v
        for v in itertools.product(range(21), repeat=3)
        if sum(v) <= 20 and is_positive_real_root_ff(psi(v))
    }
    assert by_orbit == by_arith


def test_membership_implies_inequalities():
    spec = ff_cartan_spec()
    roots = weyl.positive_real_roots_up_to_height(spec, 8)
    layers = weyl.enumerate_by_length(spec, 4)
    for layer in layers[1:]:
        for w in layer:
            g = ff_word_matrix(w.word)
            for alpha in roots:
                if phi_v_membership_ff(g, psi(alpha)):
                    assert satisfies_phi_v_inequalities(g, psi(alpha))


def test_membership_matches_inversion_sets():
    spec = ff_cartan_spec()
    roots = weyl.positive_real_roots_up_to_height(spec, 10)
    layers = weyl.enumerate_by_length(spec, 5)
    for layer in layers:
        for w in layer:
            g = ff_word_matrix(w.word)
            inv = {
                alpha
                for alpha in weyl.inversion_set(spec, w)
                if sum(alpha) <= 10
            }
            member = {alpha for alpha in roots if phi_v_membership_ff(g, psi(alpha))}
            assert inv == member


def test_lemma_scan_exceptional_pairs():
    result = verify_lemma55(10)
    assert result["ok"] is True
    assert result["missing"] == [] and result["unexpected"] == []
    assert result["all_values_one"] is True
    assert result["no_index_one"] is True
    pairs = {
        (e["simple_index"], tuple(e["root"])) for e in result["exceptional_pairs"]
    }
    assert pairs == {(2, BETA1), (2, BETA2), (3, BETA1), (3, BETA3)}


def test_parabolic_rd_verification():
    result = verify_prop56(10)
    assert result["ok"] is True
    assert result["rd_theta_23"]["verdict"] == "HOLDS_UP_TO_BOUND"
    assert result["rd_theta_13"]["verdict"] == "HOLDS_UP_TO_BOUND"
    assert result["rho_M1_beta3_pairing"] == "-2"
    assert result["rho_M2_beta1_pairing"] == "-1/2"
    assert result["ratio_at_beta1"] == "1/2"
    assert result["ratio_at_beta3"] == "1"
    assert result["identities_ok"] is True
    assert result["identities"]["w2.beta1 == alpha3"] is True
