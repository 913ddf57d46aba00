"""Differential tests: ``bilinear_form``, ``pair_with_coroot`` and
``make_parabolic``, integer inside, agree with the Fraction code frozen in
``reference_gcm``: the same values and types, the same ``NullNorm``
messages, and equal ``ParabolicSpec``s whose entries are all Fractions."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import reference_gcm as ref
from kmrd.gcm import (
    GCMError,
    NotFiniteTypeLevi,
    NullNorm,
    bilinear_form,
    is_finite_type,
    make_parabolic,
    pair_with_coroot,
    validate_gcm,
    weyl_vector,
)
from test_linalg_reference import PAIRS, gcm_of


def pairing_outcome(pair, spec, lam, alpha):
    try:
        return pair(spec, lam, alpha)
    except NullNorm as exc:
        return str(exc)


def assert_pairing_matches(spec, lam, alpha, seen):
    """The same bilinear forms (value and type) and the same pairing, a
    Fraction, or the same NullNorm message.  Records in seen which kinds
    of case occurred."""
    for u, v in ((lam, alpha), (alpha, lam)):
        got, want = bilinear_form(spec, u, v), ref.bilinear_form(spec, u, v)
        assert got == want and type(got) is type(want), (u, v)
    got = pairing_outcome(pair_with_coroot, spec, lam, alpha)
    want = pairing_outcome(ref.pair_with_coroot, spec, lam, alpha)
    assert got == want, (spec.matrix, lam, alpha)
    fractional = any(type(x) is Fraction and x.denominator > 1 for x in alpha)
    if isinstance(got, str):
        seen.add(("null_norm", fractional, "/" in got))
    else:
        assert type(got) is Fraction
        seen.add(("pairing", fractional))


def assert_parabolics_match(spec):
    """For every proper theta: the same NotFiniteTypeLevi message, or an
    equal ParabolicSpec whose rho_M, omega_P and rho_P entries are
    Fractions.  Returns the ParabolicSpecs."""
    n = spec.rank
    out = []
    for size in range(n):
        for theta in itertools.combinations(range(1, n + 1), size):
            if not is_finite_type(spec, theta):
                messages = []
                for build in (make_parabolic, ref.make_parabolic):
                    with pytest.raises(NotFiniteTypeLevi) as exc:
                        build(spec, theta)
                    messages.append(str(exc.value))
                assert messages[0] == messages[1]
                continue
            par = make_parabolic(spec, theta)
            assert par == ref.make_parabolic(spec, theta), (spec.matrix, theta)
            vectors = [par.rho_M]
            if size == n - 1:
                vectors += [par.omega_P, par.rho_P]
            else:
                assert par.omega_P is par.rho_P is None
            assert all(type(x) is Fraction for v in vectors for x in v)
            out.append(par)
    return out


def random_vector(rng, n):
    """ints, Fractions with mixed denominators, or both, with zeros often
    enough that null and negative norms occur."""
    kind = rng.randrange(4)
    out = []
    for _ in range(n):
        x = rng.randint(-4, 4) if rng.random() < 0.7 else 0
        if kind == 1 or (kind == 2 and rng.random() < 0.5):
            x = Fraction(x, rng.randint(1, 6))
        elif kind == 3:
            x = Fraction(x)  # Fraction entries with denominator 1
        out.append(x)
    return tuple(out)


def weights_for(spec, parabolics, rng):
    """lam: a random vector, rho, and a random parabolic's rho_M and
    omega_P, when there are any."""
    out = [random_vector(rng, spec.rank), weyl_vector(spec)]
    if parabolics:
        par = rng.choice(parabolics)
        out += [v for v in (par.rho_M, par.omega_P) if v]
    return out


def roots_for(spec, rng):
    """alpha: random vectors, the zero vector in ints and in Fractions, a
    simple root and a multiple of it by 1/k, and a random vector over
    one denominator and rescaled by 2/7."""
    n = spec.rank
    out = [random_vector(rng, n) for _ in range(5)]
    out += [(0,) * n, (Fraction(0),) * n]
    root = spec.simple_root(rng.randint(1, n))
    out += [root, tuple(Fraction(x, rng.randint(2, 5)) for x in root)]
    v = random_vector(rng, n)
    out += [tuple(Fraction(x, 3) for x in v), tuple(x * Fraction(2, 7) for x in v)]
    return out


def specs_of_rank_2_and_3():
    for n in (2, 3):
        for choice in itertools.product(PAIRS, repeat=n * (n - 1) // 2):
            try:
                yield validate_gcm(gcm_of(n, choice))
            except GCMError:
                pass


def test_every_small_gcm_matches_reference():
    """Every valid rank-2 and rank-3 GCM with off-diagonal entries -3..0;
    the pairings cover ints and Fractions, null and negative norms, and
    NullNorm messages whose norm is not an integer."""
    rng = random.Random(14)
    seen = set()
    specs = 0
    for spec in specs_of_rank_2_and_3():
        specs += 1
        parabolics = assert_parabolics_match(spec)
        for lam in weights_for(spec, parabolics, rng):
            for alpha in roots_for(spec, rng):
                assert_pairing_matches(spec, lam, alpha, seen)
    assert specs > 100
    assert seen >= {
        ("pairing", False), ("pairing", True),
        ("null_norm", False, False), ("null_norm", True, False),
        ("null_norm", True, True),
    }


@st.composite
def symmetrizable_gcms(draw):
    """Rank 4-5 matrices from a symmetrizer d with
    d_i a_ij = d_j a_ji = -k lcm(d_i, d_j), k = 0, 1, 2."""
    n = draw(st.integers(4, 5))
    d = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    choice = []
    for i, j in itertools.combinations(range(n), 2):
        k = draw(st.integers(0, 2)) * math.lcm(d[i], d[j])
        choice.append((-k // d[i], -k // d[j]))
    return gcm_of(n, choice)


entries = st.one_of(
    st.integers(-5, 5),
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 8)),
)


@settings(max_examples=100, deadline=None)
@given(matrix=symmetrizable_gcms(), data=st.data())
def test_random_gcms_match_reference(matrix, data):
    try:
        spec = validate_gcm(matrix)
    except GCMError:
        return
    parabolics = assert_parabolics_match(spec)
    vector = st.lists(entries, min_size=spec.rank, max_size=spec.rank).map(tuple)
    candidates = [v for par in parabolics for v in (par.rho_M, par.omega_P) if v]
    seen = set()
    for _ in range(4):
        lam = data.draw(st.one_of(vector, st.sampled_from(candidates))
                        if candidates else vector)
        alpha = data.draw(vector)
        assert_pairing_matches(spec, lam, alpha, seen)
        assert_pairing_matches(spec, lam, tuple(-x for x in alpha), seen)
