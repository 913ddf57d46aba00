"""Test-only reference: the straightforward decider loops and the
Feingold-Frenkel lemma scan as they stood before the deciders shared one
scan driver, kept verbatim so that the differential tests can compare every
report against them.  Not part of the package.
"""

import time
from fractions import Fraction

from kmrd import weyl
from kmrd.criteria import (
    FAILED,
    HOLDS,
    CheckReport,
    _frac,
    _require_maximal,
    admissible_d,
)
from kmrd.ff import BETA1, BETA2, BETA3, ff_cartan_spec
from kmrd.gcm import GCMError, make_parabolic, pair_with_coroot


def check_rd(spec, theta, max_length, all_witnesses=False):
    """Decide Property RD up to the length bound via the strict-negativity
    criterion: <rho_M, alpha^vee> < 0 for every nontrivial w in W^theta
    and alpha in Phi_{w^-1}."""
    start = time.monotonic()
    theta = _require_maximal(spec, theta)
    par = make_parabolic(spec, theta)
    layers = weyl.enumerate_by_length(spec, max_length)
    elements = sum(len(l) for l in layers)
    witnesses = []
    d_sup = None
    roots_checked = 0
    reps = 0
    done = False
    for layer in layers[1:]:
        if done:
            break
        for w in layer:
            if not weyl.in_min_coset_reps(spec, w, theta):
                continue
            reps += 1
            for alpha in weyl.inversion_set_of_inverse(spec, w):
                roots_checked += 1
                rho_pair = pair_with_coroot(spec, par.rho_M, alpha)
                omega_pair = pair_with_coroot(spec, par.omega_P, alpha)
                if omega_pair <= 0:
                    raise GCMError(
                        "internal invariant violated: <omega_P, alpha^vee> <= 0 "
                        "on W^theta inversion set"
                    )
                if rho_pair >= 0:
                    witnesses.append({
                        "word": list(w.word),
                        "root": [int(x) for x in alpha],
                        "rho_M_pairing": _frac(rho_pair),
                        "omega_P_pairing": _frac(omega_pair),
                    })
                    if not all_witnesses:
                        done = True
                        break
                else:
                    ratio = -rho_pair / omega_pair
                    if d_sup is None or ratio < d_sup:
                        d_sup = ratio
            if done:
                break
    verdict = FAILED if witnesses else HOLDS
    return CheckReport(
        check="rd",
        gcm_name=spec.name,
        matrix=spec.matrix,
        theta=theta,
        max_length=max_length,
        verdict=verdict,
        witnesses=witnesses,
        d_sup=d_sup if verdict == HOLDS else None,
        stats={
            "elements_enumerated": elements,
            "coset_reps": reps,
            "roots_checked": roots_checked,
        },
        wall_time_ms=int((time.monotonic() - start) * 1000),
    )


def check_prop51(spec, max_length, all_witnesses=False):
    """Sufficient condition: <alpha_i, alpha^vee> <= 0 for every w, every
    alpha in Phi_{w^-1} and every simple i with w^-1(alpha_i) > 0."""
    start = time.monotonic()
    layers = weyl.enumerate_by_length(spec, max_length)
    elements = sum(len(l) for l in layers)
    witnesses = []
    roots_checked = 0
    done = False
    for layer in layers[1:]:
        if done:
            break
        for w in layer:
            ascents = [
                i for i in range(1, spec.rank + 1)
                if weyl.is_positive_vec(
                    tuple(w.inverse[r][i - 1] for r in range(spec.rank))
                )
            ]
            if not ascents:
                continue
            for alpha in weyl.inversion_set_of_inverse(spec, w):
                roots_checked += 1
                for i in ascents:
                    p = pair_with_coroot(spec, spec.simple_root(i), alpha)
                    if p > 0:
                        witnesses.append({
                            "word": list(w.word),
                            "root": [int(x) for x in alpha],
                            "simple_index": i,
                            "pairing": _frac(p),
                        })
                        if not all_witnesses:
                            done = True
                            break
                if done:
                    break
            if done:
                break
    return CheckReport(
        check="prop51",
        gcm_name=spec.name,
        matrix=spec.matrix,
        theta=None,
        max_length=max_length,
        verdict=FAILED if witnesses else HOLDS,
        witnesses=witnesses,
        d_sup=None,
        stats={
            "elements_enumerated": elements,
            "roots_checked": roots_checked,
        },
        wall_time_ms=int((time.monotonic() - start) * 1000),
    )


def check_lemma44(spec, theta, max_length, D=None, all_witnesses=False):
    """With a small admissible D, w^-1(D omega_P + rho_M) should be a
    nonnegative (and generically strictly positive) combination of simple
    roots for every nontrivial w in W^theta."""
    start = time.monotonic()
    theta = _require_maximal(spec, theta)
    par = make_parabolic(spec, theta)
    if D is None:
        D = admissible_d(par)
    vec = tuple(
        D * n + m for n, m in zip(par.omega_P, par.rho_M)
    )
    layers = weyl.enumerate_by_length(spec, max_length)
    elements = sum(len(l) for l in layers)
    witnesses = []
    strict_everywhere = True
    first_non_strict = None
    reps = 0
    done = False
    for layer in layers[1:]:
        if done:
            break
        for w in layer:
            if not weyl.in_min_coset_reps(spec, w, theta):
                continue
            reps += 1
            image = [
                sum(w.inverse[r][c] * vec[c] for c in range(spec.rank))
                for r in range(spec.rank)
            ]
            if any(x < 0 for x in image) or all(x == 0 for x in image):
                witnesses.append({
                    "word": list(w.word),
                    "image": [_frac(x) for x in image],
                })
                if not all_witnesses:
                    done = True
                    break
            elif any(x == 0 for x in image) and strict_everywhere:
                strict_everywhere = False
                first_non_strict = {
                    "word": list(w.word),
                    "image": [_frac(x) for x in image],
                }
    return CheckReport(
        check="lemma44",
        gcm_name=spec.name,
        matrix=spec.matrix,
        theta=theta,
        max_length=max_length,
        verdict=FAILED if witnesses else HOLDS,
        witnesses=witnesses,
        d_sup=None,
        stats={
            "elements_enumerated": elements,
            "coset_reps": reps,
        },
        wall_time_ms=int((time.monotonic() - start) * 1000),
        extra={
            "D": _frac(D),
            "strict_everywhere": strict_everywhere,
            "first_non_strict": first_non_strict,
        },
    )


def check_property25(spec, max_length, all_witnesses=False):
    """Factorization property: every nontrivial w admits a right descent
    s_beta (w = v s_beta, l(v) < l(w)) with alpha - beta never a real root
    for alpha in Phi_v."""
    start = time.monotonic()
    layers = weyl.enumerate_by_length(spec, max_length)
    elements = sum(len(l) for l in layers)
    by_matrix = {w.matrix: w for layer in layers for w in layer}
    witnesses = []
    checked = 0
    done = False
    for layer in layers[1:]:
        if done:
            break
        for w in layer:
            checked += 1
            blocking = {}
            ok = False
            for i in range(1, spec.rank + 1):
                col = tuple(w.matrix[r][i - 1] for r in range(spec.rank))
                if not all(x <= 0 for x in col):
                    continue  # not a right descent
                v = by_matrix[weyl._mul_right_simple(spec, w.matrix, i)]
                beta = spec.simple_root(i)
                bad = [
                    alpha for alpha in weyl.inversion_set(spec, v)
                    if weyl.is_real_root(
                        spec, tuple(a - b for a, b in zip(alpha, beta))
                    )
                ]
                if not bad:
                    ok = True
                    break
                blocking[i] = [[int(x) for x in alpha] for alpha in bad]
            if not ok:
                witnesses.append({
                    "word": list(w.word),
                    "blocking": {str(i): roots for i, roots in blocking.items()},
                })
                if not all_witnesses:
                    done = True
                    break
    return CheckReport(
        check="property25",
        gcm_name=spec.name,
        matrix=spec.matrix,
        theta=None,
        max_length=max_length,
        verdict=FAILED if witnesses else HOLDS,
        witnesses=witnesses,
        d_sup=None,
        stats={
            "elements_enumerated": elements,
            "elements_checked": checked,
        },
        wall_time_ms=int((time.monotonic() - start) * 1000),
    )


def verify_lemma55(max_length):
    """Scan all nontrivial w with l(w) <= max_length, all simple i with
    w^-1(alpha_i) > 0 and all alpha in Phi_{w^-1} for positive values of
    <alpha_i, alpha^vee>; the exceptional (i, alpha) pairs are expected to
    be exactly (2, beta1), (2, beta2), (3, beta1), (3, beta3), each with
    value 1."""
    spec = ff_cartan_spec()
    layers = weyl.enumerate_by_length(spec, max_length)
    found = {}
    for layer in layers[1:]:
        for w in layer:
            ascents = [
                i for i in (1, 2, 3)
                if weyl.is_positive_vec(tuple(w.inverse[r][i - 1] for r in range(3)))
            ]
            if not ascents:
                continue
            for alpha in weyl.inversion_set_of_inverse(spec, w):
                for i in ascents:
                    p = pair_with_coroot(spec, spec.simple_root(i), alpha)
                    if p > 0:
                        key = (i, tuple(int(x) for x in alpha))
                        entry = found.setdefault(
                            key, {"value": p, "first_word": list(w.word)}
                        )
                        if entry["value"] != p:
                            entry["consistent"] = False
    expected = {(2, BETA1), (2, BETA2), (3, BETA1), (3, BETA3)}
    pairs = set(found)
    return {
        "max_length": max_length,
        "ok": pairs == expected and all(e["value"] == 1 for e in found.values()),
        "exceptional_pairs": [
            {"simple_index": i, "root": list(r),
             "value": str(found[(i, r)]["value"]),
             "first_word": found[(i, r)]["first_word"]}
            for i, r in sorted(pairs)
        ],
        "expected_pairs": [
            {"simple_index": i, "root": list(r)} for i, r in sorted(expected)
        ],
        "missing": [list(r) + [i] for i, r in sorted(expected - pairs)],
        "unexpected": [list(r) + [i] for i, r in sorted(pairs - expected)],
        "all_values_one": all(e["value"] == 1 for e in found.values()),
        "no_index_one": all(i != 1 for i, _ in pairs),
        "elements_enumerated": sum(len(l) for l in layers),
    }
