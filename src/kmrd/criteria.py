"""Bounded-length deciders for Property RD and the related combinatorial tests.

Every verdict is either FAILED_WITH_WITNESS (with independently re-checkable
witnesses) or HOLDS_UP_TO_BOUND: the scan proves failure, but only gives
evidence of success, since the underlying quantifier ranges over an
infinite group.
"""

import itertools
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import weyl
from .gcm import (
    GCMError,
    NoAdmissibleD,
    NotMaximal,
    make_parabolic,
    matrix_hash,
    pair_with_coroot,
)

FAILED = "FAILED_WITH_WITNESS"
HOLDS = "HOLDS_UP_TO_BOUND"


@dataclass
class CheckReport:
    check: str
    gcm_name: str | None
    matrix: tuple
    theta: tuple | None
    max_length: int
    verdict: str
    witnesses: list
    d_sup: Fraction | None
    stats: dict
    wall_time_ms: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def failed(self):
        return self.verdict == FAILED


def _frac(x):
    x = Fraction(x)
    return {"num": x.numerator, "den": x.denominator}


def report_to_dict(report, tool_version="0.1.0"):
    """Canonical JSON form: fixed key order, no timestamps in the verdict body."""
    return {
        "schema_version": 1,
        "tool_version": tool_version,
        "check": report.check,
        "gcm": {
            "name": report.gcm_name,
            "matrix": [list(r) for r in report.matrix],
            "sha256": matrix_hash(report.matrix),
        },
        "theta": list(report.theta) if report.theta is not None else None,
        "max_length": report.max_length,
        "verdict": report.verdict,
        "witnesses": report.witnesses,
        "d_sup": _frac(report.d_sup) if report.d_sup is not None else None,
        "stats": report.stats,
        **({"extra": report.extra} if report.extra else {}),
        "meta": {"wall_time_ms": report.wall_time_ms},
    }


def _require_maximal(spec, theta):
    theta = tuple(sorted(theta))
    if len(theta) != spec.rank - 1:
        raise NotMaximal(
            f"theta {theta} is not maximal (need |theta| = rank - 1)"
        )
    return theta


def _scan(check, spec, theta, max_length, all_witnesses, visit, counts):
    """The bounded scan every decider runs.

    Calls the generator ``visit(w)`` on each nontrivial element of length
    <= max_length in ShortLex order, only on W^theta when theta is given,
    and collects the witnesses it yields, stopping at the first one unless
    all_witnesses.  ``visit`` keeps its own counters in ``counts``; they
    follow ``elements_enumerated`` (and ``coset_reps``) in ``stats``.
    """
    start = time.monotonic()
    layers = weyl.enumerate_by_length(spec, max_length)
    stats = {"elements_enumerated": sum(len(l) for l in layers)}
    if theta is not None:
        stats["coset_reps"] = 0

    def elements():
        for layer in layers[1:]:
            for w in layer:
                if theta is None:
                    yield w
                elif weyl.in_min_coset_reps(spec, w, theta):
                    stats["coset_reps"] += 1
                    yield w

    found = (witness for w in elements() for witness in visit(w))
    witnesses = list(found if all_witnesses else itertools.islice(found, 1))
    stats.update(counts)
    return CheckReport(
        check=check,
        gcm_name=spec.name,
        matrix=spec.matrix,
        theta=theta,
        max_length=max_length,
        verdict=FAILED if witnesses else HOLDS,
        witnesses=witnesses,
        d_sup=None,
        stats=stats,
        wall_time_ms=int((time.monotonic() - start) * 1000),
    )


def check_rd(spec, theta, max_length, all_witnesses=False):
    """Decide Property RD up to the length bound via the strict-negativity
    criterion: <rho_M, alpha^vee> < 0 for every nontrivial w in W^theta
    and alpha in Phi_{w^-1}."""
    theta = _require_maximal(spec, theta)
    par = make_parabolic(spec, theta)
    counts = {"roots_checked": 0}
    d_sup = None

    def visit(w):
        nonlocal d_sup
        for alpha in weyl.inversion_set_of_inverse(spec, w):
            counts["roots_checked"] += 1
            rho_pair = pair_with_coroot(spec, par.rho_M, alpha)
            omega_pair = pair_with_coroot(spec, par.omega_P, alpha)
            if omega_pair <= 0:
                raise GCMError(
                    "internal invariant violated: <omega_P, alpha^vee> <= 0 "
                    "on W^theta inversion set"
                )
            if rho_pair >= 0:
                yield {
                    "word": list(w.word),
                    "root": [int(x) for x in alpha],
                    "rho_M_pairing": _frac(rho_pair),
                    "omega_P_pairing": _frac(omega_pair),
                }
            else:
                ratio = -rho_pair / omega_pair
                if d_sup is None or ratio < d_sup:
                    d_sup = ratio

    report = _scan("rd", spec, theta, max_length, all_witnesses, visit, counts)
    if not report.failed:
        report.d_sup = d_sup
    return report


def check_prop51(spec, max_length, all_witnesses=False):
    """Sufficient condition: <alpha_i, alpha^vee> <= 0 for every w, every
    alpha in Phi_{w^-1} and every simple i with w^-1(alpha_i) > 0."""
    counts = {"roots_checked": 0}

    def visit(w):
        ascents = [
            i for i in range(1, spec.rank + 1)
            if weyl.is_positive_vec(
                tuple(w.inverse[r][i - 1] for r in range(spec.rank))
            )
        ]
        if not ascents:
            return
        for alpha in weyl.inversion_set_of_inverse(spec, w):
            counts["roots_checked"] += 1
            for i in ascents:
                p = pair_with_coroot(spec, spec.simple_root(i), alpha)
                if p > 0:
                    yield {
                        "word": list(w.word),
                        "root": [int(x) for x in alpha],
                        "simple_index": i,
                        "pairing": _frac(p),
                    }

    return _scan("prop51", spec, None, max_length, all_witnesses, visit, counts)


def admissible_d(par):
    """Largest 1/k, k a positive integer, with all theta-coordinates of
    D omega_P + rho_M strictly positive."""
    spec = par.spec
    if par.omega_P[par.excluded_index - 1] >= 0:
        raise NoAdmissibleD(
            "alpha_P-coefficient of omega_P is not negative"
        )
    k = 1
    for i in par.theta:
        n_i = par.omega_P[i - 1]
        if n_i < 0:
            # need 1/k < rho_M_i / (-n_i)
            k = max(k, int(-n_i / par.rho_M[i - 1]) + 1)
    return Fraction(1, k)


def check_lemma44(spec, theta, max_length, D=None, all_witnesses=False):
    """With a small admissible D, w^-1(D omega_P + rho_M) should be a
    nonnegative (and generically strictly positive) combination of simple
    roots for every nontrivial w in W^theta."""
    theta = _require_maximal(spec, theta)
    par = make_parabolic(spec, theta)
    if D is None:
        D = admissible_d(par)
    vec = tuple(
        D * n + m for n, m in zip(par.omega_P, par.rho_M)
    )
    first_non_strict = None

    def visit(w):
        nonlocal first_non_strict
        image = [
            sum(w.inverse[r][c] * vec[c] for c in range(spec.rank))
            for r in range(spec.rank)
        ]
        if any(x < 0 for x in image) or all(x == 0 for x in image):
            yield {"word": list(w.word), "image": [_frac(x) for x in image]}
        elif any(x == 0 for x in image) and first_non_strict is None:
            first_non_strict = {
                "word": list(w.word),
                "image": [_frac(x) for x in image],
            }

    report = _scan("lemma44", spec, theta, max_length, all_witnesses, visit, {})
    report.extra = {
        "D": _frac(D),
        "strict_everywhere": first_non_strict is None,
        "first_non_strict": first_non_strict,
    }
    return report


def check_property25(spec, max_length, all_witnesses=False):
    """Factorization property: every nontrivial w admits a right descent
    s_beta (w = v s_beta, l(v) < l(w)) with alpha - beta never a real root
    for alpha in Phi_v."""
    identity = weyl.identity_element(spec)
    # Filled as the scan goes: v = w s_i is shorter than w, so already seen.
    by_matrix = {identity.matrix: identity}
    counts = {"elements_checked": 0}

    def visit(w):
        by_matrix[w.matrix] = w
        counts["elements_checked"] += 1
        blocking = {}
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
                return
            blocking[i] = [[int(x) for x in alpha] for alpha in bad]
        yield {
            "word": list(w.word),
            "blocking": {str(i): roots for i, roots in blocking.items()},
        }

    return _scan(
        "property25", spec, None, max_length, all_witnesses, visit, counts
    )
