"""Test-only reference: the rank-2 closed forms, reflection oracle and
family scans as they stood before ``verify_prop52`` became one linear pass
over n, kept verbatim below this docstring (with ``published_a2_coefficient``
and ``verify_prop52``, which call them) so that the differential tests can
compare whole reports against it.  Every call here re-runs the recurrence
from n=0 and starts a fresh reflection word, so a scan to max_n costs
O(max_n^2).  Not part of the package.
"""

from kmrd import criteria, weyl
from kmrd.rank2 import (
    A1_FAMILY,
    A2_FAMILY,
    QuadNum,
    _check_hyperbolic,
    rank2_spec,
)


def h(n, a, b):
    """h_n from the recurrence h_{n+1} = sqrt(ab) h_n - h_{n-1}, h_0=0, h_1=1.

    Odd-index values are rational integers, even-index values are integer
    multiples of sqrt(ab).
    """
    _check_hyperbolic(a, b)
    if n < 0:
        raise ValueError("n must be >= 0")
    rad = a * b
    prev = QuadNum(0, 0, rad)
    cur = QuadNum(1, 0, rad)
    if n == 0:
        return prev
    root = QuadNum(0, 1, rad)
    for _ in range(n - 1):
        prev, cur = cur, root * cur - prev
    return cur


def root_closed_form(n, kind, a, b):
    """Integer (alpha_1, alpha_2) coordinates of the n-th root of a family.

    A1-type: (w1 w2)^n alpha_1  = h_{2n+1} alpha_1 + sqrt(a/b) h_{2n} alpha_2.
    A2-type: (w1 w2)^n w1 alpha_2, with the oracle-corrected coefficients
    sqrt(b/a) h_{2n+2} alpha_1 + h_{2n+1} alpha_2.
    """
    _check_hyperbolic(a, b)
    if n < 0:
        raise ValueError("n must be >= 0")
    if kind == A1_FAMILY:
        # sqrt(a/b) * k*sqrt(ab) = k*a
        return (h(2 * n + 1, a, b).as_integer(),
                h(2 * n, a, b).sqrt_multiple() * a)
    if kind == A2_FAMILY:
        # sqrt(b/a) * k*sqrt(ab) = k*b
        return (h(2 * n + 2, a, b).sqrt_multiple() * b,
                h(2 * n + 1, a, b).as_integer())
    raise ValueError(f"unknown family kind {kind!r}")


def reflection_oracle(n, kind, a, b):
    """The same root computed by explicit alternating reflection words,
    applied letter by letter from the right."""
    spec = rank2_spec(a, b)
    word = (1, 2) * n
    root = spec.simple_root(1)
    if kind == A2_FAMILY:
        word = word + (1,)
        root = spec.simple_root(2)
    for i in reversed(word):
        root = weyl.reflect_simple(spec, i, root)
    return root


def published_a2_coefficient(n, a, b):
    """alpha_2 coefficient of the A2-type family as printed: h_{2n+2}.

    For that value to be a rational integer one must read it through the
    parity pattern; returned as QuadNum so callers can compare exactly.
    """
    return h(2 * n + 2, a, b)


def _family_scan(a, b, max_n):
    """First n where <alpha, alpha_2^vee> = 2q - a*p fails to be negative,
    plus whether the closed form matches the reflection oracle."""
    first_violation = None
    closed_form_matches = True
    for n in range(max_n + 1):
        for kind in (A1_FAMILY, A2_FAMILY):
            coeffs = root_closed_form(n, kind, a, b)
            if coeffs != reflection_oracle(n, kind, a, b):
                closed_form_matches = False
            p, q = coeffs
            if 2 * q - a * p >= 0 and first_violation is None:
                first_violation = {"n": n, "kind": kind, "root": [p, q]}
    return first_violation, closed_form_matches


def _display_a2_matches_oracle(a, b, max_n):
    """Whether the printed form sqrt(a/b) h_{2n+2} alpha_1 + h_{2n+2} alpha_2
    agrees with the reflection oracle on the scanned range."""
    for n in range(max_n + 1):
        p, q = reflection_oracle(n, A2_FAMILY, a, b)
        printed = published_a2_coefficient(n, a, b)
        k = printed.sqrt_multiple()  # h_{2n+2} = k*sqrt(ab)
        alpha1_ok = k * a == p
        alpha2_ok = printed.x == q and printed.y == 0
        if not (alpha1_ok and alpha2_ok):
            return False
    return True


def verify_prop52(a, b, max_n, rd_max_length=None):
    """Check the strict sign inequalities behind the rank-2 sufficiency
    statement for both root families up to max_n, resolve the published
    coefficient discrepancy by oracle, and cross-check with the bounded
    Property RD scan for both maximal parabolics.

    The theta={2} parabolic is controlled by the (a, b) families against
    alpha_2; the theta={1} parabolic is the same statement with the two
    nodes (and hence a and b) swapped.
    """
    _check_hyperbolic(a, b)
    if max_n < 0:
        raise ValueError(f"max_n must be >= 0, got {max_n}")
    spec = rank2_spec(a, b)
    viol_2, match_2 = _family_scan(a, b, max_n)
    viol_1, match_1 = _family_scan(b, a, max_n)
    if rd_max_length is None:
        rd_max_length = 2 * max_n + 2
    rd = {
        "theta=[2]": criteria.check_rd(spec, (2,), rd_max_length).verdict,
        "theta=[1]": criteria.check_rd(spec, (1,), rd_max_length).verdict,
    }
    signs_ok = viol_2 is None and viol_1 is None
    closed_form_matches = match_2 and match_1
    rd_ok = all(v == criteria.HOLDS for v in rd.values())
    return {
        "a": a,
        "b": b,
        "max_n": max_n,
        "ok": signs_ok and closed_form_matches and rd_ok,
        "sign_inequalities_hold": signs_ok,
        "first_violation": viol_2 or viol_1,
        "closed_form_matches_oracle": closed_form_matches,
        "resolved_a2_coefficient": "h_{2n+1}",
        "resolved_a1_radical_factor": "sqrt(b/a)",
        "published_display_matches_oracle": _display_a2_matches_oracle(
            a, b, min(max_n, 5)
        ),
        "rd_verdicts": rd,
        "rd_max_length": rd_max_length,
    }
