"""Closed-form root families for rank-2 hyperbolic Cartan matrices.

The matrix is [[2, -b], [-a, 2]] with a, b >= 2 and ab >= 5.  All radical
arithmetic happens in Z[sqrt(ab)] with exact sign tests.

The published closed form for the second root family disagrees with a
direct reflection computation in two places: the alpha_2 coefficient is
h_{2n+1} (not h_{2n+2}) and the radical factor on the alpha_1 coefficient
is sqrt(b/a) (not sqrt(a/b)).  This module carries the corrected form and
verify_prop52 re-derives the correction against the reflection oracle.
"""

import itertools

from . import criteria, weyl
from .gcm import validate_gcm

A1_FAMILY = "A1-type"   # (w1 w2)^n alpha_1
A2_FAMILY = "A2-type"   # (w1 w2)^n w1 alpha_2
_DISPLAY_MAX_N = 5      # the printed A2 display is checked for n <= 5


class QuadNum:
    """x + y*sqrt(rad), x and y exact rationals (ints in Z[sqrt(rad)]),
    rad a positive non-square."""

    __slots__ = ("x", "y", "rad")

    def __init__(self, x, y, rad):
        self.x, self.y, self.rad = x, y, rad

    def __eq__(self, other):
        if type(other) is not QuadNum:
            return NotImplemented
        return (self.x, self.y, self.rad) == (other.x, other.y, other.rad)

    def __hash__(self):
        return hash((self.x, self.y, self.rad))

    def __repr__(self):
        return f"QuadNum(x={self.x!r}, y={self.y!r}, rad={self.rad!r})"

    def __add__(self, other):
        self._check(other)
        return QuadNum(self.x + other.x, self.y + other.y, self.rad)

    def __sub__(self, other):
        self._check(other)
        return QuadNum(self.x - other.x, self.y - other.y, self.rad)

    def __mul__(self, other):
        self._check(other)
        return QuadNum(
            self.x * other.x + self.rad * self.y * other.y,
            self.x * other.y + self.y * other.x,
            self.rad,
        )

    def __neg__(self):
        return QuadNum(-self.x, -self.y, self.rad)

    def _check(self, other):
        if self.rad != other.rad:
            raise ValueError("mixed radicands")

    def sign(self):
        """Sign of x + y*sqrt(rad) without floating point."""
        if self.y == 0:
            return (self.x > 0) - (self.x < 0)
        if self.x == 0:
            return (self.y > 0) - (self.y < 0)
        if self.x > 0 and self.y > 0:
            return 1
        if self.x < 0 and self.y < 0:
            return -1
        norm = self.x * self.x - self.rad * self.y * self.y
        if self.x > 0:  # y < 0: positive iff x^2 > rad*y^2
            return (norm > 0) - (norm < 0)
        return (norm < 0) - (norm > 0)

    def as_integer(self):
        if self.y != 0 or self.x.denominator != 1:
            raise ValueError(f"{self} is not a rational integer")
        return self.x.numerator

    def sqrt_multiple(self):
        """The integer k with self = k*sqrt(rad)."""
        if self.x != 0 or self.y.denominator != 1:
            raise ValueError(f"{self} is not an integer multiple of sqrt({self.rad})")
        return self.y.numerator


def _check_hyperbolic(a, b):
    if a < 2 or b < 2 or a * b < 5:
        raise ValueError(f"requires a, b >= 2 and ab >= 5; got a={a}, b={b}")


def rank2_spec(a, b):
    _check_hyperbolic(a, b)
    return validate_gcm([[2, -b], [-a, 2]], name=f"rank2(a={a},b={b})")


def _h_sequence(a, b, length):
    """[h_0, ..., h_{length-1}] as int QuadNums in Z[sqrt(ab)], from the
    recurrence h_{n+1} = sqrt(ab) h_n - h_{n-1}, h_0=0, h_1=1."""
    rad = a * b
    root = QuadNum(0, 1, rad)
    seq = [QuadNum(0, 0, rad), QuadNum(1, 0, rad)]
    while len(seq) < length:
        seq.append(root * seq[-1] - seq[-2])
    return seq[:length]


def h(n, a, b):
    """h_n from the recurrence h_{n+1} = sqrt(ab) h_n - h_{n-1}, h_0=0, h_1=1.

    Odd-index values are rational integers, even-index values are integer
    multiples of sqrt(ab).
    """
    _check_hyperbolic(a, b)
    if n < 0:
        raise ValueError("n must be >= 0")
    return _h_sequence(a, b, n + 1)[-1]


def _closed_form(hs, n, kind, a, b):
    """root_closed_form read off hs = [h_0, ..., h_m], m >= 2n+2."""
    if kind == A1_FAMILY:
        # sqrt(a/b) * k*sqrt(ab) = k*a
        return (hs[2 * n + 1].as_integer(), hs[2 * n].sqrt_multiple() * a)
    if kind == A2_FAMILY:
        # sqrt(b/a) * k*sqrt(ab) = k*b
        return (hs[2 * n + 2].sqrt_multiple() * b, hs[2 * n + 1].as_integer())
    raise ValueError(f"unknown family kind {kind!r}")


def root_closed_form(n, kind, a, b):
    """Integer (alpha_1, alpha_2) coordinates of the n-th root of a family.

    A1-type: (w1 w2)^n alpha_1  = h_{2n+1} alpha_1 + sqrt(a/b) h_{2n} alpha_2.
    A2-type: (w1 w2)^n w1 alpha_2, with the oracle-corrected coefficients
    sqrt(b/a) h_{2n+2} alpha_1 + h_{2n+1} alpha_2.
    """
    _check_hyperbolic(a, b)
    if n < 0:
        raise ValueError("n must be >= 0")
    return _closed_form(_h_sequence(a, b, 2 * n + 3), n, kind, a, b)


def _oracle_roots(spec, kind):
    """The family's roots for n = 0, 1, 2, ... by explicit reflections:
    (w1 w2)^n applied to alpha_1 (A1-type) or to w1 alpha_2 (A2-type),
    letter by letter from the right.  Each root is w1 w2 of the one
    before, so the word for n extends the word for n-1 by one letter
    pair."""
    if kind == A1_FAMILY:
        root = spec.simple_root(1)
    elif kind == A2_FAMILY:
        root = weyl.reflect_simple(spec, 1, spec.simple_root(2))
    else:
        raise ValueError(f"unknown family kind {kind!r}")
    while True:
        yield root
        root = weyl.reflect_simple(spec, 1, weyl.reflect_simple(spec, 2, root))


def reflection_oracle(n, kind, a, b):
    """The same root computed by explicit alternating reflection words,
    applied letter by letter from the right."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return next(itertools.islice(_oracle_roots(rank2_spec(a, b), kind), n, None))


def published_a2_coefficient(n, a, b):
    """alpha_2 coefficient of the A2-type family as printed: h_{2n+2}.

    For that value to be a rational integer one must read it through the
    parity pattern; returned as QuadNum so callers can compare exactly.
    """
    return h(2 * n + 2, a, b)


def _display_a2_matches_oracle(printed, root, a):
    """Whether the printed form sqrt(a/b) h_{2n+2} alpha_1 + h_{2n+2} alpha_2,
    with printed = h_{2n+2}, agrees with the oracle root of the same n."""
    p, q = root
    k = printed.sqrt_multiple()  # h_{2n+2} = k*sqrt(ab)
    alpha1_ok = k * a == p
    alpha2_ok = printed.x == q and printed.y == 0
    return alpha1_ok and alpha2_ok


def _family_scan(a, b, max_n):
    """One pass over n = 0..max_n: the first n where <alpha, alpha_2^vee> =
    2q - a*p fails to be negative, whether the closed form matches the
    reflection oracle, and whether the printed A2 display matches the
    oracle for n <= min(max_n, _DISPLAY_MAX_N)."""
    spec = rank2_spec(a, b)
    hs = _h_sequence(a, b, 2 * max_n + 3)
    oracles = [(kind, _oracle_roots(spec, kind))
               for kind in (A1_FAMILY, A2_FAMILY)]
    first_violation = None
    closed_form_matches = True
    display_matches = True
    for n in range(max_n + 1):
        for kind, roots in oracles:
            root = next(roots)
            coeffs = _closed_form(hs, n, kind, a, b)
            if coeffs != root:
                closed_form_matches = False
            p, q = coeffs
            if 2 * q - a * p >= 0 and first_violation is None:
                first_violation = {"n": n, "kind": kind, "root": [p, q]}
            if (kind == A2_FAMILY and n <= _DISPLAY_MAX_N
                    and not _display_a2_matches_oracle(hs[2 * n + 2], root, a)):
                display_matches = False
    return first_violation, closed_form_matches, display_matches


def verify_prop52(a, b, max_n):
    """Check the strict sign inequalities behind the rank-2 sufficiency
    statement for both root families up to max_n, resolve the published
    coefficient discrepancy by oracle, and cross-check with the bounded
    Property RD scan for both maximal parabolics at 2 max_n + 2, the
    length of the families' words.  The RD scans run first, so a bound
    over the element cap is refused before the O(max_n) family scans.

    The theta={2} parabolic is controlled by the (a, b) families against
    alpha_2; the theta={1} parabolic is the same statement with the two
    nodes (and hence a and b) swapped.
    """
    _check_hyperbolic(a, b)
    if max_n < 0:
        raise ValueError(f"max_n must be >= 0, got {max_n}")
    spec = rank2_spec(a, b)
    rd_max_length = 2 * max_n + 2
    rd = {
        "theta=[2]": criteria.check_rd(spec, (2,), rd_max_length).verdict,
        "theta=[1]": criteria.check_rd(spec, (1,), rd_max_length).verdict,
    }
    viol_2, match_2, display_matches = _family_scan(a, b, max_n)
    viol_1, match_1, _ = _family_scan(b, a, max_n)
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
        "published_display_matches_oracle": display_matches,
        "rd_verdicts": rd,
        "rd_max_length": rd_max_length,
    }
