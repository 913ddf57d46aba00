"""Bounded-length deciders for Property RD and the related combinatorial tests.

Every verdict is either FAILED_WITH_WITNESS (with independently re-checkable
witnesses) or HOLDS_UP_TO_BOUND: the scan proves failure, but only gives
evidence of success, since the underlying quantifier ranges over an
infinite group.
"""

import itertools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import weyl
from .gcm import (
    GCMError,
    NoAdmissibleD,
    NotMaximal,
    NullNorm,
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


def _scan(check, spec, theta, max_length, all_witnesses, visit, counts,
          elements=None):
    """The bounded scan every decider runs.

    Calls the generator ``visit`` on each of ``elements`` in order, by
    default the nontrivial WeylElem of length <= max_length in ShortLex
    order (the theta deciders pass the nodes of ``_coset_walk``), and
    collects the witnesses it yields, stopping at the first one unless
    all_witnesses.  ``visit`` keeps its own counters in ``counts``; they
    follow ``elements_enumerated`` in ``stats``.
    """
    start = time.monotonic()
    layers = weyl.enumerate_by_length(spec, max_length)
    stats = {"elements_enumerated": sum(len(l) for l in layers)}
    if elements is None:
        elements = (w for layer in layers[1:] for w in layer)
    del layers  # a walk needs only the count

    found = (witness for w in elements for witness in visit(w))
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


def _scaled_weight_coords(spec, vectors):
    """The weight coordinates <v, alpha_i^vee> = (A v)_i, i = 1..n, of
    root-coordinate vectors, all multiplied by the least positive integer
    that makes them integers.  Returns (scale, tuples of ints)."""
    coords = [
        [Fraction(sum(a * x for a, x in zip(row, v))) for row in spec.matrix]
        for v in vectors
    ]
    scale = math.lcm(*(x.denominator for c in coords for x in c))
    return scale, [tuple(int(x * scale) for x in c) for c in coords]


def _coset_walk(spec, max_length, start):
    """The nontrivial w in W^theta of length <= max_length, in ShortLex
    order, as nodes (word, vecs), where vecs[k] = w^-1 start[k] in integer
    weight coordinates and start[0] is (a positive multiple of) omega_P.

    The stabiliser of omega_P is W_theta for maximal theta, so w -> w^-1
    omega_P is one-to-one on W^theta.  With tau = w^-1 omega_P, w s_i is a
    longer element of W^theta exactly when tau_i > 0; children are
    deduplicated by tau.  The one new inversion root w(alpha_i) of w s_i
    has <lambda, w(alpha_i)^vee> = (w^-1 lambda)_i, which for
    lambda = start[k] is -vecs[k][i-1] of the child node.
    """
    n = spec.rank
    # weight coordinates of alpha_i: column i of A
    columns = [tuple(row[i] for row in spec.matrix) for i in range(n)]

    def reflect(v, i):
        c = v[i]
        return v if c == 0 else tuple(x - c * a for x, a in zip(v, columns[i]))

    layer = [((), tuple(start))]
    for _ in range(max_length):
        children = {}
        for word, vecs in layer:
            tau = vecs[0]
            for i in range(n):
                if tau[i] > 0:
                    child = reflect(tau, i)
                    if child not in children:
                        children[child] = (
                            word + (i + 1,),
                            (child,) + tuple(reflect(v, i) for v in vecs[1:]),
                        )
        if not children:
            return
        layer = list(children.values())
        yield from layer


def check_rd(spec, theta, max_length, all_witnesses=False):
    """Decide Property RD up to the length bound via the strict-negativity
    criterion: <rho_M, alpha^vee> < 0 for every nontrivial w in W^theta
    and alpha in Phi_{w^-1}.

    Runs on the orbit walk: the inversion roots of w^-1 are the roots its
    word prefixes add, each checked once at the prefix that adds it, with
    both pairings read off the scaled integer weight coordinates."""
    theta = _require_maximal(spec, theta)
    par = make_parabolic(spec, theta)
    scale, start = _scaled_weight_coords(spec, (par.omega_P, par.rho_M))
    counts = {"coset_reps": 0, "roots_checked": 0}
    least = None  # (num, den) of the least ratio -rho/omega so far
    # word -> the failing inversion roots of w^-1, inherited by extensions
    failing = {}

    def replay(word, rho, omega):
        """Root coordinates of the root the word's last letter adds, with
        its pairings recomputed from them and checked against the walk."""
        root = weyl.inversion_set_of_word(spec, word[::-1])[-1]
        pairs = (
            pair_with_coroot(spec, par.rho_M, root),
            pair_with_coroot(spec, par.omega_P, root),
        )
        if pairs != (Fraction(rho, scale), Fraction(omega, scale)):
            raise GCMError(
                f"internal invariant violated: pairings of the root {root} "
                f"of word {word} disagree with the orbit walk"
            )
        return root, pairs

    def visit(node):
        nonlocal least
        word, (tau, sigma) = node
        i = word[-1] - 1
        omega, rho = -tau[i], -sigma[i]
        counts["coset_reps"] += 1
        # Every earlier root was checked at a prefix: had one failed, the
        # scan would have stopped there or inherited it below.
        counts["roots_checked"] += len(word)
        bad = failing.get(word[:-1], ())
        if rho >= 0:
            bad += (replay(word, rho, omega),)
        elif least is None or -rho * least[1] < least[0] * omega:
            least = (-rho, omega)
        if bad:
            failing[word] = bad
        for root, (rho_pair, omega_pair) in bad:
            yield {
                "word": list(word),
                "root": list(root),
                "rho_M_pairing": _frac(rho_pair),
                "omega_P_pairing": _frac(omega_pair),
            }

    report = _scan(
        "rd", spec, theta, max_length, all_witnesses, visit, counts,
        _coset_walk(spec, max_length, start),
    )
    if not report.failed and least is not None:
        report.d_sup = Fraction(*least)
    return report


def check_prop51(spec, max_length, all_witnesses=False):
    """Sufficient condition: <alpha_i, alpha^vee> <= 0 for every w, every
    alpha in Phi_{w^-1} and every simple i with w^-1(alpha_i) > 0."""
    d = spec.symmetrizer
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
            # (A alpha)_i = <alpha, alpha_i^vee>; (alpha_i|alpha) = d_i (A alpha)_i
            a_alpha = [
                sum(a * x for a, x in zip(row, alpha)) for row in spec.matrix
            ]
            norm = sum(di * x * y for di, x, y in zip(d, alpha, a_alpha))
            if norm <= 0:
                raise NullNorm(f"(alpha|alpha) = {norm} <= 0")
            for i in ascents:
                # <alpha_i, alpha^vee> = 2 d_i (A alpha)_i / (alpha|alpha)
                if a_alpha[i - 1] > 0:
                    yield {
                        "word": list(w.word),
                        "root": [int(x) for x in alpha],
                        "simple_index": i,
                        "pairing": _frac(
                            Fraction(2 * d[i - 1] * a_alpha[i - 1], norm)
                        ),
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
    roots for every nontrivial w in W^theta.

    Runs on the orbit walk, which carries the image in scaled integer
    weight coordinates; A^-1, scaled to integers, maps it to root
    coordinates."""
    theta = _require_maximal(spec, theta)
    par = make_parabolic(spec, theta)
    if D is None:
        D = admissible_d(par)
    vec = tuple(
        D * n + m for n, m in zip(par.omega_P, par.rho_M)
    )
    scale, start = _scaled_weight_coords(spec, (par.omega_P, vec))
    # A^-1 = inverse / q with an integer matrix inverse
    q = math.lcm(*(x.denominator for row in spec.inverse for x in row))
    inverse = [[int(x * q) for x in row] for row in spec.inverse]
    counts = {"coset_reps": 0}
    first_non_strict = None

    def exact(image):
        return [_frac(Fraction(x, q * scale)) for x in image]

    def visit(node):
        nonlocal first_non_strict
        word, (_, mu) = node
        counts["coset_reps"] += 1
        image = [sum(a * x for a, x in zip(row, mu)) for row in inverse]
        if any(x < 0 for x in image) or all(x == 0 for x in image):
            yield {"word": list(word), "image": exact(image)}
        elif any(x == 0 for x in image) and first_non_strict is None:
            first_non_strict = {"word": list(word), "image": exact(image)}

    report = _scan(
        "lemma44", spec, theta, max_length, all_witnesses, visit, counts,
        _coset_walk(spec, max_length, start),
    )
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
