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

from . import __version__, weyl
from .gcm import (
    GCMError,
    NoAdmissibleD,
    NotMaximal,
    _check_theta,
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
    if type(x) is int:
        return {"num": x, "den": 1}
    x = Fraction(x)
    return {"num": x.numerator, "den": x.denominator}


def report_to_dict(report):
    """Canonical JSON form: fixed key order, no timestamps in the verdict body."""
    return {
        "schema_version": 1,
        "tool_version": __version__,
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
    _check_theta(spec, theta)
    if len(theta) != spec.rank - 1:
        raise NotMaximal(
            f"theta {theta} is not maximal (need |theta| = rank - 1)"
        )
    return theta


def _scan(check, spec, theta, max_length, all_witnesses, visit, counts,
          start):
    """The bounded scan every decider runs.

    Calls the generator ``visit(word, vecs)`` on each nontrivial node of
    ``weyl.orbit_walk`` from start, up to max_length in ShortLex order, and
    collects the witnesses it yields, stopping at the first one unless
    all_witnesses.  ``visit`` keeps its own counters in ``counts``; they
    follow ``elements_enumerated``, the size of the Weyl ball, in ``stats``.
    That size is ``weyl.ball_size``, the one check of the element cap and
    of a negative bound, so either is refused before the walk starts.
    """
    t0 = time.monotonic()
    stats = {"elements_enumerated": weyl.ball_size(spec, max_length)}
    nodes = (
        node for layer in weyl.orbit_walk(spec, max_length, start)
        for node in layer
    )
    found = (witness for node in nodes for witness in visit(*node))
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
        wall_time_ms=int((time.monotonic() - t0) * 1000),
    )


def _coset_start(spec, par, shift=0):
    """(scale, (tau, sigma)): omega_P and shift omega_P + rho_M in weight
    coordinates, times the least positive integer that makes both integral.
    By definition omega_P is the unit vector at i_P and rho_M is 1 on
    theta, so the one entry that may be a fraction is sigma's at i_P,
    x = shift + <rho_M, alpha_{i_P}^vee>, and scale is its denominator."""
    x = shift + pair_with_coroot(
        spec, par.rho_M, spec.simple_root(par.excluded_index)
    )
    i = par.excluded_index - 1
    scale = x.denominator
    tau = [0] * spec.rank
    sigma = [scale] * spec.rank
    tau[i], sigma[i] = scale, x.numerator
    return scale, (tuple(tau), tuple(sigma))


def _replayed_root(spec, prefix, pairings):
    """The root that prefix's last letter adds to Phi_{w^-1}, replayed in
    root coordinates from the word alone.  Each (weight, pairing) of
    ``pairings`` is what the walk gave; the first that the root's
    ``pair_with_coroot`` contradicts is an internal error, not a witness."""
    root = weyl.inversion_set_of_word(spec, prefix[::-1])[-1]
    for lam, pairing in pairings:
        if pair_with_coroot(spec, lam, root) != pairing:
            raise GCMError(
                f"internal invariant violated: the pairing of {lam} with the "
                f"root {root} of word {prefix} disagrees with the orbit walk"
            )
    return root


def check_rd(spec, theta, max_length, all_witnesses=False):
    """Decide Property RD up to the length bound via the strict-negativity
    criterion: <rho_M, alpha^vee> < 0 for every nontrivial w in W^theta
    and alpha in Phi_{w^-1}.

    Runs on the orbit walk: the inversion roots of w^-1 are the roots its
    word prefixes add, each checked once at the prefix that adds it, with
    both pairings read off the scaled integer weight coordinates."""
    theta = _require_maximal(spec, theta)
    par = make_parabolic(spec, theta)
    scale, start = _coset_start(spec, par)
    counts = {"coset_reps": 0, "roots_checked": 0}
    least = None  # (num, den) of the least ratio -rho/omega so far
    # word -> the failing inversion roots of w^-1, inherited by extensions
    failing = {}

    def visit(word, vecs):
        nonlocal least
        tau, sigma = vecs
        i = word[-1] - 1
        omega, rho = -tau[i], -sigma[i]
        counts["coset_reps"] += 1
        # Every earlier root was checked at a prefix: had one failed, the
        # scan would have stopped there or inherited it below.
        counts["roots_checked"] += len(word)
        bad = failing.get(word[:-1], ())
        if rho >= 0:
            pairs = (Fraction(rho, scale), Fraction(omega, scale))
            root = _replayed_root(
                spec, word, zip((par.rho_M, par.omega_P), pairs)
            )
            bad += ((root, pairs),)
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
        "rd", spec, theta, max_length, all_witnesses, visit, counts, start
    )
    if not report.failed and least is not None:
        report.d_sup = Fraction(*least)
    return report


def check_prop51(spec, max_length, all_witnesses=False):
    """Sufficient condition: <alpha_i, alpha^vee> <= 0 for every w, every
    alpha in Phi_{w^-1} and every simple i with w^-1(alpha_i) > 0.

    Walks the ball from (rho, alpha_1, ..., alpha_n) in weight coordinates,
    alpha_i being column i of A.  The node w = x s_j adds one root alpha to
    Phi_{w^-1}, read off as its row (<alpha_i, alpha^vee>)_i.  A is
    nonsingular, so a row determines its root: i is a left ascent of w
    exactly when row i of A, the row of alpha_i, is not among the rows of
    Phi_{w^-1}.  Phi_{w^-1} is Phi_{x^-1} plus alpha, so w inherits x's
    ascents, less i when alpha is alpha_i, and x's failing pairs
    (root, i, pairing) at those ascents; alpha's own pairs come last, its
    root replayed once from the word, at this node."""
    counts = {"roots_checked": 0}
    simple = {row: i for i, row in enumerate(spec.matrix)}
    # word -> (ascents, failing pairs) of w, inherited by extensions
    state = {(): (tuple(range(spec.rank)), ())}

    def visit(word, vecs):
        j = word[-1] - 1
        row = tuple(-v[j] for v in vecs[1:])
        ascents, bad = state[word[:-1]]
        g = simple.get(row)
        if g is not None:
            ascents = tuple(i for i in ascents if i != g)
            bad = tuple(pair for pair in bad if pair[1] != g)
        new = [i for i in ascents if row[i] > 0]
        if new:
            root = _replayed_root(
                spec, word, [(spec.simple_root(i + 1), row[i]) for i in new]
            )
            bad += tuple((root, i, row[i]) for i in new)
        state[word] = ascents, bad
        # W is infinite (validate_gcm rejects finite type), so no element
        # has every simple reflection as a left descent: ascents is never
        # empty, and every root of Phi_{w^-1} is checked.
        counts["roots_checked"] += len(word)
        for root, i, pairing in bad:
            yield {
                "word": list(word),
                "root": list(root),
                "simple_index": i + 1,
                "pairing": _frac(pairing),
            }

    start = (weyl.rho(spec), *zip(*spec.matrix))
    return _scan(
        "prop51", spec, None, max_length, all_witnesses, visit, counts, start
    )


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
    weight coordinates; adj A, signed so that it is |det A| A^-1, maps it
    to root coordinates times |det A|."""
    theta = _require_maximal(spec, theta)
    par = make_parabolic(spec, theta)
    if D is None:
        D = admissible_d(par)
    scale, start = _coset_start(spec, par, D)
    # |det A| A^-1 = sign(det A) adj A, an integer matrix
    q = abs(spec.det)
    inverse = [[x * q // spec.det for x in row] for row in spec.adjugate]
    counts = {"coset_reps": 0}
    first_non_strict = None

    def exact(image):
        return [_frac(Fraction(x, q * scale)) for x in image]

    def visit(word, vecs):
        nonlocal first_non_strict
        mu = vecs[1]
        counts["coset_reps"] += 1
        image = [sum(a * x for a, x in zip(row, mu)) for row in inverse]
        if any(x < 0 for x in image) or all(x == 0 for x in image):
            yield {"word": list(word), "image": exact(image)}
        elif any(x == 0 for x in image) and first_non_strict is None:
            first_non_strict = {"word": list(word), "image": exact(image)}

    report = _scan(
        "lemma44", spec, theta, max_length, all_witnesses, visit, counts,
        start,
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
    rho = weyl.rho(spec)
    # mu = w^-1 rho -> word of w, filled as the scan goes: v = w s_i is
    # shorter than w, so already seen.
    by_mu = {rho: ()}
    counts = {"elements_checked": 0}

    def visit(word, vecs):
        (mu,) = vecs
        by_mu[mu] = word
        counts["elements_checked"] += 1
        blocking = {}
        for i in range(1, spec.rank + 1):
            if mu[i - 1] > 0:
                continue  # not a right descent
            # mu of v = w s_i is s_i(mu of w)
            v = by_mu[weyl.reflect_weight(spec, i, mu)]
            beta = spec.simple_root(i)
            bad = [
                alpha for alpha in weyl.inversion_set_of_word(spec, v)
                if weyl.is_real_root(
                    spec, tuple(a - b for a, b in zip(alpha, beta))
                )
            ]
            if not bad:
                return
            blocking[i] = [[int(x) for x in alpha] for alpha in bad]
        yield {
            "word": list(word),
            "blocking": {str(i): roots for i, roots in blocking.items()},
        }

    return _scan(
        "property25", spec, None, max_length, all_witnesses, visit, counts,
        (rho,),
    )
