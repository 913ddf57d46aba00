"""Bounded-length deciders for Property RD and the related combinatorial tests.

Every verdict is either FAILED_WITH_WITNESS (with independently re-checkable
witnesses) or HOLDS_UP_TO_BOUND: the scan proves failure, but only gives
evidence of success, since the underlying quantifier ranges over an
infinite group.
"""

import time
from fractions import Fraction

from . import __version__, weyl
from .gcm import (
    GCMError,
    NoAdmissibleD,
    NotFiniteTypeLevi,
    NotMaximal,
    _check_theta,
    is_finite_type,
    make_parabolic,
    matrix_hash,
    pair_with_coroot,
)

FAILED = "FAILED_WITH_WITNESS"
HOLDS = "HOLDS_UP_TO_BOUND"


class CheckReport:
    """One decider's result.  It stays mutable: ``check_rd`` and
    ``check_lemma44`` set ``d_sup`` and ``extra`` after the scan."""

    def __init__(self, check, gcm_name, matrix, theta, max_length, verdict,
                 witnesses, d_sup, stats, wall_time_ms=0, extra=None):
        self.check = check
        self.gcm_name = gcm_name
        self.matrix = matrix
        self.theta = theta
        self.max_length = max_length
        self.verdict = verdict
        self.witnesses = witnesses
        self.d_sup = d_sup
        self.stats = stats
        self.wall_time_ms = wall_time_ms
        self.extra = {} if extra is None else extra

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


def _scan(check, spec, theta, max_length, all_witnesses, visit, start,
          first=None, node_key=None, length_key=None):
    """The bounded scan every decider runs.

    Calls ``visit(word, vecs, inherited, out)`` on each nontrivial node of
    ``weyl.orbit_walk`` on spec.matrix from start, up to max_length in
    ShortLex order.  visit appends the node's witnesses to ``out`` and
    returns the node's state; ``inherited`` is its parent's (word less
    the last letter), ``first`` for the identity.  Unless all_witnesses,
    the scan stops at the first node that appends a witness and keeps
    only the first witness it appended.
    The walk goes layer by layer, so only the parents' layer is kept, as a
    list in walk order: each node reads its parent's state at the parent
    position the walk gives it, with no word sliced or hashed.
    ``stats`` holds ``elements_enumerated`` from ``weyl.ball_size``, the
    one check of the element cap and of a negative bound, made first; then
    the nodes visited under node_key, their lengths' sum under length_key,
    both counted per layer, up to and including the node of an early stop.
    The lengths are roots_checked: check_rd checks each root of
    Phi_{w^-1} at the prefix that adds it and inherits it had it failed;
    in check_prop51, W is infinite (validate_gcm rejects finite type), so
    no w has every s_i as a left descent, and ascents is never empty.
    """
    t0 = time.monotonic()
    stats = {"elements_enumerated": weyl.ball_size(spec, max_length)}
    nodes = letters = 0
    stop = not all_witnesses
    witnesses = []
    below = [first]
    walk = weyl.orbit_walk(spec.matrix, max_length, start)
    for length, layer in enumerate(walk, 1):
        states = []
        for word, vecs, parent in layer:
            states.append(visit(word, vecs, below[parent], witnesses))
            if stop and witnesses:
                break
        nodes += len(states)
        letters += length * len(states)
        if stop and witnesses:
            del witnesses[1:]
            break
        below = states
    for key, count in ((node_key, nodes), (length_key, letters)):
        if key:
            stats[key] = count
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


def _coset_start(spec, theta, shift=0):
    """(scale, (tau, sigma)): omega_P and shift omega_P + rho_M in weight
    coordinates, times the least positive integer that makes both integral.
    omega_P is the unit vector at p = i_P and rho_M is 1 on theta, so the
    one entry that may be a fraction is sigma's at p,
    x = shift + <rho_M, alpha_p^vee>, and scale is its denominator.

    x is read off row p of adj A = det A A^-1.  rho_M lies in the span of
    the theta roots, so its root coordinate at p, which is row p of A^-1
    applied to its weight coordinates, is 0:
    x adj[p][p] + sum_{j != p} adj[p][j] = 0, where adj[p][p] = det A_theta
    is positive for a finite-type theta."""
    (p,) = set(range(1, spec.rank + 1)) - set(theta)
    row = spec.adjugate[p - 1]
    det_theta = row[p - 1]
    x = shift + Fraction(det_theta - sum(row), det_theta)
    scale = x.denominator
    tau = [0] * spec.rank
    sigma = [scale] * spec.rank
    tau[p - 1], sigma[p - 1] = scale, x.numerator
    return scale, (tuple(tau), tuple(sigma))


def _replayed_root(spec, prefix, pairings):
    """The root that prefix's last letter adds to Phi_{w^-1}, replayed in
    root coordinates from the word alone.  Each (weight, pairing) of
    ``pairings`` is what the walk gave; the first that the root's
    ``pair_with_coroot`` contradicts is an internal error, not a witness.

    For prefix (i_1, ..., i_k) that root is s_{i_1} ... s_{i_(k-1)}
    alpha_{i_k}, the last member of ``inversion_set_of_word`` of the
    reversed prefix, folded here without the members before it."""
    root = spec.simple_root(prefix[-1])
    for i in reversed(prefix[:-1]):
        root = weyl.reflect_simple(spec, i, root)
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
    both pairings read off the scaled integer weight coordinates.  The
    parabolic data is built only at the first witness, whose replayed root
    checks both pairings against it."""
    theta = _require_maximal(spec, theta)
    if not is_finite_type(spec, theta):
        raise NotFiniteTypeLevi(f"theta {theta} has non-finite Weyl group")
    scale, start = _coset_start(spec, theta)
    par = None
    least = None  # (num, den) of the least ratio -rho/omega so far

    def visit(word, vecs, bad, out):  # bad: the parent's failing roots
        nonlocal least, par
        tau, sigma = vecs
        i = word[-1] - 1
        omega, rho = -tau[i], -sigma[i]
        if rho >= 0:
            if par is None:
                par = make_parabolic(spec, theta)
            pairs = (Fraction(rho, scale), Fraction(omega, scale))
            root = _replayed_root(
                spec, word, zip((par.rho_M, par.omega_P), pairs)
            )
            bad += ((root, pairs),)
        elif least is None or -rho * least[1] < least[0] * omega:
            least = (-rho, omega)
        for root, (rho_pair, omega_pair) in bad:
            out.append({
                "word": list(word),
                "root": list(root),
                "rho_M_pairing": _frac(rho_pair),
                "omega_P_pairing": _frac(omega_pair),
            })
        return bad

    report = _scan(
        "rd", spec, theta, max_length, all_witnesses, visit, start, (),
        "coset_reps", "roots_checked",
    )
    if not report.failed and least is not None:
        report.d_sup = Fraction(*least)
    return report


def check_prop51(spec, max_length, all_witnesses=False):
    """Sufficient condition: <alpha_i, alpha^vee> <= 0 for every w, every
    alpha in Phi_{w^-1} and every simple i with w^-1(alpha_i) > 0.

    Walks the ball from (rho, alpha_1, ..., alpha_n) in weight coordinates,
    alpha_i being column i of A.  The node w = x s_j adds one root
    beta = x alpha_j to Phi_{w^-1}, and the walk gives its pairings:
    <rho, beta^vee> = -vecs[0][j] and <alpha_i, beta^vee> = -vecs[1+i][j].
    i is a left ascent of w exactly when alpha_i is not in Phi_{w^-1}.
    Phi_{w^-1} is Phi_{x^-1} plus beta, so w inherits x's ascents, less g
    when beta is alpha_g, and x's failing pairs (root, i, pairing) at
    those ascents; beta's own pairs come last, its root replayed once
    from the word, at this node.

    beta^vee = x alpha_j^vee is a positive real coroot, and rho pairs to 1
    with every simple coroot, so <rho, beta^vee> is the height of beta^vee.
    It is 1 exactly when beta^vee is a simple coroot alpha_g^vee, that is
    when beta is alpha_g (x alpha_j^vee = alpha_g^vee gives
    x alpha_j = alpha_g, as x s_j x^-1 = s_g).  Only then is beta's row
    (<alpha_i, beta^vee>)_i built: it is row g of A, and A is nonsingular,
    so the row names g."""
    simple = {row: i for i, row in enumerate(spec.matrix)}

    def visit(word, vecs, inherited, out):
        ascents, bad = inherited  # of the parent x
        j = word[-1] - 1
        if vecs[0][j] == -1:  # <rho, beta^vee> = 1: beta is simple
            row = tuple(-v[j] for v in vecs[1:])
            g = simple.get(row)
            if g is None:
                raise GCMError(
                    f"internal invariant violated: the root that word {word} "
                    f"adds has height-1 coroot but pairings {row}, no row of A"
                )
            ascents = tuple(i for i in ascents if i != g)
            bad = tuple(pair for pair in bad if pair[1] != g)
        new = [(i, -vecs[1 + i][j]) for i in ascents if vecs[1 + i][j] < 0]
        if new:
            root = _replayed_root(
                spec, word, [(spec.simple_root(i + 1), p) for i, p in new]
            )
            bad += tuple((root, i, p) for i, p in new)
        for root, i, pairing in bad:
            out.append({
                "word": list(word),
                "root": list(root),
                "simple_index": i + 1,
                "pairing": _frac(pairing),
            })
        return ascents, bad

    start = (weyl.rho(spec), *zip(*spec.matrix))
    return _scan(
        "prop51", spec, None, max_length, all_witnesses, visit, start,
        (tuple(range(spec.rank)), ()), length_key="roots_checked",
    )


def admissible_d(par):
    """The largest D = 1/k, k a positive integer, that is admissible: the
    alpha_P-coefficient of omega_P is negative and all theta-coordinates
    of D omega_P + rho_M are strictly positive.  Else NoAdmissibleD."""
    if par.omega_P[par.excluded_index - 1] >= 0:
        raise NoAdmissibleD("alpha_P-coefficient of omega_P is not negative")
    coords = [(par.omega_P[i - 1], par.rho_M[i - 1]) for i in par.theta]
    # need 1/k < rho_M_i / (-n_i) wherever n_i < 0
    D = Fraction(1, max([int(-n / r) + 1 for n, r in coords if n < 0],
                        default=1))
    if any(D * n + r <= 0 for n, r in coords):
        raise NoAdmissibleD(
            f"D = {D!r} leaves a theta-coordinate of D omega_P + rho_M "
            "nonpositive"
        )
    return D


def check_lemma44(spec, theta, max_length, all_witnesses=False):
    """With a small admissible D, w^-1(D omega_P + rho_M) should be a
    nonnegative (and generically strictly positive) combination of simple
    roots for every nontrivial w in W^theta.

    Runs on the orbit walk, which carries the image in scaled integer
    weight coordinates; adj A, signed so that it is |det A| A^-1, maps it
    to root coordinates times |det A|."""
    theta = _require_maximal(spec, theta)
    par = make_parabolic(spec, theta)
    D = admissible_d(par)
    scale, start = _coset_start(spec, theta, D)
    # |det A| A^-1 = sign(det A) adj A, an integer matrix
    q = abs(spec.det)
    inverse = [[x * q // spec.det for x in row] for row in spec.adjugate]
    first_non_strict = None

    def exact(image):
        return [_frac(Fraction(x, q * scale)) for x in image]

    def visit(word, vecs, _, out):
        nonlocal first_non_strict
        mu = vecs[1]
        image = [sum(a * x for a, x in zip(row, mu)) for row in inverse]
        if any(x < 0 for x in image):
            out.append({"word": list(word), "image": exact(image)})
        elif any(x == 0 for x in image) and first_non_strict is None:
            first_non_strict = {"word": list(word), "image": exact(image)}

    report = _scan(
        "lemma44", spec, theta, max_length, all_witnesses, visit, start,
        node_key="coset_reps",
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
    for alpha in Phi_v.

    Decided on Phi_w, which each node inherits: w = x s_j has
    Phi_w = {alpha_j} + s_j Phi_x.  For a right descent beta = alpha_i,
    every alpha in Phi_v is s_i(gamma) for some gamma in Phi_w other than
    beta, and alpha - beta = s_i(gamma + beta).  gamma + beta is positive
    and w sends it to a sum of two negative roots, so alpha - beta is a
    real root exactly when gamma + beta is in Phi_w.  A witness lists its
    blocking roots from Phi_v as the walk built it, one length earlier."""
    rho = weyl.rho(spec)
    # mu = w^-1 rho -> Phi_w at the previous length and at the current one;
    # v = w s_i is one shorter than w, and rho's stabiliser is trivial.
    shorter, current, length = {}, {rho: ()}, 0

    def visit(word, vecs, inherited, out):
        nonlocal shorter, current, length
        (mu,) = vecs
        if len(word) > length:
            shorter, current, length = current, {}, len(word)
        j = word[-1]
        phi = (spec.simple_root(j),) + tuple(
            weyl.reflect_simple(spec, j, gamma) for gamma in inherited
        )
        current[mu] = phi
        members = set(phi)

        def blocks(i, gamma):  # gamma + alpha_i in Phi_w
            return gamma[:i - 1] + (gamma[i - 1] + 1,) + gamma[i:] in members

        # mu = w^-1 rho, so i is a right descent when mu_i < 0
        descents = [i for i in range(1, spec.rank + 1) if mu[i - 1] < 0]
        if all(any(blocks(i, gamma) for gamma in phi) for i in descents):
            blocking = {}
            for i in descents:
                # mu of v = w s_i is s_i(mu of w)
                phi_v = shorter[weyl.reflect_weight(spec, i, mu)]
                blocking[str(i)] = [
                    list(alpha) for alpha in phi_v
                    if blocks(i, weyl.reflect_simple(spec, i, alpha))
                ]
            out.append({"word": list(word), "blocking": blocking})
        return phi

    return _scan(
        "property25", spec, None, max_length, all_witnesses, visit, (rho,),
        (), node_key="elements_checked",
    )
