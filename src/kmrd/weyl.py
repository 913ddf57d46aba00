"""Weyl-group elements, length-layered enumeration, inversion sets and roots.

An element is stored as its ShortLex-least reduced word together with
mu = w^-1 rho in integer weight coordinates: a weight lambda has the
coordinates <lambda, alpha_i^vee>, i = 1..n, so rho = (1, ..., 1) and the
simple root alpha_i is column i of the Cartan matrix.  Words act by left
composition: word (i1, ..., ik) is the map v -> s_i1(s_i2(... s_ik(v))).
The integer matrix of w on root coordinates (column j = coordinates of
w(alpha_j)) and the matrix of w^-1 are built only when asked for, one
step from the parent's in an enumerated ball.

One orbit walk, ``orbit_walk``, enumerates both the Weyl ball, as the
orbit W.rho, and the minimal coset representatives W^theta, as the orbit
of a weight whose stabiliser is W_theta.  The ball is counted, layer by
layer, from its growth series (``growth_series``), without a walk, and
``ball_size`` checks that count against the element cap.
"""

import functools
import itertools
import os

from . import linalg
from .gcm import GCMError, bilinear_form

DEFAULT_MAX_ELEMENTS = 200_000


def element_cap():
    """KMRD_MAX_ELEMENTS, or DEFAULT_MAX_ELEMENTS when it is unset or
    empty; any other value that is not a positive integer is refused."""
    value = os.environ.get("KMRD_MAX_ELEMENTS")
    if not value:
        return DEFAULT_MAX_ELEMENTS
    try:
        cap = int(value)
    except ValueError:
        cap = 0
    if cap < 1:
        raise GCMError(
            f"KMRD_MAX_ELEMENTS must be a positive integer, got {value!r}"
        )
    return cap


class CapExceeded(RuntimeError):
    """Enumeration hit its element cap; carries partial statistics."""

    def __init__(self, message, stats):
        super().__init__(message)
        self.stats = stats


class WeylElem:
    """A Weyl-group element: its word and mu = w^-1 rho, with the matrices
    of w and of w^-1 computed on first use.  An element of
    ``enumerate_by_length`` knows its parent, the element of word[:-1]
    (ShortLex-least words are closed under prefixes), so each matrix is one
    simple-reflection step from the parent's; any other element folds its
    word."""

    __slots__ = ("word", "mu", "_spec", "_parent", "_matrix", "_inverse")

    def __init__(self, spec, word, mu, parent=None):
        self.word = word  # canonical ShortLex reduced word, 1-based generator indices
        self.mu = mu      # w^-1 rho in weight coordinates
        self._spec = spec
        self._parent = parent
        self._matrix = self._inverse = None

    def __repr__(self):
        return f"WeylElem(word={self.word}, mu={self.mu})"

    @property
    def length(self):
        return len(self.word)

    @property
    def matrix(self):
        """Integer action of w on root coordinates."""
        return self._cached("_matrix", _mul_right_simple)

    @property
    def inverse(self):
        """Matrix of the inverse element."""
        return self._cached("_inverse", _mul_left_simple)

    def _cached(self, slot, step):
        """The matrix kept in slot: ``step`` by the last letter from the
        parent's, up the chain of parents to the nearest element that has
        it or has no parent, which folds its word.  Every element on the
        way keeps its matrix."""
        chain = []
        w = self
        while getattr(w, slot) is None and w._parent is not None:
            chain.append(w)
            w = w._parent
        m = getattr(w, slot)
        if m is None:
            m = _fold(w._spec, w.word, step)
            setattr(w, slot, m)
        for w in reversed(chain):
            m = step(w._spec, m, w.word[-1])
            setattr(w, slot, m)
        return m


def simple_reflection_matrix(spec, i):
    """Matrix of s_i: column j is alpha_j - a_ij alpha_i."""
    n = spec.rank
    a = spec.matrix[i - 1]
    return tuple(
        tuple((1 if r == c else 0) - (a[c] if r == i - 1 else 0) for c in range(n))
        for r in range(n)
    )


def reflect_simple(spec, i, v):
    """s_i(v) = v - <v, alpha_i^vee> alpha_i."""
    a = spec.matrix[i - 1]
    coeff = sum(a[j] * v[j] for j in range(spec.rank))
    return tuple(
        v[j] - coeff if j == i - 1 else v[j] for j in range(spec.rank)
    )


def reflect_weight(spec, i, v):
    """s_i(v) in weight coordinates: v - v_i alpha_i, where alpha_i is
    column i of the Cartan matrix."""
    c = v[i - 1]
    return tuple(x - c * row[i - 1] for x, row in zip(v, spec.matrix))


def rho(spec):
    """rho in weight coordinates."""
    return (1,) * spec.rank


def _mul_right_simple(spec, m, i):
    """m @ S_i; only columns j with a_ij != 0 change."""
    a = spec.matrix[i - 1]
    n = spec.rank
    return tuple(
        tuple(row[j] - a[j] * row[i - 1] for j in range(n)) for row in m
    )


def _mul_left_simple(spec, m, i):
    """S_i @ m; only row i changes."""
    a = spec.matrix[i - 1]
    n = spec.rank
    new_row = tuple(
        m[i - 1][c] - sum(a[j] * m[j][c] for j in range(n) if a[j])
        for c in range(n)
    )
    return tuple(new_row if r == i - 1 else m[r] for r in range(n))


def _fold(spec, word, step):
    """The identity matrix moved by ``step`` once per letter of the word."""
    m = linalg.identity(spec.rank)
    for i in word:
        m = step(spec, m, i)
    return m


def word_to_element(spec, word):
    """Build the (not necessarily canonical) element of a word."""
    mu = rho(spec)
    for i in word:
        mu = reflect_weight(spec, i, mu)
    return WeylElem(spec, tuple(word), mu)


def apply(w, v):
    return linalg.mat_vec(w.matrix, v)


def check_max_length(max_length):
    """Refuse a negative length bound, under which every scan would pass
    vacuously."""
    if max_length < 0:
        raise GCMError(f"max_length must be >= 0, got {max_length}")


def orbit_walk(spec, max_length, start):
    """Walk the orbit of the weight start[0] in integer weight coordinates.

    Yields the layers of lengths 1, 2, ..., max_length, stopping at the
    first empty one.  A layer is a list of nodes (word, vecs) in ShortLex
    order, with vecs[k] = w^-1 start[k].  The walk has no element cap:
    every orbit it walks lies inside the Weyl ball, so a caller refuses an
    over-cap bound with ``ball_size`` before it starts.

    Since <lambda, w(alpha_i)^vee> = (w^-1 lambda)_i, extending w by s_i
    goes up exactly when that coordinate of w^-1 start[0] is positive, and
    s_i moves w^-1 lambda by that coordinate times alpha_i.  From
    start[0] = rho (trivial stabiliser) the walk gives the Weyl ball;
    from a dominant weight with stabiliser W_theta, such as omega_P for a
    maximal theta, it gives W^theta.  Every child is one letter longer
    than its parent, so children are deduplicated by vecs[0] within their
    layer only, and the first (ShortLex-least) word to reach a weight is
    kept.  The new inversion root w(alpha_i) of w s_i thus pairs with
    start[k] to -vecs[k][i-1] of the child.
    """
    check_max_length(max_length)
    # alpha_i in weight coordinates (column i of A) by its nonzero entries:
    # reflect is reflect_weight specialised for this loop
    alphas = [
        [(j, row[i]) for j, row in enumerate(spec.matrix) if row[i]]
        for i in range(spec.rank)
    ]

    def reflect(v, i):
        c = v[i]
        out = list(v)
        for j, a in alphas[i]:
            out[j] -= c * a
        return tuple(out)

    layer = [((), tuple(start))]
    for _ in range(max_length):
        children = {}
        for word, vecs in layer:
            for i, c in enumerate(vecs[0]):
                if c <= 0:
                    continue
                child = reflect(vecs[0], i)
                if child in children:
                    continue
                children[child] = (
                    word + (i + 1,),
                    (child, *[reflect(v, i) for v in vecs[1:]]),
                )
        if not children:
            return
        layer = list(children.values())
        yield layer


def enumerate_by_length(spec, max_length):
    """All distinct elements of length <= max_length, as a list of layers,
    each in ShortLex order: the walk on the orbit W.rho, after
    ``ball_size`` has refused a bound past the element cap."""
    ball_size(spec, max_length)
    layers = [[word_to_element(spec, ())]]
    for nodes in orbit_walk(spec, max_length, (rho(spec),)):
        parents = {w.word: w for w in layers[-1]}
        layers.append([
            WeylElem(spec, word, mu, parents[word[:-1]])
            for word, (mu,) in nodes
        ])
    return layers


def ball_size(spec, max_length):
    """The number of elements of length <= max_length, summed from
    ``growth_series`` without walking the ball.  It is the one check of
    the element cap, and every caller of ``orbit_walk`` makes it first.

    The cap is read on every call and never memoised.  Layers are summed
    one at a time, so a huge L stops at the layer that crosses the cap.
    Past the cap, CapExceeded carries the cap as ``elements_enumerated``
    and the sizes of the whole layers before the one that crosses it."""
    max_elements = element_cap()
    sizes = []
    total = 0
    for size in _layer_sizes(spec, max_length):
        total += size
        if total > max_elements:
            raise CapExceeded(
                f"element cap {max_elements} exceeded",
                {"elements_enumerated": max_elements,
                 "layer_sizes": sizes},
            )
        sizes.append(size)
    return total


def growth_series(spec, max_length):
    """The layer sizes [1, |W_1|, ..., |W_L|], L = max_length, of the
    Weyl ball, where W_k holds the elements of length k.

    Steinberg's formula (Humphreys, Reflection Groups and Coxeter Groups,
    5.12) gives, for infinite W, the growth series W(t) as the inverse of
    the sum of (-1)^|J| t^N_J / W_J(t) over the subsets J of the nodes
    with W_J finite, N_J being the number of positive roots of W_J.
    Macdonald's formula (Math. Ann. 199, 1972) gives
    1 / W_J(t) = prod (1 - t^h) / (1 - t^(h+1)) over the heights h of
    those roots.  A term with N_J > L is 0 mod t^(L+1).  ``validate_gcm``
    rejects finite type, so W is infinite and no layer is empty."""
    return list(_layer_sizes(spec, max_length))


def _finite_parabolics(spec, max_roots):
    """(|J|, heights of the positive roots of W_J) for the subsets J of
    the nodes whose W_J is finite with at most max_roots positive roots.

    The positive roots of W_J are the closure of its simple roots under
    the simple reflections of J that raise the height: s_j adds -c alpha_j
    to a root when c = <root, alpha_j^vee> < 0.  Roots are kept in weight
    coordinates, where c is coordinate j and alpha_j is column j of A; A
    is nonsingular, so these coordinates determine the root.

    A closure that passes max_roots, or k * max(k, 15) for |J| = k, is cut
    off: either W_J has more than max_roots positive roots, or it is
    infinite, as an irreducible finite root system of rank k has at most
    k * max(k, 15) positive roots (E8 has 8 * 15, B_k and C_k have k^2, the
    most of the classical types) and a sum of them at most the sum of the
    bounds."""
    alphas = list(zip(*spec.matrix))
    out = []
    for k in range(1, spec.rank + 1):
        for nodes in itertools.combinations(range(spec.rank), k):
            heights = _closure_heights(
                alphas, nodes, min(max_roots, k * max(k, 15))
            )
            if heights is not None:
                out.append((k, heights))
    return out


def _closure_heights(alphas, nodes, bound):
    """The heights of the closure of the simple roots of nodes, or None
    once it has more than bound roots."""
    roots = [(alphas[i], 1) for i in nodes]  # (weight coordinates, height)
    if len(roots) > bound:
        return None
    seen = {root for root, _ in roots}
    for root, height in roots:  # grows while it is read
        for j in nodes:
            c = root[j]
            if c < 0:
                up = tuple([x - c * a for x, a in zip(root, alphas[j])])
                if up not in seen:
                    if len(roots) == bound:
                        return None
                    seen.add(up)
                    roots.append((up, height - c))
    return [height for _, height in roots]


def _times_binomial(series, a):
    """series * (1 - t^a), in place, truncated at its length."""
    for d in range(len(series) - 1, a - 1, -1):
        series[d] -= series[d - a]


def _over_binomial(series, a):
    """series / (1 - t^a), in place, truncated at its length."""
    for d in range(a, len(series)):
        series[d] += series[d - a]


def _layer_sizes(spec, max_length):
    """Yield |W_0|, ..., |W_L| for L = max_length, one at a time: each
    layer costs one step of the recurrence R * W = Q of ``_recurrence``,
    whatever L is, so a caller can stop at any layer."""
    check_max_length(max_length)
    q, steps = _recurrence(spec, max_length)
    sizes = []
    for k in range(max_length + 1):
        size = q[k] if k < len(q) else 0
        size -= sum(x * sizes[k - i] for i, x in steps if i <= k)
        sizes.append(size)
        yield size


@functools.lru_cache(maxsize=1)
def _recurrence(spec, max_length):
    """(Q, the nonzero (i, r_i) with i > 0) for the growth series up to
    L = max_length.

    With the denominators of Macdonald's terms brought to a common Q(t),
    the product of (1 - t^m)^c_m with c_m the most factors 1 - t^m of any
    one term, Steinberg's sum is R(t)/Q(t) for a polynomial R of degree at
    most deg Q with r_0 = 1, and W(t) = Q(t)/R(t).  Both are built
    truncated at degree min(L, deg Q).

    Nothing here depends on the element cap, so the last (spec, L) is
    kept: the checks of one matrix and bound, such as the thetas of a
    survey matrix, build it once."""
    # sum of (-1)^|J| over the J with the same heights, whose terms agree
    terms = {(): 1}
    for size, heights in _finite_parabolics(spec, max_length):
        key = tuple(sorted(heights))
        terms[key] = terms.get(key, 0) + (-1 if size % 2 else 1)
    powers = {}  # m -> the most factors 1 - t^m of any one term
    for heights in terms:
        for h in set(heights):
            powers[h + 1] = max(powers.get(h + 1, 0), heights.count(h))
    degree = min(max_length, sum(m * c for m, c in powers.items()))
    q = [1] + [0] * degree
    for m, c in powers.items():
        for _ in range(c):
            _times_binomial(q, m)
    r = [0] * (degree + 1)
    for heights, sign in terms.items():
        # (-1)^|J| t^N_J Q(t) / W_J(t)
        term = ([0] * len(heights) + q)[:degree + 1]
        for h in heights:
            _times_binomial(term, h)
            _over_binomial(term, h + 1)
        r = [x + sign * y for x, y in zip(r, term)]
    return tuple(q), tuple((i, x) for i, x in enumerate(r) if i and x)


def inversion_set_of_word(spec, word):
    """Inversion set from the reduced-word telescoping formula.

    For word (i1, ..., ik) the members are
    alpha_ik, s_ik(alpha_ik-1), ..., s_ik...s_i2(alpha_i1), each one a
    simple root moved by simple reflections, so no matrix is built.
    """
    roots = []
    for pos in range(len(word) - 1, -1, -1):
        v = spec.simple_root(word[pos])
        for i in word[pos + 1:]:
            v = reflect_simple(spec, i, v)
        roots.append(v)
    return tuple(roots)


def inversion_set(spec, w):
    """Positive real roots alpha with w(alpha) < 0, ordered by word position."""
    return inversion_set_of_word(spec, w.word)


def inversion_set_of_inverse(spec, w):
    """Phi_{w^-1}; the reversed word is a reduced word for w^-1."""
    return inversion_set_of_word(spec, tuple(reversed(w.word)))


def is_positive_vec(v):
    return all(x >= 0 for x in v) and any(x != 0 for x in v)


def in_min_coset_reps(spec, w, theta):
    """w in W^theta, i.e. w^-1(alpha_i) > 0 for all i in theta."""
    return all(
        is_positive_vec(tuple(w.inverse[r][i - 1] for r in range(spec.rank)))
        for i in theta
    )


def min_coset_reps(spec, theta, layers):
    """Filter enumerated layers down to the minimal coset representatives."""
    return [
        [w for w in layer if in_min_coset_reps(spec, w, theta)]
        for layer in layers
    ]


def is_real_root(spec, v):
    """True iff v lies in the Weyl orbit of the (plus/minus) simple roots.

    Descends by the smallest index with positive coroot pairing; the height
    strictly decreases, so this terminates.
    """
    if any(not isinstance(x, int) for x in v):
        raise GCMError("is_real_root expects integer coordinates")
    if bilinear_form(spec, v, v) <= 0:
        return False
    if all(x <= 0 for x in v):
        v = tuple(-x for x in v)
    if any(x < 0 for x in v):
        return False
    while True:
        nonzero = [x for x in v if x != 0]
        if len(nonzero) == 1 and nonzero[0] == 1:
            return True
        desc = next(
            (i for i in range(1, spec.rank + 1)
             if sum(spec.matrix[i - 1][j] * v[j] for j in range(spec.rank)) > 0),
            None,
        )
        if desc is None:
            return False
        v = reflect_simple(spec, desc, v)
        if any(x < 0 for x in v):
            return False


def positive_real_roots_up_to_height(spec, max_height):
    """All positive real roots of coordinate-sum <= max_height.

    Closure of the simple roots under simple reflections that stay positive
    and within the height bound; every real root of height <= H is reached
    because its descent path stays below H.
    """
    if max_height < 1:
        raise GCMError("max_height must be >= 1")
    max_roots = element_cap()
    simples = [spec.simple_root(i) for i in range(1, spec.rank + 1)]
    seen = set(simples)
    queue = list(simples)
    out = list(simples)
    while queue:
        v = queue.pop()
        for i in range(1, spec.rank + 1):
            u = reflect_simple(spec, i, v)
            if u in seen or not all(x >= 0 for x in u) or sum(u) > max_height:
                continue
            seen.add(u)
            if len(seen) > max_roots:
                raise CapExceeded(
                    f"root cap {max_roots} exceeded", {"roots": len(seen) - 1}
                )
            queue.append(u)
            out.append(u)
    return sorted(out, key=lambda r: (sum(r), r))

