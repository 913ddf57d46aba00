"""Weyl-group elements, length-layered enumeration, inversion sets and roots.

An element is stored as its ShortLex-least reduced word together with
mu = w^-1 rho in integer weight coordinates: a weight lambda has the
coordinates <lambda, alpha_i^vee>, i = 1..n, so rho = (1, ..., 1) and the
simple root alpha_i is column i of the Cartan matrix.  Words act by left
composition: word (i1, ..., ik) is the map v -> s_i1(s_i2(... s_ik(v))).
The integer matrix of w on root coordinates (column j = coordinates of
w(alpha_j)) and the matrix of w^-1 are filled when the element is built,
one step from the parent's in an enumerated ball.

One orbit walk, ``orbit_walk``, enumerates both the Weyl ball, as the
orbit W.rho, and the minimal coset representatives W^theta, as the orbit
of a weight whose stabiliser is W_theta.  It takes the Cartan matrix, not
a validated spec, so the same walk serves a Levi sub-diagram A_J, even
a finite or affine one, which ``validate_gcm`` refuses.  Its
nodes are (word, vecs, parent): the ShortLex-least word of w, the walked
weights moved by w^-1, and the position of the node of word[:-1] in the
previous layer, by which a caller hands each node its parent's state
without slicing or hashing a word.  ``orbit_walk`` has no cap.  On a
validated spec it is reached through ``walk``, the one counted walk,
which first counts the Weyl ball layer by layer from its growth series
(``growth_series``) without walking it: that count is the one check of
the element cap, made before any layer is walked.  One closure of the
simple roots under the reflections that raise the height, ``_closure``,
gives both the positive real roots up to a height and the roots of each
finite W_J of the growth series.
"""

import functools
import operator
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
    """A Weyl-group element: its word, mu = w^-1 rho, and the matrices of
    w and of w^-1."""

    __slots__ = ("word", "mu", "matrix", "inverse")

    def __init__(self, word, mu, matrix, inverse):
        self.word = word  # canonical ShortLex reduced word, 1-based generator indices
        self.mu = mu      # w^-1 rho in weight coordinates
        self.matrix = matrix    # integer action of w on root coordinates
        self.inverse = inverse  # matrix of w^-1

    def __repr__(self):
        return f"WeylElem(word={self.word}, mu={self.mu})"

    @property
    def length(self):
        return len(self.word)


def reflect_simple(spec, i, v):
    """s_i(v) = v - <v, alpha_i^vee> alpha_i, for a tuple v in root
    coordinates: only coordinate i changes, by <v, alpha_i^vee>, which is
    row i of A times v."""
    coeff = sum(map(operator.mul, spec.matrix[i - 1], v))
    return v[:i - 1] + (v[i - 1] - coeff,) + v[i:]


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
    word = tuple(word)
    mu = rho(spec)
    for i in word:
        mu = reflect_weight(spec, i, mu)
    return WeylElem(word, mu, _fold(spec, word, _mul_right_simple),
                    _fold(spec, word, _mul_left_simple))


def apply(w, v):
    return linalg.mat_vec(w.matrix, v)


def check_max_length(max_length):
    """Refuse a negative length bound, under which every scan would pass
    vacuously."""
    if max_length < 0:
        raise GCMError(f"max_length must be >= 0, got {max_length}")


def orbit_walk(matrix, max_length, start):
    """Walk the orbit of the weight start[0] in integer weight coordinates,
    under the Weyl group of the Cartan matrix given as a tuple of rows.

    Yields the layers of lengths 1, 2, ..., max_length, stopping at the
    first empty one.  A layer is a list of nodes (word, vecs, parent) in
    ShortLex order, with vecs[k] = w^-1 start[k] and parent the position,
    in the previous layer, of the node of word[:-1] (0, the identity, for
    the first layer), so a caller that keeps a list per layer reads the
    parent's entry by position.

    The walk reads nothing but the matrix, so it runs as well on a
    sub-diagram that ``validate_gcm`` refuses, such as the finite or
    affine A_J of a Levi support J.  It has no element cap: on a
    validated spec, ``walk`` is the counted entry to it.  The orbit of a
    finite sub-diagram bounds itself, as the walk ends at its first empty
    layer.

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

    s_i subtracts v_i times column i of A, so each candidate child copies
    vecs[0] once into a list and changes it at the nonzero entries of that
    column only.  The other vectors are moved the same way, by their own
    coordinate i, and only once the child is new; a vector whose
    coordinate i is 0 is fixed by s_i and passed on as it is.
    """
    check_max_length(max_length)
    # alpha_i in weight coordinates (column i of A) by its nonzero entries
    alphas = [
        [(j, row[i]) for j, row in enumerate(matrix) if row[i]]
        for i in range(len(matrix))
    ]
    layer = [((), tuple(start), None)]
    for _ in range(max_length):
        children = {}
        for parent, (word, vecs, _) in enumerate(layer):
            head = vecs[0]
            rest = vecs[1:]
            for i, c in enumerate(head):
                if c <= 0:
                    continue
                alpha = alphas[i]
                child = list(head)
                for j, a in alpha:
                    child[j] -= c * a
                child = tuple(child)
                if child in children:
                    continue
                moved = [child]
                for v in rest:
                    d = v[i]
                    if d:  # s_i fixes a vector whose coordinate i is 0
                        v = list(v)
                        for j, a in alpha:
                            v[j] -= d * a
                        v = tuple(v)
                    moved.append(v)
                children[child] = (word + (i + 1,), tuple(moved), parent)
        if not children:
            return
        layer = list(children.values())
        yield layer


def walk(spec, max_length, start):
    """(sizes, layers): the Weyl ball's layer sizes from ``growth_series``
    and the ``orbit_walk`` on spec.matrix from start.  It is the one
    counted walk: every orbit walked on a validated spec lies inside the
    ball, and ``growth_series`` refuses a bound past the element cap
    before any layer is walked."""
    sizes = growth_series(spec, max_length)
    return sizes, orbit_walk(spec.matrix, max_length, start)


def enumerate_by_length(spec, max_length):
    """All distinct elements of length <= max_length, as a list of layers,
    each in ShortLex order: the ``walk`` on the orbit W.rho.  Both
    matrices step by the last letter from the parent's, the element of
    word[:-1] (ShortLex-least words are closed under prefixes), read from
    the previous layer at the node's parent position."""
    _, walked = walk(spec, max_length, (rho(spec),))
    layers = [[word_to_element(spec, ())]]
    for nodes in walked:
        parents = layers[-1]
        layer = []
        for word, (mu,), p in nodes:
            parent, i = parents[p], word[-1]
            layer.append(WeylElem(
                word, mu,
                _mul_right_simple(spec, parent.matrix, i),
                _mul_left_simple(spec, parent.inverse, i),
            ))
        layers.append(layer)
    return layers


def growth_series(spec, max_length):
    """The layer sizes [1, |W_1|, ..., |W_L|], L = max_length, of the
    Weyl ball, where W_k holds the elements of length k.  It is the one
    check of the element cap, which ``walk`` makes before it walks.

    Steinberg's formula (Humphreys, Reflection Groups and Coxeter Groups,
    5.12) gives, for infinite W, the growth series W(t) as the inverse of
    the sum of (-1)^|J| t^N_J / W_J(t) over the subsets J of the nodes
    with W_J finite, N_J being the number of positive roots of W_J.
    Macdonald's formula (Math. Ann. 199, 1972) gives
    1 / W_J(t) = prod (1 - t^h) / (1 - t^(h+1)) over the heights h of
    those roots.  A term with N_J > L is 0 mod t^(L+1).  ``validate_gcm``
    rejects finite type, so W is infinite and no layer is empty.

    The cap is read on every call and never memoised.  Each layer costs
    one step of the recurrence R * W = Q of ``_recurrence``, whatever L
    is, so a huge L stops at the layer that crosses the cap.  Past the
    cap, CapExceeded carries the cap as ``elements_enumerated`` and the
    sizes of the whole layers before the one that crosses it."""
    max_elements = element_cap()
    check_max_length(max_length)
    q, steps = _recurrence(spec, max_length)
    sizes = []
    total = 0
    for k in range(max_length + 1):
        size = q[k] if k < len(q) else 0
        size -= sum(x * sizes[k - i] for i, x in steps if i <= k)
        total += size
        if total > max_elements:
            raise CapExceeded(
                f"element cap {max_elements} exceeded",
                {"elements_enumerated": max_elements,
                 "layer_sizes": sizes},
            )
        sizes.append(size)
    return sizes


def _finite_parabolics(spec, max_roots):
    """(|J|, heights of the positive roots of W_J) for the subsets J of
    the nodes whose W_J is finite with at most max_roots positive roots.

    The positive roots of W_J are the ``_closure`` of its simple roots
    under the simple reflections of J that raise the height: s_j adds
    -c alpha_j to a root when c = <root, alpha_j^vee> < 0.  Roots are kept
    in weight coordinates, where c is coordinate j and alpha_j is column j
    of A; A is nonsingular, so these coordinates determine the root.

    A closure that passes max_roots, or k * max(k, 15) for |J| = k, is cut
    off: either W_J has more than max_roots positive roots, or it is
    infinite, as an irreducible finite root system of rank k has at most
    k * max(k, 15) positive roots (E8 has 8 * 15, B_k and C_k have k^2, the
    most of the classical types) and a sum of them at most the sum of the
    bounds.

    Either way every superset of J is cut off too, as W_J lies in it, so
    the subsets are grown one node at a time from those that survive, each
    by the nodes above its largest: every subset that survives is reached,
    in the order of ``itertools.combinations``, and the work follows the
    survivors, not the 2^n - 1 subsets."""
    alphas = list(zip(*spec.matrix))
    out = []
    layer = [()]
    for k in range(1, spec.rank + 1):
        bound = min(max_roots, k * max(k, 15))
        grown = []
        for nodes in layer:
            for i in range(nodes[-1] + 1 if nodes else 0, spec.rank):
                roots = _closure(alphas, nodes + (i,), bound)
                if roots is not None:
                    grown.append(nodes + (i,))
                    out.append((k, [height for _, height in roots]))
        layer = grown
    return out


def _closure(alphas, nodes, bound, max_height=None):
    """The closure of the simple roots of nodes under the simple
    reflections of nodes that raise the height, as a list of (weight
    coordinates, height), or None once it has more than bound roots.  With
    max_height, a raise that would go above it is skipped."""
    roots = [(alphas[i], 1) for i in nodes]
    if len(roots) > bound:
        return None
    seen = {root for root, _ in roots}
    for root, height in roots:  # grows while it is read
        for j in nodes:
            c = root[j]
            if c < 0:
                if max_height is not None and height - c > max_height:
                    continue
                up = tuple([x - c * a for x, a in zip(root, alphas[j])])
                if up not in seen:
                    if len(roots) == bound:
                        return None
                    seen.add(up)
                    roots.append((up, height - c))
    return roots


def _times_binomial(series, a):
    """series * (1 - t^a), in place, truncated at its length."""
    for d in range(len(series) - 1, a - 1, -1):
        series[d] -= series[d - a]


def _over_binomial(series, a):
    """series / (1 - t^a), in place, truncated at its length."""
    for d in range(a, len(series)):
        series[d] += series[d - a]


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
    strictly decreases, so this terminates.  Such an index always exists:
    in the loop v >= 0, and (v|v) > 0 as the reflections keep the form, so
    v != 0, and (v|v) = sum_j v_j d_j (Av)_j gives some j with (Av)_j > 0.
    """
    if any(not isinstance(x, int) for x in v):
        raise GCMError("is_real_root expects integer coordinates")
    v = tuple(v)
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
            i for i in range(1, spec.rank + 1)
            if sum(spec.matrix[i - 1][j] * v[j] for j in range(spec.rank)) > 0
        )
        v = reflect_simple(spec, desc, v)
        if any(x < 0 for x in v):
            return False


def positive_real_roots_up_to_height(spec, max_height):
    """All positive real roots of coordinate-sum <= max_height, sorted by
    height and then by root coordinates.

    They are the ``_closure`` of the simple roots over all nodes, cut at
    max_height.  A positive real root beta that is not simple has some j
    with <beta, alpha_j^vee> > 0, as (beta|beta) > 0 is the sum of its
    coefficients times the (beta|alpha_j); s_j beta is then a positive
    root of smaller height, so every root of height <= H is reached by
    raises that stay at or below H (Kac, Infinite-dimensional Lie
    algebras, ch. 5).  The simple roots count against the root cap like
    every other root.  A root mu in weight coordinates is A beta, so
    beta = adj(A) mu / det A, an exact division."""
    if max_height < 1:
        raise GCMError("max_height must be >= 1")
    max_roots = element_cap()
    roots = _closure(
        list(zip(*spec.matrix)), range(spec.rank), max_roots, max_height
    )
    if roots is None:
        raise CapExceeded(
            f"root cap {max_roots} exceeded", {"roots": max_roots}
        )
    return sorted(
        (tuple([sum([a * x for a, x in zip(row, mu)]) // spec.det
                for row in spec.adjugate])
         for mu, _ in roots),
        key=lambda r: (sum(r), r),
    )
