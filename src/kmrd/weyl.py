"""Weyl-group elements, length-layered enumeration, inversion sets and roots.

An element is stored as its ShortLex-least reduced word together with the
integer matrix of its action on root coordinates (column j = coordinates
of w(alpha_j)) and the matrix of its inverse.  Words act by left
composition: word (i1, ..., ik) is the map v -> s_i1(s_i2(... s_ik(v))).
"""

import os
from dataclasses import dataclass

from . import linalg
from .gcm import GCMError, bilinear_form

DEFAULT_MAX_ELEMENTS = 200_000


def element_cap():
    value = os.environ.get("KMRD_MAX_ELEMENTS")
    return int(value) if value else DEFAULT_MAX_ELEMENTS


class CapExceeded(RuntimeError):
    """Enumeration hit its element cap; carries partial statistics."""

    def __init__(self, message, stats):
        super().__init__(message)
        self.stats = stats


@dataclass(frozen=True)
class WeylElem:
    word: tuple      # canonical ShortLex reduced word, 1-based generator indices
    matrix: tuple    # integer action on root coordinates
    inverse: tuple   # matrix of the inverse element

    @property
    def length(self):
        return len(self.word)


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


def identity_element(spec):
    eye = linalg.identity(spec.rank)
    return WeylElem(word=(), matrix=eye, inverse=eye)


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


def word_to_element(spec, word):
    """Build the (not necessarily canonical) element of a word."""
    m = linalg.identity(spec.rank)
    inv = m
    for i in word:
        m = _mul_right_simple(spec, m, i)
        inv = _mul_left_simple(spec, inv, i)
    return WeylElem(word=tuple(word), matrix=m, inverse=inv)


def apply(w, v):
    return linalg.mat_vec(w.matrix, v)


def enumerate_by_length(spec, max_length, max_elements=None):
    """All distinct elements of length <= max_length, as a list of layers.

    Layers are ShortLex-sorted; dedup is by action matrix, so the first
    word reaching a matrix is the canonical one.
    """
    if max_elements is None:
        max_elements = element_cap()
    layers = [[identity_element(spec)]]
    seen = {layers[0][0].matrix}
    count = 1
    for _ in range(max_length):
        frontier = []
        for elem in layers[-1]:
            for i in range(1, spec.rank + 1):
                m = _mul_right_simple(spec, elem.matrix, i)
                if m in seen:
                    continue
                seen.add(m)
                count += 1
                if count > max_elements:
                    raise CapExceeded(
                        f"element cap {max_elements} exceeded",
                        {"elements_enumerated": count - 1,
                         "layer_sizes": [len(l) for l in layers]},
                    )
                frontier.append(WeylElem(
                    word=elem.word + (i,),
                    matrix=m,
                    inverse=_mul_left_simple(spec, elem.inverse, i),
                ))
        if not frontier:
            break
        layers.append(frontier)
    return layers


def inversion_set_of_word(spec, word):
    """Inversion set from the reduced-word telescoping formula.

    For word (i1, ..., ik) the members are
    alpha_ik, s_ik(alpha_ik-1), ..., s_ik...s_i2(alpha_i1).
    """
    acc = linalg.identity(spec.rank)
    roots = []
    for pos in range(len(word) - 1, -1, -1):
        i = word[pos]
        roots.append(tuple(acc[r][i - 1] for r in range(spec.rank)))
        acc = _mul_right_simple(spec, acc, i)
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


def positive_real_roots_up_to_height(spec, max_height, max_roots=None):
    """All positive real roots of coordinate-sum <= max_height.

    Closure of the simple roots under simple reflections that stay positive
    and within the height bound; every real root of height <= H is reached
    because its descent path stays below H.
    """
    if max_height < 1:
        raise GCMError("max_height must be >= 1")
    if max_roots is None:
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

