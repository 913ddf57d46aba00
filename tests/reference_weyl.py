"""Test-only reference: the matrix-based Weyl-ball enumeration as it stood
before the ball became a walk on the orbit W.rho, kept verbatim (with the
element type and the two matrix steps it relied on) so that the
differential tests can compare every layer against it; and the closure of
the positive real roots in root coordinates as it stood before the roots
came from the growth series' raising closure in weight coordinates, also
kept verbatim; and the finite parabolics of the growth series as they
stood before the node subsets were grown from the survivors only, kept
verbatim over the package's ``_closure``.  Not part of the package.
"""

import itertools
from dataclasses import dataclass

from kmrd import linalg
from kmrd.gcm import GCMError
from kmrd.weyl import CapExceeded, _closure, element_cap, reflect_simple


@dataclass(frozen=True)
class WeylElem:
    word: tuple      # canonical ShortLex reduced word, 1-based generator indices
    matrix: tuple    # integer action on root coordinates
    inverse: tuple   # matrix of the inverse element

    @property
    def length(self):
        return len(self.word)


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


def positive_real_roots_up_to_height(spec, max_height):
    """All positive real roots of coordinate-sum <= max_height.

    Closure of the simple roots under simple reflections that stay positive
    and within the height bound; every real root of height <= H is reached
    because its descent path stays below H.  The simple roots count
    against the root cap like every other root.
    """
    if max_height < 1:
        raise GCMError("max_height must be >= 1")
    max_roots = element_cap()
    seen = set()
    queue = [spec.simple_root(i) for i in range(1, spec.rank + 1)]
    while queue:
        v = queue.pop()
        if v in seen:
            continue
        if len(seen) == max_roots:
            raise CapExceeded(
                f"root cap {max_roots} exceeded", {"roots": max_roots}
            )
        seen.add(v)
        for i in range(1, spec.rank + 1):
            u = reflect_simple(spec, i, v)
            if u not in seen and all(x >= 0 for x in u) and sum(u) <= max_height:
                queue.append(u)
    return sorted(seen, key=lambda r: (sum(r), r))


def _finite_parabolics(spec, max_roots):
    """(|J|, heights of the positive roots of W_J) for the subsets J of
    the nodes whose W_J is finite with at most max_roots positive roots,
    each of the 2^n - 1 subsets closed on its own."""
    alphas = list(zip(*spec.matrix))
    out = []
    for k in range(1, spec.rank + 1):
        for nodes in itertools.combinations(range(spec.rank), k):
            roots = _closure(alphas, nodes, min(max_roots, k * max(k, 15)))
            if roots is not None:
                out.append((k, [height for _, height in roots]))
    return out
