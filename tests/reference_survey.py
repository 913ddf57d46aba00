"""Test-only reference: the survey family generation as it stood before
classes were found by marking each orbit once, kept verbatim below this
docstring (with the pair options it relied on) so that the differential
tests can compare the class order, representatives and thetas against
it.  It canonicalises every candidate with ``canonical_matrix``, which
stays public in ``kmrd.survey``.

``_class_representatives`` is the orbit marking as it stood before each
member's product position was read from per-permutation digit tables,
also kept verbatim, so that the differential tests can compare the
generated sequence member by member.  Not part of the package.
"""

import itertools
import operator

from kmrd import weyl
from kmrd.gcm import (
    FiniteType,
    NotSymmetrizable,
    Singular,
    is_finite_type,
    validate_gcm,
)
from kmrd.survey import SurveySpec, _flat_permutations, canonical_matrix


def _pair_options(entry_min, symmetric_only):
    yield (0, 0)
    for x in range(-1, entry_min - 1, -1):
        if symmetric_only:
            yield (x, x)
        else:
            for y in range(-1, entry_min - 1, -1):
                yield (x, y)


def _validated_family(spec: SurveySpec):
    """The family as (CartanSpec, thetas) pairs, in canonical matrix order."""
    n = spec.rank
    pairs = list(itertools.combinations(range(n), 2))
    k = -spec.entry_min
    candidates = (1 + (k if spec.symmetric_only else k * k)) ** len(pairs)
    cap = weyl.element_cap()
    if candidates > cap:
        raise weyl.CapExceeded(
            f"survey family has {candidates} candidate matrices, "
            f"over the cap {cap}",
            {"candidate_matrices": candidates},
        )
    seen = set()
    out = []
    for choice in itertools.product(
        list(_pair_options(spec.entry_min, spec.symmetric_only)), repeat=len(pairs)
    ):
        matrix = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for (i, j), (x, y) in zip(pairs, choice):
            matrix[i][j] = x
            matrix[j][i] = y
        canon = canonical_matrix(matrix)
        if canon in seen:
            continue
        seen.add(canon)
        try:
            cs = validate_gcm(canon)
        except (NotSymmetrizable, Singular, FiniteType):
            continue
        thetas = [
            tuple(sorted(set(range(1, n + 1)) - {i}))
            for i in range(1, n + 1)
            if is_finite_type(cs, set(range(1, n + 1)) - {i})
        ]
        if not thetas:
            continue
        out.append((cs, thetas))
    out.sort(key=lambda item: item[0].matrix)
    return out


def _class_representatives(n, options):
    """Yield the least member of each class of candidate matrices under
    simultaneous row/column permutation, as a row-major flat tuple, in the
    order of each class's first candidate.

    A candidate has 2 on the diagonal and, on the t-th pair i < j of
    ``itertools.combinations(range(n), 2)``, the entries
    (m_ij, m_ji) = options[c_t]; its position in ``itertools.product``
    order is the base-len(options) number c_1 ... c_P.  ``options`` must be
    closed under (x, y) -> (y, x), so that every permuted candidate is a
    candidate.  The first unmarked position starts a class: its orbit is
    built once from the permutation getters, its least member is the
    representative ``canonical_matrix`` would give, and the position of
    every member is marked, one byte per candidate, so that no member
    starts a class again."""
    pairs = list(itertools.combinations(range(n), 2))
    base = len(options)
    index = {option: c for c, option in enumerate(options)}
    # the flat positions of (m_ij, m_ji), pair after pair
    entries = operator.itemgetter(
        *(k for i, j in pairs for k in (i * n + j, j * n + i))
    )
    permutations = _flat_permutations(n)
    # Marked by position, never by a set of candidate tuples: in CPython
    # hash(-1) == hash(-2), so tuples whose entries differ only by
    # -1 <-> -2 all share one hash and such a set degrades to long
    # collision chains.
    marked = bytearray(base ** len(pairs))
    pos = marked.find(0)
    while pos >= 0:
        flat = [2 if i == j else 0 for i in range(n) for j in range(n)]
        c = pos
        for i, j in reversed(pairs):
            c, d = divmod(c, base)
            flat[i * n + j], flat[j * n + i] = options[d]
        orbit = [permute(flat) for permute in permutations]
        for member in orbit:
            it = iter(entries(member))
            c = 0
            for pair in zip(it, it):
                c = c * base + index[pair]
            marked[c] = 1
        yield min(orbit)
        pos = marked.find(0, pos + 1)
