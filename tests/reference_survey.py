"""Test-only reference: the survey family generation as it stood before
classes were found by marking each orbit once, kept verbatim below this
docstring (with the pair options it relied on) so that the differential
tests can compare the class order, representatives and thetas against
it.  It canonicalises every candidate with ``canonical_matrix``, which
stays public in ``kmrd.survey``.  Not part of the package.
"""

import itertools

from kmrd import weyl
from kmrd.gcm import (
    FiniteType,
    NotSymmetrizable,
    Singular,
    is_finite_type,
    validate_gcm,
)
from kmrd.survey import SurveySpec, canonical_matrix


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
