"""The survey's class generation against the frozen per-candidate
canonicalisation in ``reference_survey`` and against Burnside's lemma,
and one candidate's orbit members against its permuted matrices."""

import hashlib
import itertools
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

import reference_survey
from kmrd import survey, weyl
from kmrd.survey import SurveySpec, canonical_matrix, run_survey

# Records of ``kmrd survey --rank 5 --entry-min -2 --symmetric-only
# --max-length 2``, pinned from the frozen reference; the CI "Survey reach"
# step reads this value.
RANK5_SYMMETRIC_RECORDS = 191
# ``_family_digest`` of the same family from the frozen reference, measured
# once, since the reference canonicalises each of its 59 049 candidates
# (3-5 s); the smaller families run the reference live.
RANK5_SYMMETRIC_DIGEST = (
    "c1dd4472ee145433323951be2952a52ff45f32e329ea09eef16b9e9bd640418a"
)


def _candidates(rank, entry_min, symmetric_only):
    options = 1 + (-entry_min if symmetric_only else entry_min ** 2)
    return options ** (rank * (rank - 1) // 2)


SPECS = [
    SurveySpec(rank=rank, entry_min=entry_min, max_length=2,
               symmetric_only=symmetric_only)
    for rank in (2, 3, 4)
    for entry_min in (-1, -2, -3)
    for symmetric_only in (False, True)
    if _candidates(rank, entry_min, symmetric_only) <= weyl.element_cap()
] + [
    SurveySpec(rank=5, entry_min=-1, max_length=2, symmetric_only=s)
    for s in (False, True)
]


def _spec_id(spec):
    return (f"r{spec.rank}e{spec.entry_min}"
            f"{'sym' if spec.symmetric_only else ''}")


def _family_digest(family):
    """sha256 over the matrix, symmetrizer, adjugate, det, Gram matrix and
    thetas of every item of a validated family, in order."""
    text = json.dumps([
        [cs.matrix, cs.symmetrizer, cs.adjugate, cs.det, cs.gram, thetas]
        for cs, thetas in family
    ])
    return hashlib.sha256(text.encode()).hexdigest()


def _options(spec):
    return list(survey._pair_options(spec.entry_min, spec.symmetric_only))


def _all_candidates(n, options):
    """Every candidate matrix as rows, in itertools.product order."""
    pairs = list(itertools.combinations(range(n), 2))
    for choice in itertools.product(options, repeat=len(pairs)):
        matrix = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for (i, j), (x, y) in zip(pairs, choice):
            matrix[i][j] = x
            matrix[j][i] = y
        yield matrix


def _burnside_count(n, options):
    """The number of classes: the mean, over S_n, of the number of
    candidates a permutation fixes.

    A candidate fixed by p is constant along each orbit of ordered pairs
    (i, j) -> (p(i), p(j)).  Follow the unordered pair {i, j} until it
    comes back: if it comes back as (i, j), its entries (x, y) are free;
    if as (j, i), then x = y.  Either choice fixes the rest of the orbit."""
    symmetric = sum(1 for x, y in options if x == y)
    total = 0
    for p in itertools.permutations(range(n)):
        fixed = 1
        seen = set()
        for i, j in itertools.combinations(range(n), 2):
            if (i, j) in seen:
                continue
            a, b = i, j
            while True:
                seen.add((min(a, b), max(a, b)))
                a, b = p[a], p[b]
                if {a, b} == {i, j}:
                    break
            fixed *= len(options) if (a, b) == (i, j) else symmetric
        total += fixed
    classes, rest = divmod(total, math.factorial(n))
    assert rest == 0
    return classes


@pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
def test_family_matches_reference(spec):
    assert survey._validated_family(spec) == reference_survey._validated_family(
        spec
    )


@pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
def test_class_count_is_burnside(spec):
    options = _options(spec)
    reps = list(survey._class_representatives(spec.rank, options))
    assert len(reps) == _burnside_count(spec.rank, options)


@pytest.mark.parametrize(
    "spec", [s for s in SPECS if s.rank <= 3 or s.entry_min == -1],
    ids=_spec_id,
)
def test_representatives_are_canonical_matrices(spec):
    # The classes in the order their first candidate comes, each the
    # canonical_matrix of that candidate.
    n = spec.rank
    options = _options(spec)
    expected = list(dict.fromkeys(
        canonical_matrix(m) for m in _all_candidates(n, options)
    ))
    reps = [
        tuple(flat[k:k + n] for k in range(0, n * n, n))
        for flat in survey._class_representatives(n, options)
    ]
    assert reps == expected


@pytest.mark.parametrize(
    "spec",
    list(dict.fromkeys(SPECS + [
        SurveySpec(rank=4, entry_min=-2, max_length=2),
        SurveySpec(rank=5, entry_min=-2, max_length=2, symmetric_only=True),
    ])),
    ids=_spec_id,
)
def test_class_marking_matches_reference(spec):
    # The digit-table marking against the frozen per-member position loop:
    # the same representatives, in the same order.
    options = _options(spec)
    assert list(survey._class_representatives(spec.rank, options)) == list(
        reference_survey._class_representatives(spec.rank, options)
    )


def test_survey_never_canonicalises(tmp_path, monkeypatch):
    calls = []

    def counting_canonical(matrix):
        calls.append(matrix)
        return canonical_matrix(matrix)

    monkeypatch.setattr(survey, "canonical_matrix", counting_canonical)
    spec = SurveySpec(rank=3, entry_min=-2, max_length=3)
    assert run_survey(spec, str(tmp_path / "records.jsonl")) > 0
    assert calls == []


def test_survey_counts_each_ball_once(tmp_path, monkeypatch):
    spec = SurveySpec(rank=3, entry_min=-2, max_length=3)
    sizes = []

    def counting_parabolics(cs, max_roots):
        sizes.append(cs.matrix)
        return real_parabolics(cs, max_roots)

    # _finite_parabolics runs only on a miss of the memoised growth series
    real_parabolics = weyl._finite_parabolics
    weyl._recurrence.cache_clear()
    monkeypatch.setattr(weyl, "_finite_parabolics", counting_parabolics)
    family = survey.enumerate_family(spec)
    records = run_survey(spec, str(tmp_path / "records.jsonl"))
    assert records == sum(len(thetas) for _, thetas in family) > len(family)
    assert weyl._recurrence.cache_info().misses == len(family)
    assert sizes == [matrix for matrix, _ in family]


def test_rank5_symmetric_reach_matches_reference():
    spec = SurveySpec(rank=5, entry_min=-2, max_length=2, symmetric_only=True)
    family = survey._validated_family(spec)
    assert sum(len(thetas) for _, thetas in family) == RANK5_SYMMETRIC_RECORDS
    assert _family_digest(family) == RANK5_SYMMETRIC_DIGEST
    assert len(list(survey._class_representatives(5, _options(spec)))) == (
        _burnside_count(5, _options(spec))
    )


# Every family of rank 2-5 with entries down to -7 that is under the cap.
FAMILIES = [
    (rank, entry_min, symmetric_only)
    for rank in (2, 3, 4, 5)
    for entry_min in range(-1, -8, -1)
    for symmetric_only in (False, True)
    if _candidates(rank, entry_min, symmetric_only) <= weyl.element_cap()
]


def _candidate_at(n, options, pos):
    """The candidate at a position in itertools.product order, as rows."""
    pairs = list(itertools.combinations(range(n), 2))
    matrix = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in reversed(pairs):
        pos, c = divmod(pos, len(options))
        matrix[i][j], matrix[j][i] = options[c]
    return matrix


def _position(matrix, options):
    """The position of a candidate in itertools.product order."""
    index = {option: c for c, option in enumerate(options)}
    pos = 0
    for i, j in itertools.combinations(range(len(matrix)), 2):
        pos = pos * len(options) + index[matrix[i][j], matrix[j][i]]
    return pos


@settings(max_examples=150, deadline=None)
@given(family=st.sampled_from(FAMILIES), data=st.data())
def test_orbit_members_match_brute_force(family, data):
    # One candidate's members against its orbit built by permuting rows and
    # columns: the least member decodes to canonical_matrix, and the
    # members' positions are the orbit's positions.
    n, entry_min, symmetric_only = family
    options = list(survey._pair_options(entry_min, symmetric_only))
    size, members, decode = survey._orbit_members(n, options)
    assert size == _candidates(n, entry_min, symmetric_only)
    pos = data.draw(st.integers(min_value=0, max_value=size - 1))
    candidate = _candidate_at(n, options, pos)
    assert _position(candidate, options) == pos
    orbit = members(pos)
    assert len(orbit) == math.factorial(n)
    least = canonical_matrix(candidate)
    assert decode(min(orbit) // size) == tuple(x for row in least for x in row)
    assert {q % size for q in orbit} == {
        _position([[candidate[p[i]][p[j]] for j in range(n)]
                   for i in range(n)], options)
        for p in itertools.permutations(range(n))
    }
