"""Resumable batch survey over families of Cartan matrices, classifying
maximal parabolic subgroups by the bounded Property RD verdict.

Records are one JSON line per (matrix, theta) pair, written in canonical
matrix order so that reruns (at any worker count) produce byte-identical
output.  Timings never enter the record body.
"""

import contextlib
import functools
import hashlib
import itertools
import json
import operator
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, asdict

from . import criteria, weyl
from .gcm import (
    FiniteType,
    NotSymmetrizable,
    Singular,
    is_finite_type,
    validate_gcm,
)

# Seconds between checkpoints of run_survey.  Resume cuts the records file
# back to its checkpoint, so a hard kill costs about this much recomputed
# work at most, where a rename after every record took about a seventh of
# a rank-4 survey's time.
_CHECKPOINT_SECONDS = 1.0


@dataclass(frozen=True)
class SurveySpec:
    rank: int
    entry_min: int            # off-diagonal entries range over [entry_min, 0]
    max_length: int
    symmetric_only: bool = False

    def __post_init__(self):
        if not 2 <= self.rank <= 5:
            raise ValueError("rank must be between 2 and 5")
        if self.entry_min >= 0:
            raise ValueError("entry_min must be negative")
        if self.max_length < 0:
            raise ValueError(
                f"max_length must be >= 0, got {self.max_length}"
            )

    def digest(self):
        """The checkpoint's hash of the spec and the element cap, on which
        the records also depend."""
        payload = json.dumps(
            {**asdict(self), "max_elements": weyl.element_cap()},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()


@functools.cache
def _flat_permutations(n):
    """For each permutation p of range(n), a getter that takes a row-major
    flat n x n matrix to the flat matrix with entries m[p[i]][p[j]]."""
    return tuple(
        operator.itemgetter(*(p[i] * n + p[j] for i in range(n)
                              for j in range(n)))
        for p in itertools.permutations(range(n))
    )


def canonical_matrix(matrix):
    """Least representative under simultaneous row/column permutation.

    Rows have equal length, so comparing row-major flat tuples orders the
    matrices as comparing tuples of rows does."""
    n = len(matrix)
    if n < 2:  # an itemgetter of one index returns the entry, not a tuple
        return tuple(tuple(row) for row in matrix)
    flat = [x for row in matrix for x in row]
    least = min(permute(flat) for permute in _flat_permutations(n))
    return tuple(least[k:k + n] for k in range(0, n * n, n))


def _pair_options(entry_min, symmetric_only):
    yield (0, 0)
    for x in range(-1, entry_min - 1, -1):
        if symmetric_only:
            yield (x, x)
        else:
            for y in range(-1, entry_min - 1, -1):
                yield (x, y)


def _class_representatives(n, options):
    """Yield the least member of each class of candidate matrices under
    simultaneous row/column permutation, as a row-major flat tuple, in the
    order of each class's first candidate.

    A candidate has 2 on the diagonal and, on the t-th pair i < j of
    ``itertools.combinations(range(n), 2)``, the entries
    (m_ij, m_ji) = options[c_t]; its position in ``itertools.product``
    order is the base-len(options) number c_1 ... c_P.  ``options`` must be
    closed under (x, y) -> (y, x), so that every permuted candidate is a
    candidate.  The first unmarked position starts a class: the position
    of every member of its orbit is marked, one byte per candidate, so
    that no member starts a class again, and its least member, built from
    the permutation getters, is the representative ``canonical_matrix``
    would give.

    Permuting by p moves the entries of source pair (i, j) to the pair
    (p^-1(i), p^-1(j)), transposed when p reverses their order.  So
    ``tables[p][s][d]`` is what digit d at source pair s adds to the
    position of the permuted candidate: the target pair's place value
    times d, or times the index of the transposed option, and a member's
    position is the sum of its table entries at the class's digits."""
    pairs = list(itertools.combinations(range(n), 2))
    last = len(pairs) - 1
    slot = {pair: t for t, pair in enumerate(pairs)}
    base = len(options)
    index = {option: c for c, option in enumerate(options)}
    straight = range(base)
    transposed = [index[y, x] for x, y in options]
    tables = []
    for p in itertools.permutations(range(n)):
        inverse = [0] * n
        for a, i in enumerate(p):
            inverse[i] = a
        table = []
        for i, j in pairs:
            a, b = inverse[i], inverse[j]
            if a < b:
                weight, digit = base ** (last - slot[a, b]), straight
            else:
                weight, digit = base ** (last - slot[b, a]), transposed
            table.append([weight * d for d in digit])
        tables.append(table)
    permutations = _flat_permutations(n)
    # Marked by position, never by a set of candidate tuples: in CPython
    # hash(-1) == hash(-2), so tuples whose entries differ only by
    # -1 <-> -2 all share one hash and such a set degrades to long
    # collision chains.
    marked = bytearray(base ** len(pairs))
    pos = marked.find(0)
    while pos >= 0:
        digits = [0] * len(pairs)
        c = pos
        for t in range(last, -1, -1):
            c, digits[t] = divmod(c, base)
        for table in tables:
            marked[sum(map(operator.getitem, table, digits))] = 1
        flat = [2 if i == j else 0 for i in range(n) for j in range(n)]
        for (i, j), d in zip(pairs, digits):
            flat[i * n + j], flat[j * n + i] = options[d]
        yield min(permute(flat) for permute in permutations)
        pos = marked.find(0, pos + 1)


def _validated_family(spec: SurveySpec):
    """The family as (CartanSpec, thetas) pairs, in canonical matrix order."""
    n = spec.rank
    options = list(_pair_options(spec.entry_min, spec.symmetric_only))
    candidates = len(options) ** (n * (n - 1) // 2)
    cap = weyl.element_cap()
    if candidates > cap:
        raise weyl.CapExceeded(
            f"survey family has {candidates} candidate matrices, "
            f"over the cap {cap}",
            {"candidate_matrices": candidates},
        )
    out = []
    for flat in _class_representatives(n, options):
        canon = tuple(flat[k:k + n] for k in range(0, n * n, n))
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


def enumerate_family(spec: SurveySpec):
    """Deterministic, permutation-deduplicated family of validated
    infinite-type GCMs matching the survey spec."""
    return [(cs.matrix, thetas) for cs, thetas in _validated_family(spec)]


def _run_item(args):
    """One record.  An item whose ball passes the element cap is recorded
    as CAP_EXCEEDED, with the cap as ``elements_enumerated`` and without
    the layer sizes, which can run to 10^5 entries."""
    cs, theta, max_length = args
    record = {"matrix": [list(r) for r in cs.matrix], "theta": list(theta)}
    try:
        report = criteria.check_rd(cs, theta, max_length)
    except weyl.CapExceeded as exc:
        return record | {
            "verdict": "CAP_EXCEEDED",
            "witness": None,
            "d_sup": None,
            "stats": {
                "elements_enumerated": exc.stats["elements_enumerated"]
            },
        }
    return record | {
        "verdict": report.verdict,
        "witness": report.witnesses[0] if report.witnesses else None,
        "d_sup": (
            criteria._frac(report.d_sup) if report.d_sup is not None else None
        ),
        "stats": report.stats,
    }


def _checkpoint_path(out_path):
    return out_path + ".checkpoint"


def _read_checkpoint(out_path, digest, total):
    """The record count of out_path's checkpoint.  Anything but a JSON
    object with spec_hash ``digest`` and an int count in 0..total is
    refused with ValueError, before the records file is touched."""
    path = _checkpoint_path(out_path)
    if not os.path.exists(path):
        raise ValueError(f"no checkpoint found at {path}")
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or data.get("spec_hash") != digest:
        raise ValueError("checkpoint does not match the survey parameters")
    completed = data.get("completed")
    if type(completed) is not int or not 0 <= completed <= total:
        raise ValueError(
            f"checkpoint has completed={completed!r}, not an int in 0..{total}"
        )
    return completed


def _write_checkpoint(out_path, digest, completed):
    """Write a temp file beside the checkpoint, then rename it over the
    checkpoint, so a crash never leaves a half-written checkpoint."""
    path = _checkpoint_path(out_path)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"spec_hash": digest, "completed": completed}, fh)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _truncate_records(out_path, completed):
    """Cut the records file back to the ``completed`` lines its checkpoint
    counts.  A checkpoint counts only lines already flushed, and records
    are written on after it, so a crash leaves extra lines; fewer lines is
    an error."""
    with open(out_path, "r+b") as fh:
        lines = keep = 0
        for line in fh:
            lines += 1
            if lines <= completed:
                keep += len(line)
        if lines < completed:
            raise ValueError(
                f"checkpoint says {completed} records but {out_path} has "
                f"only {lines} lines"
            )
        fh.truncate(keep)


def run_survey(spec: SurveySpec, out_path, resume=False, jobs=1):
    """Stream survey records to out_path (JSONL).  Items are processed in
    canonical order, so output is deterministic for any job count; with
    resume=True, completed records are skipped and new ones appended.

    At most ``jobs`` worker processes run, and never more than the pending
    items or the CPUs; with one worker the items run in this process.

    The records are flushed and checkpointed once ``_CHECKPOINT_SECONDS``
    have passed since the last checkpoint, and again at the end or when an
    item raises, unless that count's checkpoint was the last one tried: a
    failed checkpoint write is not retried, so the previous one stands."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    items = [
        (cs, theta, spec.max_length)
        for cs, thetas in _validated_family(spec)
        for theta in thetas
    ]
    digest = spec.digest()
    skip = 0
    if resume:
        skip = _read_checkpoint(out_path, digest, len(items))
        _truncate_records(out_path, skip)
    pending = items[skip:]
    mode = "a" if resume else "w"
    completed = skip
    tried = None
    with open(out_path, mode, encoding="utf-8") as fh:

        def checkpoint():
            nonlocal tried
            tried = completed
            fh.flush()
            _write_checkpoint(out_path, digest, completed)

        workers = min(jobs, len(pending), os.cpu_count() or 1)
        if workers > 1:
            executor = ProcessPoolExecutor(max_workers=workers)
            results = executor.map(_run_item, pending)
        else:
            executor = None
            results = map(_run_item, pending)
        try:
            due = time.monotonic() + _CHECKPOINT_SECONDS
            for record in results:
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")
                completed += 1
                if time.monotonic() >= due:
                    checkpoint()
                    due = time.monotonic() + _CHECKPOINT_SECONDS
        finally:
            try:
                if tried != completed:
                    checkpoint()
            finally:
                if executor is not None:
                    executor.shutdown()
    return completed
