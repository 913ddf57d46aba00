"""Resumable batch survey over families of Cartan matrices, classifying
maximal parabolic subgroups by the bounded Property RD verdict.

Records are one JSON line per (matrix, theta) pair, written in canonical
matrix order so that reruns (at any worker count) produce byte-identical
output.  Timings never enter the record body.
"""

import contextlib
import hashlib
import itertools
import json
import os
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


@dataclass(frozen=True)
class SurveySpec:
    rank: int
    entry_min: int            # off-diagonal entries range over [entry_min, 0]
    max_length: int
    symmetric_only: bool = False
    require_nonsingular: bool = True

    def __post_init__(self):
        if not 2 <= self.rank <= 5:
            raise ValueError("rank must be between 2 and 5")
        if self.entry_min >= 0:
            raise ValueError("entry_min must be negative")

    def digest(self):
        payload = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()


def canonical_matrix(matrix):
    """Least representative under simultaneous row/column permutation."""
    n = len(matrix)
    return min(
        tuple(tuple(matrix[p[i]][p[j]] for j in range(n)) for i in range(n))
        for p in itertools.permutations(range(n))
    )


def _pair_options(entry_min, symmetric_only):
    yield (0, 0)
    for x in range(-1, entry_min - 1, -1):
        if symmetric_only:
            yield (x, x)
        else:
            for y in range(-1, entry_min - 1, -1):
                yield (x, y)


def enumerate_family(spec: SurveySpec):
    """Deterministic, permutation-deduplicated family of validated
    infinite-type GCMs matching the survey spec."""
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
        out.append((canon, thetas))
    out.sort(key=lambda item: item[0])
    return out


def _run_item(args):
    matrix, theta, max_length = args
    cs = validate_gcm(matrix)
    report = criteria.check_rd(cs, theta, max_length)
    return {
        "matrix": [list(r) for r in matrix],
        "theta": list(theta),
        "verdict": report.verdict,
        "witness": report.witnesses[0] if report.witnesses else None,
        "d_sup": (
            {"num": report.d_sup.numerator, "den": report.d_sup.denominator}
            if report.d_sup is not None else None
        ),
        "stats": report.stats,
    }


def _checkpoint_path(out_path):
    return out_path + ".checkpoint"


def _read_checkpoint(out_path, digest):
    path = _checkpoint_path(out_path)
    if not os.path.exists(path):
        raise ValueError(f"no checkpoint found at {path}")
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if data.get("spec_hash") != digest:
        raise ValueError("checkpoint does not match the survey parameters")
    return data["completed"]


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


def run_survey(spec: SurveySpec, out_path, resume=False, jobs=1):
    """Stream survey records to out_path (JSONL).  Items are processed in
    canonical order, so output is deterministic for any job count; with
    resume=True, completed records are skipped and new ones appended."""
    items = [
        (matrix, theta, spec.max_length)
        for matrix, thetas in enumerate_family(spec)
        for theta in thetas
    ]
    digest = spec.digest()
    skip = 0
    if resume:
        skip = _read_checkpoint(out_path, digest)
        with open(out_path, encoding="utf-8") as fh:
            lines = sum(1 for _ in fh)
        if lines != skip:
            raise ValueError(
                f"checkpoint says {skip} records but {out_path} has {lines} lines"
            )
    pending = items[skip:]
    mode = "a" if resume else "w"
    completed = skip
    with open(out_path, mode, encoding="utf-8") as fh:
        if jobs > 1:
            executor = ProcessPoolExecutor(max_workers=jobs)
            results = executor.map(_run_item, pending)
        else:
            executor = None
            results = map(_run_item, pending)
        try:
            for record in results:
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")
                fh.flush()
                completed += 1
                _write_checkpoint(out_path, digest, completed)
        finally:
            if executor is not None:
                executor.shutdown()
    return completed
