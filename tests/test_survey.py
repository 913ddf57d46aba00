import itertools
import json

import pytest

from kmrd import CapExceeded, validate_gcm
from kmrd.survey import (
    SurveySpec,
    canonical_matrix,
    enumerate_family,
    run_survey,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        SurveySpec(rank=1, entry_min=-3, max_length=6)
    with pytest.raises(ValueError):
        SurveySpec(rank=6, entry_min=-3, max_length=6)
    with pytest.raises(ValueError):
        SurveySpec(rank=2, entry_min=0, max_length=6)


def test_spec_digest_depends_on_fields():
    a = SurveySpec(rank=2, entry_min=-3, max_length=6)
    b = SurveySpec(rank=2, entry_min=-3, max_length=7)
    assert a.digest() == SurveySpec(rank=2, entry_min=-3, max_length=6).digest()
    assert a.digest() != b.digest()


def test_canonical_matrix_permutation_invariant():
    m = ((2, -1, 0), (-2, 2, -3), (0, -1, 2))
    n = 3
    for p in itertools.permutations(range(n)):
        permuted = tuple(
            tuple(m[p[i]][p[j]] for j in range(n)) for i in range(n)
        )
        assert canonical_matrix(permuted) == canonical_matrix(m)


def test_enumerate_family_rank2():
    spec = SurveySpec(rank=2, entry_min=-3, max_length=6)
    family = enumerate_family(spec)
    matrices = [m for m, _ in family]
    assert matrices == sorted(matrices)
    assert len(matrices) == len(set(matrices))
    for matrix, thetas in family:
        assert canonical_matrix(matrix) == matrix
        validate_gcm(matrix)  # must not raise
        assert thetas
        for theta in thetas:
            assert len(theta) == 1  # maximal in rank 2
    # every rank-2 Levi {i} is type A1, so both thetas always qualify
    assert all(thetas == [(2,), (1,)] for _, thetas in family)


def test_enumerate_family_symmetric_only():
    spec = SurveySpec(rank=2, entry_min=-4, max_length=6, symmetric_only=True)
    family = enumerate_family(spec)
    for matrix, _ in family:
        assert matrix[0][1] == matrix[1][0]
    # symmetric rank-2 infinite nonsingular: entries -3, -4 (-2 is singular)
    assert [m[0][1] for m, _ in family] == [-4, -3]


def test_family_over_cap_refused_at_once():
    with pytest.raises(CapExceeded) as info:
        enumerate_family(SurveySpec(rank=5, entry_min=-5, max_length=2))
    assert info.value.stats == {"candidate_matrices": 26 ** 10}
    with pytest.raises(CapExceeded) as info:
        enumerate_family(
            SurveySpec(rank=5, entry_min=-5, max_length=2, symmetric_only=True)
        )
    assert info.value.stats == {"candidate_matrices": 6 ** 10}


def test_family_cap_boundary(monkeypatch):
    spec = SurveySpec(rank=2, entry_min=-3, max_length=6)  # 1 + 3*3 candidates
    monkeypatch.setenv("KMRD_MAX_ELEMENTS", "10")
    assert enumerate_family(spec)
    monkeypatch.setenv("KMRD_MAX_ELEMENTS", "9")
    with pytest.raises(CapExceeded):
        enumerate_family(spec)


def test_run_survey_writes_records(tmp_path):
    out = tmp_path / "records.jsonl"
    spec = SurveySpec(rank=2, entry_min=-3, max_length=6)
    completed = run_survey(spec, str(out))
    lines = out.read_text().splitlines()
    assert completed == len(lines) > 0
    for line in lines:
        record = json.loads(line)
        assert set(record) == {
            "matrix", "theta", "verdict", "witness", "d_sup", "stats",
        }
        assert record["verdict"] in ("HOLDS_UP_TO_BOUND", "FAILED_WITH_WITNESS")
        if record["verdict"] == "HOLDS_UP_TO_BOUND":
            assert record["witness"] is None
            assert record["d_sup"] is not None
    checkpoint = json.loads((tmp_path / "records.jsonl.checkpoint").read_text())
    assert checkpoint == {"spec_hash": spec.digest(), "completed": completed}


def test_run_survey_resume(tmp_path):
    out = tmp_path / "records.jsonl"
    spec = SurveySpec(rank=2, entry_min=-3, max_length=6)
    run_survey(spec, str(out))
    full = out.read_bytes()
    lines = full.decode().splitlines(keepends=True)
    cut = len(lines) // 2
    out.write_text("".join(lines[:cut]))
    (tmp_path / "records.jsonl.checkpoint").write_text(
        json.dumps({"spec_hash": spec.digest(), "completed": cut})
    )
    completed = run_survey(spec, str(out), resume=True)
    assert completed == len(lines)
    assert out.read_bytes() == full


def test_resume_rejects_mismatched_checkpoint(tmp_path):
    out = tmp_path / "records.jsonl"
    spec = SurveySpec(rank=2, entry_min=-3, max_length=6)
    run_survey(spec, str(out))
    other = SurveySpec(rank=2, entry_min=-3, max_length=7)
    with pytest.raises(ValueError):
        run_survey(other, str(out), resume=True)


def test_resume_rejects_missing_checkpoint(tmp_path):
    out = tmp_path / "records.jsonl"
    out.write_text("")
    spec = SurveySpec(rank=2, entry_min=-3, max_length=6)
    with pytest.raises(ValueError):
        run_survey(spec, str(out), resume=True)


def test_resume_rejects_inconsistent_line_count(tmp_path):
    out = tmp_path / "records.jsonl"
    spec = SurveySpec(rank=2, entry_min=-3, max_length=6)
    run_survey(spec, str(out))
    lines = out.read_text().splitlines(keepends=True)
    out.write_text("".join(lines[:-1]))  # drop a record, keep checkpoint
    with pytest.raises(ValueError):
        run_survey(spec, str(out), resume=True)


def test_parallel_matches_serial(tmp_path):
    spec = SurveySpec(rank=2, entry_min=-3, max_length=6)
    serial = tmp_path / "serial.jsonl"
    parallel = tmp_path / "parallel.jsonl"
    run_survey(spec, str(serial), jobs=1)
    run_survey(spec, str(parallel), jobs=2)
    assert serial.read_bytes() == parallel.read_bytes()


def test_failed_checkpoint_write_keeps_previous_checkpoint(tmp_path, monkeypatch):
    out = tmp_path / "records.jsonl"
    spec = SurveySpec(rank=2, entry_min=-3, max_length=6)
    real_dump = json.dump
    writes = []

    def dump_then_fail(obj, fh, **kwargs):
        writes.append(obj)
        if len(writes) == 3:
            fh.write(json.dumps(obj)[:10])
            raise OSError("disk full")
        real_dump(obj, fh, **kwargs)

    monkeypatch.setattr(json, "dump", dump_then_fail)
    with pytest.raises(OSError):
        run_survey(spec, str(out))
    monkeypatch.undo()
    checkpoint = json.loads((tmp_path / "records.jsonl.checkpoint").read_text())
    assert checkpoint == {"spec_hash": spec.digest(), "completed": 2}
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "records.jsonl", "records.jsonl.checkpoint",
    ]
