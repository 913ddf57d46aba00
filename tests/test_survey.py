import itertools
import json
import types

import pytest

from kmrd import CapExceeded, survey, validate_gcm
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


def test_spec_rejects_negative_max_length():
    with pytest.raises(ValueError, match="max_length"):
        SurveySpec(rank=2, entry_min=-3, max_length=-1)
    assert SurveySpec(rank=2, entry_min=-3, max_length=0).max_length == 0


def test_spec_digest_depends_on_fields():
    a = SurveySpec(rank=2, entry_min=-3, max_length=6)
    b = SurveySpec(rank=2, entry_min=-3, max_length=7)
    assert a.digest() == SurveySpec(rank=2, entry_min=-3, max_length=6).digest()
    assert a.digest() != b.digest()


def test_spec_digest_is_pinned(monkeypatch):
    # Checkpoints already written carry this digest, taken under the
    # default cap; if it changed, --resume would refuse them.
    monkeypatch.delenv("KMRD_MAX_ELEMENTS", raising=False)
    spec = SurveySpec(rank=4, entry_min=-2, max_length=4)
    assert spec.digest() == (
        "6da3737c0124fba44a29486f44276febfaefc732c2407f3e86827b0d4f43a143"
    )


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


def test_item_over_cap_is_recorded_not_fatal(tmp_path, monkeypatch):
    # At cap 200, 14 of the 20 items of this family pass the cap; each is
    # a CAP_EXCEEDED record, and the other 6 keep their default-cap bytes.
    spec = SurveySpec(rank=3, entry_min=-2, max_length=8)
    full = tmp_path / "full.jsonl"
    run_survey(spec, str(full))
    monkeypatch.setenv("KMRD_MAX_ELEMENTS", "200")
    capped = {}
    for jobs in (1, 2):
        capped[jobs] = tmp_path / f"jobs{jobs}.jsonl"
        assert run_survey(spec, str(capped[jobs]), jobs=jobs) == 20
    assert capped[1].read_bytes() == capped[2].read_bytes()
    pairs = list(zip(
        capped[1].read_text().splitlines(), full.read_text().splitlines()
    ))
    assert len(pairs) == 20
    over = 0
    for line, expected in pairs:
        record, default = json.loads(line), json.loads(expected)
        if record["verdict"] != "CAP_EXCEEDED":
            assert line == expected
            continue
        over += 1
        assert record == {
            "matrix": default["matrix"], "theta": default["theta"],
            "verdict": "CAP_EXCEEDED", "witness": None, "d_sup": None,
            "stats": {"elements_enumerated": 200},
        }
    assert over == 14
    # the records depend on the cap, so a resume under another is refused
    monkeypatch.delenv("KMRD_MAX_ELEMENTS")
    before = capped[1].read_bytes()
    with pytest.raises(ValueError, match="does not match"):
        run_survey(spec, str(capped[1]), resume=True)
    assert capped[1].read_bytes() == before


def test_survey_validates_each_matrix_once(tmp_path, monkeypatch):
    spec = SurveySpec(rank=3, entry_min=-2, max_length=4)
    calls = []

    def counting_validate(*args, **kwargs):
        calls.append(args)
        return validate_gcm(*args, **kwargs)

    monkeypatch.setattr(survey, "validate_gcm", counting_validate)
    enumerate_family(spec)
    family_calls = len(calls)
    calls.clear()
    completed = run_survey(spec, str(tmp_path / "records.jsonl"))
    assert completed > 0
    assert len(calls) == family_calls


def test_failed_checkpoint_write_keeps_previous_checkpoint(tmp_path, monkeypatch):
    monkeypatch.setattr(survey, "_CHECKPOINT_SECONDS", 0)
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


def test_resume_after_crash_truncates_to_checkpoint(tmp_path, monkeypatch):
    # The third record is written but its checkpoint write fails, so the
    # records file is one line longer than the checkpoint count.
    monkeypatch.setattr(survey, "_CHECKPOINT_SECONDS", 0)
    spec = SurveySpec(rank=2, entry_min=-3, max_length=6)
    full = tmp_path / "full.jsonl"
    run_survey(spec, str(full))
    out = tmp_path / "records.jsonl"
    real_dump = json.dump
    writes = []

    def dump_then_fail(obj, fh, **kwargs):
        writes.append(obj)
        if len(writes) == 3:
            raise OSError("disk full")
        real_dump(obj, fh, **kwargs)

    monkeypatch.setattr(json, "dump", dump_then_fail)
    with pytest.raises(OSError):
        run_survey(spec, str(out))
    monkeypatch.undo()
    assert len(out.read_text().splitlines()) == 3
    completed = run_survey(spec, str(out), resume=True)
    assert completed == len(full.read_text().splitlines())
    assert out.read_bytes() == full.read_bytes()


def _fake_clock(monkeypatch, step):
    """Puts a clock in place of ``survey.time`` that advances ``step``
    seconds at each reading."""
    readings = itertools.count()
    monkeypatch.setattr(survey, "time", types.SimpleNamespace(
        monotonic=lambda: next(readings) * step,
    ))


def test_survey_r4_checkpoints_once(tmp_path, monkeypatch):
    # The survey_r4 family, at a millisecond of clock per reading: far
    # less than the checkpoint interval, so only the final checkpoint.
    _fake_clock(monkeypatch, 0.001)
    out = tmp_path / "records.jsonl"
    checkpoint = tmp_path / "records.jsonl.checkpoint"
    replaced = []
    real_replace = survey.os.replace

    def counting_replace(src, dst):
        replaced.append(dst)
        real_replace(src, dst)

    monkeypatch.setattr(survey.os, "replace", counting_replace)
    spec = SurveySpec(rank=4, entry_min=-2, max_length=4)
    assert run_survey(spec, str(out)) == 212
    assert replaced == [str(checkpoint)]
    assert json.loads(checkpoint.read_text()) == {
        "spec_hash": spec.digest(), "completed": 212,
    }


def test_checkpoint_counts_only_flushed_lines(tmp_path, monkeypatch):
    spec = SurveySpec(rank=3, entry_min=-2, max_length=3)
    full = tmp_path / "full.jsonl"
    total = run_survey(spec, str(full))
    expected = full.read_bytes().splitlines(keepends=True)
    out = tmp_path / "records.jsonl"
    counts = []
    real_write = survey._write_checkpoint

    def checked_write(out_path, digest, completed):
        lines = out.read_bytes().splitlines(keepends=True)
        assert lines == expected[:completed]
        counts.append(completed)
        real_write(out_path, digest, completed)

    monkeypatch.setattr(survey, "_write_checkpoint", checked_write)
    _fake_clock(monkeypatch, 0.3)
    assert run_survey(spec, str(out)) == total
    assert 2 < len(counts) < total
    assert counts == sorted(set(counts)) and counts[-1] == total
    assert out.read_bytes() == full.read_bytes()


@pytest.mark.parametrize("seconds", [0, None], ids=["every-record", "default"])
def test_resume_after_item_raises(tmp_path, monkeypatch, seconds):
    if seconds is not None:
        monkeypatch.setattr(survey, "_CHECKPOINT_SECONDS", seconds)
    spec = SurveySpec(rank=3, entry_min=-2, max_length=3)
    full = tmp_path / "full.jsonl"
    total = run_survey(spec, str(full))
    real_run_item = survey._run_item
    for k in (1, total // 2, total):
        out = tmp_path / f"crash{k}.jsonl"
        calls = itertools.count(1)

        def run_item_or_raise(args):
            if next(calls) == k:
                raise RuntimeError(f"item {k}")
            return real_run_item(args)

        monkeypatch.setattr(survey, "_run_item", run_item_or_raise)
        with pytest.raises(RuntimeError, match=f"item {k}"):
            run_survey(spec, str(out))
        checkpoint = tmp_path / f"crash{k}.jsonl.checkpoint"
        assert json.loads(checkpoint.read_text())["completed"] == k - 1
        monkeypatch.setattr(survey, "_run_item", real_run_item)
        assert run_survey(spec, str(out), resume=True) == total
        assert out.read_bytes() == full.read_bytes()


@pytest.fixture
def fake_pool(monkeypatch):
    """Puts a stand-in for ProcessPoolExecutor in place that maps in this
    process, so no worker process ever starts; returns the lists of the
    max_workers values it was built with and of the chunk sizes its map
    was given."""
    calls = types.SimpleNamespace(workers=[], chunksizes=[])

    class FakePool:
        def __init__(self, max_workers):
            calls.workers.append(max_workers)

        def map(self, fn, items, chunksize=1):
            calls.chunksizes.append(chunksize)
            return map(fn, items)

        def shutdown(self):
            pass

    monkeypatch.setattr(survey, "ProcessPoolExecutor", FakePool)
    return calls


def test_jobs_below_one_rejected(tmp_path, fake_pool):
    spec = SurveySpec(rank=2, entry_min=-3, max_length=6)
    out = tmp_path / "records.jsonl"
    for jobs in (0, -1, -8):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            run_survey(spec, str(out), jobs=jobs)
    assert not out.exists()
    assert fake_pool.workers == []


def test_workers_capped_by_items_and_cpus(tmp_path, monkeypatch, fake_pool):
    spec = SurveySpec(rank=3, entry_min=-2, max_length=3)
    serial = tmp_path / "serial.jsonl"
    items = run_survey(spec, str(serial), jobs=1)
    # At least 16 items, so that two workers take chunks of two or more.
    assert 16 <= items < 64
    out = tmp_path / "records.jsonl"
    cases = [
        # (cpu_count, jobs, workers built or None for no pool, chunk size)
        (64, 10 ** 6, items, 1),
        (4, 10 ** 6, 4, items // 16),
        (64, 3, 3, items // 12),
        (64, 2, 2, items // 8),
        (1, 8, None, None),
        (None, 8, None, None),
        (64, 1, None, None),
    ]
    for cpus, jobs, workers, chunksize in cases:
        monkeypatch.setattr(survey.os, "cpu_count", lambda: cpus)
        fake_pool.workers.clear()
        fake_pool.chunksizes.clear()
        assert run_survey(spec, str(out), jobs=jobs) == items
        assert fake_pool.workers == ([] if workers is None else [workers])
        assert fake_pool.chunksizes == (
            [] if chunksize is None else [chunksize]
        )
        assert out.read_bytes() == serial.read_bytes()


def test_resume_of_finished_survey_starts_no_pool(tmp_path, monkeypatch,
                                                  fake_pool):
    spec = SurveySpec(rank=2, entry_min=-3, max_length=6)
    out = tmp_path / "records.jsonl"
    completed = run_survey(spec, str(out))
    full = out.read_bytes()
    monkeypatch.setattr(survey.os, "cpu_count", lambda: 64)
    assert run_survey(spec, str(out), resume=True, jobs=8) == completed
    assert fake_pool.workers == []
    assert out.read_bytes() == full
