import json

import pytest

from kmrd import weyl
from kmrd.cli import main
from kmrd.weyl import CapExceeded


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys, ff_path):
    code, out, _ = run_cli(capsys, "validate", ff_path)
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 3
    assert data["symmetrizer"] == [1, 1, 1]


def test_validate_missing_file(capsys):
    code, _, err = run_cli(capsys, "validate", "/nonexistent.json")
    assert code == 2
    assert "error:" in err


def test_validate_bad_matrix(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    for matrix in ([[2, -1], [-1, 2]], [], 5, [1, 2],
                   [[2, -3, False], [-3, 2, -1], [False, -1, 2]]):
        bad.write_text(json.dumps({"matrix": matrix}))
        code, _, err = run_cli(capsys, "validate", str(bad))
        assert code == 2, matrix
        assert "error:" in err


def test_validate_malformed_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "validate", str(bad))
    assert code == 2


def test_roots_command(capsys, ff_path):
    code, out, _ = run_cli(capsys, "roots", ff_path, "--max-height", "12")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 24
    assert [1, 0, 0] in data["roots"]


def test_weyl_command(capsys, ff_path):
    code, out, _ = run_cli(capsys, "weyl", ff_path, "--max-length", "4")
    assert code == 0
    data = json.loads(out)
    assert data["layer_sizes"] == [1, 3, 5, 7, 9]


def test_weyl_command_theta(capsys, ff_path):
    code, out, _ = run_cli(
        capsys, "weyl", ff_path, "--max-length", "4", "--theta", "2,3"
    )
    assert code == 0
    data = json.loads(out)
    assert data["theta"] == [2, 3]
    assert data["coset_rep_layer_sizes"][0] == 1
    assert [] in data["coset_reps"]


def coset_reps_by_filter(spec, max_length, theta):
    """The ``kmrd weyl --theta`` output as the filter of the ball by
    ``weyl.min_coset_reps`` gives it."""
    layers = weyl.enumerate_by_length(spec, max_length)
    reps = weyl.min_coset_reps(spec, theta, layers)
    return json.dumps({
        "name": spec.name,
        "max_length": max_length,
        "layer_sizes": [len(l) for l in layers],
        "theta": list(theta),
        "coset_rep_layer_sizes": [len(l) for l in reps],
        "coset_reps": [list(w.word) for layer in reps for w in layer],
    }, indent=2) + "\n"


@pytest.mark.parametrize("gcm, max_length, theta", [
    ("ff", 12, (1,)),
    ("ff", 12, (3,)),
    ("ff", 12, (2, 3)),
    ("ff", 12, (1, 3)),
    ("rank7", 7, (1, 2, 3, 4, 5, 6)),
    ("rank7", 7, (2, 4)),
])
def test_weyl_theta_matches_coset_rep_filter(capsys, request, gcm, max_length,
                                            theta):
    spec = request.getfixturevalue(f"{gcm}_spec")
    path = request.getfixturevalue(f"{gcm}_path")
    code, out, _ = run_cli(
        capsys, "weyl", path, "--max-length", str(max_length),
        "--theta", ",".join(map(str, theta)),
    )
    assert code == 0
    expected = coset_reps_by_filter(spec, max_length, theta)
    # Key by key first: a failing comparison of the whole text is slow to
    # report.
    got, want = json.loads(out), json.loads(expected)
    for key in want:
        assert got[key] == want[key], key
    assert out == expected


def test_weyl_theta_cap_exceeded(capsys, ff_spec, ff_path, monkeypatch):
    monkeypatch.setenv("KMRD_MAX_ELEMENTS", "100")
    with pytest.raises(CapExceeded) as expected:
        coset_reps_by_filter(ff_spec, 12, (2, 3))
    code, out, err = run_cli(
        capsys, "weyl", ff_path, "--max-length", "12", "--theta", "2,3"
    )
    assert code == 3
    assert out == ""
    assert err == (
        f"error: {expected.value} (partial stats: {expected.value.stats})\n"
    )


def test_weyl_cap_refused_before_any_walk(capsys, ff_spec, ff_path,
                                         monkeypatch):
    monkeypatch.setenv("KMRD_MAX_ELEMENTS", "40")
    with pytest.raises(CapExceeded) as expected:
        coset_reps_by_filter(ff_spec, 12, (2, 3))

    def no_walk(*args, **kwargs):
        raise AssertionError("kmrd weyl walked before refusing the bound")

    monkeypatch.setattr(weyl, "orbit_walk", no_walk)
    for theta in ((), ("--theta", "2,3")):
        code, out, err = run_cli(
            capsys, "weyl", ff_path, "--max-length", "12", *theta
        )
        assert code == 3
        assert out == ""
        assert err == (
            f"error: {expected.value} (partial stats: {expected.value.stats})\n"
        )


@pytest.mark.parametrize("argv", [
    ("check", "rd", "{ff}", "--theta", "2,3", "--max-length", "-3"),
    ("check", "lemma44", "{ff}", "--theta", "2,3", "--max-length", "-1"),
    ("check", "prop51", "{ff}", "--max-length", "-1"),
    ("check", "conj", "{ff}", "--max-length", "-1"),
    ("weyl", "{ff}", "--max-length", "-1"),
    ("weyl", "{ff}", "--max-length", "-1", "--theta", "2,3"),
    ("ff", "verify", "--max-length", "-1"),
    ("rank2", "verify", "-a", "2", "-b", "3", "--max-n", "-1", "--assert"),
])
def test_negative_bound_is_input_error(capsys, ff_path, argv):
    code, out, err = run_cli(
        capsys, *(arg.format(ff=ff_path) for arg in argv)
    )
    assert code == 2
    assert out == ""
    assert "must be >= 0" in err


def test_survey_negative_bound_is_input_error(capsys, tmp_path):
    out_path = tmp_path / "survey.jsonl"
    code, _, err = run_cli(
        capsys, "survey", "--rank", "2", "--entry-min", "-3",
        "--max-length", "-1", "--out", str(out_path),
    )
    assert code == 2
    assert "must be >= 0" in err
    assert not out_path.exists()


def test_survey_jobs_below_one_is_input_error(capsys, tmp_path):
    out_path = tmp_path / "survey.jsonl"
    for jobs in ("0", "-2"):
        code, _, err = run_cli(
            capsys, "survey", "--rank", "2", "--entry-min", "-3",
            "--max-length", "4", "--out", str(out_path), "--jobs", jobs,
        )
        assert code == 2
        assert "jobs must be >= 1" in err
        assert not out_path.exists()


def test_check_rd_holds(capsys, ff_path):
    code, out, _ = run_cli(
        capsys, "check", "rd", ff_path,
        "--theta", "2,3", "--max-length", "8", "--assert",
    )
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "HOLDS_UP_TO_BOUND"


def test_check_rd_failure_sets_exit_code(capsys, rank7_path):
    code, out, _ = run_cli(
        capsys, "check", "rd", rank7_path,
        "--theta", "1,2,3,4,5,6", "--max-length", "6", "--assert",
    )
    assert code == 1
    data = json.loads(out)
    assert data["verdict"] == "FAILED_WITH_WITNESS"
    assert data["witnesses"][0]["word"] == [7, 2, 1, 3, 2, 7]


def test_check_rd_failure_without_assert(capsys, rank7_path):
    code, out, _ = run_cli(
        capsys, "check", "rd", rank7_path,
        "--theta", "1,2,3,4,5,6", "--max-length", "6",
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "FAILED_WITH_WITNESS"


def test_check_requires_theta(capsys, ff_path):
    code, _, err = run_cli(capsys, "check", "rd", ff_path, "--max-length", "4")
    assert code == 2
    assert "theta" in err


def test_check_rejects_nonmaximal_theta(capsys, ff_path):
    code, _, err = run_cli(
        capsys, "check", "rd", ff_path, "--theta", "3", "--max-length", "4"
    )
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("check", "rd"), ("check", "lemma44"), ("weyl",),
])
def test_repeated_theta_index_is_input_error(capsys, ff_path, argv):
    code, out, err = run_cli(
        capsys, *argv, ff_path, "--theta", "2,2,3", "--max-length", "2"
    )
    assert code == 2
    assert out == ""
    assert "theta contains repeated indices" in err


def test_check_prop51_report_file(capsys, ff_path, tmp_path):
    report = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "check", "prop51", ff_path,
        "--max-length", "8", "--report", str(report),
    )
    assert code == 0
    on_disk = json.loads(report.read_text())
    assert on_disk == json.loads(out)
    assert on_disk["verdict"] == "FAILED_WITH_WITNESS"


def test_check_conj_holds(capsys, tmp_path):
    path = tmp_path / "hyp.json"
    path.write_text(json.dumps({"matrix": [[2, -3], [-3, 2]]}))
    code, out, _ = run_cli(
        capsys, "check", "conj", str(path), "--max-length", "6", "--assert"
    )
    assert code == 0
    data = json.loads(out)
    assert data["check"] == "property25"
    assert data["verdict"] == "HOLDS_UP_TO_BOUND"


def test_check_conj_failure(capsys, ff_path):
    # braid elements in an A2 subsystem block both descents
    code, out, _ = run_cli(
        capsys, "check", "conj", ff_path, "--max-length", "4", "--assert"
    )
    assert code == 1
    assert json.loads(out)["verdict"] == "FAILED_WITH_WITNESS"


def test_check_lemma44(capsys, ff_path):
    code, out, _ = run_cli(
        capsys, "check", "lemma44", ff_path,
        "--theta", "2,3", "--max-length", "6", "--assert",
    )
    assert code == 0
    data = json.loads(out)
    assert data["extra"]["D"] == {"num": 1, "den": 3}


def test_cap_exceeded_exit_code(capsys, rank7_path, monkeypatch):
    monkeypatch.setenv("KMRD_MAX_ELEMENTS", "50")
    code, _, err = run_cli(capsys, "weyl", rank7_path, "--max-length", "6")
    assert code == 3
    assert "cap" in err


def test_rank2_verify(capsys):
    code, out, _ = run_cli(
        capsys, "rank2", "verify", "-a", "2", "-b", "3",
        "--max-n", "5", "--assert",
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_rank2_verify_rejects_affine(capsys):
    code, _, err = run_cli(
        capsys, "rank2", "verify", "-a", "2", "-b", "2", "--max-n", "5"
    )
    assert code == 2


def test_ff_verify(capsys):
    code, out, _ = run_cli(capsys, "ff", "verify", "--max-length", "8", "--assert")
    assert code == 0
    data = json.loads(out)
    assert data["lemma_scan"]["ok"] is True
    assert data["parabolic_rd"]["ok"] is True


def test_survey_command(capsys, tmp_path):
    out_path = tmp_path / "survey.jsonl"
    code, _, err = run_cli(
        capsys, "survey", "--rank", "2", "--entry-min", "-3",
        "--max-length", "6", "--out", str(out_path),
    )
    assert code == 0
    assert "survey complete" in err
    assert out_path.exists()


def test_survey_resume_of_empty_family(capsys, tmp_path):
    # Rank 2 with entries down to -1 has only finite-type matrices, so the
    # survey finishes with no records; resuming it must find it finished.
    out_path = tmp_path / "empty.jsonl"
    argv = ("survey", "--rank", "2", "--entry-min", "-1",
            "--max-length", "3", "--out", str(out_path))
    for extra in ((), ("--resume",)):
        code, _, err = run_cli(capsys, *argv, *extra)
        assert code == 0, err
        assert "survey complete: 0 records" in err
        assert out_path.read_text() == ""


@pytest.mark.parametrize("checkpoint", [
    {"completed": -1},
    {"completed": "3"},
    {"completed": True},
    {"completed": 21},
    {},
    [],
], ids=["negative", "string", "bool", "past_end", "missing", "list"])
def test_survey_resume_refuses_malformed_checkpoint(capsys, tmp_path,
                                                    checkpoint):
    # A checkpoint must be a JSON object whose "completed" is an int in
    # 0..(number of items); anything else is an input error that leaves
    # the records file as it was.
    out_path = tmp_path / "survey.jsonl"
    argv = ("survey", "--rank", "3", "--entry-min", "-2",
            "--max-length", "2", "--out", str(out_path))
    code, _, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert "survey complete: 20 records" in err
    records = out_path.read_bytes()
    ckpt_path = tmp_path / "survey.jsonl.checkpoint"
    if isinstance(checkpoint, dict):
        data = json.loads(ckpt_path.read_text())
        del data["completed"]
        checkpoint = {**data, **checkpoint}
    ckpt_path.write_text(json.dumps(checkpoint))
    code, _, err = run_cli(capsys, *argv, "--resume")
    assert code == 2
    assert "checkpoint" in err
    assert out_path.read_bytes() == records


def test_survey_family_over_cap(capsys, tmp_path):
    out_path = tmp_path / "survey.jsonl"
    code, _, err = run_cli(
        capsys, "survey", "--rank", "5", "--entry-min", "-5",
        "--max-length", "2", "--out", str(out_path),
    )
    assert code == 3
    assert str(26 ** 10) in err
    assert not out_path.exists()


def test_version(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
