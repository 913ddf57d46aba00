import json

import pytest

from kmrd.cli import main


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
    for matrix in ([[2, -1], [-1, 2]], [], 5, [1, 2]):
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
