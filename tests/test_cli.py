import argparse
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from kmrd import cli, ff, load_gcm, rank2, weyl
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


@pytest.mark.parametrize("cap, max_height", [
    (2, 1), (2, 2),  # crossed by the simple roots (ff has rank 3)
    (10, 12),        # crossed during the closure
])
def test_roots_cap_exceeded(capsys, ff_path, monkeypatch, cap, max_height):
    monkeypatch.setenv("KMRD_MAX_ELEMENTS", str(cap))
    code, out, err = run_cli(
        capsys, "roots", ff_path, "--max-height", str(max_height)
    )
    assert code == 3
    assert out == ""
    assert err == (
        f"error: root cap {cap} exceeded (partial stats: {{'roots': {cap}}})\n"
    )


def test_roots_cap_reached_but_not_crossed(capsys, ff_path, monkeypatch):
    monkeypatch.setenv("KMRD_MAX_ELEMENTS", "3")
    code, out, _ = run_cli(capsys, "roots", ff_path, "--max-height", "1")
    assert code == 0
    assert json.loads(out)["roots"] == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]


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


# rd and lemma44 require --theta, prop51 and conj refuse it; a --theta of
# only commas and whitespace is none
@pytest.mark.parametrize("kind,theta,err", [
    ("rd", ["--theta", ""], "error: check rd requires --theta\n"),
    ("lemma44", [], "error: check lemma44 requires --theta\n"),
    ("lemma44", ["--theta", ""], "error: check lemma44 requires --theta\n"),
    ("prop51", ["--theta", "9,9"], "error: check prop51 takes no --theta\n"),
    ("conj", ["--theta", "2,3"], "error: check conj takes no --theta\n"),
    ("prop51", ["--theta", ""], ""),
    ("conj", ["--theta", ""], ""),
    ("rd", ["--theta", " "], "error: check rd requires --theta\n"),
    ("rd", ["--theta", ","], "error: check rd requires --theta\n"),
    ("lemma44", ["--theta", " , "], "error: check lemma44 requires --theta\n"),
    ("prop51", ["--theta", "abc"], "error: check prop51 takes no --theta\n"),
    ("prop51", ["--theta", " "], ""),
    ("prop51", ["--theta", ","], ""),
    ("conj", ["--theta", ","], ""),
])
def test_check_theta_by_kind(capsys, ff_path, kind, theta, err):
    code, out, got = run_cli(
        capsys, "check", kind, ff_path, *theta, "--max-length", "4"
    )
    assert (code, got) == ((2, err) if err else (0, ""))
    assert (out == "") == bool(err)


@pytest.mark.parametrize("theta", ["", " ", ","])
def test_weyl_theta_of_no_node_walks_the_ball(capsys, ff_path, theta):
    argv = ("weyl", ff_path, "--max-length", "3")
    assert run_cli(capsys, *argv, "--theta", theta) == run_cli(capsys, *argv)


@pytest.mark.parametrize("name", [["x"], {"x": 1}, 5])
@pytest.mark.parametrize("command,options", [
    (("validate",), ()),
    (("check", "rd"), ("--theta", "2,3", "--max-length", "3", "--assert")),
    (("weyl",), ("--max-length", "3")),
])
def test_name_that_is_not_a_string_is_input_error(capsys, tmp_path, ff_path,
                                                   name, command, options):
    """An unhashable name once reached an lru_cache key and ended in a
    TypeError with exit 1, the code of a FAILED verdict under --assert."""
    path = tmp_path / "named.json"
    data = json.loads(pathlib.Path(ff_path).read_text())
    path.write_text(json.dumps({**data, "name": name}))
    code, out, err = run_cli(capsys, *command, str(path), *options)
    assert (code, out) == (2, "")
    assert err.startswith("error: name must be a string or null")


def test_check_rejects_nonmaximal_theta(capsys, ff_path):
    code, _, err = run_cli(
        capsys, "check", "rd", ff_path, "--theta", "3", "--max-length", "4"
    )
    assert code == 2


# ff without node 3 is affine A1; E10 without node 1 is affine E9.
@pytest.mark.parametrize("path, theta", [
    ("ff.json", "1,2"), ("e10.json", "2,3,4,5,6,7,8,9,10"),
])
@pytest.mark.parametrize("kind", ["rd", "lemma44", "weyl"])
@pytest.mark.parametrize("max_length", ["4", "-1", "1000000"])
def test_non_finite_levi_refused_before_work(capsys, path, theta, kind,
                                             max_length):
    # Refused before any walk, and before the bound is checked: a
    # negative bound or one past the element cap is never reached.
    inputs = pathlib.Path(__file__).resolve().parent.parent / "inputs"
    command = ("weyl",) if kind == "weyl" else ("check", kind)
    code, out, err = run_cli(
        capsys, *command, str(inputs / path), "--theta", theta,
        "--max-length", max_length,
    )
    assert (code, out) == (2, "")
    nodes = theta.replace(",", ", ")
    assert err == f"error: theta ({nodes}) has non-finite Weyl group\n"


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


@pytest.mark.parametrize("value", ["0", "-3", "abc"])
@pytest.mark.parametrize("max_length", ["0", "6"])
def test_invalid_cap_exit_code(capsys, ff_path, monkeypatch, value,
                               max_length):
    monkeypatch.setenv("KMRD_MAX_ELEMENTS", value)
    code, out, err = run_cli(
        capsys, "check", "prop51", ff_path, "--max-length", max_length
    )
    assert code == 2
    assert out == ""
    assert err == (
        f"error: KMRD_MAX_ELEMENTS must be a positive integer, got {value!r}\n"
    )


def test_empty_cap_is_default(capsys, ff_path, monkeypatch):
    argv = ("check", "prop51", ff_path, "--max-length", "6")
    monkeypatch.delenv("KMRD_MAX_ELEMENTS", raising=False)
    unset = run_cli(capsys, *argv)
    monkeypatch.setenv("KMRD_MAX_ELEMENTS", "")
    empty = run_cli(capsys, *argv)
    assert empty[0] == unset[0] == 0
    assert json.loads(empty[1])["stats"] == json.loads(unset[1])["stats"]


@pytest.mark.parametrize("cap, layers", [(63, 32), (65, 33)])
def test_cap_stats_abbreviated_past_32_layers(capsys, tmp_path, monkeypatch,
                                              cap, layers):
    """The rank-2 ball has 1 + 2k elements up to length k, so the cap
    63 stops it with 32 whole layers and 65 with 33: the first prints its
    stats verbatim, the second gives the count and the last size."""
    path = tmp_path / "a23.json"
    path.write_text(json.dumps({"matrix": [[2, -2], [-3, 2]]}))
    monkeypatch.setenv("KMRD_MAX_ELEMENTS", str(cap))
    with pytest.raises(CapExceeded) as expected:
        weyl.ball_size(load_gcm(path), 100)
    stats = expected.value.stats
    assert len(stats["layer_sizes"]) == layers
    code, out, err = run_cli(
        capsys, "weyl", str(path), "--max-length", "100"
    )
    assert code == 3
    assert out == ""
    if layers <= 32:
        shown = str(stats)
    else:
        shown = (
            f"{{'elements_enumerated': {cap}, "
            f"'layer_sizes': <{layers} layers, the last of size 2>}}"
        )
    assert err == f"error: {expected.value} (partial stats: {shown})\n"


def test_over_cap_rank2_verify_stderr_is_short(capsys):
    """The rd ball of rank2 verify at --max-n 60000 has 100 000 layers
    under the default cap; stderr says so in one short line."""
    code, out, err = run_cli(
        capsys, "rank2", "verify", "-a", "2", "-b", "3", "--max-n", "60000"
    )
    assert code == 3
    assert out == ""
    assert len(err.encode()) < 1024
    assert err.startswith("error: element cap")
    assert "'layer_sizes': <100000 layers, the last of size 2>" in err


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


# Run in a fresh interpreter, since this process may hold the modules
# already.  Prints, after each step, which of the watched modules are
# loaded.
COLD_START = """
import contextlib, io, json, sys
watched = ("concurrent.futures", "multiprocessing", "kmrd.survey")
loaded = {}
def note(step):
    loaded[step] = [name for name in watched if name in sys.modules]
import kmrd.cli
note("import kmrd.cli")
with contextlib.redirect_stdout(io.StringIO()):
    code = kmrd.cli.main(["check", "rd", "inputs/ff.json", "--theta", "2,3",
                          "--max-length", "4"])
assert code == 0, code
note("check rd")
import kmrd.survey
note("import kmrd.survey")
code = kmrd.cli.main(["survey", "--rank", "2", "--entry-min", "-3",
                      "--max-length", "2", "--jobs", "1",
                      "--out", sys.argv[1]])
assert code == 0, code
note("survey --jobs 1")
print(json.dumps(loaded))
"""


def test_commands_load_only_what_they_run(tmp_path):
    root = pathlib.Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, str(tmp_path / "survey.jsonl")],
        cwd=root, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "import kmrd.cli": [],
        "check rd": [],
        "import kmrd.survey": ["kmrd.survey"],
        "survey --jobs 1": ["kmrd.survey"],
    }


# Importing dataclasses, and the inspect, ast, dis and tokenize it pulls in,
# took about 10 ms of every kmrd process. pytest loads both, so the check
# runs in a fresh interpreter; CI runs this same script under the oldest
# supported Python.
STARTUP_IMPORTS = """
import sys
heavy = ("dataclasses", "inspect")
import kmrd.cli
after_cli = [name for name in heavy if name in sys.modules]
import kmrd.survey
after_survey = [name for name in heavy if name in sys.modules]
print(after_cli, after_survey)
sys.exit(1 if after_cli or after_survey else 0)
"""


def test_startup_loads_no_dataclasses():
    root = pathlib.Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_IMPORTS],
        cwd=root, env=env, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, "[] []\n"), proc.stderr


def test_closed_stdout_is_not_an_input_error(ff_path):
    # The weyl output at L=16 (about 139 kB) is more than a pipe holds, so
    # writing it meets the closed pipe.
    root = pathlib.Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "kmrd.cli", "weyl", ff_path,
         "--max-length", "16"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


# One output path: every command hands main its payload and verdict, and
# main alone writes them and picks the exit code.

VERDICT_RUNS = [
    # (argv, the function patched to report ok: False or None, ok)
    (("check", "rd", "{ff}", "--theta", "2,3", "--max-length", "8"),
     None, True),
    (("check", "rd", "{rank7}", "--theta", "1,2,3,4,5,6",
      "--max-length", "8"), None, False),
    (("rank2", "verify", "-a", "2", "-b", "3", "--max-n", "10"),
     None, True),
    (("rank2", "verify", "-a", "2", "-b", "3", "--max-n", "10"),
     (rank2, "verify_prop52"), False),
    (("ff", "verify", "--max-length", "8"), None, True),
    (("ff", "verify", "--max-length", "8"), (ff, "verify_prop56"), False),
]


def verdicts(data):
    """The ok flags of a printed payload, a FAILED check rd as False."""
    if "verdict" in data:
        return [data["verdict"] != "FAILED_WITH_WITNESS"]
    if "ok" in data:
        return [data["ok"]]
    return [data["lemma_scan"]["ok"], data["parabolic_rd"]["ok"]]


@pytest.mark.parametrize("assert_", [False, True])
@pytest.mark.parametrize("argv, failing, ok", VERDICT_RUNS)
def test_report_is_stdout_and_assert_follows_verdict(
    capsys, monkeypatch, tmp_path, ff_path, rank7_path, argv, failing, ok,
    assert_,
):
    if failing:
        module, name = failing
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *args: {**real(*args), "ok": False}
        )
    report = tmp_path / "report.json"
    argv = [arg.format(ff=ff_path, rank7=rank7_path) for arg in argv]
    argv += ["--report", str(report)] + (["--assert"] if assert_ else [])
    code, out, err = run_cli(capsys, *argv)
    assert code == (1 if assert_ and not ok else 0)
    assert err == ""
    assert report.read_bytes() == out.encode()
    assert all(verdicts(json.loads(out))) == ok


@pytest.mark.parametrize("argv", [
    ("validate", "{ff}"),
    ("roots", "{ff}", "--max-height", "4"),
    ("weyl", "{ff}", "--max-length", "2"),
    ("survey", "--rank", "2", "--entry-min", "-3", "--max-length", "2",
     "--out", "{out}"),
])
@pytest.mark.parametrize("option", [("--report", "{report}"), ("--assert",)])
def test_verdict_options_refused_elsewhere(capsys, ff_path, tmp_path, argv,
                                           option):
    paths = {"ff": ff_path, "out": str(tmp_path / "survey.jsonl"),
             "report": str(tmp_path / "report.json")}
    with pytest.raises(SystemExit) as info:
        main([arg.format(**paths) for arg in argv + option])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_version(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0


# One parser per process: main builds it on its first call and every later
# call parses with it, so no call may leave state behind for the next.

def count_parsers(monkeypatch):
    """A list that grows by one at each argparse.ArgumentParser built."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


def test_main_builds_one_parser_per_process(capsys, monkeypatch, ff_path):
    built = count_parsers(monkeypatch)
    cli.build_parser.__wrapped__()
    per_build = len(built)
    cli.build_parser.cache_clear()
    counts = []
    for _ in range(3):
        built.clear()
        assert run_cli(capsys, "validate", ff_path)[0] == 0
        counts.append(len(built))
    assert counts == [per_build, 0, 0]


# Prints how many parsers importing kmrd.cli builds.
IMPORT_BUILDS = """
import argparse
built = []
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    built.append(self)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
import kmrd.cli
print(len(built))
"""


def test_import_builds_no_parser():
    root = pathlib.Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_BUILDS],
        cwd=root, env=env, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, "0\n"), proc.stderr


def test_verdict_options_do_not_carry_over(capsys, tmp_path, rank7_path):
    report = tmp_path / "report.json"
    argv = ["check", "rd", rank7_path, "--theta", "1,2,3,4,5,6",
            "--max-length", "8"]
    assert run_cli(capsys, *argv, "--report", str(report), "--assert")[0] == 1
    report.unlink()
    assert run_cli(capsys, *argv)[0] == 0
    assert not any(tmp_path.iterdir())


def without_timing(text):
    """Printed JSON with the digits of every ``wall_time_ms`` zeroed."""
    return re.sub(r'"wall_time_ms": \d+', '"wall_time_ms": 0', text)


@pytest.mark.parametrize("refused", [
    ("ff", "verify"),
    ("ff", "verify", "--max-length", "x"),
    ("ff", "verify", "--max-length", "8", "--theta", "2,3"),
    ("check", "bogus", "inputs/ff.json", "--max-length", "8"),
    ("rank2",),
])
def test_refusal_leaves_the_parser_as_it_was(capsys, refused):
    argv = ["ff", "verify", "--max-length", "8"]
    code, alone, _ = run_cli(capsys, *argv)
    assert code == 0
    with pytest.raises(SystemExit) as info:
        main(list(refused))
    assert info.value.code == 2
    capsys.readouterr()
    code, after, _ = run_cli(capsys, *argv)
    assert code == 0
    assert without_timing(after) == without_timing(alone)


def test_help_repeats(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    texts = []
    for _ in range(2):
        with pytest.raises(SystemExit) as info:
            main(["check", "--help"])
        assert info.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0].startswith("usage: kmrd check")
    assert texts[0] == texts[1]
