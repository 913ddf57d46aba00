"""Reach: how far a bounded ``kmrd check rd`` gets per second and per MB.

    python3 tools/reach.py [--against TREE]
    python3 tools/reach.py --smoke

Each target below runs ``python3 -m kmrd.cli check rd`` in a fresh child
process with KMRD_MAX_ELEMENTS=10**30, so no target is refused, one target
after another.  For each run it records the wall time of the child, the
child's own peak RSS (``ru_maxrss`` from ``os.wait4``), the verdict,
``coset_reps``, ``d_sup`` and the sha256 of the report less ``meta``,
taken over
``json.dumps(report, sort_keys=True)`` as ``.github/report_digest.py``
takes it.  It then records the largest L at which E10 with node 2 left out
finishes within BUDGET_S seconds, with every probe of that search.

kmrd is run from ``src/`` beside this directory.  With ``--against TREE``
the same runs are made on ``TREE/src`` as well, the two sides alternating
which goes first: a target whose first runs take under REPEAT_UNDER_S
seconds on both sides is run PAIRS times per side, a heavier one once.
The targets read the matrix files of this checkout on both sides.  The
JSON goes to ``BENCH_reach.json`` at the root of this checkout.  The exit
code is 1 when a child fails or when two runs of a target disagree on
anything but their time and memory.

``--smoke`` runs each target at SMOKE_LENGTH in a child and compares its
digest with ``check_rd`` called in this process; it exits 1 on any
mismatch and writes nothing.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CAP = str(10**30)
BUDGET_S = 10
REPEAT_UNDER_S = 2
PAIRS = 5
SMOKE_LENGTH = 8
SHARED = ("verdict", "coset_reps", "d_sup", "digest")  # alike on every run

E10_NODE2_OUT = ("e10.json", (1, 3, 4, 5, 6, 7, 8, 9, 10))
TARGETS = [  # (name, matrix file under inputs/, theta, L)
    ("e10_node2_out", *E10_NODE2_OUT, 50),
    ("e10_node2_out", *E10_NODE2_OUT, 60),
    ("e10_node2_out", *E10_NODE2_OUT, 70),
    ("e10_node9_out", "e10.json", (1, 2, 3, 4, 5, 6, 7, 8, 10), 71),
    ("ff_theta_2_3", "ff.json", (2, 3), 40),
    ("ff_theta_2_3", "ff.json", (2, 3), 46),
    ("ff_theta_1_3", "ff.json", (1, 3), 40),
    ("rank7_node3_out", "rank7.json", (1, 2, 4, 5, 6, 7), 28),
]
# The budget search goes up by SEARCH_STRIDE from SEARCH_START while each
# run finishes within BUDGET_S, then by 1 from the last that finished.
SEARCH_START = 50
SEARCH_STRIDE = 5


def digest(report):
    """sha256 of the report less ``meta``."""
    body = {k: v for k, v in report.items() if k != "meta"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def summary(report):
    """The fields of a report that every run of a target must share."""
    d_sup = report["d_sup"]
    return {
        "verdict": report["verdict"],
        "coset_reps": report["stats"]["coset_reps"],
        "d_sup": None if d_sup is None else f"{d_sup['num']}/{d_sup['den']}",
        "digest": digest(report),
    }


def run_child(src, gcm, theta, max_length, budget=None):
    """One ``check rd`` in a fresh process on the kmrd under src.  Returns
    (report, wall_s, peak_rss_mb), or None when the child is killed at
    budget seconds.  Raises RuntimeError when it exits nonzero."""
    cmd = [sys.executable, "-m", "kmrd.cli", "check", "rd",
           str(ROOT / "inputs" / gcm), "--theta", ",".join(map(str, theta)),
           "--max-length", str(max_length)]
    env = dict(os.environ, PYTHONPATH=str(src), KMRD_MAX_ELEMENTS=CAP,
               PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env)
        timer = threading.Timer(budget, proc.kill) if budget else None
        if timer:
            timer.start()
        # wait4 gives this child's own rusage; Popen is told the status so
        # that it does not wait for the child again
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - t0
        if timer:
            timer.cancel()
        if budget and proc.returncode < 0:
            return None
        if proc.returncode:
            err.seek(0)
            raise RuntimeError(f"{' '.join(cmd[3:])} exited "
                               f"{proc.returncode}: {err.read().decode()}")
        out.seek(0)
        return json.load(out), wall, usage.ru_maxrss / 1024


def measure(done):
    """The record of one finished run."""
    report, wall, rss = done
    return {"wall_s": round(wall, 4), "peak_rss_mb": round(rss, 2),
            **summary(report)}


def largest_within_budget(src):
    """(L, its run, probes) for the largest L at which E10 with node 2 left
    out finishes within BUDGET_S seconds, or (None, None, probes) when
    SEARCH_START does not.  probes lists every run of the search in order,
    as its L, wall time and whether it finished within the budget."""
    best = (None, None)
    probes = []
    length, stride = SEARCH_START, SEARCH_STRIDE
    while True:
        t0 = time.perf_counter()
        done = run_child(src, *E10_NODE2_OUT, length, BUDGET_S)
        wall = time.perf_counter() - t0 if done is None else done[1]
        finished = done is not None and wall <= BUDGET_S
        probes.append({"max_length": length, "wall_s": round(wall, 4),
                       "finished": finished})
        if finished:
            best = (length, measure(done))
        elif stride == 1 or best[0] is None:
            return (*best, probes)
        else:
            length, stride = best[0], 1
        length += stride


def tree_rev(tree):
    """The tree's ``git describe --always --dirty``, or None."""
    try:
        return subprocess.run(
            ["git", "-C", str(tree), "describe", "--always", "--dirty"],
            capture_output=True, text=True, check=True,
        ).stdout.strip() or None
    except (OSError, subprocess.CalledProcessError):
        return None


def reach(sides):
    """Every target on every side, then the budget search on each; the
    sides alternate which goes first.  Returns (results, search, agree)."""
    results = []
    agree = True
    for name, gcm, theta, max_length in TARGETS:
        runs = {label: [] for label, _ in sides}
        for k in range(PAIRS):
            order = sides if k % 2 == 0 else sides[::-1]
            for label, src in order:
                runs[label].append(
                    measure(run_child(src, gcm, theta, max_length))
                )
                print(f"reach: {name} L={max_length} {label}: "
                      f"{runs[label][-1]}", file=sys.stderr)
            if any(r[0]["wall_s"] >= REPEAT_UNDER_S for r in runs.values()):
                break
        shared = {tuple(run[key] for key in SHARED)
                  for side in runs.values() for run in side}
        agree &= len(shared) == 1
        results.append({
            "name": name, "gcm": f"inputs/{gcm}", "theta": list(theta),
            "max_length": max_length, "same_on_every_run": len(shared) == 1,
            **{f"median_{key}": {
                label: statistics.median(run[key] for run in side)
                for label, side in runs.items()
            } for key in ("wall_s", "peak_rss_mb")},
            "runs": runs,
        })
    search = {}
    for label, src in sides:
        length, run, probes = largest_within_budget(src)
        search[label] = {"max_length": length, "run": run, "probes": probes}
        print(f"reach: e10_node2_out within {BUDGET_S} s, {label}: "
              f"L={length}", file=sys.stderr)
    return results, search, agree


def smoke():
    """Each target at SMOKE_LENGTH, in a child and in this process; returns
    the list of mismatches."""
    os.environ["KMRD_MAX_ELEMENTS"] = CAP
    sys.path.insert(0, str(ROOT / "src"))
    from kmrd import criteria
    from kmrd.gcm import load_gcm

    problems = []
    for name, gcm, theta, _ in TARGETS:
        report, _, _ = run_child(ROOT / "src", gcm, theta, SMOKE_LENGTH)
        spec = load_gcm(ROOT / "inputs" / gcm)
        here = criteria.report_to_dict(
            criteria.check_rd(spec, theta, SMOKE_LENGTH)
        )
        if digest(report) != digest(here):
            problems.append(f"{name} at L={SMOKE_LENGTH}: the child's "
                            "report differs from check_rd in-process")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="each target at a small L against check_rd "
                        "in-process")
    parser.add_argument("--against", type=Path, default=None,
                        help="a second checkout, run alternately with this "
                        "one")
    args = parser.parse_args(argv)

    if args.smoke:
        problems = smoke()
        for problem in problems:
            print(f"smoke: {problem}", file=sys.stderr)
        print("smoke: " + ("FAILED" if problems else "ok"))
        return 1 if problems else 0

    sides = [("this", ROOT / "src")]
    if args.against is not None:
        sides.insert(0, ("base", args.against.resolve() / "src"))
    results, search, agree = reach(sides)
    payload = {
        "command": "python3 tools/reach.py"
        + (" --against <base tree>" if args.against else ""),
        "machine": f"{os.cpu_count()} CPUs, {platform.system()}, "
                   f"Python {platform.python_version()}",
        "trees": {label: tree_rev(src.parent) for label, src in sides},
        "env": {"KMRD_MAX_ELEMENTS": "10**30"},
        "all_runs_agree": agree,
        "targets": results,
        f"e10_node2_out_within_{BUDGET_S}_s": search,
    }
    (ROOT / "BENCH_reach.json").write_text(json.dumps(payload, indent=1) + "\n")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
