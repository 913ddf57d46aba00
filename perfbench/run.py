"""kmrd benchmark: one workload per run, driven through kmrd's public API.

    python3 perfbench/run.py --workload rank7_fail --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

kmrd is imported from ``src/`` of the repository that holds this directory.
The workload runs again and again for ``--seconds`` seconds in this one
process (no threads); every output is checked against ``golden.json``.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
A readable summary goes to stderr.  ``--smoke`` runs every workload at tiny
bounds and checks the benchmark itself.
"""

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

SETUP_RUNS = 9

# Functions whose calls and self time are per-layer metrics; the rest of
# each module's self time is in ``<module>.self_s``.
LAYER_FUNCTIONS = (
    "gcm.pair_with_coroot", "gcm.bilinear_form", "gcm.validate_gcm",
    "gcm.make_parabolic", "linalg.leading_principal_minors", "linalg.mat_inv",
    "weyl.enumerate_by_length", "weyl.in_min_coset_reps",
    "weyl.inversion_set_of_inverse", "criteria.check_rd",
    "criteria.report_to_dict", "rank2.verify_prop52", "rank2.h",
    "ff.verify_lemma55", "ff.verify_prop56", "survey.canonical_matrix",
    "survey.enumerate_family", "survey.run_survey", "cli.main",
)
COUNTERS = (
    "weyl.enumerate_by_length.elements", "weyl.inversion_set_of_inverse.roots",
    "weyl.cap_exceeded", "criteria.elements_enumerated",
    "criteria.coset_reps", "criteria.roots_checked",
)
# Output sizes; cli.output_bytes varies with the digits of meta.wall_time_ms.
OUTPUT_BYTES = ("cli.output_bytes", "survey.records_bytes")

SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
root, bench, name, size, seed = sys.argv[1:6]
sys.path[:0] = [root + "/src", bench]
import workloads
workloads.make(name, root, size, int(seed))
print(time.perf_counter() - t0)
"""


def measure_setup(name, size, seed, runs):
    """Set-up times, each in a fresh interpreter, after one warm-up run
    that fills the file cache and, unless PYTHONDONTWRITEBYTECODE is set,
    the bytecode cache."""
    samples = []
    for k in range(runs + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(ROOT), str(BENCH_DIR),
             name, size, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        if k:
            samples.append(float(proc.stdout.split()[-1]))
    return samples


def reference_seconds():
    """Time a fixed piece of interpreter work of the same kind as kmrd's hot
    paths: Fraction arithmetic, tuple building and dict inserts.

    ``wall_ref`` divides each call's time by the mean time of the reference
    runs just before and just after it.  The speed of a shared machine
    drifts by up to 1.5x over minutes, and the ratio cancels that drift.
    Changing this function changes the unit of ``wall_ref``."""
    t0 = perf_counter()
    for _ in range(4):
        total, table = Fraction(0), {}
        for i in range(1, 12000):
            total += Fraction(i % 7 + 1, i % 5 + 1) * Fraction(3, i % 11 + 2)
            table[(i % 97, i % 89)] = tuple(range(i % 7))
    return perf_counter() - t0


def run_once(bench, out_dir, traced=False):
    """One timed call of the workload; returns (output, t0, t1, trace),
    the trace being None unless traced."""
    with tempfile.TemporaryDirectory(dir=out_dir) as scratch:
        gc.collect()
        if not traced:
            t0 = perf_counter()
            out = bench.run(scratch)
            return out, t0, perf_counter(), None
        with spans.traced() as trace:
            t0 = perf_counter()
            out = bench.run(scratch)
            t1 = perf_counter()
        return out, t0, t1, trace


def check(bench, golden, out):
    """(attempted, failed keys) for one output against the golden values."""
    observed = bench.observe(out)
    keys = bench.checked_keys()
    return len(keys), [k for k in keys if observed.get(k) != golden.get(k)]


def layer_values(summary, output_bytes):
    """Per-layer metric values from one traced call."""
    calls, self_s = summary["calls"], summary["self_s"]
    counters = summary["counters"]
    values = {}
    for name in LAYER_FUNCTIONS:
        values[name + ".calls"] = calls[name]
        values[name + ".self_s"] = self_s[name]
    for module in spans.MODULES:
        values[module + ".self_s"] = sum(
            s for n, s in self_s.items() if n.startswith(module + ".")
        )
    values["other.self_s"] = summary["other_s"]
    values["trace.wall_s"] = summary["wall_s"]
    for name in COUNTERS:
        values[name] = counters[name]
    for name in OUTPUT_BYTES:
        values[name] = output_bytes.get(name, 0)
    tests = calls["weyl.in_min_coset_reps"]
    values["weyl.coset_rep_yield"] = (
        counters["weyl.coset_reps"] / tests if tests else 0.0
    )
    check_rd_ms = summary["check_rd_ms"]
    values["criteria.check_rd.p50_ms"] = spans.percentile(check_rd_ms, 50)
    values["criteria.check_rd.p90_ms"] = spans.percentile(check_rd_ms, 90)
    return values


def deterministic(values):
    """The values that must repeat exactly between traced calls."""
    return {k: v for k, v in values.items()
            if k.endswith(".calls") or k in COUNTERS}


def measure(name, size, seed, seconds, trace, golden, out_dir,
            setup_runs=SETUP_RUNS):
    """Run one workload for ``seconds`` and return (values, attempted,
    failures, untraced wall times, records per call).  ``values`` maps
    every metric name to its value.
    A traced run alternates untraced and traced calls, so that the tracing
    overhead compares calls made under the same machine load."""
    setup = [] if trace else measure_setup(name, size, seed, setup_runs)
    bench = workloads.make(name, ROOT, size, seed)
    attempted, failures = 0, []
    plain, traced_runs = [], []
    ref = [] if trace else [reference_seconds()]
    start = perf_counter()
    while True:
        out, t0, t1, _ = run_once(bench, out_dir)
        wall = t1 - t0
        plain.append(wall)
        if not trace:
            ref.append(reference_seconds())
        n, bad = check(bench, golden, out)
        attempted, failures = attempted + n, failures + bad
        if trace:
            out, t0, t1, last_trace = run_once(bench, out_dir, True)
            wall = t1 - t0
            n, bad = check(bench, golden, out)
            attempted, failures = attempted + n, failures + bad
            values = layer_values(last_trace.summary(t0, t1),
                                  bench.output_bytes(out))
            traced_runs.append((wall, values))
            last_t0 = t0
            # Self times plus other.self_s must account for the traced wall.
            attempted += 1
            total = sum(values[m + ".self_s"] for m in spans.MODULES)
            if abs(total + values["other.self_s"] - wall) > 1e-6 * max(wall, 1):
                failures.append("trace_accounting")
            # Counts repeat exactly from one traced call to the next.
            if len(traced_runs) > 1:
                attempted += 1
                if deterministic(values) != deterministic(traced_runs[0][1]):
                    failures.append("trace_counts_repeat")
        elapsed = perf_counter() - start
        per_round = statistics.median(plain) + statistics.median(
            [w for w, _ in traced_runs] if trace else ref)
        if elapsed + per_round > seconds:
            break
    if trace:
        traced_runs.sort(key=lambda item: item[0])
        values = dict(traced_runs[(len(traced_runs) - 1) // 2][1])
        values["trace.overhead"] = (
            statistics.median(w for w, _ in traced_runs)
            / statistics.median(plain)
        )
        last_trace.write(out_dir / f"spans-{name}.tsv", last_t0)
    else:
        values = {
            "wall_ref": statistics.median(
                w / ((before + after) / 2)
                for w, before, after in zip(plain, ref, ref[1:])),
            "setup_s": statistics.median(setup),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    return values, attempted, failures, plain, bench.records(out)


def result_line(values, attempted, failures, declared):
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def tamper(golden, key):
    """A copy of golden with the value at key changed."""
    bad = dict(golden)
    value = bad.get(key)
    bad[key] = value + 1 if isinstance(value, int) else f"{value}-tampered"
    return bad


def smoke(spec, golden):
    """Every workload at tiny bounds, untraced and traced: each declared
    metric is emitted and nothing else, every check passes, a tampered
    golden value is counted as a failed check, and no survey output or
    checkpoint is left behind.  Also checks that definition.json maps
    every per-layer metric.  Returns a list of problems."""
    problems = []
    mapped = [m for entry in load_json(BENCH_DIR / "definition.json")["layer_map"]
              for m in entry["layer"]]
    if sorted(mapped) != sorted(m["name"] for m in spec["per_layer"]):
        problems.append("definition.json layer_map does not list each "
                        "per-layer metric once")
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as out_dir:
        out_dir = Path(out_dir)
        for name in workloads.WORKLOADS:
            gold = golden["smoke"][name]
            for seed in (0, 5) if name == "rank7_fail" else (0,):
                for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                    # One second gives several calls, so the check that
                    # counts repeat between traced calls runs too.
                    values, attempted, failures, _, _ = measure(
                        name, "smoke", seed, 1, trace, gold, out_dir, 1)
                    declared = {m["name"] for m in spec[section]}
                    if set(values) != declared:
                        problems.append(
                            f"{name} trace={trace}: metrics differ from "
                            f"BENCHMARK.json: {sorted(set(values) ^ declared)}")
                    if failures or not attempted:
                        problems.append(f"{name} seed={seed} trace={trace}: "
                                        f"failed checks {failures}")
            first = workloads.make(name, ROOT, "smoke", 0).checked_keys()[0]
            _, attempted, failures, _, _ = measure(
                name, "smoke", 0, 0, 0, tamper(gold, first), out_dir, 1)
            if not failures:
                problems.append(f"{name}: tampered golden {first!r} passed")
        left = [p.name for p in out_dir.rglob("*")
                if p.suffix in (".jsonl", ".checkpoint")]
        if left:
            problems.append(f"survey files left behind: {left}")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="check the benchmark itself at tiny bounds")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kmrd" / "__init__.py").is_file():
        print(f"error: kmrd sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = load_json(ROOT / "BENCHMARK.json")
    golden = load_json(BENCH_DIR / "golden.json")
    OUT_DIR.mkdir(exist_ok=True)

    if args.smoke:
        problems = smoke(spec, golden)
        for problem in problems:
            print(f"smoke: {problem}", file=sys.stderr)
        print("smoke: " + ("FAILED" if problems else "ok"))
        return 1 if problems else 0

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    values, attempted, failures, samples, records = measure(
        args.workload, "full", args.seed, args.seconds, args.trace,
        golden["full"][args.workload], OUT_DIR)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    median = statistics.median(samples)
    q = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(samples)} untraced calls, wall_s {median:.4f} s "
          f"(quartiles {q[0]:.4f}..{q[2]:.4f}), "
          f"records_per_s {records / median:.4f} 1/s, "
          f"failed_ops_share {len(failures) / attempted:.4f} "
          f"({len(failures)}/{attempted})"
          + (f" {failures}" if failures else "")
          + "".join(f", {m['name']} {values[m['name']]:.6g} {m['unit']}"
                    for m in declared if not args.trace),
          file=sys.stderr)
    print(json.dumps(result_line(values, attempted, failures, declared)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
