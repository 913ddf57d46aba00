"""Spans around every public kmrd function, for the benchmark's traced runs.

``traced()`` wraps each public function of the kmrd modules in every kmrd
namespace that binds it (``pair_with_coroot``, for one, is imported by name
into ``criteria``, ``ff`` and ``weyl``) and puts the originals back when the
block ends.  Nothing under ``src/kmrd`` is changed.  Spans (name, start,
end, parent) are kept in flat arrays in memory; ``Trace.summary`` turns them
into per-function calls and self times, and ``Trace.write`` saves them.
"""

import collections
import contextlib
import functools
import importlib
import inspect
import statistics
import sys
from array import array
from time import perf_counter

MODULES = ("gcm", "linalg", "weyl", "criteria", "rank2", "ff", "survey", "cli")


def _count_elements(counters, layers):
    counters["weyl.enumerate_by_length.elements"] += sum(len(l) for l in layers)


def _count_roots(counters, roots):
    counters["weyl.inversion_set_of_inverse.roots"] += len(roots)


def _count_coset_rep(counters, is_rep):
    counters["weyl.coset_reps"] += is_rep


def _count_report(counters, report):
    for key in ("elements_enumerated", "coset_reps", "roots_checked"):
        counters["criteria." + key] += report.stats[key]


# Counts taken from return values, at the boundary where the work happens.
RESULT_HOOKS = {
    "weyl.enumerate_by_length": _count_elements,
    "weyl.inversion_set_of_inverse": _count_roots,
    "weyl.in_min_coset_reps": _count_coset_rep,
    "criteria.check_rd": _count_report,
}
# The functions that raise CapExceeded; counted where it is raised, not at
# every span it passes through.
CAP_RAISERS = {"weyl.enumerate_by_length", "weyl.positive_real_roots_up_to_height"}


def public_functions():
    """(span name, function) for each public function defined in a kmrd
    module listed in MODULES."""
    out = []
    for short in MODULES:
        mod = importlib.import_module("kmrd." + short)
        for attr, value in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == mod.__name__):
                out.append((f"{short}.{attr}", value))
    return out


class Trace:
    """Spans of one traced call, in flat arrays, plus counters."""

    def __init__(self, names):
        self.names = names            # span name per function id
        self.fid = array("i")
        self.parent = array("i")      # index of the enclosing span, or -1
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters = collections.Counter()

    def wrap(self, fn, fid, on_result, counts_cap):
        fids, parents, starts, ends = self.fid, self.parent, self.start, self.end
        stack, counters = self.stack, self.counters
        from kmrd.weyl import CapExceeded

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            fids.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except CapExceeded:
                if counts_cap:
                    counters["weyl.cap_exceeded"] += 1
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(counters, result)
            return result

        return wrapper

    def summary(self, t0, t1):
        """Per-name calls and self time, inclusive check_rd durations and
        ``other.self_s``, for spans recorded between t0 and t1."""
        n = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        covered_by_children = [0.0] * n
        top = 0.0
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered_by_children[p] += dur[i]
            else:
                top += dur[i]
        calls = collections.Counter()
        self_s = collections.defaultdict(float)
        check_rd_ms = []
        for i, f in enumerate(self.fid):
            name = self.names[f]
            calls[name] += 1
            self_s[name] += dur[i] - covered_by_children[i]
            if name == "criteria.check_rd":
                check_rd_ms.append(dur[i] * 1000)
        return {
            "wall_s": t1 - t0,
            "other_s": (t1 - t0) - top,
            "calls": calls,
            "self_s": self_s,
            "check_rd_ms": check_rd_ms,
            "counters": collections.Counter(self.counters),
        }

    def write(self, path, t0):
        """Write the spans as TSV: name, start and end (seconds from t0),
        parent row (-1 for a top-level span)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\n")
            for f, s, e, p in zip(self.fid, self.start, self.end, self.parent):
                fh.write(f"{self.names[f]}\t{s - t0:.9f}\t{e - t0:.9f}\t{p}\n")


@contextlib.contextmanager
def traced():
    """Install span wrappers for the duration of the block; yields the Trace."""
    functions = public_functions()
    trace = Trace([name for name, _ in functions])
    wrappers = {
        fn: trace.wrap(fn, fid, RESULT_HOOKS.get(name), name in CAP_RAISERS)
        for fid, (name, fn) in enumerate(functions)
    }
    patched = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "kmrd" or modname.startswith("kmrd.")):
            continue
        namespace = vars(mod)
        for attr, value in list(namespace.items()):
            if inspect.isfunction(value) and value in wrappers:
                patched.append((namespace, attr, value))
                namespace[attr] = wrappers[value]
    try:
        yield trace
    finally:
        for namespace, attr, value in patched:
            namespace[attr] = value


def percentile(values, q):
    """The q-th percentile (0..100) of values, or 0.0 when there are none."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
