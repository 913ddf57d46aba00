"""Command-line front end.

Each command returns ``(payload, ok)`` and does nothing else with its
result: payload is the JSON it prints (None for ``survey``, whose output
is its records file) and ok says whether its verdict holds.  ``main``
alone writes the payload, to the --report file first when one is given
and then to stdout, the same bytes to both, and ``main`` alone decides
every exit code.  --report and --assert are taken by the commands with a
verdict: ``check``, ``rank2 verify`` and ``ff verify``.

In-process ``main`` calls share one parser, built on the first call
(``build_parser`` is cached, and nothing is built at import), so each
later call skips the build: about 1.1-1.3 ms (2 vCPUs, Python 3.11).
A shell invocation calls ``main`` once, so it still builds the parser
once, and its whole-process time barely moves (``kmrd ff verify
--max-length 18``: about 84 ms either way).

Exit codes: 0 computation completed (verdict inside the report), 1 a
FAILED verdict under --assert, 2 input error, 3 enumeration cap exceeded,
141 stdout closed before the output was written (128 + SIGPIPE, as a
shell reports for a writer killed by a closed pipe).
"""

import argparse
import functools
import json
import os
import sys

from . import __version__, criteria, ff, rank2, weyl
from .gcm import GCMError, load_gcm, make_parabolic
from .weyl import CapExceeded

EXIT_OK = 0
EXIT_ASSERT_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_CAP_EXCEEDED = 3
EXIT_BROKEN_PIPE = 141

_MAX_LAYERS_SHOWN = 32

_CHECKS = {  # kind -> (decider, takes --theta); conj = factorization property
    "rd": (criteria.check_rd, True),
    "prop51": (criteria.check_prop51, False),
    "conj": (criteria.check_property25, False),
    "lemma44": (criteria.check_lemma44, True),
}


def _describe_stats(stats):
    """A CapExceeded's stats as printed: verbatim while ``layer_sizes`` has
    at most _MAX_LAYERS_SHOWN entries, else with the number of layers and
    the last size in place of the list."""
    sizes = stats.get("layer_sizes")
    if sizes is None or len(sizes) <= _MAX_LAYERS_SHOWN:
        return str(stats)
    items = (
        f"{key!r}: <{len(value)} layers, the last of size {value[-1]}>"
        if key == "layer_sizes" else f"{key!r}: {value!r}"
        for key, value in stats.items()
    )
    return "{" + ", ".join(items) + "}"


def _theta_given(text):
    """Whether --theta names a node: a text of only commas and whitespace
    counts as absent, like no --theta at all."""
    return bool(text) and not text.replace(",", " ").isspace()


def _parse_theta(text):
    try:
        return tuple(sorted(int(x) for x in text.split(",") if x.strip()))
    except ValueError:
        raise GCMError(f"bad theta {text!r}; expected comma-separated indices")


def cmd_validate(args):
    spec = load_gcm(args.path)
    return {
        "name": spec.name,
        "rank": spec.rank,
        "symmetrizer": list(spec.symmetrizer),
        "matrix": [list(r) for r in spec.matrix],
    }, True


def cmd_roots(args):
    spec = load_gcm(args.path)
    roots = weyl.positive_real_roots_up_to_height(spec, args.max_height)
    return {
        "name": spec.name,
        "max_height": args.max_height,
        "count": len(roots),
        "roots": [list(r) for r in roots],
    }, True


def cmd_weyl(args):
    spec = load_gcm(args.path)
    theta = _parse_theta(args.theta) if _theta_given(args.theta) else ()
    make_parabolic(spec, theta)  # refuses a bad theta before the bound
    payload = {
        "name": spec.name,
        "max_length": args.max_length,
        "layer_sizes": weyl.growth_series(spec, args.max_length),
    }
    # 0 on theta and 1 off it, so rho when no theta is given: the
    # stabiliser of this weight is W_theta
    weight = tuple(int(i not in theta) for i in range(1, spec.rank + 1))
    layers = [[()]] + [
        [word for word, _, _ in nodes]
        for nodes in weyl.orbit_walk(spec.matrix, args.max_length, (weight,))
    ]
    words = [list(w) for layer in layers for w in layer]
    if theta:
        payload["theta"] = list(theta)
        payload["coset_rep_layer_sizes"] = [len(l) for l in layers]
        payload["coset_reps"] = words
    else:
        payload["words"] = words
    return payload, True


def cmd_check(args):
    spec = load_gcm(args.path)
    decider, takes_theta = _CHECKS[args.kind]
    if _theta_given(args.theta) != takes_theta:
        need = "requires" if takes_theta else "takes no"
        raise GCMError(f"check {args.kind} {need} --theta")
    theta = [_parse_theta(args.theta)] if takes_theta else []
    report = decider(spec, *theta, args.max_length,
                     all_witnesses=args.all_witnesses)
    return criteria.report_to_dict(report), not report.failed


def cmd_rank2_verify(args):
    report = rank2.verify_prop52(args.a, args.b, args.max_n)
    return report, report["ok"]


def cmd_ff_verify(args):
    lemma_scan = ff.verify_lemma55(args.max_length)
    parabolic_rd = ff.verify_prop56(args.max_length)
    payload = {"lemma_scan": lemma_scan, "parabolic_rd": parabolic_rd}
    return payload, lemma_scan["ok"] and parabolic_rd["ok"]


def cmd_survey(args):
    # Imported here: the other commands never load the survey.
    from . import survey

    spec = survey.SurveySpec(
        rank=args.rank,
        entry_min=args.entry_min,
        max_length=args.max_length,
        symmetric_only=args.symmetric_only,
    )
    completed = survey.run_survey(
        spec, args.out, resume=args.resume, jobs=args.jobs
    )
    print(f"survey complete: {completed} records in {args.out}", file=sys.stderr)
    return None, True


@functools.cache
def build_parser():
    """The one kmrd parser, built on the first call and returned by every
    later one, so in-process ``main`` calls share it and each skips a
    build of about 1.1-1.3 ms; parsing leaves no state in it.  A process that
    calls ``main`` once, as a shell invocation does, still pays one build,
    so its whole-process time barely moves.  Each subcommand's ``cmd_*``
    is bound when the parser is built, so patching one afterwards does not
    reach ``main``."""
    parser = argparse.ArgumentParser(
        prog="kmrd",
        description="Exact bounded checks for Property RD on Kac-Moody "
        "maximal parabolic subgroups",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.set_defaults(report=None, assert_=False)
    sub = parser.add_subparsers(dest="command", required=True)
    # taken by the commands that give a verdict
    verdict = argparse.ArgumentParser(add_help=False)
    verdict.add_argument("--report", default=None,
                         help="write the JSON report to this file as well")
    verdict.add_argument("--assert", dest="assert_", action="store_true",
                         help="exit 1 when the verdict fails")

    p = sub.add_parser("validate", help="validate a Cartan matrix file")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("roots", help="list positive real roots up to a height")
    p.add_argument("path")
    p.add_argument("--max-height", type=int, required=True)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("weyl", help="enumerate Weyl elements / coset reps")
    p.add_argument("path")
    p.add_argument("--max-length", type=int, required=True)
    p.add_argument("--theta", default=None)
    p.set_defaults(func=cmd_weyl)

    p = sub.add_parser("check", parents=[verdict],
                       help="run a bounded combinatorial check")
    p.add_argument("kind", choices=list(_CHECKS))
    p.add_argument("path")
    p.add_argument("--theta", default=None)
    p.add_argument("--max-length", type=int, required=True)
    p.add_argument("--all-witnesses", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("rank2", help="rank-2 closed-form verification")
    rank2_sub = p.add_subparsers(dest="rank2_command", required=True)
    pv = rank2_sub.add_parser("verify", parents=[verdict])
    pv.add_argument("-a", type=int, required=True)
    pv.add_argument("-b", type=int, required=True)
    pv.add_argument("--max-n", type=int, required=True)
    pv.set_defaults(func=cmd_rank2_verify)

    p = sub.add_parser("ff", help="Feingold-Frenkel verification")
    ff_sub = p.add_subparsers(dest="ff_command", required=True)
    pv = ff_sub.add_parser("verify", parents=[verdict])
    pv.add_argument("--max-length", type=int, required=True)
    pv.set_defaults(func=cmd_ff_verify)

    p = sub.add_parser("survey", help="batch RD survey over a matrix family")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--entry-min", type=int, required=True)
    p.add_argument("--max-length", type=int, required=True)
    p.add_argument("--symmetric-only", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--resume", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_survey)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, ok = args.func(args)
        if payload is not None:
            text = json.dumps(payload, indent=2)
            if args.report:
                with open(args.report, "w", encoding="utf-8") as fh:
                    fh.write(text + "\n")
            print(text)
        sys.stdout.flush()
    except CapExceeded as exc:
        print(f"error: {exc} (partial stats: {_describe_stats(exc.stats)})",
              file=sys.stderr)
        return EXIT_CAP_EXCEEDED
    except BrokenPipeError:
        # The reader has gone (``kmrd weyl ... | head -1``): no message, and
        # fd 1 points at /dev/null so that the interpreter's last flush of
        # stdout does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return EXIT_ASSERT_FAILED if args.assert_ and not ok else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
