"""Command-line front end.

Exit codes: 0 computation completed (verdict inside the report), 1 a
FAILED verdict under --assert, 2 input error, 3 enumeration cap exceeded,
141 stdout closed before the output was written (128 + SIGPIPE, as a
shell reports for a writer killed by a closed pipe).
"""

import argparse
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


def _parse_theta(text):
    try:
        return tuple(sorted(int(x) for x in text.split(",") if x.strip()))
    except ValueError:
        raise GCMError(f"bad theta {text!r}; expected comma-separated indices")


def _emit(data, path=None):
    text = json.dumps(data, indent=2)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def cmd_validate(args):
    spec = load_gcm(args.path)
    _emit({
        "name": spec.name,
        "rank": spec.rank,
        "symmetrizer": list(spec.symmetrizer),
        "matrix": [list(r) for r in spec.matrix],
    })
    return EXIT_OK


def cmd_roots(args):
    spec = load_gcm(args.path)
    roots = weyl.positive_real_roots_up_to_height(spec, args.max_height)
    _emit({
        "name": spec.name,
        "max_height": args.max_height,
        "count": len(roots),
        "roots": [list(r) for r in roots],
    })
    return EXIT_OK


def _walk_words(spec, max_length, weight):
    """The words of the orbit walk from weight, layer by layer from the
    empty word."""
    return [[()]] + [
        [word for word, _ in nodes]
        for nodes in weyl.orbit_walk(spec, max_length, (weight,))
    ]


def cmd_weyl(args):
    spec = load_gcm(args.path)
    payload = {
        "name": spec.name,
        "max_length": args.max_length,
        "layer_sizes": weyl.growth_series(spec, args.max_length),
    }
    if args.theta:
        theta = _parse_theta(args.theta)
        make_parabolic(spec, theta)
        # 0 on theta and 1 off it: the stabiliser of this weight is W_theta
        weight = tuple(int(i not in theta) for i in range(1, spec.rank + 1))
        reps = _walk_words(spec, args.max_length, weight)
        payload["theta"] = list(theta)
        payload["coset_rep_layer_sizes"] = [len(l) for l in reps]
        payload["coset_reps"] = [list(w) for layer in reps for w in layer]
    else:
        layers = _walk_words(spec, args.max_length, weyl.rho(spec))
        payload["words"] = [list(w) for layer in layers for w in layer]
    _emit(payload)
    return EXIT_OK


def cmd_check(args):
    spec = load_gcm(args.path)
    decider, takes_theta = _CHECKS[args.kind]
    if bool(args.theta) != takes_theta:  # "" counts as no --theta
        need = "requires" if takes_theta else "takes no"
        raise GCMError(f"check {args.kind} {need} --theta")
    theta = [_parse_theta(args.theta)] if takes_theta else []
    report = decider(spec, *theta, args.max_length,
                     all_witnesses=args.all_witnesses)
    _emit(criteria.report_to_dict(report), args.report)
    if args.assert_ and report.failed:
        return EXIT_ASSERT_FAILED
    return EXIT_OK


def cmd_rank2_verify(args):
    report = rank2.verify_prop52(args.a, args.b, args.max_n)
    _emit(report, args.report)
    if args.assert_ and not report["ok"]:
        return EXIT_ASSERT_FAILED
    return EXIT_OK


def cmd_ff_verify(args):
    payload = {
        "lemma_scan": ff.verify_lemma55(args.max_length),
        "parabolic_rd": ff.verify_prop56(args.max_length),
    }
    _emit(payload, args.report)
    if args.assert_ and not (
        payload["lemma_scan"]["ok"] and payload["parabolic_rd"]["ok"]
    ):
        return EXIT_ASSERT_FAILED
    return EXIT_OK


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
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kmrd",
        description="Exact bounded checks for Property RD on Kac-Moody "
        "maximal parabolic subgroups",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

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

    p = sub.add_parser("check", help="run a bounded combinatorial check")
    p.add_argument("kind", choices=list(_CHECKS))
    p.add_argument("path")
    p.add_argument("--theta", default=None)
    p.add_argument("--max-length", type=int, required=True)
    p.add_argument("--all-witnesses", action="store_true")
    p.add_argument("--report", default=None)
    p.add_argument("--assert", dest="assert_", action="store_true",
                   help="exit 1 on a FAILED verdict")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("rank2", help="rank-2 closed-form verification")
    rank2_sub = p.add_subparsers(dest="rank2_command", required=True)
    pv = rank2_sub.add_parser("verify")
    pv.add_argument("-a", type=int, required=True)
    pv.add_argument("-b", type=int, required=True)
    pv.add_argument("--max-n", type=int, required=True)
    pv.add_argument("--report", default=None)
    pv.add_argument("--assert", dest="assert_", action="store_true")
    pv.set_defaults(func=cmd_rank2_verify)

    p = sub.add_parser("ff", help="Feingold-Frenkel verification")
    ff_sub = p.add_subparsers(dest="ff_command", required=True)
    pv = ff_sub.add_parser("verify")
    pv.add_argument("--max-length", type=int, required=True)
    pv.add_argument("--report", default=None)
    pv.add_argument("--assert", dest="assert_", action="store_true")
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
        code = args.func(args)
        sys.stdout.flush()
        return code
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
    except (GCMError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
