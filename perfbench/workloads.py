"""The three benchmark workloads: their inputs, the timed call into kmrd and
the values their outputs are checked on.

Each workload is built in ``__init__`` (the set-up that ``setup_s`` times in a
fresh interpreter), runs one timed call in ``run`` and turns the output into a
dict of observed values in ``observe``.  The observed values are compared key
by key with the golden values in ``golden.json``, which were taken at the
seed commit.  kmrd modules are imported inside ``__init__`` so that set-up
time counts only the modules a workload needs, and kmrd functions are looked
up on their module at call time so that a traced run sees its wrappers.
"""

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

RANK7_THETA = (1, 2, 3, 4, 5, 6)

SIZES = {
    "full": {
        "paper_verify": {"ff_max_length": 18, "rank2_max_n": 30},
        "rank7_fail": {"max_length": 12},
        "survey_r4": {"rank": 4, "entry_min": -2, "max_length": 4},
    },
    "smoke": {
        "paper_verify": {"ff_max_length": 6, "rank2_max_n": 3},
        "rank7_fail": {"max_length": 6},
        "survey_r4": {"rank": 3, "entry_min": -2, "max_length": 4},
    },
}


def output_digest(text):
    """sha256 of a CLI JSON report with every ``meta.wall_time_ms`` removed."""

    def strip(node):
        if isinstance(node, dict):
            return {k: strip(v) for k, v in node.items()
                    if k != "wall_time_ms"}
        if isinstance(node, list):
            return [strip(v) for v in node]
        return node

    canonical = json.dumps(strip(json.loads(text)), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class PaperVerify:
    """``kmrd ff verify`` then ``kmrd rank2 verify``, in-process, stdout
    captured.  Both algebras are fixed, so the seed is ignored."""

    name = "paper_verify"

    def __init__(self, root, size, seed):
        from kmrd import cli

        self._cli = cli
        s = SIZES[size][self.name]
        self.argvs = (
            ["ff", "verify", "--max-length", str(s["ff_max_length"]),
             "--assert"],
            ["rank2", "verify", "-a", "2", "-b", "3",
             "--max-n", str(s["rank2_max_n"]), "--assert"],
        )

    def run(self, scratch):
        outs = []
        for argv in self.argvs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self._cli.main(argv)
            outs.append((code, buf.getvalue()))
        return outs

    def records(self, out):
        return len(out)

    def output_bytes(self, out):
        return {"cli.output_bytes": sum(len(text.encode()) for _, text in out)}

    def checked_keys(self):
        return ("ff_exit", "ff_digest", "rank2_exit", "rank2_digest")

    def observe(self, out):
        (ff_code, ff_text), (r2_code, r2_text) = out
        return {
            "ff_exit": ff_code,
            "ff_digest": output_digest(ff_text),
            "rank2_exit": r2_code,
            "rank2_digest": output_digest(r2_text),
        }


class Rank7Fail:
    """``check_rd`` on the rank-7 matrix of ``inputs/rank7.json``, first
    witness only.  Seed 0 keeps the file's labelling; any other seed relabels
    the nodes by a seeded simultaneous row/column permutation, applied to
    the matrix and to theta."""

    name = "rank7_fail"

    def __init__(self, root, size, seed):
        from kmrd import criteria, gcm, weyl

        self._criteria, self._gcm, self._weyl = criteria, gcm, weyl
        self.max_length = SIZES[size][self.name]["max_length"]
        self.seed = seed
        with open(Path(root) / "inputs" / "rank7.json", encoding="utf-8") as fh:
            matrix = json.load(fh)["matrix"]
        n = len(matrix)
        perm = list(range(n))  # new node k is old node perm[k]
        if seed:
            random.Random(seed).shuffle(perm)
        self.spec = gcm.validate_gcm(
            [[matrix[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        )
        self.theta = tuple(
            k + 1 for k in range(n) if perm[k] + 1 in RANK7_THETA
        )

    def run(self, scratch):
        return self._criteria.check_rd(self.spec, self.theta, self.max_length)

    def records(self, report):
        return 1

    def output_bytes(self, report):
        return {}

    def checked_keys(self):
        keys = ("verdict", "elements_enumerated", "witness_valid")
        if self.seed == 0:
            # ShortLex order, and with it the first witness and the scan
            # counts, depends on the labelling.
            keys += ("first_witness", "coset_reps", "roots_checked")
        return keys

    def witness_valid(self, witness):
        """Re-check a witness from its word alone: the word is reduced and
        within the bound, w is a minimal coset representative, the root is
        in Phi_{w^-1}, and <rho_M, root^vee> >= 0 as reported."""
        weyl, gcm = self._weyl, self._gcm
        word = tuple(witness["word"])
        root = tuple(witness["root"])
        w = weyl.word_to_element(self.spec, word)
        inversions = weyl.inversion_set_of_inverse(self.spec, w)
        par = gcm.make_parabolic(self.spec, self.theta)
        rho_pair = gcm.pair_with_coroot(self.spec, par.rho_M, root)
        reported = witness["rho_M_pairing"]
        return (
            0 < len(word) <= self.max_length
            and all(weyl.is_positive_vec(r) for r in inversions)
            and weyl.in_min_coset_reps(self.spec, w, self.theta)
            and root in inversions
            and rho_pair >= 0
            and (rho_pair.numerator, rho_pair.denominator)
            == (reported["num"], reported["den"])
        )

    def observe(self, report):
        first = report.witnesses[0] if report.witnesses else None
        return {
            "verdict": report.verdict,
            "elements_enumerated": report.stats["elements_enumerated"],
            "witness_valid": first is not None and self.witness_valid(first),
            "first_witness": (
                {"word": first["word"], "root": first["root"]}
                if first else None
            ),
            "coset_reps": report.stats["coset_reps"],
            "roots_checked": report.stats["roots_checked"],
        }


class SurveyR4:
    """``run_survey`` at ``jobs=1`` into a scratch directory.  The family is
    canonicalised by permutation already, so the seed is ignored."""

    name = "survey_r4"

    def __init__(self, root, size, seed):
        from kmrd import survey

        self._survey = survey
        self.spec = survey.SurveySpec(**SIZES[size][self.name])

    def run(self, scratch):
        path = str(Path(scratch) / "out.jsonl")
        count = self._survey.run_survey(self.spec, path, jobs=1)
        with open(path, "rb") as fh:
            return count, fh.read()

    def records(self, out):
        return out[0]

    def output_bytes(self, out):
        return {"survey.records_bytes": len(out[1])}

    def checked_keys(self):
        return ("records", "records_sha256")

    def observe(self, out):
        count, data = out
        return {
            "records": count,
            "records_sha256": hashlib.sha256(data).hexdigest(),
        }


WORKLOADS = {cls.name: cls for cls in (PaperVerify, Rank7Fail, SurveyR4)}


def make(name, root, size, seed):
    return WORKLOADS[name](root, size, seed)
