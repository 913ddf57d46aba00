"""The rank-3 Feingold-Frenkel algebra: Weyl group as PGL2(Z) acting on
2x2 symmetric integer matrices, with arithmetic root tests.

The linear bijection psi sends x*alpha_1 + y*alpha_2 + z*alpha_3 to
[[y-z, y-x], [y-x, z]]; the Weyl action becomes g.S = g S g^T and real
roots are exactly the symmetric matrices of determinant -1.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import criteria
from .gcm import make_parabolic, pair_with_coroot, validate_gcm

FF_MATRIX = ((2, -2, 0), (-2, 2, -1), (0, -1, 2))

BETA1 = (0, 1, 1)   # psi^-1 [[0,1],[1,1]] = alpha_2 + alpha_3
BETA2 = (2, 4, 3)   # psi^-1 [[1,2],[2,3]]
BETA3 = (2, 1, 1)   # psi^-1 [[0,-1],[-1,1]]


def ff_cartan_spec():
    return validate_gcm(FF_MATRIX, name="feingold-frenkel")


@dataclass(frozen=True)
class SymMat:
    n1: int
    n2: int
    n3: int

    def det(self):
        return self.n1 * self.n3 - self.n2 * self.n2

    def __neg__(self):
        return SymMat(-self.n1, -self.n2, -self.n3)


@dataclass(frozen=True)
class PGL2Elem:
    """2x2 integer matrix of determinant +-1, sign-canonicalized so that
    +-g collapse to one representative."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if abs(self.a * self.d - self.b * self.c) != 1:
            raise ValueError("determinant must be +-1")
        for entry in (self.a, self.b, self.c, self.d):
            if entry:
                if entry < 0:
                    object.__setattr__(self, "a", -self.a)
                    object.__setattr__(self, "b", -self.b)
                    object.__setattr__(self, "c", -self.c)
                    object.__setattr__(self, "d", -self.d)
                break

    def __mul__(self, other):
        return PGL2Elem(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )


W1 = PGL2Elem(1, 0, 0, -1)
W2 = PGL2Elem(-1, 1, 0, 1)
W3 = PGL2Elem(0, 1, 1, 0)
GENERATORS = {1: W1, 2: W2, 3: W3}


def psi(v):
    x, y, z = v
    return SymMat(y - z, y - x, z)


def psi_inv(s):
    z = s.n3
    y = s.n1 + s.n3
    x = y - s.n2
    return (x, y, z)


def ff_word_matrix(word):
    """PGL2 image of a generator word (same composition order as weyl.apply)."""
    g = PGL2Elem(1, 0, 0, 1)
    for i in word:
        g = g * GENERATORS[i]
    return g


def ff_act(g, s):
    """g . S = g S g^T, componentwise."""
    a, b, c, d = g.a, g.b, g.c, g.d
    n1, n2, n3 = s.n1, s.n2, s.n3
    return SymMat(
        a * a * n1 + 2 * a * b * n2 + b * b * n3,
        a * c * n1 + (a * d + b * c) * n2 + b * d * n3,
        c * c * n1 + 2 * c * d * n2 + d * d * n3,
    )


def ff_bilinear(s, t):
    """(S|T) = -s3 t1 + 2 s2 t2 - s1 t3."""
    return -s.n3 * t.n1 + 2 * s.n2 * t.n2 - s.n1 * t.n3


def is_positive_real_root_ff(s):
    """Arithmetic characterization: det = -1 plus the three positivity
    constraints on (n1, n2, n3)."""
    return (
        s.det() == -1
        and s.n1 + s.n3 >= s.n2
        and s.n1 + s.n3 >= 0
        and s.n3 >= 0
    )


def satisfies_phi_v_inequalities(v, s):
    """The published necessary constraints for s in Phi_v."""
    a, b, c, d = v.a, v.b, v.c, v.d
    n1, n2, n3 = s.n1, s.n2, s.n3
    lhs = (a * a + c * c) * n1 + 2 * (a * b + c * d) * n2 + (b * b + d * d) * n3
    return (
        c * c * n1 + 2 * c * d * n2 + d * d * n3 <= 0
        and lhs <= 0
        and lhs <= a * c * n1 + (a * d + b * c) * n2 + b * d * n3
    )


def phi_v_membership_ff(v, s):
    """Authoritative Phi_v test: s is a positive real root sent negative
    by v (the inequality system is only a necessary filter)."""
    if not is_positive_real_root_ff(s):
        return False
    return is_positive_real_root_ff(-ff_act(v, s))


def verify_lemma55(max_length):
    """Group the witnesses of ``check_prop51`` (all of them, up to
    max_length) by (i, alpha): the positive values of <alpha_i, alpha^vee>
    over nontrivial w, simple i with w^-1(alpha_i) > 0 and alpha in
    Phi_{w^-1}.  The exceptional (i, alpha) pairs are expected to be exactly
    (2, beta1), (2, beta2), (3, beta1), (3, beta3), each with value 1."""
    report = criteria.check_prop51(
        ff_cartan_spec(), max_length, all_witnesses=True
    )
    found = {}
    for witness in report.witnesses:
        found.setdefault((witness["simple_index"], tuple(witness["root"])), {
            "value": Fraction(
                witness["pairing"]["num"], witness["pairing"]["den"]
            ),
            "first_word": witness["word"],
        })
    expected = {(2, BETA1), (2, BETA2), (3, BETA1), (3, BETA3)}
    pairs = set(found)
    return {
        "max_length": max_length,
        "ok": pairs == expected and all(e["value"] == 1 for e in found.values()),
        "exceptional_pairs": [
            {"simple_index": i, "root": list(r),
             "value": str(found[(i, r)]["value"]),
             "first_word": found[(i, r)]["first_word"]}
            for i, r in sorted(pairs)
        ],
        "expected_pairs": [
            {"simple_index": i, "root": list(r)} for i, r in sorted(expected)
        ],
        "missing": [list(r) + [i] for i, r in sorted(expected - pairs)],
        "unexpected": [list(r) + [i] for i, r in sorted(pairs - expected)],
        "all_values_one": all(e["value"] == 1 for e in found.values()),
        "no_index_one": all(i != 1 for i, _ in pairs),
        "elements_enumerated": report.stats["elements_enumerated"],
    }


def verify_prop56(max_length):
    """Bounded Property RD reproduction for both maximal parabolics of the
    Feingold-Frenkel algebra, with the exact pairing values used in the
    published argument."""
    spec = ff_cartan_spec()
    rd_p1 = criteria.check_rd(spec, (2, 3), max_length)
    rd_p2 = criteria.check_rd(spec, (1, 3), max_length)
    par1 = make_parabolic(spec, (2, 3))
    par2 = make_parabolic(spec, (1, 3))

    def ratio(par, root):
        return -pair_with_coroot(spec, par.rho_M, root) / pair_with_coroot(
            spec, par.omega_P, root
        )

    ratio_beta3 = ratio(par1, BETA3)
    ratio_beta1 = ratio(par2, BETA1)
    w2_beta1 = psi_inv(ff_act(W2, psi(BETA1)))
    w2_beta2 = psi_inv(ff_act(W2, psi(BETA2)))
    identities = {
        "<alpha3, beta2^vee>": pair_with_coroot(spec, spec.simple_root(3), BETA2),
        "w2.beta1 == alpha3": w2_beta1 == (0, 0, 1),
        "<alpha3, w2.beta2^vee>": pair_with_coroot(
            spec, spec.simple_root(3), w2_beta2
        ),
    }
    identities_ok = (
        identities["<alpha3, beta2^vee>"] == 2
        and identities["w2.beta1 == alpha3"]
        and identities["<alpha3, w2.beta2^vee>"] == 3
    )
    ok = (
        rd_p1.verdict == criteria.HOLDS
        and rd_p2.verdict == criteria.HOLDS
        and ratio_beta1 == Fraction(1, 2)
        and identities_ok
    )
    return {
        "max_length": max_length,
        "ok": ok,
        "rd_theta_23": criteria.report_to_dict(rd_p1),
        "rd_theta_13": criteria.report_to_dict(rd_p2),
        "rho_M1_beta3_pairing": str(pair_with_coroot(spec, par1.rho_M, BETA3)),
        "rho_M2_beta1_pairing": str(pair_with_coroot(spec, par2.rho_M, BETA1)),
        "ratio_at_beta3": str(ratio_beta3),
        "ratio_at_beta1": str(ratio_beta1),
        "identities": {k: (v if isinstance(v, bool) else str(v))
                       for k, v in identities.items()},
        "identities_ok": identities_ok,
    }
