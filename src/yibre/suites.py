"""Named verification suites with seeded rational parameter draws.

Each suite assembles a list of checks; a check produces either a residual-like
object (pass iff exactly zero) or a boolean.  A check that raises is recorded
with status "error" and the suite goes on.  Reports are deterministic for a
fixed (suite, n, seed, draws) triple: checks are sorted by name and the draw
history is recorded.
"""

from __future__ import annotations

import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from . import bezout, blocks, cg, classical, poisson, qalg, rime, tensor
from .kernel import ONE, ZERO, RationalDraw, format_rat, rat
from .poisson import PencilParams, QuadraticBracket
from .tensor import Operator1, Operator2, Operator3, first_nonzero_witness

SKIP = object()   # sentinel: check not decidable over the rationals at this point


@dataclass
class Check:
    name: str
    anchor: str
    fn: Callable[[], object]
    mutable: bool = True


@dataclass
class CheckResult:
    name: str
    anchor: str
    status: str
    residual_witness: dict | None = None

    def to_dict(self) -> dict:
        out = {"name": self.name, "anchor": self.anchor, "status": self.status}
        if self.residual_witness is not None:
            out["residual_witness"] = self.residual_witness
        return out


@dataclass
class SuiteReport:
    suite: str
    n: int
    seed: int
    draws: int
    parameter_draws: list[str] = field(default_factory=list)
    checks: list[CheckResult] = field(default_factory=list)
    wall_time_ms: int = 0

    @property
    def all_pass(self) -> bool:
        return all(c.status not in ("fail", "error") for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "n": self.n,
            "seed": self.seed,
            "draws": self.draws,
            "parameter_draws": self.parameter_draws,
            "checks": [c.to_dict() for c in self.checks],
            "wall_time_ms": self.wall_time_ms,
        }


def _is_zero(obj) -> tuple[bool, dict | None]:
    """Zero test plus a localized witness for the first offending entry."""
    if obj is SKIP:
        return True, None
    if isinstance(obj, bool):
        return obj, None if obj else {"index": "-", "value": "false"}
    if isinstance(obj, Fraction) or isinstance(obj, int):
        v = rat(obj)
        return v == 0, None if v == 0 else {"index": "-", "value": format_rat(v)}
    if isinstance(obj, (Operator1, Operator2, Operator3)):
        if obj.is_zero():
            return True, None
        key, val = first_nonzero_witness(obj)
        return False, {"index": key, "value": format_rat(val)}
    if isinstance(obj, QuadraticBracket):
        if obj.is_zero():
            return True, None
        for (i, j), poly in sorted(obj.pairs.items()):
            for mono, v in sorted(poly.items()):
                if v:
                    return False, {"index": f"{i},{j}|{mono[0]},{mono[1]}",
                                   "value": format_rat(v)}
    if isinstance(obj, dict):
        for key in sorted(obj, key=str):
            ok, wit = _is_zero(obj[key])
            if not ok:
                if wit is not None:
                    wit = {"index": f"{key}:{wit['index']}", "value": wit["value"]}
                return False, wit
        return True, None
    if isinstance(obj, (list, tuple)):
        for pos, item in enumerate(obj):
            ok, wit = _is_zero(item)
            if not ok:
                if wit is not None:
                    wit = {"index": f"{pos}:{wit['index']}", "value": wit["value"]}
                return False, wit
        return True, None
    raise TypeError(f"cannot interpret check result {obj!r}")


def _mutate(obj):
    """Bump one entry of a residual-like object (fault injection)."""
    if isinstance(obj, (Operator1, Operator2, Operator3)):
        out = obj + obj.zero(obj.dim)
        out._add(0, 0, ONE)
        return out
    if isinstance(obj, Fraction):
        return obj + 1
    if isinstance(obj, bool):
        return not obj
    if isinstance(obj, QuadraticBracket):
        out = QuadraticBracket(obj.dim)
        for (i, j), poly in obj.pairs.items():
            out.set_pair(i, j, poly)
        if obj.dim >= 2:
            poly = dict(out.pair(1, 2))
            poly[(1, 1)] = poly.get((1, 1), ZERO) + 1
            out.set_pair(1, 2, poly)
        return out
    if isinstance(obj, dict) and obj:
        key = sorted(obj, key=str)[0]
        out = dict(obj)
        out[key] = _mutate(out[key])
        return out
    if isinstance(obj, (list, tuple)) and obj:
        out = list(obj)
        out[0] = _mutate(out[0])
        return out
    return obj


def run_suite(suite: str, n: int, seed: int, draws: int,
              mutate: str | None = None) -> SuiteReport:
    builder = SUITE_BUILDERS.get(suite)
    if builder is None:
        raise KeyError(f"unknown suite {suite!r}")
    draw = RationalDraw(seed)
    checks = builder(n, draw, draws)
    mutate_target = None
    if mutate == "one-entry":
        eligible = sorted(c.name for c in checks if c.mutable)
        if eligible:
            mutate_target = eligible[RationalDraw(seed ^ 0x5EED).int_in(0, len(eligible) - 1)]
    started = time.monotonic()
    results = []
    for check in checks:
        try:
            value = check.fn()
            if value is SKIP:
                results.append(CheckResult(check.name, check.anchor, "skipped-needs-extension"))
                continue
            if check.name == mutate_target:
                value = _mutate(value)
            ok, witness = _is_zero(value)
        except Exception as exc:
            # the report keeps only the exception type, so it stays deterministic
            traceback.print_exc(file=sys.stderr)
            results.append(CheckResult(check.name, check.anchor, "error",
                                       {"index": "-", "value": type(exc).__name__}))
            continue
        results.append(CheckResult(check.name, check.anchor,
                                   "pass" if ok else "fail", witness))
    results.sort(key=lambda c: c.name)
    report = SuiteReport(suite, n, seed, draws,
                         [format_rat(x) for x in draw.history], results,
                         int((time.monotonic() - started) * 1000))
    return report


# --- individual suites ----------------------------------------------------------


def _draw_beta(draw: RationalDraw, banned=(0,)) -> Fraction:
    while True:
        b = draw.rational()
        if b not in banned:
            return b


def rime_suite(n: int, draw: RationalDraw, draws: int) -> list[Check]:
    checks: list[Check] = []
    for d in range(draws):
        phi = draw.vector(n, distinct=True)
        mu = draw.vector(n, distinct=True)
        beta = _draw_beta(draw, banned=(0, 1, 2))
        data = rime.strict_rime_data(phi, beta)
        r = rime.assemble_rime(data)
        u = rime.unitary_rime_R(mu)
        udata = rime.unitary_rime_data(mu)

        def mk(name, anchor, fn, mutable=True):
            checks.append(Check(f"{name}[{d}]", anchor, fn, mutable))

        mk("yb-strict", "R/bphi", lambda r=r: tensor.yb_residual(r))
        mk("yb-unitary", "R/unitary", lambda u=u: tensor.yb_residual(u))
        mk("hecke-strict", "Hecke", lambda r=r, b=beta: tensor.hecke_residual(r, b))
        mk("unitary-squares-to-identity", "Hecke",
           lambda u=u: (u @ u) - Operator2.identity(n))
        def eig_mult(r=r, b=beta):
            rep = rime.eigen_multiplicities(r, b)
            return (rep.multiplicity_one == n * (n + 1) // 2
                    and rep.multiplicity_beta_minus_one == n * (n - 1) // 2
                    and not rep.jordan)
        mk("eigen-multiplicities", "Hecke", eig_mult, mutable=False)
        def classify_ok(r=r, phi=phi, beta=beta):
            # a zero phi_i or beta_ji = 1 degrades strictness but stays rime
            strict = all(phi) and all(
                (ONE - beta) * phi[j] != phi[i]
                for i in range(n) for j in range(n) if i != j)
            got = rime.classify(r)
            if strict:
                return got == rime.RimeClass.RIME_STRICT
            return got in (rime.RimeClass.RIME_STRICT, rime.RimeClass.RIME_NON_STRICT)
        mk("classify-strict", "rice", classify_ok, mutable=False)

        def qt_check(data=data, r=r, beta=beta):
            qc, qtc = rime.quantum_trace_closed_forms(data)
            qs, qts = rime.quantum_traces(r)
            residuals = {"q": qc - qs, "qt": qtc - qts,
                         "product": (qc @ qtc) - Operator1.identity(n).scale(
                             (ONE - beta) ** (n - 1))}
            return residuals
        mk("quantum-traces", "qtq1/qtq2", qt_check)

        def eig_q(data=data, phi=phi, beta=beta):
            q, _ = rime.quantum_trace_closed_forms(data)
            out = {}
            for a in range(n):
                w = rime.eigenvector_w(phi, a)
                lam = (ONE - beta) ** (n - 1 - a)
                out[f"w{a}"] = [x - lam * y for x, y in zip(q.apply(w), w)]
            return out
        mk("quantum-trace-eigenvectors", "qtq-eigenvalues", eig_q)

        def jordan_q(udata=udata, mu=mu):
            q, _ = rime.quantum_trace_closed_forms(udata)
            out = {}
            ws = [rime.eigenvector_w(mu, s) for s in range(n)]
            for i in range(n):
                coeffs = rime.jordan_action_coefficients(n, i)
                rhs = [sum((coeffs[s] * ws[s][j] for s in range(n)), ZERO) for j in range(n)]
                out[f"w{i}"] = [x - y for x, y in zip(q.apply(ws[i]), rhs)]
            return out
        mk("quantum-trace-jordan-action", "binomial-action", jordan_q)

        u1, v1 = draw.rational(), draw.rational()
        u2, v2 = draw.rational(), draw.rational()

        def invariance(phi=phi, r=r, beta=beta, u1=u1, v1=v1, u2=u2, v2=v2):
            y1 = rime.invariance_Y(phi, u1, v1)
            y2 = rime.invariance_Y(phi, u2, v2)
            yy = tensor.kron11(y1, y1)
            out = {
                "composition": (y1 @ y2) - rime.invariance_Y(phi, u1 * u2, v1 * v2),
                "identity": rime.invariance_Y(phi, 1, 1) - Operator1.identity(n),
                "commutation": r @ yy - yy @ r,
                "determinant": y1.det() - (u1 * v1) ** (n * (n - 1) // 2),
                "q-is-Y": rime.invariance_Y(phi, ONE - beta, ONE)
                          - rime.quantum_trace_closed_forms(
                              rime.strict_rime_data(phi, beta))[0],
            }
            return out
        mk("invariance-Y", "inr1", invariance)

        a1, a2 = draw.rational(), draw.rational()

        def invariance0(mu=mu, u=u, a1=a1, a2=a2, udata=udata):
            y1 = rime.invariance_Y0(mu, a1)
            yy = tensor.kron11(y1, y1)
            return {
                "additivity": (y1 @ rime.invariance_Y0(mu, a2))
                              - rime.invariance_Y0(mu, a1 + a2),
                "identity": rime.invariance_Y0(mu, 0) - Operator1.identity(n),
                "commutation": u @ yy - yy @ u,
                "q-is-Y0": rime.invariance_Y0(mu, -1)
                           - rime.quantum_trace_closed_forms(udata)[0],
            }
        mk("invariance-Y0", "inr3", invariance0)

        def generators(phi=phi, mu=mu, r=r, u=u):
            eta = rime.invariance_generator("nonunitary", phi)
            eta0 = rime.invariance_generator("unitary", mu)
            return {
                "trace": eta.trace(),
                "trace0": eta0.trace(),
                "commutator": tensor.commutator_with_sum(r, eta),
                "commutator0": tensor.commutator_with_sum(u, eta0),
            }
        mk("invariance-generators", "inr2/inr4", generators)

        def r21_props(phi=phi, mu=mu, beta=beta):
            out = {}
            if all(phi):
                f = Operator1.diag(phi)
                finv = f.inverse()
                lhs = rime.strict_rime_R(phi, beta).reversed_legs()
                rhs = tensor.kron11(finv, finv) @ rime.strict_rime_R(
                    [1 / p for p in phi], beta) @ tensor.kron11(f, f)
                out["nonunitary"] = lhs - rhs
            out["unitary"] = rime.unitary_rime_R(mu).reversed_legs() \
                - rime.unitary_rime_R([-m for m in mu])
            return out
        mk("reversed-leg-conjugation", "sec2.3-prop1", r21_props)

        def appendix(data=data):
            return rime.appendix_A_residuals(data)
        mk("appendix-system-strict", "yb1..ee3", appendix)

        def appendix_mutated(data=data):
            bad = data.replace_entry("beta_ij", 1, 2, data.b(1, 2) + 7)
            return any(v != 0 for v in rime.appendix_A_residuals(bad).values())
        mk("appendix-mutation-detected", "yb1..ee3", appendix_mutated, mutable=False)

        def gamma_pairing(data=data):
            return {"pairing": [data.gp(i, j) + data.g(j, i)
                    for i in range(1, n + 1) for j in range(1, n + 1) if i != j]}
        mk("gamma-pairing", "subst", gamma_pairing)

        def planes(data=data, r=r, beta=beta):
            right = rime.quantum_space_relations(r, 1, "right", "even")
            left = rime.quantum_space_relations(r, 1, "left", "even")
            rodd = rime.quantum_space_relations(r, beta - 1, "right", "odd")
            lodd = rime.quantum_space_relations(r, beta - 1, "left", "odd")
            return {
                "right-even-rime-plane": right == rime.rime_plane_relations(data),
                "left-even-classical": left == rime.classical_commutator_relations(n),
                "right-odd-classical": rodd == rime.odd_classical_relations(n),
                "left-odd-display": lodd == rime.left_odd_rime_relations(data, beta),
            }
        mk("quantum-spaces", "qp", planes, mutable=False)
    # ice data also passes the equation system
    qi = _draw_beta(draw, banned=(0, 1))

    def ice_appendix(qi=qi):
        ice = cg.standard_rc_matrix(n, qi)
        data = rime.extract_rime_data(ice)
        return rime.appendix_A_residuals(data)
    checks.append(Check("appendix-system-ice", "yb1..ee3", ice_appendix))

    def unitary_limit():
        mu = draw.vector(n, distinct=True)
        u = rime.unitary_rime_R(mu)
        d1 = (rime.strict_rime_R([1 + Fraction(1, 10) * m for m in mu], Fraction(1, 10))
              - u).scale(10)
        d2 = (rime.strict_rime_R([1 + Fraction(1, 100) * m for m in mu], Fraction(1, 100))
              - u).scale(100)
        return d1 - d2
    checks.append(Check("unitary-limit-first-order", "liu", unitary_limit))
    return checks


def blocks_suite(n: int, draw: RationalDraw, draws: int) -> list[Check]:
    checks: list[Check] = []
    q = Fraction(5, 3)   # (q-1)/(q+1) = 1/4, so tau = 1/2 is rational
    members = [
        (blocks.RBL1, (2, 1)), (blocks.RBL2, (2, 1)), (blocks.RBL3, (2, Fraction(3, 2))),
        (blocks.RBL4, (3, 1, 1)), (blocks.RBL4, (3, 9, 1)),
        (blocks.RBL4, (3, Fraction(1, 9), 2)),
        (blocks.GL2_STD, (2, 3)), (blocks.GL11_STD, (2, 3)),
        (blocks.EIGHT_VERTEX, (2,)), (blocks.R_II, (2, 1)), (blocks.R_II, (2, -1)),
        (blocks.JORDANIAN, (1, 2)), (blocks.JORDANIAN, (0, 3)),
        (blocks.PERM_LIKE, (2, 3, 5)), (blocks.R_PRIME, (7,)),
        (blocks.R_DOUBLE_PRIME, (1, 2, 3)), (blocks.R_TRIPLE_PRIME, ()),
    ]
    for kind, ps in members:
        label = kind + "-" + "-".join(format_rat(rat(x)) for x in ps) if ps else kind
        checks.append(Check(f"ybe:{label}", "rbl1..rjo",
                            lambda kind=kind, ps=ps: tensor.yb_residual(
                                blocks.block_matrix(kind, *ps))))

    def spectrum_types():
        return {
            "rbl1-gl2": blocks.block_properties(blocks.RBL1, 2, 1).spectrum_type == "gl2",
            "rbl2-gl11": blocks.block_properties(blocks.RBL2, 2, 1).spectrum_type == "gl11",
            "rbl3-gl2": blocks.block_properties(blocks.RBL3, 2, 1).spectrum_type == "gl2",
            "rbl4-gl11": blocks.block_properties(blocks.RBL4, 3, 9, 1).spectrum_type == "gl11",
            "identity-not-skew": not blocks.is_skew_invertible(Operator2.identity(2)),
        }
    checks.append(Check("spectrum-types", "B.1", spectrum_types, mutable=False))

    def equivalences():
        out = {}
        for e in blocks.stated_equivalences(q, Fraction(2, 7)):
            out[e["name"]] = e["residual"] if e["status"] == "checked" else True
        return out
    checks.append(Check("equivalences-tau-rational", "uu1/uu2/uu3", equivalences))

    def equivalences_generic():
        entries = blocks.stated_equivalences(2, 1)
        byname = {e["name"]: e for e in entries}
        if byname["rbl4-omega1-to-eight-vertex"]["status"] != "skipped-needs-extension":
            return False
        return all(e["residual"].is_zero() for e in entries if e["status"] == "checked")
    checks.append(Check("equivalences-generic-q", "uu1", equivalences_generic,
                        mutable=False))

    def symmetry():
        out = {}
        for kind, ps in ((blocks.GL2_STD, (2, 3)), (blocks.GL11_STD, (2, 3)),
                         (blocks.EIGHT_VERTEX, (2,)), (blocks.R_II, (2, 1)),
                         (blocks.JORDANIAN, (1, 2))):
            rep = blocks.symmetry_relations(kind, *ps)
            out[kind] = all(v == "pass" for v in rep.values())
        return out
    checks.append(Check("symmetry-relations", "B.2", symmetry, mutable=False))

    def skinv():
        ok = True
        for kind, ps in members:
            r = blocks.block_matrix(kind, *ps)
            if (blocks.classify(r) != rime.RimeClass.NOT_RIME
                    and blocks.is_skew_invertible(r)):
                ok = ok and blocks.skinv_implications(r)
        return ok
    checks.append(Check("skew-invertibility-implications", "skinv", skinv, mutable=False))

    def nonrime():
        count = 0
        tries = 0
        while count < 50 and tries < 500:
            tries += 1
            t = Operator1([[draw.rational(), draw.rational()],
                           [draw.rational(), draw.rational()]])
            if t.det() == 0:
                continue
            vals = blocks.nonrime_entries(t, draw.rational(), draw.rational(nonzero=False))
            if not any(vals):
                return False
            count += 1
        return count == 50
    checks.append(Check("nonrime-entries-property", "nre", nonrime, mutable=False))

    checks.append(Check("jordanian-h1-zero-is-rime", "B.3",
                        lambda: blocks.classify(blocks.block_matrix(blocks.JORDANIAN, 0, 3))
                        == rime.RimeClass.RIME_NON_STRICT, mutable=False))
    return checks


def cg_suite(n: int, draw: RationalDraw, draws: int) -> list[Check]:
    checks: list[Check] = []
    for d in range(draws):
        qi = _draw_beta(draw, banned=(0,))
        p = draw.rational()
        params = cg.CGParams(n, qi, p)
        checks.append(Check(f"cg-ybe[{d}]", "CG",
                            lambda params=params: tensor.yb_residual(cg.cg_matrix(params))))
        checks.append(Check(f"cg-hecke[{d}]", "CG/Hecke",
                            lambda params=params: tensor.hecke_residual(
                                cg.cg_matrix(params), params.beta)))
        phi = draw.vector(n, distinct=True)
        beta = _draw_beta(draw, banned=(0, 1))
        checks.append(Check(f"cg-equivalence[{d}]", "change/cha0",
                            lambda phi=phi, beta=beta: cg.cg_equivalence_residual(phi, beta)))
        phi2 = draw.vector(n, distinct=True)
        checks.append(Check(
            f"phi-transition[{d}]", "transition",
            lambda phi=phi, phi2=phi2: cg.phi_transition(phi, phi2)
            - (cg.x_change_of_basis(phi2)[0] @ cg.x_change_of_basis(phi)[1])))
        checks.append(Check(
            f"x-inverse[{d}]", "matX/transe",
            lambda phi=phi: (cg.x_change_of_basis(phi)[0] @ cg.x_change_of_basis(phi)[1])
            - Operator1.identity(n)))
        checks.append(Check(
            f"generating-function[{d}]", "gxty1/gxty2",
            lambda phi=phi: cg.generating_function_residual(phi)))

    qi = Fraction(1, 4)
    checks.append(Check("d-twist", "invdcg/chst",
                        lambda: cg.d_twist_conjugate(cg.cg_matrix(cg.CGParams(n, qi, 1)), 2)
                        - cg.cg_matrix(cg.CGParams(n, qi, 2))))
    checks.append(Check("d-twist-commutes", "chst precondition",
                        lambda: (cg.cg_matrix(cg.CGParams(n, qi, 1))
                                 @ tensor.kron11(cg.d_twist_matrix(n, 2), cg.d_twist_matrix(n, 2)))
                        - (tensor.kron11(cg.d_twist_matrix(n, 2), cg.d_twist_matrix(n, 2))
                           @ cg.cg_matrix(cg.CGParams(n, qi, 1)))))

    def sectype():
        phi = draw.vector(min(n, 4), distinct=True)
        m = len(phi)
        worst = ZERO
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                if i == j:
                    continue
                for k in range(1, m + 1):
                    for l in range(1, m + 1):
                        worst = max(worst, abs(cg.sectype_identity_residual(phi, i, j, k, l)))
        return worst
    checks.append(Check("sectype-exhaustive", "sectype", sectype))

    checks.append(Check("cg-symmetry", "transem proof",
                        lambda: cg.cg_symmetry_residual(n, qi)))

    def riming():
        rc, xt, residual = cg.standard_riming(n, qi)
        return {"residual": residual,
                "ybe": tensor.yb_residual(rc),
                "hecke": tensor.hecke_residual(rc, 1 - qi),
                "is-rime": rime.classify(tensor.conjugate2(rc, xt))
                in (rime.RimeClass.RIME_NON_STRICT, rime.RimeClass.RIME_STRICT)}
    checks.append(Check("standard-riming", "stcl/rstcl", riming))

    def qpcg():
        rcg = cg.cg_matrix(cg.CGParams(n, qi, 1))
        return rime.quantum_space_relations(rcg, 1, "right", "even") \
            == cg.cg_plane_relations(n, qi)
    checks.append(Check("cg-quantum-plane", "qpcg", qpcg, mutable=False))

    def xty():
        beta = 1 - qi
        phis = draw.vector(n, distinct=True)
        rr = rime.strict_rime_R(phis, beta)
        x, _ = cg.x_change_of_basis(phis)
        xx = tensor.kron11(x, x)
        m = rr.scalar_shift(-1) @ xx
        rows = [[m._get(r_, c_) for c_ in range(n * n)] for r_ in range(n * n)]
        lhs = rime.relation_basis_from_rows(n, rows)
        rcg = cg.cg_matrix(cg.CGParams(n, qi, 1))
        rows2 = [[rcg.scalar_shift(-1)._get(r_, c_) for c_ in range(n * n)]
                 for r_ in range(n * n)]
        return lhs == rime.relation_basis_from_rows(n, rows2)
    checks.append(Check("xty-ideal-map", "xty", xty, mutable=False))
    return checks


def classical_suite(n: int, draw: RationalDraw, draws: int) -> list[Check]:
    checks: list[Check] = []
    phi = draw.vector(n, distinct=True)
    mu = draw.vector(n, distinct=True)
    named = {
        "rime-nonskew": classical.rime_nonskew_r(phi),
        "rime-skew": classical.rime_skew_r(mu),
        "rime-skew-sl": classical.rime_skew_sl_r(mu),
        "r-cg": classical.rcg_r(n),
        "r-cg-prime": classical.rcg_prime_r(n),
        "b-skew": classical.b_skew_r(n),
        "b-cg": classical.b_cg_r(n),
    }
    for name, op in named.items():
        checks.append(Check(f"cybe:{name}", "rcb/clcr/bee/bcg",
                            lambda op=op: tensor.cybe_residual(op)))
    for d in range(draws):
        phi_d = draw.vector(n, distinct=True)
        beta_d = draw.rational()
        checks.append(Check(f"classical-limit[{d}]", "R=1+beta r",
                            lambda phi_d=phi_d, beta_d=beta_d:
                            classical.classical_limit_residual(phi_d, beta_d)))
    checks.append(Check("conjugation:nonskew-to-rcg", "clcr",
                        lambda: classical.conjugation_residual("nonskew-to-rcg", phi)))
    checks.append(Check("conjugation:skew-to-b", "bee'",
                        lambda: classical.conjugation_residual("skew-to-b", mu)))
    checks.append(Check("conjugation:skew-sl-to-bcg", "bcg",
                        lambda: classical.conjugation_residual("skew-sl-to-bcg", mu)))
    checks.append(Check("p-symmetry-nonskew", "crm",
                        lambda: tensor.permutation_P(n) @ named["rime-nonskew"]
                        + named["rime-nonskew"]))
    checks.append(Check("skew-antisymmetry", "rcc",
                        lambda: named["rime-skew"].reversed_legs() + named["rime-skew"]))
    checks.append(Check("carrier-algebra", "zz",
                        lambda: classical.carrier_algebra_check(mu).all_ok(), mutable=False))
    checks.append(Check("bd-symmetry-rcg", "capar",
                        lambda: all(classical.bd_symmetry_check(classical.R_CG, n).values()),
                        mutable=False))
    checks.append(Check("bd-symmetry-rcg-prime", "capar",
                        lambda: all(classical.bd_symmetry_check(
                            classical.R_CG_PRIME, n).values()), mutable=False))
    c1, c2 = draw.rational(), draw.rational()
    checks.append(Check("invariance-shift-rcg", "chstc2",
                        lambda: classical.invariance_shift_residual(
                            named["r-cg"], classical.invariance_eta_cg(n), c1)))
    checks.append(Check("invariance-shift-bskew", "unopa",
                        lambda: classical.invariance_shift_residual(
                            named["b-skew"], classical.invariance_eta0_b(n), c2)))
    checks.append(Check("representation-change-rcg", "chrecg",
                        lambda: classical.representation_change_residual(n, c1)))
    checks.append(Check("representation-change-bskew", "unopa",
                        lambda: classical.representation_change_residual(
                            n, c2, classical.B_SKEW)))
    checks.append(Check("bcg-from-shift", "c=-1/n",
                        lambda: (classical.b_skew_r(n)
                                 + tensor.wedge(classical.invariance_eta0_b(n),
                                                Operator1.identity(n))
                                 .scale(Fraction(-1, n)))
                        - classical.b_cg_r(n)))
    for d in range(min(draws, 5)):
        q = _draw_beta(draw, banned=(0, 1, -1))
        p, rr, s = draw.rational(), draw.rational(), draw.rational()
        checks.append(Check(f"bd-fork-ybe[{d}]", "orr1/orr2",
                            lambda q=q, p=p, rr=rr, s=s:
                            tensor.yb_residual(classical.bd_fork_R(q, p, rr, s))))
        checks.append(Check(f"bd-fork-hecke[{d}]", "orr-characteristic",
                            lambda q=q, p=p, rr=rr, s=s: tensor.hecke_residual(
                                classical.bd_fork_R(q, p, rr, s), 1 - 1 / (q * q))))
    checks.append(Check("lambda-bcg-gram-invertible", "Omega=dlambda",
                        lambda: classical.lambda_bcg_gram(n).det() != 0, mutable=False))
    checks.append(Check("tilde-difference", "bcg proof",
                        lambda: classical.tilde_difference_residual(mu)))
    return checks


def bezout_suite(n: int, draw: RationalDraw, draws: int) -> list[Check]:
    checks: list[Check] = []
    for kind in (bezout.B0, bezout.B, bezout.RS):
        checks.append(Check(f"closed-form:{kind}", "brr1..brr4/bez3",
                            lambda kind=kind: bezout.bezout_operator(kind, n)
                            - bezout.closed_form_operator(kind, n)))
    checks.append(Check("bridge:b0-is-bskew", "bee",
                        lambda: bezout.basis_flip(bezout.bezout_operator(bezout.B0, n))
                        - classical.b_skew_r(n)))
    checks.append(Check("bridge:b-is-p-rcg", "clcr",
                        lambda: bezout.basis_flip(bezout.bezout_operator(bezout.B, n))
                        - tensor.permutation_P(n) @ classical.rcg_r(n)))
    checks.append(Check("identity-suite", "bez4/bez5/bez6",
                        lambda: bezout.bezout_identity_suite(n)))
    three_leg = min(n, 4)
    checks.append(Check("nhacybe-b0", "bez8:c=0",
                        lambda: tensor.nhacybe_residual(
                            bezout.bezout_operator(bezout.B0, three_leg), 0)))
    checks.append(Check("nhacybe-b", "bez8:c=1",
                        lambda: tensor.nhacybe_residual(
                            bezout.bezout_operator(bezout.B, three_leg), 1)))
    checks.append(Check("nhacybe-rs", "bez8:c=1",
                        lambda: tensor.nhacybe_residual(
                            bezout.bezout_operator(bezout.RS, three_leg), 1)))
    checks.append(Check("nhacybe-primed", "bez7'",
                        lambda: {k: tensor.nhacybe_residual(
                            bezout.bezout_operator(k, three_leg), c, primed=True)
                            for k, c in ((bezout.B, 1), (bezout.RS, 1))}))

    def btilde():
        bt = bezout.bezout_operator(bezout.BTILDE, three_leg)
        r12 = tensor.lift(bt, 12)
        r13 = tensor.lift(bt, 13)
        r23 = tensor.lift(bt, 23)
        return {
            "circ": (r12 @ r13 + r13 @ r23 - r23 @ r12)
                    - Operator3.identity(three_leg).scale(Fraction(1, 4)),
            "sum": (bt + bt.reversed_legs()) + tensor.permutation_P(three_leg),
            "square": (bt @ bt) - Operator2.identity(three_leg).scale(Fraction(1, 4)),
        }
    checks.append(Check("btilde-relations", "bez15/bez16", btilde))

    for d in range(min(draws, 5)):
        lam = draw.rational()
        kind = (bezout.B0, bezout.B, bezout.RS)[d % 3]
        checks.append(Check(f"linear-quantization[{d}]", "bez22",
                            lambda kind=kind, lam=lam:
                            bezout.linear_quantization_residuals(kind, lam, three_leg)))
    a_s, b_s = draw.rational(), draw.rational()
    checks.append(Check("shift-law", "bez13",
                        lambda: {
                            "b": bezout.nhacybe_shift_residual(
                                bezout.bezout_operator(bezout.B, min(n, 3)), 1, a_s, b_s),
                            "b0": bezout.nhacybe_shift_residual(
                                bezout.bezout_operator(bezout.B0, min(n, 3)), 0, a_s, b_s)}))
    checks.append(Check("bez9", "bez9",
                        lambda: {k: bezout.bez9_residual(
                            bezout.bezout_operator(k, min(n, 3)), 1)
                            for k in (bezout.B, bezout.RS)}))
    checks.append(Check("bez23", "bez23",
                        lambda: bezout.bez23_residual(
                            bezout.bezout_operator(bezout.B, min(n, 3)), 1)))

    def quadratic_matching():
        out = {}
        for kind, (alpha, beta), (uu, vv) in ((bezout.B0, (0, 0), (0, 0)),
                                              (bezout.B, (-1, 1), (1, 0)),
                                              (bezout.RS, (-1, 1), (1, 0))):
            op = bezout.bezout_operator(kind, n)
            out[f"{kind}-sr"] = bezout.sr_decomposition(op) == (alpha, beta)
            out[f"{kind}-quadratic"] = bezout.quadratic_data(op) == (uu, vv)
            out[f"{kind}-u-equals-beta"] = uu == beta
        return out
    checks.append(Check("quadratic-data", "bez17/bez18", quadratic_matching, mutable=False))
    checks.append(Check("hecke-overlap", "bez19/bez20",
                        lambda: {k: bezout.hecke_overlap_residuals(
                            bezout.bezout_operator(k, min(n, 3)), 1, 0)
                            for k in (bezout.B, bezout.RS)}))
    c_s = draw.rational()
    checks.append(Check("shifted-solutions", "bez31",
                        lambda: {
                            "b0": bezout.shifted_solution_residual("b0shift", c_s, min(n, 3)),
                            "b": bezout.shifted_solution_residual("bshift", c_s, min(n, 3)),
                            "gen-b0": bezout.shift_generator_commutator("b0shift", n),
                            "gen-b": bezout.shift_generator_commutator("bshift", n)}))
    checks.append(Check("m-recursion", "b0b/b0b2",
                        lambda: all(bezout.m_recursion_check(n).values()), mutable=False))

    def coassoc():
        out = {}
        for m in (2, 3):
            units = [Operator1.unit(m, i, j) for i in range(1, m + 1)
                     for j in range(1, m + 1)]
            r0 = bezout.bezout_operator(bezout.B0, m)
            rb_ = bezout.bezout_operator(bezout.B, m)
            out[f"plain-{m}"] = [bezout.coassociativity_residual(r0, 0, "plain", u)
                                 for u in units]
            out[f"delta-{m}"] = [bezout.coassociativity_residual(rb_, 1, "delta", u)
                                 for u in units]
            out[f"tilde-{m}"] = [bezout.coassociativity_residual(rb_, 1, "delta-tilde", u)
                                 for u in units]
        return out
    checks.append(Check("coassociativity", "um2/um5", coassoc))

    def derivations():
        m = 2
        out = []
        for _ in range(3):
            u = Operator1([[draw.rational(nonzero=False) for _ in range(m)]
                           for _ in range(m)])
            v = Operator1([[draw.rational(nonzero=False) for _ in range(m)]
                           for _ in range(m)])
            out.append(bezout.derivation_residual(
                u, v, bezout.bezout_operator(bezout.B0, m), 0, "plain"))
            out.append(bezout.derivation_residual(
                u, v, bezout.bezout_operator(bezout.B, m), 1, "delta"))
            out.append(bezout.derivation_residual(
                u, v, bezout.bezout_operator(bezout.B, m), 1, "delta-tilde"))
        return out
    checks.append(Check("derivation-laws", "um6/um7/um8", derivations))
    return checks


def rota_suite(n: int, draw: RationalDraw, draws: int) -> list[Check]:
    checks: list[Check] = []
    phi = draw.vector(n, distinct=True)
    for kind in (bezout.B0, bezout.B, bezout.RS):
        checks.append(Check(f"closed-form-rb:{kind}", "brr5/brr6/bez29",
                            lambda kind=kind: bezout.rb_closed_form(kind, n).matrix()
                            - bezout.rota_baxter(bezout.bezout_operator(kind, n)).matrix()))
    checks.append(Check("closed-form-rb:rime-phi", "bez30",
                        lambda: bezout.rb_closed_form("rime-phi", n, phi).matrix()
                        - bezout.rota_baxter(classical.rime_nonskew_r(phi)).matrix()))

    def weights():
        out = {}
        units = [Operator1.unit(n, i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        rand_pairs = [(
            Operator1([[draw.rational(nonzero=False) for _ in range(n)] for _ in range(n)]),
            Operator1([[draw.rational(nonzero=False) for _ in range(n)] for _ in range(n)]))
            for _ in range(10)]
        for kind, w in ((bezout.B0, 0), (bezout.B, -1), (bezout.RS, -1)):
            rb = bezout.rota_baxter(bezout.bezout_operator(kind, n))
            out[f"{kind}-units"] = [bezout.rb_weight_residual(rb, w, x, y)
                                    for x in units for y in units]
            out[f"{kind}-random"] = [bezout.rb_weight_residual(rb, w, x, y)
                                     for x, y in rand_pairs]
        rbp = bezout.rota_baxter(classical.rime_nonskew_r(phi))
        out["rime-units"] = [bezout.rb_weight_residual(rbp, 1, x, y)
                             for x in units for y in units]
        out["rime-random"] = [bezout.rb_weight_residual(rbp, 1, x, y)
                              for x, y in rand_pairs]
        return out
    checks.append(Check("rb-weights", "bez25", weights))

    def sum_rule():
        out = {}
        a = Operator1([[draw.rational(nonzero=False) for _ in range(n)] for _ in range(n)])
        for kind, (alpha, beta) in ((bezout.B0, (0, 0)), (bezout.B, (-1, 1)),
                                    (bezout.RS, (-1, 1))):
            op = bezout.bezout_operator(kind, n)
            left = bezout.rota_baxter(op).apply(a) + bezout.rota_baxter(op, "right").apply(a)
            right = a.scale(alpha) + Operator1.identity(n).scale(rat(beta) * a.trace())
            out[kind] = left - right
        return out
    checks.append(Check("rb-sum-rule", "bez28", sum_rule))

    def tables():
        rb0 = bezout.rota_baxter(bezout.bezout_operator(bezout.B0, 2))
        rb = bezout.rota_baxter(bezout.bezout_operator(bezout.B, 2))
        ar = [[draw.rational(), draw.rational()], [draw.rational(), draw.rational()]]
        tr = [[draw.rational(), draw.rational()], [draw.rational(), draw.rational()]]
        a, t = Operator1(ar), Operator1(tr)
        out = {
            "stmn1": rb0.apply(a) - Operator1([[-ar[1][0], ar[0][0]], [ZERO, ZERO]]),
            "stmn4": rb.apply(a) - Operator1([[ZERO, ZERO], [-ar[1][0], ar[0][0]]]),
            "stmn2": bezout.star_product(a, t, rb0, 0) - Operator1(
                [[-ar[1][0] * tr[0][0],
                  -ar[1][0] * tr[0][1] + ar[0][0] * (tr[0][0] + tr[1][1])],
                 [-ar[1][0] * tr[1][0], ar[1][0] * tr[0][0]]]),
            "stmn5": bezout.star_product(a, t, rb, -1) - Operator1(
                [[ar[0][0] * tr[0][0],
                  ar[0][0] * tr[0][1] + ar[0][1] * (tr[0][0] + tr[1][1])],
                 [ar[0][0] * tr[1][0],
                  ar[0][0] * tr[1][1] + ar[1][1] * (tr[0][0] + tr[1][1])]]),
        }
        return out
    checks.append(Check("star-tables", "stmn1/stmn2/stmn4/stmn5", tables))

    def associativity():
        m = min(n, 3)
        units = [Operator1.unit(m, i, j) for i in range(1, m + 1) for j in range(1, m + 1)]
        out = []
        for kind, w, c in ((bezout.B0, 0, 0), (bezout.B, -1, 1)):
            rb = bezout.rota_baxter(bezout.bezout_operator(kind, m))
            rbp = bezout.rota_baxter(bezout.bezout_operator(kind, m), "right")
            for x in units:
                for y in units:
                    out.append(bezout.star_tilde_product(x, y, rb, rbp, c)
                               - bezout.star_product(x, y, rb, w))
                    for z in units:
                        out.append(bezout.star_product(
                            bezout.star_product(x, y, rb, w), z, rb, w)
                            - bezout.star_product(
                                x, bezout.star_product(y, z, rb, w), rb, w))
        return out
    checks.append(Check("star-associativity", "stm1", associativity))

    checks.append(Check("gl3-isomorphism-b0", "stmn3",
                        lambda: all(bezout.gl2_isomorphism_check(bezout.B0).values()),
                        mutable=False))
    checks.append(Check("gl3-isomorphism-b", "stmn6",
                        lambda: all(bezout.gl2_isomorphism_check(bezout.B).values()),
                        mutable=False))
    return checks


def poisson_suite(n: int, draw: RationalDraw, draws: int) -> list[Check]:
    checks: list[Check] = []
    for d in range(draws):
        psi = draw.vector(n, distinct=True)
        abc = (draw.rational(nonzero=False), draw.rational(nonzero=False),
               draw.rational(nonzero=False))
        params = PencilParams(psi, *abc)

        def jac(params=params):
            br = poisson.pencil_bracket(params)
            res = poisson.jacobi_residual(br)
            return {"forms-agree": br == poisson.pencil_bracket_uv_form(params),
                    "jacobi": not res,
                    "rime-fit": poisson.rime_fit(br) is not None}
        checks.append(Check(f"pencil[{d}]", "rpb15/rpb16/rpb17", jac, mutable=False))
    psi = draw.vector(n, distinct=True)
    params = PencilParams(psi, draw.rational(), draw.rational(), draw.rational())

    def generator():
        gen = poisson.invariance_generator(params)
        return {"traceless": gen.trace(),
                "annihilates": poisson.lie_derivative(poisson.pencil_bracket(params), gen)}
    checks.append(Check("invariance-generator", "ris6", generator))

    nu = draw.vector(n, distinct=False)
    checks.append(Check("rime-preserving-variation", "ris5",
                        lambda: poisson.rime_fit(poisson.lie_derivative(
                            poisson.pencil_bracket(params),
                            poisson.rime_preserving_matrix(params, nu))) is not None,
                        mutable=False))
    checks.append(Check("compensation", "ris7..ris11",
                        lambda: poisson.compensation_check(params, nu).all_ok(),
                        mutable=False))
    checks.append(Check("sl2-suite", "ops1..ops7/trid",
                        lambda: all(poisson.sl2_suite(psi).values()), mutable=False))

    def discriminant():
        ok = True
        for _ in range(draws):
            rho = (draw.rational(nonzero=False), draw.rational(nonzero=False),
                   draw.rational(nonzero=False))
            dval = rho[1] ** 2 - 4 * rho[0] * rho[2]
            for mv, val in (("shift", draw.rational()), ("dilate", draw.rational()),
                            ("invert", None)):
                new = poisson.discriminant_action(rho, mv, val)
                if new[1] ** 2 - 4 * new[0] * new[2] != dval:
                    ok = False
        return ok
    checks.append(Check("discriminant-invariance", "ich5..ich8", discriminant,
                        mutable=False))

    def normal_forms():
        ok = True
        for _ in range(20):
            psi_d = draw.vector(n, distinct=True)
            rho = (draw.rational(nonzero=False), draw.rational(nonzero=False),
                   draw.rational(nonzero=False))
            res = poisson.normal_form_classify(PencilParams(psi_d, *rho))
            dval = rho[1] ** 2 - 4 * rho[0] * rho[2]
            expected = poisson.ZERO_POLY if rho == (0, 0, 0) else (
                poisson.MASSIVE if dval else poisson.LIGHTLIKE)
            if res.orbit != expected:
                ok = False
            if res.witness is not None and not res.transport_verified:
                ok = False
        return ok
    checks.append(Check("normal-form-consistency", "6.3", normal_forms, mutable=False))

    beta = draw.rational()
    checks.append(Check("bracket-from-quantum-nonunitary", "remark1",
                        lambda: _bracket_diff(
                            poisson.bracket_from_quantum(psi, beta),
                            poisson.pencil_bracket(PencilParams(psi, 0, beta, 0)))))
    checks.append(Check("bracket-from-quantum-unitary", "remark1",
                        lambda: _bracket_diff(
                            poisson.bracket_from_quantum(psi),
                            poisson.pencil_bracket(PencilParams(psi, 0, 0, -1)))))
    checks.append(Check("linear-rime-suite", "jsla",
                        lambda: all(poisson.linear_rime_suite(max(n, 3), draw).values()),
                        mutable=False))
    if n != 3:
        checks.append(Check("linear-rime-n3", "jsla-sl2",
                            lambda: all(poisson.linear_rime_suite(3, draw).values()),
                            mutable=False))
    return checks


def _bracket_diff(b1: QuadraticBracket, b2: QuadraticBracket) -> QuadraticBracket:
    out = QuadraticBracket(b1.dim)
    for i in range(1, b1.dim + 1):
        for j in range(i + 1, b1.dim + 1):
            poly = dict(b1.pair(i, j))
            for m, v in b2.pair(i, j).items():
                poly[m] = poly.get(m, ZERO) - v
            out.set_pair(i, j, poly)
    return out


def qalg_suite(n: int, draw: RationalDraw, draws: int) -> list[Check]:
    checks: list[Check] = []
    m = min(max(n, 3), 4)   # the overlap classification needs at least one triple

    def overlaps_vanish():
        out = {}
        gs = {(j, k): draw.rational() for j in range(1, m + 1) for k in range(j + 1, m + 1)}
        pres1 = qalg.OrderedPresentation.case_i(m, lambda j, k: gs[(j, k)])
        out["case-i-closed"] = not qalg.overlap_residuals(pres1)
        out["case-i-semantic"] = not qalg.overlap_residuals_semantic(pres1)
        f = _draw_beta(draw, banned=(0, 1, -1))
        pres2 = qalg.OrderedPresentation.case_ii(m, f)
        out["case-ii-closed"] = not qalg.overlap_residuals(pres2)
        out["case-ii-semantic"] = not qalg.overlap_residuals_semantic(pres2)
        out["classify-i"] = qalg.classify_orderable(pres1).label == qalg.CASE_I
        out["classify-ii"] = qalg.classify_orderable(pres2).label == qalg.CASE_II
        return out
    checks.append(Check("confluent-families", "qra15/qra16", overlaps_vanish,
                        mutable=False))

    def mutations_fail():
        count = 0
        for _ in range(20):
            fs = {(j, k): _draw_beta(draw, banned=(0,))
                  for j in range(1, m + 1) for k in range(j + 1, m + 1)}
            gs = {(j, k): _draw_beta(draw, banned=(0,))
                  for j in range(1, m + 1) for k in range(j + 1, m + 1)}
            pres = qalg.OrderedPresentation.build(
                m, lambda j, k: fs[(j, k)], lambda j, k: gs[(j, k)])
            label = qalg.classify_orderable(pres).label
            residuals = qalg.overlap_residuals(pres)
            if label in (qalg.CASE_I, qalg.CASE_II):
                if residuals:
                    return False
            elif not residuals:
                return False
            count += 1
        return count == 20
    checks.append(Check("strict-mutations", "qra4..qra7", mutations_fail, mutable=False))

    def poincare():
        out = {}
        gs = {(j, k): draw.rational() for j in range(1, m + 1) for k in range(j + 1, m + 1)}
        pres1 = qalg.OrderedPresentation.case_i(m, lambda j, k: gs[(j, k)])
        deg = 5 if m <= 3 else 4
        out["case-i"] = (qalg.poincare_series(m, pres1.relation_rows(), deg)
                         == qalg.binomial_series(m, deg))
        pres2 = qalg.OrderedPresentation.case_ii(m, 2)
        out["case-ii"] = (qalg.poincare_series(m, pres2.relation_rows(), deg)
                          == qalg.binomial_series(m, deg))
        out["commutative"] = (qalg.poincare_series(
            3, qalg.commutative_relation_rows(3), 3) == (1, 3, 6, 10))
        return out
    checks.append(Check("poincare-binomials", "diamond", poincare, mutable=False))

    def gl11():
        q = Fraction(2)
        out = {}
        for om in (1 / (q * q), Fraction(1), q * q):
            out[f"pass-{format_rat(om)}"] = qalg.gl11_window_test(q, om, 4)["gl11_type"]
        generic = 0
        for om in (Fraction(3), Fraction(2), Fraction(5, 7), Fraction(-1), Fraction(9, 2)):
            if not qalg.gl11_window_test(q, om, 4)["gl11_type"]:
                generic += 1
        out["generic-fail"] = generic == 5
        return out
    checks.append(Check("gl11-window", "nsq1/nsq2", gl11, mutable=False))

    def limit_bracket():
        br = qalg.classical_limit_bracket(max(n, 3))
        return {"dual-match": br == qalg.classical_limit_bracket_dual(max(n, 3)),
                "jacobi": not poisson.jacobi_residual(br)}
    checks.append(Check("classical-limit-bracket", "qra17/qra18", limit_bracket,
                        mutable=False))

    def rstcl_quantum_space():
        qi = _draw_beta(draw, banned=(0, 1))
        rc, xt, residual = cg.standard_riming(m, qi)
        if not residual.is_zero():
            return False
        conj = tensor.conjugate2(rc, xt)
        right = rime.quantum_space_relations(conj, 1, "right", "even")
        pres = qalg.OrderedPresentation.case_ii(m, qi)
        rows = pres.relation_rows()
        # relabel generators by the order reversal to match the exchange convention
        perm = [m - 1 - i for i in range(m)]
        relabeled = []
        for row in rows:
            new = [ZERO] * (m * m)
            for idx, v in enumerate(row):
                i, j = divmod(idx, m)
                new[perm[i] * m + perm[j]] = v
            relabeled.append(new)
        return right == rime.relation_basis_from_rows(m, relabeled)
    checks.append(Check("case-ii-is-rstcl-plane", "qra16", rstcl_quantum_space,
                        mutable=False))
    return checks


SUITE_BUILDERS = {
    "rime": rime_suite,
    "blocks": blocks_suite,
    "cg": cg_suite,
    "classical": classical_suite,
    "bezout": bezout_suite,
    "rota": rota_suite,
    "poisson": poisson_suite,
    "qalg": qalg_suite,
}

SUITE_NAMES = tuple(sorted(SUITE_BUILDERS)) + ("all",)


def run_all(n: int, seed: int, draws: int, mutate: str | None = None) -> list[SuiteReport]:
    reports = []
    mutate_suite = None
    if mutate == "one-entry":
        names = sorted(SUITE_BUILDERS)
        mutate_suite = names[RationalDraw(seed ^ 0xA11).int_in(0, len(names) - 1)]
    for name in sorted(SUITE_BUILDERS):
        reports.append(run_suite(name, n, seed, draws,
                                 mutate if name == mutate_suite else None))
    return reports
