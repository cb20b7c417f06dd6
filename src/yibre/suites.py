"""Named verification suites with seeded rational parameter draws.

Each check is declared as data: a name, an anchor, a spec of its own
parameters, ``build(params) -> object`` and ``residual(object)``, which is a
residual-like object (pass iff exactly zero) or a boolean.  Checks that share
parameters and built objects belong to one :class:`Block`.  A check that
raises, in its build or its residual, is recorded with status "error" and the
suite goes on.  Reports are deterministic for a fixed (suite, n, seed, draws)
triple: checks are sorted by name and the draw history is recorded.
"""

from __future__ import annotations

import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter
from typing import Callable

from . import bezout, blocks, cg, classical, poisson, qalg, rime, tensor
from .kernel import ONE, ZERO, Deferred, RationalDraw, elem_syms_omitting, format_rat, rat
from .poisson import PencilParams, QuadraticBracket
from .rational import Q
from .tensor import Operator1, Operator2, Operator3, first_nonzero_witness


# --- declaring checks: parameter domains, blocks of shared objects, checks ------


@dataclass(frozen=True)
class Rational:
    """p/q, nonzero unless nonzero=False, re-drawn while it lies in ``banned``."""
    nonzero: bool = True
    banned: tuple = ()

    def draw(self, source: RationalDraw) -> Fraction:
        while True:
            x = source.rational(nonzero=self.nonzero)
            if x not in self.banned:
                return x


@dataclass(frozen=True)
class Vector:
    """A vector of ``length`` rationals, pairwise distinct unless distinct=False."""
    length: int
    distinct: bool = True

    def draw(self, source: RationalDraw) -> tuple[Fraction, ...]:
        return source.vector(self.length, distinct=self.distinct)


@dataclass(frozen=True)
class Matrix:
    """A size x size Operator1, entries drawn row by row."""
    size: int
    nonzero: bool = False

    def draw(self, source: RationalDraw) -> Operator1:
        return Operator1([[source.rational(nonzero=self.nonzero) for _ in range(self.size)]
                          for _ in range(self.size)])


@dataclass(frozen=True)
class Stream:
    """The draw source itself, for a check whose draws depend on what it computes."""

    def draw(self, source: RationalDraw) -> RationalDraw:
        return source


class Block:
    """Parameters shared by a group of checks, and the objects built from them.

    ``fixed`` values are set as given, and ``spec`` (name -> domain) is drawn
    now, in order; ``draw_spec`` draws more later.  Each keyword ``name=build``
    is a shared object: it is built when a check first reads ``params.name``,
    inside that check, and kept for the block, a raised error included.
    """

    def __init__(self, draw: RationalDraw, spec: dict | None = None,
                 fixed: dict | None = None, **objects: Callable[[Params], object]):
        self.draw, self.objects = draw, objects
        self.values = dict(fixed or {})
        self.failed: dict[str, Exception] = {}
        self.draw_spec(spec or {})

    def draw_spec(self, spec: dict) -> None:
        self.values.update((name, domain.draw(self.draw)) for name, domain in spec.items())

    def get(self, name: str):
        if name in self.failed:
            raise self.failed[name]
        if name not in self.values:
            try:
                self.values[name] = self.objects[name](Params(self))
            except Exception as exc:
                self.failed[name] = exc
                raise
        return self.values[name]

    def declare(self, *checks: Check) -> list[Check]:
        for check in checks:
            check.block = self
        return list(checks)


class Params:
    """What a build reads by name: its check's own draws, then its block's values."""

    def __init__(self, block: Block, own: dict | None = None):
        self._block, self._own = block, own or {}

    def __getattr__(self, name: str):
        return self._own[name] if name in self._own else self._block.get(name)

    __getitem__ = __getattr__


def _same(x):
    return x


@dataclass
class Check:
    """One identity: own parameter ``spec``, ``build(params) -> object``, ``residual(object)``.

    By default the object built is the parameters themselves.
    """
    name: str
    anchor: str
    build: Callable[[Params], object] = _same
    residual: Callable[[object], object] = _same
    spec: dict = field(default_factory=dict)
    mutable: bool = True
    block: Block | None = None

    def fn(self):
        """Draw the own parameters, build and return the residual: one call per check."""
        own = {name: domain.draw(self.block.draw) for name, domain in self.spec.items()}
        return self.residual(self.build(Params(self.block, own)))


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
    # the check that --mutate one-entry perturbed, if any; not part of the report
    mutated: str | None = None

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
    """Zero test plus a localized witness for the first offending entry.

    A result that ``_all_zero`` finds exactly zero passes at once; any other is
    searched, dict keys in sorted order, for its first offending entry.
    """
    if _all_zero(obj):
        return True, None
    return _first_failure(obj)


def _all_zero(obj) -> bool:
    """Whether every leaf of nested dicts, lists and tuples is an exact zero: 0 as an int
    or ``Q``, True, an operator whose ``is_zero()`` holds, or a ``Deferred`` whose
    decision proved it zero.  Any other leaf answers no, so that ``_first_failure``
    decides it."""
    t = type(obj)
    if t is bool:
        return obj
    if t is Deferred:
        return obj.zero
    if t is int or t is Q:
        return not obj
    if isinstance(obj, (Operator1, Operator2, Operator3)):
        return obj.is_zero()
    if t is dict:
        return all(map(_all_zero, obj.values()))
    if t is list or t is tuple:
        return all(map(_all_zero, obj))
    return False


def _first_failure(obj) -> tuple[bool, dict | None]:
    """``_is_zero`` by a search in order: the first offending entry's witness, if any.  A
    ``Deferred`` that its decision did not prove zero is formed, and searched in its place."""
    if isinstance(obj, Deferred):
        return (True, None) if obj.zero else _first_failure(obj.form())
    if isinstance(obj, bool):
        return obj, None if obj else {"index": "-", "value": "false"}
    if type(obj) is Q or isinstance(obj, (int, Fraction)):
        v = rat(obj)
        return v == 0, None if v == 0 else {"index": "-", "value": format_rat(v)}
    if isinstance(obj, (Operator1, Operator2, Operator3)):
        if obj.is_zero():
            return True, None
        key, val = first_nonzero_witness(obj)
        return False, {"index": key, "value": format_rat(val)}
    if isinstance(obj, dict):
        for key in sorted(obj, key=str):
            ok, wit = _first_failure(obj[key])
            if not ok:
                if wit is not None:
                    # a tuple key reads comma-joined, like the i,j|k,l operator entries
                    label = ",".join(map(str, key)) if isinstance(key, tuple) else key
                    wit = {"index": f"{label}:{wit['index']}", "value": wit["value"]}
                return False, wit
        return True, None
    if isinstance(obj, (list, tuple)):
        for pos, item in enumerate(obj):
            ok, wit = _first_failure(item)
            if not ok:
                if wit is not None:
                    wit = {"index": f"{pos}:{wit['index']}", "value": wit["value"]}
                return False, wit
        return True, None
    raise TypeError(f"cannot interpret check result {obj!r}")


def _mutate(obj):
    """A copy of a residual-like object with one entry bumped (fault injection), a
    ``Deferred`` in its form; ``obj`` itself, which may be an object its block shares, is
    left as it is."""
    if isinstance(obj, Deferred):
        return _mutate(obj.form())
    if isinstance(obj, QuadraticBracket) and obj.dim >= 2:
        # a bracket's first slot is {x^1, x^2}, not the operator's entry 1,1|1,1
        return obj + QuadraticBracket(obj.dim, {(1, 2): {(1, 1): ONE}})
    if isinstance(obj, (Operator1, Operator2, Operator3)):
        return obj + type(obj)._of(obj.dim, 1, {0: {0: 1}})
    if isinstance(obj, Fraction):
        return obj + 1
    if isinstance(obj, bool):
        return not obj
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
    return SuiteReport(suite, n, seed, draws, [format_rat(x) for x in draw.history], results,
                       int((time.monotonic() - started) * 1000), mutate_target)


# --- individual suites ----------------------------------------------------------


def rime_suite(n: int, draw: RationalDraw, draws: int) -> list[Check]:
    def eig_mult(rb):
        rep = rime.eigen_multiplicities(*rb)
        return (rep.multiplicity_one == n * (n + 1) // 2
                and rep.multiplicity_beta_minus_one == n * (n - 1) // 2
                and not rep.jordan)

    def classify_ok(p):
        # a zero phi_i or beta_ji = 1 degrades strictness but stays rime
        strict = all(p.phi) and all(
            (ONE - p.beta) * p.phi[j] != p.phi[i]
            for i in range(n) for j in range(n) if i != j)
        got = rime.classify(p.r)
        if strict:
            return got == rime.RimeClass.RIME_STRICT
        return got in (rime.RimeClass.RIME_STRICT, rime.RimeClass.RIME_NON_STRICT)

    def qt_check(p):
        qc, qtc = p.q
        q, qt = rime.quantum_trace_residuals(p.r, qc, qtc)
        return {"q": q, "qt": qt,
                "product": (qc @ qtc) - Operator1.identity(n).scale((ONE - p.beta) ** (n - 1))}

    def eig_q(p):
        # w_a is column a of one elem_syms_omitting table: (w_a)^j = e_a^jhat
        out = {}
        for a, w in enumerate(zip(*elem_syms_omitting(p.phi))):
            lam = (ONE - p.beta) ** (n - 1 - a)
            out[f"w{a}"] = [x - lam * y for x, y in zip(p.q[0].apply(w), w)]
        return out

    def jordan_q(p):
        out = {}
        ws = list(zip(*elem_syms_omitting(p.mu)))
        for i in range(n):
            coeffs = rime.jordan_action_coefficients(n, i)
            rhs = [sum((coeffs[s] * ws[s][j] for s in range(n)), ZERO) for j in range(n)]
            out[f"w{i}"] = [x - y for x, y in zip(p.uq[0].apply(ws[i]), rhs)]
        return out

    def invariance(p):
        y1 = rime.invariance_Y(p.phi, p.u1, p.v1)
        y2 = rime.invariance_Y(p.phi, p.u2, p.v2)
        return {
            "composition": (y1 @ y2) - rime.invariance_Y(p.phi, p.u1 * p.u2, p.v1 * p.v2),
            "identity": rime.invariance_Y(p.phi, 1, 1) - Operator1.identity(n),
            "commutation": tensor.equivalence_residual(p.r, p.r, y1),
            "determinant": y1.det() - (p.u1 * p.v1) ** (n * (n - 1) // 2),
            "q-is-Y": rime.invariance_Y(p.phi, ONE - p.beta, ONE) - p.q[0],
        }

    def invariance0(p):
        y1 = rime.invariance_Y0(p.mu, p.a1)
        return {
            "additivity": (y1 @ rime.invariance_Y0(p.mu, p.a2))
                          - rime.invariance_Y0(p.mu, p.a1 + p.a2),
            "identity": rime.invariance_Y0(p.mu, 0) - Operator1.identity(n),
            "commutation": tensor.equivalence_residual(p.u, p.u, y1),
            "q-is-Y0": rime.invariance_Y0(p.mu, -1) - p.uq[0],
        }

    def generators(p):
        eta = rime.invariance_generator("nonunitary", p.phi)
        eta0 = rime.invariance_generator("unitary", p.mu)
        return {
            "trace": eta.trace(),
            "trace0": eta0.trace(),
            "commutator": tensor.commutator_with_sum(p.r, eta),
            "commutator0": tensor.commutator_with_sum(p.u, eta0),
        }

    def r21_props(p):
        out = {}
        if all(p.phi):
            # R_21 = (F^-1 x F^-1) R(1/phi) (F x F) with F = diag(phi)
            inverted = [1 / x for x in p.phi]
            rhs = rime.strict_rime_R(inverted, p.beta)
            out["nonunitary"] = tensor.conjugate2_residual(
                p.r.reversed_legs(), rhs, Operator1.diag(inverted), Operator1.diag(p.phi))
        out["unitary"] = p.u.reversed_legs() - rime.unitary_rime_R([-m for m in p.mu])
        return out

    def planes(p):
        def sides(eigenvalue, right_shown, left_shown):
            # the left rows are those of (R - lambda)^T P, whose rank is rank(R - lambda):
            # a right span equal to its display hands its dimension to the left decision
            right = rime.quantum_space_rows(p.r, eigenvalue, "right")
            dim = tensor.span_rank(right, right_shown)
            left = rime.quantum_space_rows(p.r, eigenvalue, "left")
            return (Deferred(dim is not None, lambda: tensor.row_space(n, right)
                             - tensor.row_space(n, right_shown)),
                    tensor.span_difference(n, left, left_shown, dim))

        even = sides(1, rime.rime_plane_rows(p.data), shown.get("commutators"))
        odd = sides(p.beta - 1, shown.get("anticommutators"),
                    rime.left_odd_rime_rows(p.data, p.beta))
        return {"right-even-rime-plane": even[0], "left-even-classical": even[1],
                "right-odd-classical": odd[0], "left-odd-display": odd[1]}

    def unitary_limit(mu):
        u = rime.unitary_rime_R(mu)
        d1, d2 = ((rime.strict_rime_R([1 + e * m for m in mu], e) - u).scale(1 / e)
                  for e in (Q(1, 10), Q(1, 100)))
        return d1 - d2

    # the classical relation rows depend on n alone, so every draw reads them from one block
    shown = Block(draw, commutators=lambda p: rime.classical_commutator_rows(n),
                  anticommutators=lambda p: rime.odd_classical_rows(n))
    checks: list[Check] = []
    for d in range(draws):
        checks += Block(
            draw, {"phi": Vector(n), "mu": Vector(n), "beta": Rational(banned=(0, 1, 2)),
                   "u1": Rational(), "v1": Rational(), "u2": Rational(), "v2": Rational(),
                   "a1": Rational(), "a2": Rational()},
            data=lambda p: rime.strict_rime_data(p.phi, p.beta),
            r=lambda p: rime.assemble_rime(p.data),
            q=lambda p: rime.quantum_trace_closed_forms(p.data),
            udata=lambda p: rime.unitary_rime_data(p.mu),
            u=lambda p: rime.assemble_rime(p.udata),
            uq=lambda p: rime.quantum_trace_closed_forms(p.udata)).declare(
            Check(f"yb-strict[{d}]", "R/bphi", lambda p: p.r, tensor.yb_residual),
            Check(f"yb-unitary[{d}]", "R/unitary", lambda p: p.u, tensor.yb_residual),
            Check(f"hecke-strict[{d}]", "Hecke", lambda p: (p.r, p.beta),
                  lambda rb: tensor.hecke_residual(*rb)),
            Check(f"unitary-squares-to-identity[{d}]", "Hecke", lambda p: p.u,
                  lambda u: (u @ u) - Operator2.identity(n)),
            Check(f"eigen-multiplicities[{d}]", "Hecke", lambda p: (p.r, p.beta), eig_mult,
                  mutable=False),
            Check(f"classify-strict[{d}]", "rice", residual=classify_ok, mutable=False),
            Check(f"quantum-traces[{d}]", "qtq1/qtq2", residual=qt_check),
            Check(f"quantum-trace-eigenvectors[{d}]", "qtq-eigenvalues", residual=eig_q),
            Check(f"quantum-trace-jordan-action[{d}]", "binomial-action", residual=jordan_q),
            Check(f"invariance-Y[{d}]", "inr1", residual=invariance),
            Check(f"invariance-Y0[{d}]", "inr3", residual=invariance0),
            Check(f"invariance-generators[{d}]", "inr2/inr4", residual=generators),
            Check(f"reversed-leg-conjugation[{d}]", "sec2.3-prop1", residual=r21_props),
            Check(f"appendix-system-strict[{d}]", "yb1..ee3", lambda p: p.data,
                  rime.appendix_A_residuals),
            Check(f"appendix-mutation-detected[{d}]", "yb1..ee3",
                  lambda p: p.data.replace_entry("beta_ij", 1, 2, p.data.b(1, 2) + 7),
                  rime.appendix_A_violated,
                  mutable=False),
            Check(f"gamma-pairing[{d}]", "subst", lambda p: p.data,
                  lambda data: {"pairing": [data.gp(i, j) + data.g(j, i) for i in range(1, n + 1)
                                            for j in range(1, n + 1) if i != j]}),
            Check(f"quantum-spaces[{d}]", "qp", residual=planes, mutable=False))
    # ice data also passes the equation system
    return checks + Block(draw, {"qi": Rational(banned=(0, 1))}).declare(
        Check("appendix-system-ice", "yb1..ee3",
              lambda p: rime.extract_rime_data(cg.standard_rc_matrix(n, p.qi)),
              rime.appendix_A_residuals),
        Check("unitary-limit-first-order", "liu", lambda p: p.mu, unitary_limit, {"mu": Vector(n)}))


def blocks_suite(n: int, draw: RationalDraw, draws: int) -> list[Check]:
    q = Q(5, 3)  # (q-1)/(q+1) = 1/4, so tau = 1/2 is rational
    members = [
        (blocks.RBL1, (2, 1)), (blocks.RBL2, (2, 1)), (blocks.RBL3, (2, Q(3, 2))),
        (blocks.RBL4, (3, 1, 1)), (blocks.RBL4, (3, 9, 1)),
        (blocks.RBL4, (3, Q(1, 9), 2)),
        (blocks.GL2_STD, (2, 3)), (blocks.GL11_STD, (2, 3)),
        (blocks.EIGHT_VERTEX, (2,)), (blocks.R_II, (2, 1)), (blocks.R_II, (2, -1)),
        (blocks.JORDANIAN, (1, 2)), (blocks.JORDANIAN, (0, 3)),
        (blocks.PERM_LIKE, (2, 3, 5)), (blocks.R_PRIME, (7,)),
        (blocks.R_DOUBLE_PRIME, (1, 2, 3)), (blocks.R_TRIPLE_PRIME, ()),
    ]
    checks: list[Check] = []
    for kind, ps in members:
        label = kind + "-" + "-".join(format_rat(rat(x)) for x in ps) if ps else kind
        checks += Block(draw, fixed={"kind": kind, "ps": ps}).declare(
            Check(f"ybe:{label}", "rbl1..rjo", lambda p: blocks.block_matrix(p.kind, *p.ps),
                  tensor.yb_residual))

    def spectrum_types(_):
        return {
            "rbl1-gl2": blocks.block_properties(blocks.RBL1, 2, 1).spectrum_type == "gl2",
            "rbl2-gl11": blocks.block_properties(blocks.RBL2, 2, 1).spectrum_type == "gl11",
            "rbl3-gl2": blocks.block_properties(blocks.RBL3, 2, 1).spectrum_type == "gl2",
            "rbl4-gl11": blocks.block_properties(blocks.RBL4, 3, 9, 1).spectrum_type == "gl11",
            "identity-not-skew": not blocks.is_skew_invertible(Operator2.identity(2)),
        }

    def equivalences_generic(eqs):
        # tau = sqrt(1/3) is irrational at q = 2, so the eight-vertex member is left out
        return {**eqs, "tau-irrational-left-out": "rbl4-omega1-to-eight-vertex" not in eqs}

    def symmetry(_):
        return {kind: blocks.symmetry_relations(kind, *ps)
                for kind, ps in ((blocks.GL2_STD, (2, 3)), (blocks.GL11_STD, (2, 3)),
                                 (blocks.EIGHT_VERTEX, (2,)), (blocks.R_II, (2, 1)),
                                 (blocks.JORDANIAN, (1, 2)))}

    def skinv(matrices):
        return all(blocks.skinv_implications(r) for r in matrices
                   if blocks.classify(r) != rime.RimeClass.NOT_RIME
                   and blocks.is_skew_invertible(r))

    def nonrime(p):
        count = 0
        tries = 0
        while count < 50 and tries < 500:
            tries += 1
            t = Matrix(2, nonzero=True).draw(p.stream)
            if t.det() == 0:
                continue
            vals = blocks.nonrime_entries(t, p.stream.rational(),
                                          p.stream.rational(nonzero=False))
            if not any(vals):
                return False
            count += 1
        return count == 50

    return checks + Block(draw).declare(
        Check("spectrum-types", "B.1", residual=spectrum_types, mutable=False),
        Check("equivalences-tau-rational", "uu1/uu2/uu3",
              lambda p: blocks.stated_equivalences(q, Q(2, 7))),
        Check("equivalences-generic-q", "uu1", lambda p: blocks.stated_equivalences(2, 1),
              equivalences_generic, mutable=False),
        Check("symmetry-relations", "B.2", residual=symmetry, mutable=False),
        Check("skew-invertibility-implications", "skinv",
              lambda p: [blocks.block_matrix(kind, *ps) for kind, ps in members], skinv,
              mutable=False),
        Check("nonrime-entries-property", "nre", residual=nonrime, spec={"stream": Stream()},
              mutable=False),
        Check("jordanian-h1-zero-is-rime", "B.3",
              lambda p: blocks.block_matrix(blocks.JORDANIAN, 0, 3),
              lambda r: blocks.classify(r) == rime.RimeClass.RIME_NON_STRICT, mutable=False))


def cg_suite(n: int, draw: RationalDraw, draws: int) -> list[Check]:
    checks: list[Check] = []
    for d in range(draws):
        checks += Block(
            draw, {"qi": Rational(banned=(0,)), "pcg": Rational(), "phi": Vector(n),
                   "beta": Rational(banned=(0, 1)), "phi2": Vector(n)},
            params=lambda p: cg.CGParams(n, p.qi, p.pcg),
            rcg=lambda p: cg.cg_matrix(p.params),
            x=lambda p: cg.x_change_of_basis(p.phi),
            x2=lambda p: cg.x_change_of_basis(p.phi2)).declare(
            Check(f"cg-ybe[{d}]", "CG", lambda p: p.rcg, tensor.yb_residual),
            Check(f"cg-hecke[{d}]", "CG/Hecke", lambda p: (p.rcg, p.params.beta),
                  lambda rb: tensor.hecke_residual(*rb)),
            Check(f"cg-equivalence[{d}]", "change/cha0",
                  residual=lambda p: cg.cg_equivalence_residual(p.phi, p.beta, p.x[0])),
            Check(f"phi-transition[{d}]", "transition",
                  residual=lambda p: cg.phi_transition(p.phi, p.phi2) - (p.x2[0] @ p.x[1])),
            Check(f"x-inverse[{d}]", "matX/transe", lambda p: p.x,
                  lambda x: (x[0] @ x[1]) - Operator1.identity(n)),
            Check(f"generating-function[{d}]", "gxty1/gxty2", lambda p: p.phi,
                  cg.generating_function_residual))

    qi = Q(1, 4)

    def sectype(phi):
        m = range(1, len(phi) + 1)
        omitting = elem_syms_omitting(phi)
        return max((abs(cg.sectype_identity_residual(phi, i, j, k, l, omitting))
                    for i in m for j in m if i != j for k in m for l in m), default=ZERO)

    def riming(o):
        rc, _, conj, residual = o
        return {"residual": residual,
                "ybe": tensor.yb_residual(rc),
                "hecke": tensor.hecke_residual(rc, 1 - qi),
                "is-rime": rime.classify(conj)
                in (rime.RimeClass.RIME_NON_STRICT, rime.RimeClass.RIME_STRICT)}

    def xty(p):
        # rowspace((R - 1) X1 X2) = rowspace(R - 1) X1 X2: reduce the n(n-1)/2
        # independent relations first and map only those.  X1 X2 is invertible, so
        # the mapped rows stay independent, and each is only tested against R_CG's plane
        rr = rime.strict_rime_R(p.phis, 1 - qi)
        x, _ = cg.x_change_of_basis(p.phis)
        plane = tensor.row_space(n, rr.scalar_shift(-1)._ints()[1].values())
        mapped = tensor.signed_products([(1, plane, tensor.place(x, (1,), 2),
                                          tensor.place(x, (2,), 2))])
        return tensor.span_difference(n, mapped._ints()[1].values(),
                                      p.rcg.scalar_shift(-1)._ints()[1].values(),
                                      rank=len(plane._ints()[1]))

    return checks + Block(draw, rcg=lambda p: cg.cg_matrix(cg.CGParams(n, qi, 1))).declare(
        Check("d-twist", "invdcg/chst", lambda p: p.rcg,
              lambda r: cg.d_twist_conjugate(r, 2) - cg.cg_matrix(cg.CGParams(n, qi, 2))),
        Check("d-twist-commutes", "chst precondition", lambda p: p.rcg,
              lambda r: tensor.equivalence_residual(r, r, cg.d_twist_matrix(n, 2))),
        Check("sectype-exhaustive", "sectype", lambda p: p.phi, sectype,
              {"phi": Vector(min(n, 4))}),
        Check("cg-symmetry", "transem proof", residual=lambda p: cg.cg_symmetry_residual(n, qi)),
        Check("standard-riming", "stcl/rstcl", lambda p: cg.standard_riming(n, qi), riming),
        Check("cg-quantum-plane", "qpcg", lambda p: p.rcg,
              lambda r: tensor.span_difference(n, rime.quantum_space_rows(r, 1, "right"),
                                               cg.cg_plane_rows(n, qi)), mutable=False),
        Check("xty-ideal-map", "xty", residual=xty, spec={"phis": Vector(n)}, mutable=False))


def classical_suite(n: int, draw: RationalDraw, draws: int) -> list[Check]:
    named = {
        "rime-nonskew": lambda p: classical.rime_nonskew_r(p.phi),
        "rime-skew": lambda p: classical.rime_skew_r(p.mu),
        "rime-skew-sl": lambda p: classical.rime_skew_sl_r(p.mu),
        "r-cg": lambda p: classical.rcg_r(n),
        "r-cg-prime": lambda p: classical.rcg_prime_r(n),
        "b-skew": lambda p: classical.b_skew_r(n),
        "b-cg": lambda p: classical.b_cg_r(n),
    }
    # the traceless and boundary r are identity shifts a + xi ^ 1 of a skew r, and their
    # cYBE and conjugation are decided through (a, xi) and CYB(a), which the base's own
    # cYBE check reads from the block too; the conjugations also read the changes of
    # basis X(phi) and X(mu) from the block
    shared = {
        "rime-skew-sl:xi": lambda p: classical.rime_skew_sl_xi(p.mu),
        "b-cg:xi": lambda p: -classical.b_cg_eta(n),
        "x:phi": lambda p: cg.x_change_of_basis(p.phi),
        "x:mu": lambda p: cg.x_change_of_basis(p.mu),
        **{f"cybe:{a}": lambda p, a=a: tensor.cybe_residual(p[a])
           for a in classical.SHIFT_BASES.values()},
    }
    base = Block(draw, {"phi": Vector(n), "mu": Vector(n)}, **named, **shared)

    def cybe_check(name: str) -> Check:
        if name in classical.SHIFT_BASES:
            a = classical.SHIFT_BASES[name]
            return Check(f"cybe:{name}", "rcb/clcr/bee/bcg",
                         lambda p: (p[name], p[a], p[name + ":xi"], p[f"cybe:{a}"]),
                         lambda rs: tensor.shifted_cybe_residual(*rs))
        if f"cybe:{name}" in shared:
            return Check(f"cybe:{name}", "rcb/clcr/bee/bcg", attrgetter(f"cybe:{name}"))
        return Check(f"cybe:{name}", "rcb/clcr/bee/bcg", attrgetter(name), tensor.cybe_residual)

    checks = base.declare(*map(cybe_check, named))
    for d in range(draws):
        checks += Block(draw, {"phi": Vector(n), "beta": Rational()}).declare(
            Check(f"classical-limit[{d}]", "R=1+beta r",
                  residual=lambda p: classical.classical_limit_residual(p.phi, p.beta)))
    base.draw_spec({"c1": Rational(), "c2": Rational()})
    checks += base.declare(
        Check("conjugation:nonskew-to-rcg", "clcr",
              residual=lambda p: classical.conjugation_residual_of(
                  "nonskew-to-rcg", p.__getitem__, p["x:phi"])),
        Check("conjugation:skew-to-b", "bee'",
              residual=lambda p: classical.conjugation_residual_of(
                  "skew-to-b", p.__getitem__, p["x:mu"])),
        Check("conjugation:skew-sl-to-bcg", "bcg",
              residual=lambda p: classical.conjugation_residual_of(
                  "skew-sl-to-bcg", p.__getitem__, p["x:mu"])),
        Check("p-symmetry-nonskew", "crm", lambda p: p["rime-nonskew"],
              lambda r: tensor.permutation_P(n) @ r + r),
        Check("skew-antisymmetry", "rcc", lambda p: p["rime-skew"],
              lambda r: r.reversed_legs() + r),
        Check("carrier-algebra", "zz",
              residual=lambda p: classical.carrier_algebra_check(p.mu), mutable=False),
        Check("bd-symmetry-rcg", "capar",
              residual=lambda p: classical.bd_symmetry_check(classical.R_CG, n), mutable=False),
        Check("bd-symmetry-rcg-prime", "capar",
              residual=lambda p: classical.bd_symmetry_check(classical.R_CG_PRIME, n),
              mutable=False),
        Check("invariance-shift-rcg", "chstc2",
              residual=lambda p: classical.invariance_shift_residual(
                  p["r-cg"], classical.invariance_eta_cg(n), p.c1)),
        Check("invariance-shift-bskew", "unopa",
              residual=lambda p: classical.invariance_shift_residual(
                  p["b-skew"], classical.invariance_eta0_b(n), p.c2)),
        Check("representation-change-rcg", "chrecg",
              residual=lambda p: classical.representation_change_residual(n, p.c1)),
        Check("representation-change-bskew", "unopa",
              residual=lambda p: classical.representation_change_residual(
                  n, p.c2, classical.B_SKEW)),
        Check("bcg-from-shift", "c=-1/n",
              residual=lambda p: (p["b-skew"] + tensor.wedge(classical.invariance_eta0_b(n),
                                                             Operator1.identity(n))
                                  .scale(Q(-1, n))) - p["b-cg"]))
    for d in range(min(draws, 5)):
        checks += Block(draw, {"q": Rational(banned=(0, 1, -1)), "p": Rational(),
                               "r": Rational(), "s": Rational()},
                        fork=lambda p: classical.bd_fork_R(p.q, p.p, p.r, p.s)).declare(
            Check(f"bd-fork-ybe[{d}]", "orr1/orr2", lambda p: p.fork, tensor.yb_residual),
            Check(f"bd-fork-hecke[{d}]", "orr-characteristic",
                  lambda p: (p.fork, 1 - 1 / (p.q * p.q)), lambda rb: tensor.hecke_residual(*rb)))
    return checks + base.declare(
        Check("lambda-bcg-gram-invertible", "Omega=dlambda",
              residual=lambda p: classical.lambda_bcg_gram(n).det() != 0, mutable=False),
        Check("tilde-difference", "bcg proof",
              residual=lambda p: classical.tilde_difference_residual(
                  p["x:mu"][0], p["rime-skew-sl:xi"], p["b-cg:xi"])))


def _bezout_objects(sizes) -> dict[str, Callable[[Params], object]]:
    """Block objects for the Bezout operators at each size: "kind:size" is the operator,
    and "rb:kind:size" and "rb-right:kind:size" are its left and right Rota-Baxter maps."""
    objects = {}
    for kind in bezout.BEZOUT_KINDS:
        for size in sizes:
            name = f"{kind}:{size}"
            objects[name] = lambda p, kind=kind, size=size: bezout.bezout_operator(kind, size)
            objects[f"rb:{name}"] = lambda p, name=name: bezout.rota_baxter(p[name])
            objects[f"rb-right:{name}"] = lambda p, name=name: bezout.rota_baxter(p[name], "right")
    return objects


def bezout_suite(n: int, draw: RationalDraw, draws: int) -> list[Check]:
    three_leg = min(n, 4)
    small = min(n, 3)
    # every check reads its Bezout operators from this one block, so each is built once
    base = Block(draw, **_bezout_objects({n, three_leg, small, 2, 3}))
    checks = base.declare(*(
        Check(f"closed-form:{kind}", "brr1..brr4/bez3",
              residual=lambda p, kind=kind: p[f"{kind}:{n}"] - bezout.closed_form_operator(kind, n))
        for kind in (bezout.B0, bezout.B, bezout.RS)))

    def btilde(bt):
        r12, r13, r23 = (tensor.place(bt, legs, 3) for legs in ((1, 2), (1, 3), (2, 3)))
        return {
            "circ": tensor.signed_products([(1, r12, r13), (1, r13, r23), (-1, r23, r12),
                                            (Q(-1, 4), Operator3.identity(three_leg))]),
            "sum": (bt + bt.reversed_legs()) + tensor.permutation_P(three_leg),
            "square": (bt @ bt) - Operator2.identity(three_leg).scale(Q(1, 4)),
        }

    checks += base.declare(
        Check("bridge:b0-is-bskew", "bee", lambda p: p[f"{bezout.B0}:{n}"],
              lambda b0: bezout.basis_flip(b0) - classical.b_skew_r(n)),
        Check("bridge:b-is-p-rcg", "clcr", lambda p: p[f"{bezout.B}:{n}"],
              lambda b: bezout.basis_flip(b) - tensor.permutation_P(n) @ classical.rcg_r(n)),
        Check("identity-suite", "bez4/bez5/bez6",
              residual=lambda p: bezout.bezout_identity_suite(
                  *(p[f"{kind}:{n}"] for kind in (bezout.B0, bezout.B, bezout.RS)))),
        Check("nhacybe-b0", "bez8:c=0", lambda p: p[f"{bezout.B0}:{three_leg}"],
              lambda r: tensor.nhacybe_residual(r, 0)),
        Check("nhacybe-b", "bez8:c=1", lambda p: p[f"{bezout.B}:{three_leg}"],
              lambda r: tensor.nhacybe_residual(r, 1)),
        Check("nhacybe-rs", "bez8:c=1", lambda p: p[f"{bezout.RS}:{three_leg}"],
              lambda r: tensor.nhacybe_residual(r, 1)),
        Check("nhacybe-primed", "bez7'",
              residual=lambda p: {k: tensor.nhacybe_residual(p[f"{k}:{three_leg}"], c, primed=True)
                                  for k, c in ((bezout.B, 1), (bezout.RS, 1))}),
        Check("btilde-relations", "bez15/bez16", lambda p: p[f"{bezout.BTILDE}:{three_leg}"],
              btilde))

    for d in range(min(draws, 5)):
        base.draw_spec({f"lam{d}": Rational()})
        checks += base.declare(
            Check(f"linear-quantization[{d}]", "bez22",
                  residual=lambda p, d=d: bezout.linear_quantization_residuals(
                      p[f"{(bezout.B0, bezout.B, bezout.RS)[d % 3]}:{three_leg}"], p[f"lam{d}"])))

    def differences(got, want):
        # no decomposition at all fails as a predicate; otherwise each coefficient is a residual
        return False if got is None else [g - w for g, w in zip(got, want)]

    def quadratic_matching(p):
        out = {}
        for kind, (alpha, beta), (uu, vv) in ((bezout.B0, (0, 0), (0, 0)),
                                              (bezout.B, (-1, 1), (1, 0)),
                                              (bezout.RS, (-1, 1), (1, 0))):
            op = p[f"{kind}:{n}"]
            out[f"{kind}-sr"] = differences(bezout.sr_decomposition(op), (alpha, beta))
            out[f"{kind}-quadratic"] = differences(bezout.quadratic_data(op), (uu, vv))
            out[f"{kind}-u-equals-beta"] = uu - beta
        return out

    def coassoc(p):
        out = {}
        for m in (2, 3):
            units = [Operator1.unit(m, i, j) for i in range(1, m + 1)
                     for j in range(1, m + 1)]
            r0, rb_ = p[f"{bezout.B0}:{m}"], p[f"{bezout.B}:{m}"]
            for key, op, c, kind in (("plain", r0, 0, "plain"), ("delta", rb_, 1, "delta"),
                                     ("tilde", rb_, 1, "delta-tilde")):
                out[f"{key}-{m}"] = bezout.coassociativity_residuals(op, c, kind, units)
        return out

    def derivations(p):
        b0, b = p[f"{bezout.B0}:2"], p[f"{bezout.B}:2"]
        out = []
        for k in range(3):
            u, v = p[f"u{k}"], p[f"v{k}"]
            out += [bezout.derivation_residual(u, v, b0, 0, "plain"),
                    bezout.derivation_residual(u, v, b, 1, "delta"),
                    bezout.derivation_residual(u, v, b, 1, "delta-tilde")]
        return out

    base.draw_spec({"a": Rational(), "b": Rational()})
    checks += base.declare(
        Check("shift-law", "bez13",
              residual=lambda p: {
                  "b": bezout.nhacybe_shift_residual(p[f"{bezout.B}:{small}"], 1, p.a, p.b),
                  "b0": bezout.nhacybe_shift_residual(p[f"{bezout.B0}:{small}"], 0, p.a, p.b)}),
        Check("bez9", "bez9",
              residual=lambda p: {k: bezout.bez9_residual(p[f"{k}:{small}"], 1)
                                  for k in (bezout.B, bezout.RS)}),
        Check("bez23", "bez23", lambda p: p[f"{bezout.B}:{small}"],
              lambda b: bezout.bez23_residual(b, 1)),
        Check("quadratic-data", "bez17/bez18", residual=quadratic_matching, mutable=False),
        Check("hecke-overlap", "bez19/bez20",
              residual=lambda p: {k: bezout.hecke_overlap_residuals(p[f"{k}:{small}"], 1, 0)
                                  for k in (bezout.B, bezout.RS)}))
    base.draw_spec({"c": Rational()})
    return checks + base.declare(
        Check("shifted-solutions", "bez31",
              residual=lambda p: {
                  "b0": bezout.shifted_solution_residual("b0shift", p[f"{bezout.B0}:{small}"], p.c),
                  "b": bezout.shifted_solution_residual("bshift", p[f"{bezout.B}:{small}"], p.c),
                  "gen-b0": bezout.shift_generator_commutator("b0shift", p[f"{bezout.B0}:{n}"]),
                  "gen-b": bezout.shift_generator_commutator("bshift", p[f"{bezout.B}:{n}"])}),
        Check("m-recursion", "b0b/b0b2", lambda p: p[f"{bezout.B0}:{n}"],
              bezout.m_recursion_check, mutable=False),
        Check("coassociativity", "um2/um5", residual=coassoc),
        Check("derivation-laws", "um6/um7/um8", residual=derivations,
              spec={f"{x}{k}": Matrix(2) for k in range(3) for x in "uv"}))


def rota_suite(n: int, draw: RationalDraw, draws: int) -> list[Check]:
    m = min(n, 3)
    # every check reads its Bezout operators and maps from this one block: at n for the
    # closed forms, weights and sum rule, at 2 for the tables and GL(3) maps, at m for
    # star-associativity; the non-skew rime r of phi and its map likewise
    base = Block(draw, {"phi": Vector(n)}, **_bezout_objects({n, 2, m}),
                 rime=lambda p: classical.rime_nonskew_r(p.phi),
                 **{"rb:rime": lambda p: bezout.rota_baxter(p.rime)})
    checks = base.declare(*(
        Check(f"closed-form-rb:{kind}", "brr5/brr6/bez29",
              residual=lambda p, kind=kind: bezout.rb_closed_form(kind, n).matrix()
              - p[f"rb:{kind}:{n}"].matrix())
        for kind in (bezout.B0, bezout.B, bezout.RS)))

    def weights(p):
        out = {}
        rand_pairs = [(p[f"x{k}"], p[f"y{k}"]) for k in range(10)]
        for kind, w in ((bezout.B0, 0), (bezout.B, -1), (bezout.RS, -1)):
            out[f"{kind}-units"], out[f"{kind}-random"] = bezout.rb_weight_residuals(
                p[f"{kind}:{n}"], p[f"rb:{kind}:{n}"], w, rand_pairs)
        out["rime-units"], out["rime-random"] = bezout.rb_weight_residuals(
            p.rime, p["rb:rime"], 1, rand_pairs)
        return out

    def sum_rule(p):
        out = {}
        a = p.a
        for kind, (alpha, beta) in ((bezout.B0, (0, 0)), (bezout.B, (-1, 1)),
                                    (bezout.RS, (-1, 1))):
            left = p[f"rb:{kind}:{n}"].apply(a) + p[f"rb-right:{kind}:{n}"].apply(a)
            right = a.scale(alpha) + Operator1.identity(n).scale(rat(beta) * a.trace())
            out[kind] = left - right
        return out

    def tables(p):
        rb0, rb = p[f"rb:{bezout.B0}:2"], p[f"rb:{bezout.B}:2"]
        a, t = p.a, p.t
        ar, tr = ([[mat.get(i, j) for j in (1, 2)] for i in (1, 2)] for mat in (a, t))
        return {
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

    def associativity(p):
        b0, b = (bezout.star_associativity_residuals(p[f"rb:{kind}:{m}"],
                                                     p[f"rb-right:{kind}:{m}"], w, c)
                 for kind, w, c in ((bezout.B0, 0, 0), (bezout.B, -1, 1)))
        return b0 + b

    return checks + base.declare(
        Check("closed-form-rb:rime-phi", "bez30",
              residual=lambda p: bezout.rb_closed_form("rime-phi", n, p.phi).matrix()
              - p["rb:rime"].matrix()),
        Check("rb-weights", "bez25", residual=weights,
              spec={f"{x}{k}": Matrix(n) for k in range(10) for x in "xy"}),
        Check("rb-sum-rule", "bez28", residual=sum_rule, spec={"a": Matrix(n)}),
        Check("star-tables", "stmn1/stmn2/stmn4/stmn5", residual=tables,
              spec={"a": Matrix(2, nonzero=True), "t": Matrix(2, nonzero=True)}),
        Check("star-associativity", "stm1", residual=associativity),
        Check("gl3-isomorphism-b0", "stmn3",
              residual=lambda p: bezout.gl2_isomorphism_check(bezout.B0, p[f"rb:{bezout.B0}:2"]),
              mutable=False),
        Check("gl3-isomorphism-b", "stmn6",
              residual=lambda p: bezout.gl2_isomorphism_check(bezout.B, p[f"rb:{bezout.B}:2"]),
              mutable=False))


def poisson_suite(n: int, draw: RationalDraw, draws: int) -> list[Check]:
    def jac(params):
        br = poisson.pencil_bracket(params)
        return {"forms-agree": br - poisson.pencil_bracket_uv_form(params),
                "jacobi": poisson.jacobi_residual(br),
                "rime-fit": poisson.rime_fit(br) is not None}

    abc = {x: Rational(nonzero=False) for x in "abc"}
    pencil = lambda p: PencilParams(p.psi, p.a, p.b, p.c)
    checks: list[Check] = []
    for d in range(draws):
        checks += Block(draw, {"psi": Vector(n), **abc}, params=pencil).declare(
            Check(f"pencil[{d}]", "rpb15/rpb16/rpb17", lambda p: p.params, jac, mutable=False))

    def generator(p):
        gen = poisson.invariance_generator(p.params)
        return {"traceless": gen.trace(),
                "annihilates": poisson.lie_derivative(p.bracket, gen)}

    def discriminant(p):
        diffs = []
        for k in range(draws):
            rho = (p[f"a{k}"], p[f"b{k}"], p[f"c{k}"])
            dval = rho[1] ** 2 - 4 * rho[0] * rho[2]
            for mv, val in (("shift", p[f"shift{k}"]), ("dilate", p[f"dilate{k}"]),
                            ("invert", None)):
                new = poisson.discriminant_action(rho, mv, val)
                diffs.append(new[1] ** 2 - 4 * new[0] * new[2] - dval)
        return diffs

    def normal_forms(p):
        out = {}
        for k in range(20):
            rho = (p[f"a{k}"], p[f"b{k}"], p[f"c{k}"])
            res = poisson.normal_form_classify(PencilParams(p[f"psi{k}"], *rho))
            dval = rho[1] ** 2 - 4 * rho[0] * rho[2]
            expected = poisson.ZERO_POLY if rho == (0, 0, 0) else (
                poisson.MASSIVE if dval else poisson.LIGHTLIKE)
            out[str(k)] = res.orbit == expected and (res.witness is None
                                                     or res.transport_verified)
        return out

    base = Block(draw, {"psi": Vector(n), "a": Rational(), "b": Rational(), "c": Rational(),
                        "nu": Vector(n, distinct=False), "beta": Rational()},
                 params=pencil, bracket=lambda p: poisson.pencil_bracket(p.params))
    checks += base.declare(
        Check("invariance-generator", "ris6", residual=generator),
        Check("rime-preserving-variation", "ris5",
              residual=lambda p: poisson.rime_fit(poisson.lie_derivative(
                  p.bracket, poisson.rime_preserving_matrix(p.params, p.nu))) is not None,
              mutable=False),
        Check("compensation", "ris7..ris11",
              residual=lambda p: poisson.compensation_check(p.params, p.nu), mutable=False),
        Check("sl2-suite", "ops1..ops7/trid",
              residual=lambda p: poisson.sl2_suite(p.psi), mutable=False),
        Check("discriminant-invariance", "ich5..ich8", residual=discriminant, mutable=False,
              spec={f"{x}{k}": Rational(nonzero=x in ("shift", "dilate"))
                    for k in range(draws) for x in ("a", "b", "c", "shift", "dilate")}),
        Check("normal-form-consistency", "6.3", residual=normal_forms, mutable=False,
              spec={f"{x}{k}": Vector(n) if x == "psi" else Rational(nonzero=False)
                    for k in range(20) for x in ("psi", "a", "b", "c")}),
        Check("bracket-from-quantum-nonunitary", "remark1",
              residual=lambda p: poisson.bracket_from_quantum(p.psi, p.beta)
              - poisson.pencil_bracket(PencilParams(p.psi, 0, p.beta, 0))),
        Check("bracket-from-quantum-unitary", "remark1",
              residual=lambda p: poisson.bracket_from_quantum(p.psi)
              - poisson.pencil_bracket(PencilParams(p.psi, 0, 0, -1))),
        Check("linear-rime-suite", "jsla", spec={"stream": Stream()}, mutable=False,
              residual=lambda p: poisson.linear_rime_suite(max(n, 3), p.stream)))
    if n != 3:
        checks += base.declare(
            Check("linear-rime-n3", "jsla-sl2", spec={"stream": Stream()}, mutable=False,
                  residual=lambda p: poisson.linear_rime_suite(3, p.stream)))
    return checks


def qalg_suite(n: int, draw: RationalDraw, draws: int) -> list[Check]:
    m = min(max(n, 3), 4)   # the overlap classification needs at least one triple
    pairs = [(j, k) for j in range(1, m + 1) for k in range(j + 1, m + 1)]
    gs = {f"g{j},{k}": Rational() for j, k in pairs}

    def overlaps_vanish(p):
        out = {}
        pres1 = qalg.OrderedPresentation.case_i(m, lambda j, k: p[f"g{j},{k}"])
        out["case-i-closed"] = qalg.overlap_residuals(pres1)
        out["case-i-semantic"] = qalg.overlap_residuals_semantic(pres1)
        pres2 = qalg.OrderedPresentation.case_ii(m, p.f)
        out["case-ii-closed"] = qalg.overlap_residuals(pres2)
        out["case-ii-semantic"] = qalg.overlap_residuals_semantic(pres2)
        out["classify-i"] = qalg.classify_orderable(pres1).label == qalg.CASE_I
        out["classify-ii"] = qalg.classify_orderable(pres2).label == qalg.CASE_II
        return out

    def mutations_fail(p):
        count = 0
        for _ in range(20):
            # drawn as it goes: a failure stops the draws early
            fvals = {jk: p.stream.rational() for jk in pairs}
            gvals = {jk: p.stream.rational() for jk in pairs}
            pres = qalg.OrderedPresentation.build(
                m, lambda j, k: fvals[(j, k)], lambda j, k: gvals[(j, k)])
            label = qalg.classify_orderable(pres).label
            residuals = qalg.overlap_residuals(pres)
            if label in (qalg.CASE_I, qalg.CASE_II):
                if residuals:
                    return False
            elif not residuals:
                return False
            count += 1
        return count == 20

    def poincare(p):
        out = {}
        pres1 = qalg.OrderedPresentation.case_i(m, lambda j, k: p[f"g{j},{k}"])
        deg = 5 if m <= 3 else 4
        out["case-i"] = (qalg.poincare_series(m, pres1.relation_rows(), deg)
                         == qalg.binomial_series(m, deg))
        pres2 = qalg.OrderedPresentation.case_ii(m, 2)
        out["case-ii"] = (qalg.poincare_series(m, pres2.relation_rows(), deg)
                          == qalg.binomial_series(m, deg))
        out["commutative"] = (qalg.poincare_series(
            3, qalg.commutative_relation_rows(3), 3) == (1, 3, 6, 10))
        return out

    def gl11(_):
        q = Q(2)
        out = {}
        for om in (1 / (q * q), Q(1), q * q):
            out[f"pass-{format_rat(om)}"] = qalg.gl11_window_test(q, om, 4)["gl11_type"]
        out["generic-fail"] = not any(
            qalg.gl11_window_test(q, om, 4)["gl11_type"]
            for om in (Q(3), Q(2), Q(5, 7), Q(-1), Q(9, 2)))
        return out

    def limit_bracket(_):
        br = qalg.classical_limit_bracket(max(n, 3))
        return {"dual-match": br - qalg.classical_limit_bracket_dual(max(n, 3)),
                "jacobi": poisson.jacobi_residual(br)}

    def rstcl_quantum_space(qi):
        _, _, conj, residual = cg.standard_riming(m, qi)
        right = rime.quantum_space_rows(conj, 1, "right")
        rows = qalg.OrderedPresentation.case_ii(m, qi).relation_rows()
        # relabel generators by the order reversal i -> m-1-i to match the exchange
        # convention; it sends monomial i*m + j to m*m-1 - (i*m + j)
        case_ii = ({m * m - 1 - c: v for c, v in row.items()} for row in rows)
        return {"riming": residual, "plane": tensor.span_difference(m, right, case_ii)}

    return Block(draw).declare(
        Check("confluent-families", "qra15/qra16", residual=overlaps_vanish, mutable=False,
              spec={**gs, "f": Rational(banned=(0, 1, -1))}),
        Check("strict-mutations", "qra4..qra7", residual=mutations_fail,
              spec={"stream": Stream()}, mutable=False),
        Check("poincare-binomials", "diamond", residual=poincare, spec=gs, mutable=False),
        Check("gl11-window", "nsq1/nsq2", residual=gl11, mutable=False),
        Check("classical-limit-bracket", "qra17/qra18", residual=limit_bracket, mutable=False),
        Check("case-ii-is-rstcl-plane", "qra16", lambda p: p.qi, rstcl_quantum_space,
              {"qi": Rational(banned=(0, 1))}, mutable=False))


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


def mutated_suite(seed: int) -> str:
    """The one suite that ``run_all`` perturbs under ``mutate="one-entry"`` at this seed."""
    names = sorted(SUITE_BUILDERS)
    return names[RationalDraw(seed ^ 0xA11).int_in(0, len(names) - 1)]


def run_all(n: int, seed: int, draws: int, mutate: str | None = None) -> list[SuiteReport]:
    reports = []
    mutate_suite = mutated_suite(seed) if mutate == "one-entry" else None
    for name in sorted(SUITE_BUILDERS):
        reports.append(run_suite(name, n, seed, draws,
                                 mutate if name == mutate_suite else None))
    return reports
