"""Acceptance criteria, one test per criterion, at their stated scales.

Every residual is exact (tolerance is literal zero in rational arithmetic);
each test prints a single pass/fail line.
"""

import json
from fractions import Fraction as F

from yibre import bezout, blocks, cg, classical, poisson, qalg, rime, tensor
from yibre.kernel import ZERO, RationalDraw
from yibre.poisson import PencilParams
from yibre.suites import _is_zero, run_all, run_suite
from yibre.tensor import Operator1, Operator2, Operator3

from reference import conjugation_residual, eigenvector_w


def report(num, label, ok):
    print(f"criterion {num:02d} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


def test_criterion_01_ybe_rime_families():
    rd = RationalDraw(101)
    ok = True
    for n in (2, 3, 4, 5):
        for _ in range(10):
            phi = rd.vector(n, distinct=True)
            beta = rd.rational()
            ok = ok and tensor.yb_residual(rime.strict_rime_R(phi, beta)).is_zero()
            mu = rd.vector(n, distinct=True)
            ok = ok and tensor.yb_residual(rime.unitary_rime_R(mu)).is_zero()
    report(1, "ybe-rime-families", ok)


def test_criterion_02_hecke_and_multiplicities():
    rd = RationalDraw(102)
    ok = True
    for n in (2, 3, 4):
        for _ in range(5):
            beta = rd.rational()
            while beta in (0, 2):
                beta = rd.rational()
            r = rime.strict_rime_R(rd.vector(n, distinct=True), beta)
            ok = ok and tensor.hecke_residual(r, beta).is_zero()
            rep = rime.eigen_multiplicities(r, beta)
            ok = ok and rep.multiplicity_one == n * (n + 1) // 2
            ok = ok and rep.multiplicity_beta_minus_one == n * (n - 1) // 2
    report(2, "hecke-multiplicities", ok)


def test_criterion_03_quantum_traces():
    rd = RationalDraw(103)
    ok = True
    for n in (2, 3, 4):
        phi = rd.vector(n, distinct=True)
        beta = rd.rational()
        while beta in (0, 1, 2):
            beta = rd.rational()
        data = rime.strict_rime_data(phi, beta)
        qc, qtc = rime.quantum_trace_closed_forms(data)
        qs, qts = rime.quantum_traces(rime.assemble_rime(data))
        ok = ok and qc == qs and qtc == qts
        ok = ok and (qc @ qtc) == Operator1.identity(n).scale((1 - beta) ** (n - 1))
        for a in range(n):
            w = eigenvector_w(phi, a)
            ok = ok and qc.apply(w) == tuple((1 - beta) ** (n - 1 - a) * x for x in w)
        mu = rd.vector(n, distinct=True)
        qu, _ = rime.quantum_trace_closed_forms(rime.unitary_rime_data(mu))
        for i in range(n):
            w = eigenvector_w(mu, i)
            coeffs = rime.jordan_action_coefficients(n, i)
            rhs = tuple(sum((coeffs[s] * eigenvector_w(mu, s)[j]
                             for s in range(n)), ZERO) for j in range(n))
            ok = ok and qu.apply(w) == rhs
    report(3, "quantum-traces", ok)


def test_criterion_04_invariance_groups():
    rd = RationalDraw(104)
    ok = True
    for n in (2, 3, 4):
        phi = rd.vector(n, distinct=True)
        mu = rd.vector(n, distinct=True)
        beta = rd.rational()
        r = rime.strict_rime_R(phi, beta)
        u = rime.unitary_rime_R(mu)
        u1, v1, u2, v2 = (rd.rational() for _ in range(4))
        y1 = rime.invariance_Y(phi, u1, v1)
        yy = tensor.kron11(y1, y1)
        ok = ok and (r @ yy - yy @ r).is_zero()
        ok = ok and (y1 @ rime.invariance_Y(phi, u2, v2)) \
            == rime.invariance_Y(phi, u1 * u2, v1 * v2)
        ok = ok and y1.det() == (u1 * v1) ** (n * (n - 1) // 2)
        a1, a2 = rd.rational(), rd.rational()
        y0 = rime.invariance_Y0(mu, a1)
        yy = tensor.kron11(y0, y0)
        ok = ok and (u @ yy - yy @ u).is_zero()
        ok = ok and (y0 @ rime.invariance_Y0(mu, a2)) == rime.invariance_Y0(mu, a1 + a2)
        eta = rime.invariance_generator("nonunitary", phi)
        eta0 = rime.invariance_generator("unitary", mu)
        ok = ok and eta.trace() == 0 and eta0.trace() == 0
        ok = ok and tensor.commutator_with_sum(r, eta).is_zero()
        ok = ok and tensor.commutator_with_sum(u, eta0).is_zero()
    report(4, "invariance-groups", ok)


def test_criterion_05_cg_equivalence():
    rd = RationalDraw(105)
    ok = True
    for n in (2, 3, 4, 5):
        for _ in range(10):
            phi = rd.vector(n, distinct=True)
            beta = rd.rational()
            while beta in (0, 1):
                beta = rd.rational()
            x, _ = cg.x_change_of_basis(phi)
            ok = ok and cg.cg_equivalence_residual(phi, beta, x).is_zero()
    for n in (2, 3, 4):
        phi = rd.vector(n, distinct=True)
        x, xinv = cg.x_change_of_basis(phi)
        ok = ok and (x @ xinv) == Operator1.identity(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                for k in range(1, n + 1):
                    for l in range(1, n + 1):
                        ok = ok and cg.sectype_identity_residual(phi, i, j, k, l) == 0
        phi2 = rd.vector(n, distinct=True)
        ok = ok and cg.phi_transition(phi, phi2) \
            == (cg.x_change_of_basis(phi2)[0] @ cg.x_change_of_basis(phi)[1])
    report(5, "cg-equivalence", ok)


def test_criterion_06_appendix_system():
    rd = RationalDraw(106)
    ok = True
    n = 3
    for _ in range(10):
        phi = rd.vector(n, distinct=True)
        beta = rd.rational()
        data = rime.strict_rime_data(phi, beta)
        ok = ok and all(v == 0 for v in rime.appendix_A_residuals(data).values())
        qi = rd.rational()
        ice = rime.extract_rime_data(cg.standard_rc_matrix(n, qi))
        ok = ok and all(v == 0 for v in rime.appendix_A_residuals(ice).values())
        for grid, i, j in (("beta_ij", 1, 2), ("gamma_ij", 2, 3), ("alpha_ij", 1, 3)):
            getter = {"beta_ij": data.b, "gamma_ij": data.g, "alpha_ij": data.a}[grid]
            bad = data.replace_entry(grid, i, j, getter(i, j) + 5)
            ok = ok and any(v != 0 for v in rime.appendix_A_residuals(bad).values())
    report(6, "appendix-system", ok)


def test_criterion_07_classical_suite():
    rd = RationalDraw(107)
    ok = True
    for n in (2, 3, 4):
        phi = rd.vector(n, distinct=True)
        mu = rd.vector(n, distinct=True)
        kinds = {
            "nonskew": classical.rime_nonskew_r(phi),
            "skew": classical.rime_skew_r(mu),
            "skew-sl": classical.rime_skew_sl_r(mu),
            "rcg": classical.rcg_r(n),
            "rcg-prime": classical.rcg_prime_r(n),
            "b": classical.b_skew_r(n),
            "bcg": classical.b_cg_r(n),
        }
        for op in kinds.values():
            ok = ok and tensor.cybe_residual(op).is_zero()
        ok = ok and classical.classical_limit_residual(phi, rd.rational()).is_zero()
        for pair in ("nonskew-to-rcg", "skew-to-b", "skew-sl-to-bcg"):
            ok = ok and _is_zero(conjugation_residual(pair, rd.vector(n, distinct=True)))[0]
        ok = ok and _is_zero(classical.carrier_algebra_check(mu))[0]
        ok = ok and classical.invariance_shift_residual(
            kinds["rcg"], classical.invariance_eta_cg(n), rd.rational()).is_zero()
        ok = ok and classical.invariance_shift_residual(
            kinds["b"], classical.invariance_eta0_b(n), rd.rational()).is_zero()
        ok = ok and classical.representation_change_residual(n, rd.rational()).is_zero()
        ok = ok and classical.representation_change_residual(
            n, rd.rational(), classical.B_SKEW).is_zero()
        ok = ok and _is_zero(classical.bd_symmetry_check(classical.R_CG, n))[0]
        ok = ok and _is_zero(classical.bd_symmetry_check(classical.R_CG_PRIME, n))[0]
    for _ in range(5):
        q = rd.rational()
        while q in (0, 1, -1):
            q = rd.rational()
        m = classical.bd_fork_R(q, rd.rational(), rd.rational(), rd.rational())
        ok = ok and tensor.yb_residual(m).is_zero()
        ok = ok and tensor.hecke_residual(m, 1 - 1 / (q * q)).is_zero()
    report(7, "classical-suite", ok)


def test_criterion_08_bezout_nhacybe():
    rd = RationalDraw(108)
    ok = True
    for n in (2, 3, 4, 5, 6):
        ops = (bezout.bezout_operator(kind, n) for kind in (bezout.B0, bezout.B, bezout.RS))
        ok = ok and all(v.is_zero() for v in bezout.bezout_identity_suite(*ops).values())
    for n in (2, 3, 4):
        ok = ok and tensor.nhacybe_residual(bezout.bezout_operator(bezout.B0, n), 0).is_zero()
        ok = ok and tensor.nhacybe_residual(bezout.bezout_operator(bezout.B, n), 1).is_zero()
        ok = ok and tensor.nhacybe_residual(bezout.bezout_operator(bezout.RS, n), 1).is_zero()
    for _ in range(5):
        lam = rd.rational()
        for kind in (bezout.B0, bezout.B, bezout.RS):
            res = bezout.linear_quantization_residuals(bezout.bezout_operator(kind, 3), lam)
            ok = ok and res["numbered"].is_zero() and res["braid"].is_zero()
    for n in (2, 3):
        bt = bezout.bezout_operator(bezout.BTILDE, n)
        r12, r13, r23 = (tensor.place(bt, legs, 3) for legs in ((1, 2), (1, 3), (2, 3)))
        ok = ok and (r12 @ r13 + r13 @ r23 - r23 @ r12) \
            == Operator3.identity(n).scale(F(1, 4))
        ok = ok and (bt + bt.reversed_legs()) == tensor.permutation_P(n).scale(-1)
        ok = ok and (bt @ bt) == Operator2.identity(n).scale(F(1, 4))
    for n in (2, 3, 4):
        ok = ok and _is_zero(bezout.m_recursion_check(bezout.bezout_operator(bezout.B0, n)))[0]
    for n in (2, 3):
        units = [Operator1.unit(n, i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        r0 = bezout.bezout_operator(bezout.B0, n)
        rb = bezout.bezout_operator(bezout.B, n)
        for r, c, variant in ((r0, 0, "plain"), (rb, 1, "delta"), (rb, 1, "delta-tilde")):
            ok = ok and _is_zero(bezout.coassociativity_residuals(r, c, variant, units))[0]
    report(8, "bezout-nhacybe", ok)


def test_criterion_09_rota_baxter():
    """Verbatim n=2 tables, closed forms, star products, homomorphisms.

    The skew divided-difference operator has r + r_21 = 0, which forces its
    trace operator to have Rota-Baxter weight 0 (not -1); the remaining ones
    carry weight -1 and the rime one +1 as stated.
    """
    rd = RationalDraw(109)
    ok = True
    for n in (2, 3, 4):
        units = [Operator1.unit(n, i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        pairs = [(Operator1([[rd.rational(nonzero=False) for _ in range(n)]
                             for _ in range(n)]),
                  Operator1([[rd.rational(nonzero=False) for _ in range(n)]
                             for _ in range(n)])) for _ in range(10)]
        for kind, w in ((bezout.B0, 0), (bezout.B, -1), (bezout.RS, -1)):
            rb = bezout.rota_baxter(bezout.bezout_operator(kind, n))
            ok = ok and rb == bezout.rb_closed_form(kind, n)
            for x in units:
                for y in units:
                    ok = ok and bezout.rb_weight_residual(rb, w, x, y).is_zero()
            for x, y in pairs:
                ok = ok and bezout.rb_weight_residual(rb, w, x, y).is_zero()
        phi = rd.vector(n, distinct=True)
        rbp = bezout.rota_baxter(classical.rime_nonskew_r(phi))
        ok = ok and rbp == bezout.rb_closed_form("rime-phi", n, phi)
        for x, y in pairs:
            ok = ok and bezout.rb_weight_residual(rbp, 1, x, y).is_zero()
    # frozen n=2 tables
    ar = [[F(5), F(7)], [F(11), F(13)]]
    tr = [[F(1), F(-2)], [F(4), F(6)]]
    a, t = Operator1(ar), Operator1(tr)
    rb0 = bezout.rota_baxter(bezout.bezout_operator(bezout.B0, 2))
    rb = bezout.rota_baxter(bezout.bezout_operator(bezout.B, 2))
    ok = ok and rb0.apply(a) == Operator1([[-11, 5], [0, 0]])
    ok = ok and rb.apply(a) == Operator1([[0, 0], [-11, 5]])
    ok = ok and bezout.star_product(a, t, rb0, 0) == Operator1([
        [-ar[1][0] * tr[0][0], -ar[1][0] * tr[0][1] + ar[0][0] * (tr[0][0] + tr[1][1])],
        [-ar[1][0] * tr[1][0], ar[1][0] * tr[0][0]]])
    ok = ok and bezout.star_product(a, t, rb, -1) == Operator1([
        [ar[0][0] * tr[0][0], ar[0][0] * tr[0][1] + ar[0][1] * (tr[0][0] + tr[1][1])],
        [ar[0][0] * tr[1][0], ar[0][0] * tr[1][1] + ar[1][1] * (tr[0][0] + tr[1][1])]])
    for n in (2, 3):
        units = [Operator1.unit(n, i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        for kind, w in ((bezout.B0, 0), (bezout.B, -1)):
            rbk = bezout.rota_baxter(bezout.bezout_operator(kind, n))
            for x in units:
                for y in units:
                    for z in units:
                        ok = ok and bezout.star_product(
                            bezout.star_product(x, y, rbk, w), z, rbk, w) \
                            == bezout.star_product(x, bezout.star_product(y, z, rbk, w),
                                                   rbk, w)
    for kind in (bezout.B0, bezout.B):
        rbk = bezout.rota_baxter(bezout.bezout_operator(kind, 2))
        ok = ok and _is_zero(bezout.gl2_isomorphism_check(kind, rbk))[0]
    report(9, "rota-baxter", ok)


def test_criterion_10_poisson():
    rd = RationalDraw(110)
    ok = True
    for n in (3, 4, 5):
        for _ in range(25):
            params = PencilParams(rd.vector(n, distinct=True), rd.rational(),
                                  rd.rational(), rd.rational())
            ok = ok and not poisson.jacobi_residual(poisson.pencil_bracket(params))
    psi = rd.vector(4, distinct=True)
    params = PencilParams(psi, rd.rational(), rd.rational(), rd.rational())
    gen = poisson.invariance_generator(params)
    ok = ok and gen.trace() == 0
    ok = ok and poisson.lie_derivative(poisson.pencil_bracket(params), gen).is_zero()
    ok = ok and _is_zero(poisson.sl2_suite(psi))[0]
    bm, b0, bp = poisson.sl2_generators(psi)
    combo = bp.scale(params.a) + b0.scale(params.b) + bm.scale(params.c)
    ok = ok and poisson.invariance_generator(params) == poisson.varpi(combo)
    disc = lambda r: r[1] * r[1] - 4 * r[0] * r[2]
    for _ in range(10):
        rho = tuple(rd.rational(nonzero=False) for _ in range(3))
        for mv, val in (("shift", rd.rational()), ("dilate", rd.rational()),
                        ("invert", None)):
            ok = ok and disc(poisson.discriminant_action(rho, mv, val)) == disc(rho)
    for _ in range(20):
        psi_d = rd.vector(3, distinct=True)
        rho = tuple(rd.rational(nonzero=False) for _ in range(3))
        res = poisson.normal_form_classify(PencilParams(psi_d, *rho))
        expected = poisson.ZERO_POLY if rho == (0, 0, 0) else (
            poisson.MASSIVE if disc(rho) else poisson.LIGHTLIKE)
        ok = ok and res.orbit == expected
        if res.witness is not None:
            ok = ok and res.transport_verified
    for n in (3, 4, 5):
        ok = ok and _is_zero(poisson.linear_rime_suite(n, rd))[0]
    report(10, "poisson", ok)


def test_criterion_11_quadratic_algebras():
    rd = RationalDraw(111)
    ok = True
    for n in (3, 4):
        gs = {(j, k): rd.rational() for j in range(1, n + 1) for k in range(j + 1, n + 1)}
        p1 = qalg.OrderedPresentation.case_i(n, lambda j, k: gs[(j, k)])
        f = rd.rational()
        while f in (0, 1, -1):
            f = rd.rational()
        p2 = qalg.OrderedPresentation.case_ii(n, f)
        ok = ok and not qalg.overlap_residuals(p1)
        ok = ok and not qalg.overlap_residuals(p2)
    for _ in range(20):
        fs = {}
        gs = {}
        for j in range(1, 4):
            for k in range(j + 1, 4):
                fs[(j, k)] = rd.rational()
                gs[(j, k)] = rd.rational()
        pres = qalg.OrderedPresentation.build(3, lambda j, k: fs[(j, k)],
                                              lambda j, k: gs[(j, k)])
        confluent = not qalg.overlap_residuals(pres)
        label = qalg.classify_orderable(pres).label
        ok = ok and confluent == (label in (qalg.CASE_I, qalg.CASE_II))
    for n in (2, 3, 4):
        gs = {(j, k): rd.rational() for j in range(1, n + 1) for k in range(j + 1, n + 1)}
        p1 = qalg.OrderedPresentation.case_i(n, lambda j, k: gs[(j, k)])
        ok = ok and qalg.poincare_series(n, p1.relation_rows(), 5) \
            == qalg.binomial_series(n, 5)
        p2 = qalg.OrderedPresentation.case_ii(n, 2)
        ok = ok and qalg.poincare_series(n, p2.relation_rows(), 5) \
            == qalg.binomial_series(n, 5)
    q = F(2)
    for om in (F(1, 4), F(1), F(4)):
        ok = ok and qalg.gl11_window_test(q, om, 4)["gl11_type"]
    for om in (F(3), F(2), F(5, 7), F(-1), F(9, 2)):
        ok = ok and not qalg.gl11_window_test(q, om, 4)["gl11_type"]
    report(11, "quadratic-algebras", ok)


def test_criterion_12_blocks():
    rd = RationalDraw(112)
    ok = True
    members = [
        (blocks.RBL1, (2, 1)), (blocks.RBL2, (2, 1)), (blocks.RBL3, (2, F(3, 2))),
        (blocks.RBL4, (3, 1, 1)), (blocks.RBL4, (3, 9, 1)),
        (blocks.RBL4, (3, F(1, 9), 2)), (blocks.GL2_STD, (2, 3)),
        (blocks.GL11_STD, (2, 3)), (blocks.EIGHT_VERTEX, (2,)),
        (blocks.R_II, (2, 1)), (blocks.R_II, (2, -1)), (blocks.JORDANIAN, (1, 2)),
        (blocks.JORDANIAN, (0, 3)), (blocks.PERM_LIKE, (2, 3, 5)),
        (blocks.R_PRIME, (7,)), (blocks.R_DOUBLE_PRIME, (1, 2, 3)),
        (blocks.R_TRIPLE_PRIME, ()),
    ]
    for kind, ps in members:
        r = blocks.block_matrix(kind, *ps)
        ok = ok and tensor.yb_residual(r).is_zero()
        if blocks.classify(r) != rime.RimeClass.NOT_RIME and blocks.is_skew_invertible(r):
            ok = ok and blocks.skinv_implications(r)
    eqs = blocks.stated_equivalences(F(5, 3), F(2, 7))
    ok = ok and len(eqs) == 6 and _is_zero(eqs)[0]
    for kind, ps in ((blocks.GL2_STD, (2, 3)), (blocks.GL11_STD, (2, 3)),
                     (blocks.EIGHT_VERTEX, (2,)), (blocks.R_II, (2, 1)),
                     (blocks.JORDANIAN, (1, 2))):
        ok = ok and _is_zero(blocks.symmetry_relations(kind, *ps))[0]
    checked = 0
    while checked < 50:
        t = Operator1([[rd.rational(), rd.rational()], [rd.rational(), rd.rational()]])
        if t.det() == 0:
            continue
        vals = blocks.nonrime_entries(t, rd.rational(), rd.rational(nonzero=False))
        ok = ok and any(vals)
        checked += 1
    report(12, "blocks", ok)


def test_criterion_13_harness_sanity():
    mutated = run_all(2, 13, 1, mutate="one-entry")
    failures = [(r.suite, c.name, c.residual_witness) for r in mutated
                for c in r.checks if c.status == "fail"]
    ok = len(failures) == 1 and failures[0][2] is not None
    r1 = [r.to_dict() for r in run_all(2, 13, 1)]
    r2 = [r.to_dict() for r in run_all(2, 13, 1)]
    for r in r1 + r2:
        r.pop("wall_time_ms")
    ok = ok and json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    clean = run_suite("rime", 2, 13, 1)
    ok = ok and clean.all_pass
    report(13, "harness-sanity", ok)
