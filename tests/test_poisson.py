import tracemalloc
from fractions import Fraction as F

import pytest

from yibre import poisson, qalg
from yibre.kernel import InvalidInputError, QuadExt, RationalDraw, ratvec
from yibre.poisson import (LIGHTLIKE, MASSIVE, ZERO_POLY,
                           PencilParams, QuadraticBracket, bracket_from_quantum,
                           almost_trivial_residuals, compensation_check, delta1_variation,
                           differences_commute_residuals,
                           discriminant_action, invariance_generator,
                           jacobi_residual, jsla_residuals, lagrange_basis_matrix,
                           lie_derivative, linear_bracket, linear_jacobi_residual,
                           linear_rime_suite, normal_form_classify,
                           pencil_bracket, pencil_bracket_uv_form,
                           projective_action_monomial, psi_variation,
                           psi_variation_dual, rime_fit,
                           rime_preserving_matrix, sl2_generators, sl2_suite,
                           trid_residuals, varpi)
from yibre.suites import _is_zero, run_suite
from yibre.tensor import Operator1, Operator2

from reference import (almost_trivial_full, differences_commute_full, jacobi_residual_per_call,
                       jsla_ordered_triples, lie_derivative_leibniz, linear_jacobi_nested)


def test_dual_numbers():
    x = QuadExt(2, 3, d=0)
    assert x + x == QuadExt(4, 6, d=0)
    assert x * x == QuadExt(4, 12, d=0)
    assert (x / QuadExt(2, 0, d=0)) == QuadExt(1, F(3, 2), d=0)
    assert (QuadExt(1, 0, d=0) / QuadExt(1, 1, d=0)) == QuadExt(1, -1, d=0)
    with pytest.raises(ZeroDivisionError):
        QuadExt(0, 1, d=0) / QuadExt(0, 2, d=0)


def test_pencil_constant_rho_frozen():
    br = pencil_bracket(PencilParams((0, 1), 0, 0, F(3)))
    assert br.pair(1, 2) == {(1, 1): -3, (1, 2): 6, (2, 2): -3}


def test_pencil_zero_rho():
    assert pencil_bracket(PencilParams((1, 2, 5), 0, 0, 0)).is_zero()


@pytest.mark.parametrize("n", [3, 4, 5])
def test_pencil_jacobi_and_forms(n):
    rd = RationalDraw(n * 19)
    for _ in range(5):
        params = PencilParams(rd.vector(n, distinct=True), rd.rational(),
                              rd.rational(), rd.rational())
        br = pencil_bracket(params)
        assert br == pencil_bracket_uv_form(params)
        assert not jacobi_residual(br)
        assert rime_fit(br) is not None


def test_jacobi_detects_violation():
    # {x^i, x^j} = a_ij x^i x^i - a_ji x^j x^j + 2 nu_ij x^i x^j
    bad = QuadraticBracket(3, {(1, 2): {(1, 1): F(1), (2, 2): F(-3), (1, 2): F(2)},
                               (1, 3): {(1, 1): F(2), (3, 3): F(-5), (1, 3): F(-4)},
                               (2, 3): {(2, 2): F(4), (3, 3): F(-6), (2, 3): F(6)}})
    assert jacobi_residual(bad)
    ok2 = QuadraticBracket(2, {(1, 2): {(1, 1): F(5), (2, 2): F(-7), (1, 2): F(4)}})
    assert not jacobi_residual(ok2)   # vacuous at n = 2


def test_rime_fit_rejects_foreign_monomials():
    br = QuadraticBracket(3, {(1, 2): {(3, 3): F(1)}})
    assert rime_fit(br) is None
    assert rime_fit(QuadraticBracket(3)) is not None


def test_bracket_from_pairs_merges_the_two_orders_of_a_monomial():
    br = QuadraticBracket(3, {(1, 2): {(1, 2): F(2), (2, 1): F(3), (3, 1): F(1, 2)},
                              (2, 3): {(3, 3): F(-1)}})
    assert br.pair(1, 2) == {(1, 2): F(5), (1, 3): F(1, 2)}
    assert br.pair(2, 1) == {(1, 2): F(-5), (1, 3): F(-1, 2)}
    assert br.pairs == {(1, 2): {(1, 2): F(5), (1, 3): F(1, 2)}, (2, 3): {(3, 3): F(-1)}}
    assert br == QuadraticBracket(3, {(2, 3): {(3, 3): F(-1)},
                                      (1, 2): {(1, 3): F(1, 2), (2, 1): F(5)}})


def test_bracket_from_pairs_drops_coefficients_that_cancel():
    br = QuadraticBracket(3, {(1, 2): {(1, 2): F(2), (2, 1): F(-2), (1, 1): F(1)},
                              (1, 3): {(1, 3): F(1, 3), (3, 1): F(-1, 3)},
                              (2, 3): {(2, 2): 0}})
    assert br.pairs == {(1, 2): {(1, 1): F(1)}}
    assert br.data == {1: {0: F(1)}}
    cancelled = QuadraticBracket(2, {(1, 2): {(1, 2): F(7), (2, 1): F(-7)}})
    assert cancelled.is_zero() and cancelled == QuadraticBracket(2)


@pytest.mark.parametrize("pair", [(2, 1), (1, 1), (0, 2), (1, 4)])
def test_bracket_from_pairs_refuses_a_pair_not_stored(pair):
    with pytest.raises(InvalidInputError):
        QuadraticBracket(3, {pair: {(1, 1): F(1)}})


@pytest.mark.parametrize("mono", [(0, 3), (2, 4), (4, 1), (-1, 2)])
def test_bracket_from_pairs_refuses_a_monomial_outside_the_dim(mono):
    with pytest.raises(InvalidInputError):
        QuadraticBracket(3, {(1, 2): {mono: F(5)}})


def test_lie_derivative_scale_covariance():
    params = PencilParams((0, 1, 3), 1, 2, 3)
    br = pencil_bracket(params)
    assert lie_derivative(br, Operator1.identity(3)).is_zero()


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_lie_derivative_matches_the_leibniz_rule(n):
    """-[T, A_1 + A_2] on the full tensor, folded back, is the pair-by-pair Leibniz form, on
    pencil brackets and a bumped one, against the invariance generator, a rime-preserving
    matrix and a random dense A."""
    rd = RationalDraw(40 + n)
    params = PencilParams(rd.vector(n, distinct=True), rd.rational(), rd.rational(),
                          rd.rational())
    pencil = pencil_bracket(params)
    bumped = pencil + QuadraticBracket(n, {(1, 2): {(1, 3): F(1)}, (2, n): {(2, 2): F(3, 7)}})
    dense = Operator1([[rd.rational() for _ in range(n)] for _ in range(n)])
    mats = [dense, invariance_generator(params),
            rime_preserving_matrix(params, rd.vector(n, distinct=False))]
    for br in (pencil, pencil_bracket_uv_form(params), bumped):
        for a in mats:
            got = lie_derivative(br, a)
            assert type(got) is QuadraticBracket
            assert got == lie_derivative_leibniz(br, a)
    assert not lie_derivative(bumped, mats[1]).is_zero()
    assert not lie_derivative(pencil, dense).is_zero()


def test_invariance_generator():
    params = PencilParams((0, 1, 3), 1, 2, 3)
    gen = invariance_generator(params)
    assert gen.trace() == 0
    assert lie_derivative(pencil_bracket(params), gen).is_zero()
    # frozen constant-rho value
    g2 = invariance_generator(PencilParams((0, 1), 0, 0, 1))
    assert g2 == Operator1([[1, -1], [1, -1]])


def test_rime_preserving_family():
    rd = RationalDraw(23)
    params = PencilParams(rd.vector(3, distinct=True), rd.rational(),
                          rd.rational(), rd.rational())
    nu = rd.vector(3, distinct=False)
    var = lie_derivative(pencil_bracket(params), rime_preserving_matrix(params, nu))
    assert rime_fit(var) is not None


def test_compensation():
    for seed in (1, 2, 3):
        rd = RationalDraw(seed)
        params = PencilParams(rd.vector(3, distinct=True), rd.rational(),
                              rd.rational(), rd.rational())
        rep = compensation_check(params, rd.vector(3, distinct=False))
        assert set(rep) == {"ris10-closed-vs-dual", "lie-derivative-is-minus-delta1",
                            "delta1-compensated-by-psi"}
        assert all(isinstance(v, QuadraticBracket) for v in rep.values())
        assert _is_zero(rep) == (True, None)
    # a = 0 member: the a-terms drop symmetrically
    assert _is_zero(compensation_check(PencilParams((0, 1, 4), 0, 2, 5), (1, 2, 3)))[0]
    assert _is_zero(compensation_check(PencilParams((0, 1, 4), 2, 2, 5), (0, 0, 0)))[0]


def test_compensation_fault_names_its_identity(monkeypatch):
    # without the compensating diagonal the Lie derivative is not -delta1
    monkeypatch.setattr(poisson, "compensating_diagonal", lambda params, nu: [0] * 3)
    ok, witness = _is_zero(compensation_check(PencilParams((0, 1, 4), 2, 2, 5), (1, 2, 3)))
    assert not ok and witness["index"].startswith("lie-derivative-is-minus-delta1:")


def test_bracket_arithmetic():
    b1 = pencil_bracket(PencilParams((0, 1, 3), 1, 2, 3))
    b2 = bracket_from_quantum((0, 1, 3), F(1, 2))
    diff = b1 - b2
    for i, j in ((1, 2), (1, 3), (2, 3), (2, 1)):
        want = {m: b1.pair(i, j).get(m, 0) - b2.pair(i, j).get(m, 0)
                for m in b1.pair(i, j).keys() | b2.pair(i, j).keys()}
        assert diff.pair(i, j) == {m: v for m, v in want.items() if v}
    assert diff + b2 == b1
    assert _is_zero(-b1 + b1) == (True, None)
    assert _is_zero(b1 - b1) == (True, None)
    assert -(-b1) == b1
    with pytest.raises(ValueError):
        b1 - QuadraticBracket(2)
    # the witness is the first nonzero coefficient over pairs i < j, then sorted monomials
    assert _is_zero(diff) == (False, {"index": "1,2|1,1", "value": "-11/2"})
    assert diff.pair(1, 2)[1, 1] == F(-11, 2)
    assert _is_zero(b1 - b1 + QuadraticBracket(3, {(2, 3): {(3, 2): F(1, 3)}})) == (
        False, {"index": "2,3|2,3", "value": "1/3"})


def test_bracket_and_operator_do_not_mix():
    br = pencil_bracket(PencilParams((0, 1, 3), 1, 2, 3))
    for op in (Operator2.zero(3), Operator2.identity(3)):
        with pytest.raises(InvalidInputError):
            br - op
        with pytest.raises(InvalidInputError):
            op + br
    assert br != Operator2(3, dict(br.data))


def test_psi_variation_closed_form_vs_dual():
    rd = RationalDraw(4)
    params = PencilParams(rd.vector(4, distinct=True), rd.rational(),
                          rd.rational(), rd.rational())
    dpsi = rd.vector(4, distinct=False)
    assert psi_variation(params, dpsi) == psi_variation_dual(params, dpsi)


def test_delta1_zero_for_equal_nu_and_a_zero():
    params = PencilParams((0, 1, 3), 0, 2, 5)
    assert delta1_variation(params, (7, 7, 7)).is_zero()


def test_sl2_generators_frozen():
    bm, b0, bp = sl2_generators([0, 1])
    assert bm == Operator1([[-1, -1], [1, 1]])
    assert (bm @ bm).is_zero()
    assert bm.trace() == 0 and bm.det() == 0


@pytest.mark.parametrize("psi", [[0, 1, 3], [1, 2, 4, 7]])
def test_sl2_suite(psi):
    assert _is_zero(sl2_suite(psi)) == (True, None)


def test_sl2_fault_names_its_identity(monkeypatch):
    gens = poisson.sl2_generators
    monkeypatch.setattr(poisson, "sl2_generators",
                        lambda psi: (lambda g: (g[0], g[1].scale(2), g[2]))(gens(psi)))
    ok, witness = _is_zero(sl2_suite([0, 1, 3]))
    assert not ok and witness["index"].startswith("b0-bminus:")


def test_projective_action_in_lagrange_basis():
    psi = ratvec([0, 1, 3])
    lag = lagrange_basis_matrix(psi)
    bm, b0, bp = sl2_generators(psi)
    assert (lag.inverse() @ projective_action_monomial(3, 0, 0, 1) @ lag) == bm
    assert (lag.inverse() @ projective_action_monomial(3, 0, 1, 0) @ lag) == b0
    assert (lag.inverse() @ projective_action_monomial(3, 1, 0, 0) @ lag) == bp


def test_varpi():
    rd = RationalDraw(12)
    y1 = Operator1([[rd.rational() for _ in range(3)] for _ in range(3)])
    y2 = Operator1([[rd.rational() for _ in range(3)] for _ in range(3)])
    assert varpi(varpi(y1)) == y1
    for r in trid_residuals(y1, y2):
        assert r.is_zero()


def test_discriminant_moves():
    assert discriminant_action((1, 0, 0), "shift", 3) == (1, 6, 9)
    assert discriminant_action((0, 1, 0), "dilate", 5) == (0, 1, 0)
    assert discriminant_action((2, 3, 4), "invert") == (-4, -3, -2)
    disc = lambda r: r[1] * r[1] - 4 * r[0] * r[2]
    rho = (F(2), F(-3), F(5, 7))
    for mv, val in (("shift", F(7, 2)), ("dilate", F(3, 4)), ("invert", None)):
        assert disc(discriminant_action(rho, mv, val)) == disc(rho)


def test_discriminant_fault_names_its_move(monkeypatch):
    # the check returns one discriminant difference per (draw, move), so a
    # broken invert move of draw 0 fails at position 2 with its nonzero difference
    action = poisson.discriminant_action

    def broken(rho, move, value=None):
        a, b, c = action(rho, move, value)
        return (a, b + 1, c) if move == "invert" else (a, b, c)

    monkeypatch.setattr(poisson, "discriminant_action", broken)
    [got] = [c for c in run_suite("poisson", 2, 0, 2).checks
             if c.name == "discriminant-invariance"]
    assert got.status == "fail" and got.residual_witness["index"] == "2:-"
    assert got.residual_witness["value"] != "0"


def test_normal_form_fault_names_its_sample(monkeypatch):
    # the check returns one verdict per sample, so a wrong orbit for sample 3 fails at 3
    classify = poisson.normal_form_classify
    calls = []

    def broken(params):
        res = classify(params)
        calls.append(params)
        if len(calls) == 4:
            res.orbit = "wrong"
        return res

    monkeypatch.setattr(poisson, "normal_form_classify", broken)
    [got] = [c for c in run_suite("poisson", 2, 0, 1).checks
             if c.name == "normal-form-consistency"]
    assert got.status == "fail"
    assert got.residual_witness == {"index": "3:-", "value": "false"}


def test_normal_forms():
    res = normal_form_classify(PencilParams((1, 2, 4), 1, 0, 0))
    assert res.orbit == LIGHTLIKE and res.transport_verified
    assert res.final_rho[0] == 0 and res.final_rho[1] == 0
    res2 = normal_form_classify(PencilParams((1, 2, 4), 1, -1, 0))
    assert res2.orbit == MASSIVE and res2.transport_verified
    assert res2.final_rho[0] == 0 and res2.final_rho[2] == 0
    res3 = normal_form_classify(PencilParams((1, 2, 4), 0, 3, 1))
    assert res3.orbit == MASSIVE and res3.transport_verified
    res4 = normal_form_classify(PencilParams((1, 2, 4), 1, 0, -2))
    assert res4.orbit == MASSIVE and res4.needs_quadratic_extension
    assert normal_form_classify(PencilParams((1, 2, 4), 0, 0, 0)).orbit == ZERO_POLY
    res6 = normal_form_classify(PencilParams((1, 2, 4), 1, -2, 1))
    assert res6.orbit == LIGHTLIKE and res6.blocked_by_psi


def test_normal_forms_seeded_consistency():
    rd = RationalDraw(21)
    for _ in range(20):
        psi = rd.vector(3, distinct=True)
        rho = tuple(rd.rational(nonzero=False) for _ in range(3))
        res = normal_form_classify(PencilParams(psi, *rho))
        disc = rho[1] ** 2 - 4 * rho[0] * rho[2]
        expected = ZERO_POLY if rho == (0, 0, 0) else (MASSIVE if disc else LIGHTLIKE)
        assert res.orbit == expected
        if res.witness is not None:
            assert res.transport_verified


def test_bracket_from_quantum():
    psi = ratvec([0, 1, 3])
    assert bracket_from_quantum(psi, F(2, 5)) \
        == pencil_bracket(PencilParams(psi, 0, F(2, 5), 0))
    assert bracket_from_quantum(psi, 0).is_zero()
    mu = ratvec([0, 1])
    assert bracket_from_quantum(mu) == pencil_bracket(PencilParams(mu, 0, 0, -1))


def test_linear_rime():
    for n in (3, 4, 5):
        rep = linear_rime_suite(n, RationalDraw(123))
        assert _is_zero(rep) == (True, None), (n, rep)
    # the one bracket: {x^1, x^2 + x^3} = (a_12 + a_13) x^1 - a_21 x^2 - a_31 x^3
    a = [[0, 2, 3], [5, 0, 7], [11, 13, 0]]
    assert linear_bracket(a, {0: 1}, {1: 1, 2: 1}) == {0: 5, 1: -5, 2: -11}
    # jsla characterization: a violation shows up in both residual families
    bad = [[0, 1, 1], [1, 0, 1], [1, 5, 0]]
    assert jsla_residuals(bad) and linear_jacobi_residual(bad)
    good = [[0, 2, 3], [1, 0, 3], [1, 2, 0]]   # a_ij = c_j
    assert not jsla_residuals(good) and not linear_jacobi_residual(good)


def test_linear_rime_fault_names_its_identity(monkeypatch):
    # a bracket that drops the -a_ji x^j term breaks the algebra identities
    def half_bracket(a, f, g):
        out = {}
        for i, v in f.items():
            for j, w in g.items():
                if i != j:
                    out[i] = out.get(i, 0) + v * w * a[i][j]
        return out

    monkeypatch.setattr(poisson, "linear_bracket", half_bracket)
    ok, witness = _is_zero(linear_rime_suite(3, RationalDraw(1)))
    assert not ok and witness["index"].startswith("almost-trivial:")


def test_linear_rime_shares_its_empty_differences(monkeypatch):
    diffs = linear_rime_suite(4, RationalDraw(0))["differences-commute"]
    assert diffs.zero
    diffs = diffs.form()
    assert len(diffs) == 12 * 12 and not any(diffs)
    assert len({id(d) for d in diffs}) == 1
    # a bracket that drops the -a_ji x^j term keeps every nonzero residual at its position
    def half_bracket(a, f, g):
        out = {}
        for i, v in f.items():
            for j, w in g.items():
                if i != j:
                    out[i] = out.get(i, 0) + v * w * a[i][j]
        return {k: x for k, x in out.items() if x}

    monkeypatch.setattr(poisson, "linear_bracket", half_bracket)
    diffs = linear_rime_suite(4, RationalDraw(0))["differences-commute"]
    assert not diffs.zero
    diffs = diffs.form()
    ones = [[0 if i == j else 1 for j in range(4)] for i in range(4)]
    assert diffs == [half_bracket(ones, {i: 1, j: -1}, {k: 1, l: -1})
                     for i in range(4) for j in range(4) if i != j
                     for k in range(4) for l in range(4) if k != l]
    assert any(diffs) and not all(diffs)
    assert len({id(d) for d in diffs if not d}) == 1


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_linear_jacobi_closed_form_matches_the_nested_brackets(n):
    """a_uv a_vw - a_uw a_wv per rotation equals the nested brackets' cyclic sum, on random
    a, on the strict algebra's ones and with a_12 bumped there."""
    rd = RationalDraw(400 + n)
    ones = [[0 if i == j else 1 for j in range(n)] for i in range(n)]
    bad = [row[:] for row in ones]
    bad[0][1] = 5
    # the diagonal is drawn too: neither form reads it
    randoms = [[[rd.rational(nonzero=False) for _ in range(n)] for _ in range(n)]
               for _ in range(20)]
    for a in (*randoms, ones, bad):
        assert linear_jacobi_residual(a) == linear_jacobi_nested(a)
    assert not linear_jacobi_residual(ones) and linear_jacobi_residual(bad)
    assert all(linear_jacobi_residual(a) for a in randoms)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_differences_commute_decided_on_basis_differences(n):
    """The (n-1)^2 brackets {x^i - x^n, x^k - x^n} decide the whole list, and its form
    equals every bracket taken, a zero one as the shared empty dict, on the strict algebra
    and with a_12 bumped."""
    ones = [[0 if i == j else 1 for j in range(n)] for i in range(n)]
    bad = [row[:] for row in ones]
    bad[0][1] = 5
    for a in (ones, bad):
        deferred = differences_commute_residuals(a)
        got = deferred.form()
        assert got == differences_commute_full(a) and len(got) == (n * (n - 1)) ** 2
        assert len({id(d) for d in got if not d}) <= 1
        assert deferred.zero == (not any(got))
    assert differences_commute_residuals(ones).zero
    # at n = 2 every difference is +-(x^1 - x^2), and a bracket of one element with itself
    # vanishes, so only from n = 3 on does the bump show
    assert any(differences_commute_residuals(bad).form()) == (n > 2)
    assert differences_commute_residuals(bad).zero == (n == 2)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_jacobi_residual_matches_the_per_call_pair_form(n):
    """The Leibniz rule on the stored integer rows gives the per-monomial ``pair`` form's
    output, on brackets with up to four monomials per pair and on a dense one."""
    rd = RationalDraw(300 + n)
    psi = rd.vector(n)
    params = PencilParams(psi, rd.rational(), rd.rational(), rd.rational())
    brackets = [pencil_bracket(params), pencil_bracket_uv_form(params),
                bracket_from_quantum(psi, rd.rational()), bracket_from_quantum(psi),
                qalg.classical_limit_bracket(n)]
    # the rime form with free coefficients fails Jacobi, so nonzero sums are compared too
    free = QuadraticBracket(n, {(i, j): {(i, i): rd.rational(), (j, j): rd.rational(),
                                         (i, j): rd.rational(), (1, n): rd.rational()}
                                for i in range(1, n + 1) for j in range(i + 1, n + 1)})
    # only the pairs with i + j odd are stored, so some rows of T are empty
    sparse = QuadraticBracket(n, {pair: poly for pair, poly in free.pairs.items()
                                  if sum(pair) % 2})
    dual = QuadraticBracket(n, {pair: {m: QuadExt(v, rd.rational(), 0) for m, v in poly.items()}
                                for pair, poly in free.pairs.items()})
    # each monomial x^k x^l, k <= l, squares included, is held with probability 1/2
    dense = QuadraticBracket(n, {(i, j): {(k, l): rd.rational() for k in range(1, n + 1)
                                          for l in range(k, n + 1) if rd.int_in(0, 1)}
                                 for i in range(1, n + 1) for j in range(i + 1, n + 1)})
    for br in [*brackets, free, sparse, dual, dense]:
        assert jacobi_residual(br) == jacobi_residual_per_call(br)
    assert all(not jacobi_residual(br) for br in brackets)
    assert bool(jacobi_residual(free)) == bool(jacobi_residual(dual)) == (n >= 3)
    assert bool(jacobi_residual(sparse)) == bool(jacobi_residual(dense)) == (n >= 3)


def test_jacobi_residual_forms_no_tensor():
    # the Leibniz rule reads the stored rows: at n = 16 a pencil bracket's Jacobiator peaks
    # at about 0.002 MB of tracemalloc, against 12.4 MB with the full tensor placed three times
    rd = RationalDraw(16)
    br = pencil_bracket(PencilParams(rd.vector(16), 1, F(2, 7), 3))
    br._ints()
    tracemalloc.start()
    try:
        residual = jacobi_residual(br)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not residual
    assert peak < 1e6, f"jacobi_residual peaked at {peak / 1e6:.2f} MB"


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_almost_trivial_decided_on_one_column(n):
    """The n(n-1) entries with l = n decide the whole list, and its form equals every entry
    taken, zero terms kept, on the strict algebra and with a_12 or a_1,n-1 bumped."""
    ones = [[0 if i == j else 1 for j in range(n)] for i in range(n)]
    bads = [[row[:] for row in ones] for _ in range(2)]
    bads[0][0][1] = bads[1][0][n - 2] = 5
    for a in (ones, *bads):
        deferred = almost_trivial_residuals(a)
        got = deferred.form()
        assert got == almost_trivial_full(a) and len(got) == n * n * (n - 1)
        assert deferred.zero == (not any(v for entry in got for v in entry.values()))
    assert almost_trivial_residuals(ones).zero
    assert not any(almost_trivial_residuals(a).zero for a in bads)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_jsla_once_per_unordered_pair_matches_every_ordered_triple(n):
    """jsla evaluated once per i and j < k, negated at (i, k, j), equals the formula at every
    ordered triple, on random a (diagonal drawn too) and on a bumped strict algebra."""
    rd = RationalDraw(500 + n)
    bad = [[0 if i == j else 1 for j in range(n)] for i in range(n)]
    bad[0][1] = 5
    randoms = [[[rd.rational(nonzero=False) for _ in range(n)] for _ in range(n)]
               for _ in range(20)]
    for a in (*randoms, bad):
        assert jsla_residuals(a) == jsla_ordered_triples(a)
    assert jsla_residuals(bad) and all(jsla_residuals(a) for a in randoms)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_full_tensor_matches_a_dense_oracle(n):
    """T is antisymmetric in its row pair (i, j), has no row (i, i), and the halves at
    (k, l) and (l, k) of each row i < j sum back to the stored x^k x^l coefficient."""
    rd = RationalDraw(320 + n)
    params = PencilParams(rd.vector(n), rd.rational(), rd.rational(), rd.rational())
    free = QuadraticBracket(n, {(i, j): {(k, l): rd.rational() for k in range(1, n + 1)
                                         for l in range(k, n + 1) if rd.int_in(0, 1)}
                                for i in range(1, n + 1) for j in range(i + 1, n + 1)
                                if rd.int_in(0, 2)})
    dual = QuadraticBracket(n, {pair: {m: QuadExt(v, rd.rational(), 0) for m, v in poly.items()}
                                for pair, poly in free.pairs.items()})
    for br in (pencil_bracket(params), free, dual, QuadraticBracket(n)):
        t = br.full()
        assert type(t) is Operator2
        grid = [[t.get(i, j, k, l) for k in range(1, n + 1) for l in range(1, n + 1)]
                for i in range(1, n + 1) for j in range(1, n + 1)]
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                row, flipped = grid[(i - 1) * n + j - 1], grid[(j - 1) * n + i - 1]
                assert row == [-x for x in flipped]
                if i >= j:
                    continue
                stored = br.pair(i, j)
                for k in range(1, n + 1):
                    for l in range(k, n + 1):
                        halves = row[(k - 1) * n + l - 1], row[(l - 1) * n + k - 1]
                        want = stored.get((k, l), 0)
                        assert (halves[0] if k == l else sum(halves)) == want
                        assert halves[0] == halves[1]


@pytest.mark.parametrize("n", range(2, 7))
def test_varpi_relabels_the_integer_rows(n):
    from reference import varpi_per_entry
    rd = RationalDraw(330 + n)
    y = Operator1([[rd.rational() if rd.int_in(0, 2) else 0 for _ in range(n)]
                   for _ in range(n)])
    dual = Operator1([[QuadExt(rd.rational(), rd.rational(), 0) for _ in range(n)]
                      for _ in range(n)])
    for op in (y, Operator1.identity(n), Operator1.zero(n), dual):
        got, want = varpi(op), varpi_per_entry(op)
        assert got == want and got._ints() == want._ints()
    bumped = y + Operator1.unit(n, 2, 1)
    assert varpi(bumped) != varpi_per_entry(y)
