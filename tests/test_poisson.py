from fractions import Fraction as F

import pytest

from yibre.kernel import QuadExt, RationalDraw, ratvec
from yibre.poisson import (LIGHTLIKE, MASSIVE, ZERO_POLY, CompensationReport,
                           PencilParams, bracket_from_quantum,
                           compensation_check, delta1_variation,
                           discriminant_action, invariance_generator,
                           jacobi_residual, jsla_residuals, lagrange_basis_matrix,
                           lie_derivative, linear_jacobi_residual,
                           linear_rime_suite, normal_form_classify,
                           pencil_bracket, pencil_bracket_uv_form,
                           projective_action_monomial, psi_variation,
                           psi_variation_dual, rime_bracket, rime_fit,
                           rime_preserving_matrix, sl2_generators, sl2_suite,
                           trid_residuals, varpi)
from yibre.tensor import Operator1


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
    bad = rime_bracket(3, [[0, 1, 2], [3, 0, 4], [5, 6, 0]],
                       [[0, 1, -2], [-1, 0, 3], [2, -3, 0]])
    assert jacobi_residual(bad)
    ok2 = rime_bracket(2, [[0, 5], [7, 0]], [[0, 2], [-2, 0]])
    assert not jacobi_residual(ok2)   # vacuous at n = 2


def test_rime_fit_rejects_foreign_monomials():
    from yibre.poisson import QuadraticBracket
    br = QuadraticBracket(3)
    br.set_pair(1, 2, {(3, 3): F(1)})
    assert rime_fit(br) is None
    assert rime_fit(QuadraticBracket(3)) is not None


def test_lie_derivative_scale_covariance():
    params = PencilParams((0, 1, 3), 1, 2, 3)
    br = pencil_bracket(params)
    assert lie_derivative(br, Operator1.identity(3)).is_zero()


def test_invariance_generator():
    params = PencilParams((0, 1, 3), 1, 2, 3)
    gen = invariance_generator(params)
    assert gen.trace() == 0
    assert lie_derivative(pencil_bracket(params), gen).is_zero()
    # frozen constant-rho value
    g2 = invariance_generator(PencilParams((0, 1), 0, 0, 1))
    assert g2.rows == [[1, -1], [1, -1]]


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
        assert isinstance(rep, CompensationReport)
        assert rep.all_ok()
    # a = 0 member: the a-terms drop symmetrically
    assert compensation_check(PencilParams((0, 1, 4), 0, 2, 5), (1, 2, 3)).all_ok()
    assert compensation_check(PencilParams((0, 1, 4), 2, 2, 5), (0, 0, 0)).all_ok()


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
    assert bm.rows == [[-1, -1], [1, 1]]
    assert (bm @ bm).is_zero()
    assert bm.trace() == 0 and bm.det() == 0


@pytest.mark.parametrize("psi", [[0, 1, 3], [1, 2, 4, 7]])
def test_sl2_suite(psi):
    assert all(sl2_suite(psi).values())


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
        rep = linear_rime_suite(n)
        assert all(rep.values()), (n, rep)
    # jsla characterization: a violation shows up in both residual families
    bad = [[0, 1, 1], [1, 0, 1], [1, 5, 0]]
    assert jsla_residuals(bad) and linear_jacobi_residual(bad)
    good = [[0, 2, 3], [1, 0, 3], [1, 2, 0]]   # a_ij = c_j
    assert not jsla_residuals(good) and not linear_jacobi_residual(good)
