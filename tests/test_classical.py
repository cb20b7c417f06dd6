import tracemalloc
from fractions import Fraction as F

import pytest

from yibre import bezout, cg, classical
from yibre.classical import (B_CG, B_SKEW, R_CG, R_CG_PRIME, bd_fork_R,
                             bd_symmetry_check, b_cg_r, b_skew_r,
                             build_classical, carrier_algebra_check, carrier_Z,
                             classical_limit_residual, conjugation_residual_of,
                             invariance_eta0_b, invariance_eta_cg,
                             invariance_shift_residual, lambda_bcg_gram,
                             rcg_prime_r, rcg_r, representation_change_residual,
                             rime_nonskew_r, rime_skew_r, rime_skew_sl_r,
                             tilde_difference_residual)
from yibre.cg import CGParams, cg_matrix, x_change_of_basis
from yibre.kernel import Deferred, InvalidInputError, RationalDraw
from yibre.suites import _is_zero
from yibre.tensor import (Operator1, Operator2, commutator_with_sum,
                          cybe_residual, hecke_residual, permutation_P, wedge, yb_residual)

from reference import (bumped, carrier_algebra_per_pair, conjugated_difference,
                       conjugation_residual, formed, lambda_bcg_gram_brackets, summed_b_cg_r,
                       summed_b_skew_r, summed_closed_form_operator, summed_gl2_homomorphism,
                       summed_invariance_eta0_b, summed_rcg_prime_r, summed_rcg_r,
                       summed_representation_change_residual, summed_rime_nonskew_r,
                       summed_rime_skew_r, summed_tilde_difference_residual)


def test_rime_nonskew_frozen_block():
    r = rime_nonskew_r([1, 2])
    rows = [[r._get(a, b) for b in range(4)] for a in range(4)]
    assert rows == [[0, 0, 0, 0], [-1, 1, 2, -2], [1, -1, -2, 2], [0, 0, 0, 0]]


def test_bskew_n2_is_wedge_of_units():
    u = Operator1.unit
    assert b_skew_r(2) == wedge(u(2, 2, 1), u(2, 2, 2))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cybe_all_kinds(n):
    rd = RationalDraw(n * 13)
    mu = rd.vector(n, distinct=True)
    phi = rd.vector(n, distinct=True)
    assert cybe_residual(rime_nonskew_r(phi)).is_zero()
    assert cybe_residual(rime_skew_r(mu)).is_zero()
    assert cybe_residual(rime_skew_sl_r(mu)).is_zero()
    for kind in (R_CG, R_CG_PRIME, B_SKEW, B_CG):
        assert cybe_residual(build_classical(kind, n)).is_zero()


def test_classical_limit_exact():
    assert classical_limit_residual([1, 2], 1).is_zero()
    assert classical_limit_residual([1, 2], 0).is_zero()
    rd = RationalDraw(11)
    for n in (3, 4):
        assert classical_limit_residual(rd.vector(n, distinct=True), rd.rational()).is_zero()


def test_rcg_is_classical_limit_of_cg():
    for n in (2, 3):
        rq = cg_matrix(CGParams(n, F(1, 3), 1))
        assert (permutation_P(n) @ rq) == Operator2.identity(n) + rcg_r(n).scale(F(2, 3))


@pytest.mark.parametrize("pair,params", [
    ("nonskew-to-rcg", [1, 2]),
    ("skew-to-b", [0, 1, 3]),
    ("skew-sl-to-bcg", [0, 1, 3]),
])
def test_stated_conjugations(pair, params):
    got = conjugation_residual(pair, params)
    assert got.zero and got.form().is_zero()


def test_conjugations_seeded():
    rd = RationalDraw(29)
    for n in (2, 3, 4):
        for pair in ("nonskew-to-rcg", "skew-to-b", "skew-sl-to-bcg"):
            got = conjugation_residual(pair, rd.vector(n, distinct=True))
            assert got.zero and got.form().is_zero()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_conjugation_faults_give_the_whole_difference(n, monkeypatch):
    # the defect decides; a nonzero one is multiplied out to lhs - (X x X) rhs (X x X)^-1
    mu = RationalDraw(40 + n).vector(n, distinct=True)
    x, _ = x_change_of_basis(mu)
    for pair, name, lhs in (("nonskew-to-rcg", "rcg_r", rime_nonskew_r(mu)),
                            ("skew-to-b", "b_skew_r", rime_skew_r(mu)),
                            ("skew-sl-to-bcg", "b_cg_r", rime_skew_sl_r(mu))):
        rhs = bumped(getattr(classical, name)(n), 1, 2, 2, 1, 1)
        monkeypatch.setattr(classical, name, lambda n, rhs=rhs: rhs)
        got, want = conjugation_residual(pair, mu), conjugated_difference(lhs, rhs, x)
        assert not got.zero
        got = got.form()
        assert not got.is_zero()
        assert got == want and _is_zero(got) == _is_zero(want)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_conjugations_from_built_objects(n):
    # the classical suite hands its block's r-matrices, shift generators and X to
    # conjugation_residual_of; a bumped lhs gives the same nonzero residual both ways
    rd = RationalDraw(50 + n)
    phi, mu = rd.vector(n), rd.vector(n)
    built = {"rime-nonskew": rime_nonskew_r(phi), "rime-skew": rime_skew_r(mu),
             "rime-skew-sl": rime_skew_sl_r(mu), "r-cg": rcg_r(n), "b-skew": b_skew_r(n),
             "b-cg": b_cg_r(n), "rime-skew-sl:xi": classical.rime_skew_sl_xi(mu),
             "b-cg:xi": -classical.b_cg_eta(n)}
    bump = Operator2._entries(n, {n: {1: F(1)}})  # one entry off every diagonal
    for pair, (lhs, _) in classical.CONJUGATION_PAIRS.items():
        params = phi if lhs == "rime-nonskew" else mu
        x = x_change_of_basis(params)
        got, want = conjugation_residual_of(pair, built.__getitem__, x), conjugation_residual(
            pair, params)
        assert got.zero and want.zero
        assert got.form().is_zero() and got.form() == want.form()
        faulty = {**built, lhs: built[lhs] + bump}
        got = conjugation_residual_of(pair, faulty.__getitem__, x)
        rhs = built[classical.CONJUGATION_PAIRS[pair][1]]
        assert not got.zero
        got = got.form()
        assert not got.is_zero() and got == conjugated_difference(faulty[lhs], rhs, x[0])
    with pytest.raises(InvalidInputError):
        conjugation_residual("skew-to-rcg", mu)


def test_p_symmetries():
    rd = RationalDraw(31)
    r = rime_nonskew_r(rd.vector(3, distinct=True))
    assert (permutation_P(3) @ r + r).is_zero()
    s = rime_skew_r([0, 1, 3])
    assert (s.reversed_legs() + s).is_zero()


def test_carrier_algebra():
    rd = RationalDraw(37)
    for n in (2, 3, 4):
        assert _is_zero(carrier_algebra_check(rd.vector(n, distinct=True))) == (True, None)
    # frozen bracket value: [Z^1_2, Z^2_1] = Z^2_1 - Z^1_2 as 2x2 matrices
    z12, z21 = carrier_Z(2, 1, 2), carrier_Z(2, 2, 1)
    assert (z12 @ z21 - z21 @ z12) == (z21 - z12)


def test_carrier_algebra_faults_name_their_identity(monkeypatch):
    # lambda_n off by one: only the coboundary identity breaks, at its first pair of pairs.
    # lambda is read off the whole bracket table, so the fault adds 1 to its value on
    # every block (p, t), at row (p_1, t_1) and column (p_2, t_2) of legs 2 and 3
    lam = classical._lambda_on_carrier
    third = (1, 2, 3)
    off_by_one = Operator2._entries(3, {
        (i - 1) * 3 + k - 1: {(j - 1) * 3 + l - 1: 1 for j in third if j != i
                              for l in third if l != k}
        for i in third for k in third})
    monkeypatch.setattr(classical, "_lambda_on_carrier",
                        lambda table, mu: lam(table, mu) + off_by_one)
    assert _is_zero(carrier_algebra_check([0, 1, 3])) == (
        False, {"index": "omega-is-coboundary:0:-", "value": "1"})
    monkeypatch.undo()
    # Z^i_j = e^i_j + e^j_j breaks the bracket families, the product rule and Ztilde
    monkeypatch.setattr(classical, "carrier_Z", lambda n, i, j: Operator1.zero(n) if i == j
                        else Operator1.unit(n, i, j) + Operator1.unit(n, j, j))
    rep = carrier_algebra_check([0, 1, 3])
    assert _is_zero(rep) == (False, {"index": "brackets:0:1|1", "value": "-2"})
    assert not _is_zero(rep["product-rule"])[0]
    assert _is_zero(rep["omega-is-inverse"]) == (True, None)
    # every residual keeps its position
    pairs = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j]
    z = lambda i, j: classical.carrier_Z(3, i, j)
    assert not rep["product-rule"].zero and rep["product-rule"].form() == [
        z(j, i) @ z(k, l) - (z(k, i) - z(l, i)).scale((j == l) - (i == l))
        for (j, i) in pairs for (k, l) in pairs]


@pytest.mark.parametrize("n", range(2, 7))
def test_carrier_coboundary_forms_each_bracket_once(n, monkeypatch):
    mu = RationalDraw(90 + n).vector(n, distinct=True)
    keys = ("omega-is-coboundary", "other-brackets")
    want = {k: v for k, v in carrier_algebra_per_pair(mu).items() if k in keys}
    rep = carrier_algebra_check(mu)
    assert all(rep[k].zero for k in keys)
    assert {k: formed(rep[k]) for k in keys} == want
    # with e^1_2 added to every Z^i_j the disjoint brackets and the coboundary entries are
    # nonzero, and the antisymmetric reading still matches every ordered pair
    monkeypatch.setattr(classical, "carrier_Z", lambda n, i, j: Operator1.zero(n) if i == j
                        else Operator1.unit(n, i, j) - Operator1.unit(n, j, j)
                        + Operator1.unit(n, 1, 2))
    want = {k: v for k, v in carrier_algebra_per_pair(mu).items() if k in keys}
    rep = carrier_algebra_check(mu)
    assert {k: formed(rep[k]) for k in keys} == want
    assert any(want["omega-is-coboundary"])
    assert any(not b.is_zero() for b in want["other-brackets"]) == (n >= 4)
    assert _is_zero(rep["omega-is-coboundary"]) == _is_zero(want["omega-is-coboundary"])
    assert _is_zero(rep["other-brackets"]) == _is_zero(want["other-brackets"])


CARRIERS = {
    "true": None,
    # Z^i_j = e^i_j + e^j_j breaks the product rule, the brackets and Ztilde
    "plus-diagonal": lambda n, i, j: Operator1.unit(n, i, j) + Operator1.unit(n, j, j),
    # e^1_2 added to every Z^i_j makes the disjoint brackets and lambda's values nonzero
    "plus-e12": lambda n, i, j: (Operator1.unit(n, i, j) - Operator1.unit(n, j, j)
                                 + Operator1.unit(n, 1, 2)),
}


@pytest.mark.parametrize("carrier", sorted(CARRIERS))
@pytest.mark.parametrize("n", range(2, 7))
def test_carrier_tables_match_the_per_pair_form(n, carrier, monkeypatch):
    # every family read off the product and bracket tables equals its pair-by-pair list:
    # same order, same length, the same operators or scalars, and so the same witness
    if CARRIERS[carrier] is not None:
        z = CARRIERS[carrier]
        monkeypatch.setattr(classical, "carrier_Z",
                            lambda n, i, j: Operator1.zero(n) if i == j else z(n, i, j))
    mu = RationalDraw(70 + n).vector(n, distinct=True)
    got, want = carrier_algebra_check(mu), carrier_algebra_per_pair(mu)
    for key, value in got.items():
        if isinstance(value, Deferred) and value.zero:
            assert _is_zero(want[key])[0], key
    assert formed(got) == want
    assert _is_zero(got) == _is_zero(want)
    assert _is_zero(got)[0] == (carrier == "true")


def test_carrier_algebra_keeps_no_zero_residuals():
    # a passing run's n^4 residuals are all zero; at n = 12 they took 5.8 MB when each
    # was its own operator or Fraction, and take about 0.55 MB as shared zeros
    mu = RationalDraw(0).vector(12)
    tracemalloc.start()
    try:
        rep = carrier_algebra_check(mu)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert _is_zero(rep) == (True, None)
    assert kept < 1e6, f"carrier_algebra_check kept {kept / 1e6:.2f} MB"


def test_bd_symmetry_fault_names_its_identity(monkeypatch):
    monkeypatch.setattr(classical, "rcg_r", lambda n: bumped(rcg_r(n), 1, 2, 1, 2, 1))
    ok, witness = _is_zero(bd_symmetry_check(R_CG, 3))
    assert not ok and witness == {"index": "cartan:1|2", "value": "1"}


def test_bd_symmetries():
    for n in (2, 3, 4):
        assert _is_zero(bd_symmetry_check(R_CG, n)) == (True, None)
        assert _is_zero(bd_symmetry_check(R_CG_PRIME, n)) == (True, None)
    # sum rule spelled out for n = 2
    r = rcg_r(2)
    assert (r + r.reversed_legs()) == (permutation_P(2) - Operator2.identity(2))
    rp = rcg_prime_r(3)
    assert (rp @ permutation_P(3) + rp).is_zero()


def test_invariance_shifts():
    for n in (2, 3):
        eta = invariance_eta_cg(n)
        assert eta.trace() == 0
        assert commutator_with_sum(rcg_r(n), eta).is_zero()
        assert invariance_shift_residual(rcg_r(n), eta, F(1, 2)).is_zero()
        assert invariance_shift_residual(rcg_r(n), eta, 0).is_zero()
        eta0 = invariance_eta0_b(n)
        assert commutator_with_sum(b_skew_r(n), eta0).is_zero()
        assert invariance_shift_residual(b_skew_r(n), eta0, 2).is_zero()
    with pytest.raises(InvalidInputError):
        invariance_shift_residual(rcg_r(2), Operator1([[0, 1], [0, 0]]), 1)


def test_representation_changes():
    for n in (2, 3):
        assert representation_change_residual(n, 0).is_zero()
        assert representation_change_residual(n, 1).is_zero()
        assert representation_change_residual(n, F(-1, 3), B_SKEW).is_zero()


def test_bcg_is_shift_of_b():
    for n in (2, 3, 4):
        shifted = b_skew_r(n) + wedge(invariance_eta0_b(n),
                                      Operator1.identity(n)).scale(F(-1, n))
        assert shifted == b_cg_r(n)


def test_bd_fork():
    m = bd_fork_R(2, 1, 1, 1)
    assert m.get(1, 1, 1, 1) == 1
    assert m.get(4, 1, 2, 3) == F(1, 2)   # the 1/q cross term
    assert yb_residual(m).is_zero()
    assert hecke_residual(m, F(3, 4)).is_zero()
    rd = RationalDraw(43)
    for _ in range(5):
        q = rd.rational()
        while q in (0, 1, -1):
            q = rd.rational()
        p, r, s = rd.rational(), rd.rational(), rd.rational()
        mm = bd_fork_R(q, p, r, s)
        assert yb_residual(mm).is_zero()
        assert hecke_residual(mm, 1 - 1 / (q * q)).is_zero()
    with pytest.raises(InvalidInputError):
        bd_fork_R(1, 1, 1, 1)


def test_lambda_bcg_gram():
    for n in (2, 3, 4):
        assert lambda_bcg_gram(n).det() != 0


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_lambda_bcg_gram_matches_the_bracket_form(n):
    """Entry by entry: the suite's check reads only det != 0, which cannot see a changed G."""
    got, want = lambda_bcg_gram(n), lambda_bcg_gram_brackets(n)
    m = n * (n - 1)
    assert got.dim == want.dim == m
    for a in range(1, m + 1):
        for b in range(1, m + 1):
            assert got.get(a, b) == want.get(a, b), (a, b)
    assert not got.is_zero()


def _tilde_difference(mu):
    """``tilde_difference_residual`` on the objects the classical suite's block holds."""
    return tilde_difference_residual(cg.x_change_of_basis(mu)[0],
                                     classical.rime_skew_sl_xi(mu),
                                     -classical.b_cg_eta(len(mu)))


def test_tilde_difference_identity():
    rd = RationalDraw(47)
    for n in (2, 3, 4):
        assert _tilde_difference(rd.vector(n, distinct=True)).is_zero()


# --- the one-pass constructors against their repeated-+ sums ----------------

def _skewed_x(mu):
    """x_change_of_basis with X bumped at one entry, so the tilde residual is nonzero."""
    x, xinv = x_change_of_basis(mu)
    return x + Operator1.unit(len(mu), 1, 2), xinv


_ONE_PASS_CASES = {
    "rime-nonskew": (lambda n, v, c: rime_nonskew_r(v), lambda n, v, c: summed_rime_nonskew_r(v)),
    "r-cg": (lambda n, v, c: rcg_r(n), lambda n, v, c: summed_rcg_r(n)),
    "r-cg-prime": (lambda n, v, c: rcg_prime_r(n), lambda n, v, c: summed_rcg_prime_r(n)),
    "b-skew": (lambda n, v, c: b_skew_r(n), lambda n, v, c: summed_b_skew_r(n)),
    "b-cg": (lambda n, v, c: b_cg_r(n), lambda n, v, c: summed_b_cg_r(n)),
    "rime-skew": (lambda n, v, c: rime_skew_r(v), lambda n, v, c: summed_rime_skew_r(v)),
    "rime-skew-sl": (lambda n, v, c: rime_skew_sl_r(v), lambda n, v, c: summed_rime_skew_r(
        v, Operator1.identity(n).scale(F(1, n)))),
    "eta0": (lambda n, v, c: invariance_eta0_b(n), lambda n, v, c: summed_invariance_eta0_b(n)),
    "rep-change-r-cg": (lambda n, v, c: representation_change_residual(n, c, R_CG),
                        lambda n, v, c: summed_representation_change_residual(n, c, R_CG)),
    "rep-change-b-skew": (lambda n, v, c: representation_change_residual(n, c, B_SKEW),
                          lambda n, v, c: summed_representation_change_residual(n, c, B_SKEW)),
    "tilde-difference": (lambda n, v, c: _tilde_difference(v),
                         lambda n, v, c: summed_tilde_difference_residual(v)),
    **{f"closed-form-{kind}": (lambda n, v, c, kind=kind: bezout.closed_form_operator(kind, n),
                               lambda n, v, c, kind=kind: summed_closed_form_operator(kind, n))
       for kind in bezout.BEZOUT_KINDS},
}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("name", list(_ONE_PASS_CASES))
def test_one_pass_constructors_equal_their_old_sums(name, n, monkeypatch):
    rd = RationalDraw(100 + n)
    v, c = rd.vector(n), rd.rational()
    new, old = _ONE_PASS_CASES[name]
    assert new(n, v, c) == old(n, v, c)
    if name.startswith(("rep-change", "tilde")):
        # the residuals vanish on the true data; a shift that hits every unit and a
        # bumped X make them nonzero, so the comparison covers nonzero entries too
        monkeypatch.setattr(classical, "_shifted",
                            lambda u, c: u + Operator1.identity(u.dim).scale(c))
        monkeypatch.setattr(cg, "x_change_of_basis", _skewed_x)
        got = new(n, v, c)
        assert not got.is_zero() and got == old(n, v, c)


def test_gl2_isomorphism_check_equals_its_old_sums():
    for kind in (bezout.B0, bezout.B):
        rb = bezout.rota_baxter(bezout.bezout_operator(kind, 2))
        assert (bezout.gl2_isomorphism_check(kind, rb)["homomorphism"]
                == summed_gl2_homomorphism(kind))


def test_build_classical_refuses_an_unknown_kind():
    for n in (3, None):
        with pytest.raises(InvalidInputError, match="bogus"):
            build_classical("bogus", n=n)
    with pytest.raises(InvalidInputError, match="bogus"):
        build_classical("bogus", params=(1, 2))


def test_bd_fork_R_matches_its_per_entry_form():
    from reference import bd_fork_R_per_entry
    rd = RationalDraw(17)
    for q, p, r, s in ((2, 1, 1, 1), (F(-3, 2), F(5, 7), -4, F(1, 9)),
                       *((rd.rational() + 29, rd.rational(), rd.rational(), rd.rational())
                         for _ in range(6))):
        got, want = bd_fork_R(q, p, r, s), bd_fork_R_per_entry(q, p, r, s)
        assert got == want and got._ints() == want._ints()
        assert bd_fork_R(q, p, r, s + 29) != want
