import random
from fractions import Fraction as F
from itertools import permutations
from types import SimpleNamespace

import pytest

from yibre import rime, suites
from yibre.kernel import (ONE, DegenerateParametersError, NotSkewInvertibleError, QuadExt,
                          RationalDraw, ratvec)
from yibre.rational import Q
from yibre.rime import (RimeClass, RimeData, appendix_A_residuals, assemble_rime, classify,
                        eigen_multiplicities, extract_rime_data,
                        invariance_generator, invariance_Y, invariance_Y0,
                        jordan_action_coefficients,
                        quantum_trace_closed_forms, quantum_trace_residuals, quantum_traces,
                        strict_rime_R, strict_rime_data,
                        unitary_rime_R, unitary_rime_data)
from yibre.suites import run_suite
from yibre.tensor import (Operator1, Operator2, commutator_with_sum, first_nonzero_witness,
                          hecke_residual, kron11, yb_residual)

from reference import (PAIR_EQUATIONS_BY_ACCESSOR, TRIPLE_EQUATIONS_BY_ACCESSOR,
                       appendix_A_per_accessor, bumped, classical_commutator_relations,
                       eigenvector_residuals_per_call, eigenvector_w, invariance_Y0_loops,
                       invariance_Y_loops, jordan_action_residuals_per_call,
                       left_odd_rime_relations, odd_classical_relations,
                       quantum_space_relations, quantum_trace_closed_forms_per_entry,
                       quantum_trace_differences, rime_plane_relations)


def rows_of(r, i, j):
    n = r.dim
    return [r.get(i, j, k, l) for k in range(1, n + 1) for l in range(1, n + 1)]


def test_strict_rime_frozen_matrix():
    r = strict_rime_R([1, 2], 1)
    assert rows_of(r, 1, 1) == [1, 0, 0, 0]
    assert rows_of(r, 1, 2) == [1, -1, -1, 2]
    assert rows_of(r, 2, 1) == [-1, 2, 2, -2]
    assert rows_of(r, 2, 2) == [0, 0, 0, 1]


def test_unitary_rime_frozen_matrix():
    u = unitary_rime_R([0, 1])
    assert rows_of(u, 1, 2) == [1, -1, 0, 1]
    assert rows_of(u, 2, 1) == [-1, 2, 1, -1]
    sq = u @ u
    assert rows_of(sq, 1, 2) == [0, 1, 0, 0]
    assert rows_of(sq, 2, 1) == [0, 0, 1, 0]
    assert sq == Operator2.identity(2)


def test_assemble_identity():
    data = strict_rime_data([1, 2], 0)   # beta = 0 with beta_ij = 0 everywhere
    n = 2
    from yibre.rime import RimeData
    from yibre.kernel import ZERO, ONE
    zero = ((ZERO, ZERO), (ZERO, ZERO))
    ident_data = RimeData(2, (ONE, ONE), zero, zero, zero, zero)
    r = assemble_rime(ident_data)
    # alpha_ij = 0 kills the permutation part, only the diagonal remains
    assert r.get(1, 1, 1, 1) == 1 and r.get(2, 2, 2, 2) == 1
    assert r.get(1, 2, 2, 1) == 0


@pytest.mark.parametrize("n,beta", [(2, F(1)), (3, F(5, 7)), (4, F(-2, 3)), (5, F(1, 2))])
def test_yb_and_hecke(n, beta):
    rd = RationalDraw(n * 37)
    phi = rd.vector(n, distinct=True)
    r = strict_rime_R(phi, beta)
    assert yb_residual(r).is_zero()
    assert hecke_residual(r, beta).is_zero()
    mu = rd.vector(n, distinct=True)
    u = unitary_rime_R(mu)
    assert yb_residual(u).is_zero()
    assert (u @ u) == Operator2.identity(n)


def test_zero_phi_allowed_but_not_strict():
    r = strict_rime_R([0, 1, 3], F(2, 5))
    assert yb_residual(r).is_zero()
    assert classify(r) == RimeClass.RIME_NON_STRICT


def test_degenerate_phi_rejected():
    with pytest.raises(DegenerateParametersError):
        strict_rime_R([1, 1, 2], 1)
    with pytest.raises(DegenerateParametersError):
        unitary_rime_R([0, 0])


def test_classify():
    assert classify(strict_rime_R([1, 2], 1)) == RimeClass.RIME_STRICT
    from yibre.cg import standard_rc_matrix
    assert classify(standard_rc_matrix(3, F(1, 4))) == RimeClass.ICE
    from yibre.blocks import block_matrix, JORDANIAN
    assert classify(block_matrix(JORDANIAN, 1, 0)) == RimeClass.NOT_RIME
    assert classify(block_matrix(JORDANIAN, 0, 2)) == RimeClass.RIME_NON_STRICT


def test_beta_zero_gives_involution():
    r = strict_rime_R([1, 2, 4], 0)
    assert (r @ r) == Operator2.identity(3)


def test_eigen_multiplicities():
    assert eigen_multiplicities(strict_rime_R([1, 2], 1), 1).multiplicity_one == 3
    rep = eigen_multiplicities(strict_rime_R([1, 2, 4], F(5, 7)), F(5, 7))
    assert (rep.multiplicity_one, rep.multiplicity_beta_minus_one) == (6, 3)
    rep2 = eigen_multiplicities(strict_rime_R([1, 2], 2), 2)
    assert rep2.jordan
    with pytest.raises(Exception):
        eigen_multiplicities(strict_rime_R([1, 2], 1), F(1, 2))


def test_quantum_traces_unitary_frozen():
    q, qt = quantum_traces(unitary_rime_R([0, 1]))
    assert q == Operator1([[2, -1], [1, 0]])
    assert qt == Operator1([[0, 1], [-1, 2]])
    assert (q @ qt) == Operator1.identity(2)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_quantum_traces_closed_forms(n):
    rd = RationalDraw(n + 100)
    phi = rd.vector(n, distinct=True)
    beta = F(1, 3)
    data = strict_rime_data(phi, beta)
    qc, qtc = quantum_trace_closed_forms(data)
    qs, qts = quantum_traces(assemble_rime(data))
    assert qc == qs and qtc == qts
    assert (qc @ qtc) == Operator1.identity(n).scale((1 - beta) ** (n - 1))
    mu = rd.vector(n, distinct=True)
    udata = unitary_rime_data(mu)
    qu, qut = quantum_trace_closed_forms(udata)
    qs2, qts2 = quantum_traces(assemble_rime(udata))
    assert qu == qs2 and qut == qts2


def test_quantum_trace_eigenvectors():
    phi = ratvec([1, 3, 4])
    beta = F(1, 2)
    q, qt = quantum_trace_closed_forms(strict_rime_data(phi, beta))
    for a in range(3):
        w = eigenvector_w(phi, a)
        assert q.apply(w) == tuple((1 - beta) ** (2 - a) * x for x in w)
        assert qt.apply(w) == tuple((1 - beta) ** a * x for x in w)


def test_unitary_jordan_action_and_block():
    mu = ratvec([0, 1, 3])
    q, _ = quantum_trace_closed_forms(unitary_rime_data(mu))
    n = 3
    for i in range(n):
        w = eigenvector_w(mu, i)
        coeffs = jordan_action_coefficients(n, i)
        rhs = tuple(sum(coeffs[s] * eigenvector_w(mu, s)[j] for s in range(n))
                    for j in range(n))
        assert q.apply(w) == rhs
    # single Jordan block: (Q - I)^(n-1) != 0, (Q - I)^n = 0
    nilp = q - Operator1.identity(n)
    assert not (nilp @ nilp).is_zero()
    assert (nilp @ nilp @ nilp).is_zero()


def test_nonunitary_spectrum():
    phi = ratvec([1, 2, 4])
    beta = F(1, 3)
    q, qt = quantum_trace_closed_forms(strict_rime_data(phi, beta))
    n = 3
    prodq = Operator1.identity(n)
    prodqt = Operator1.identity(n)
    for a in range(n):
        lam = (1 - beta) ** a
        prodq = prodq @ (q - Operator1.identity(n).scale(lam))
        prodqt = prodqt @ (qt - Operator1.identity(n).scale(lam))
    assert prodq.is_zero() and prodqt.is_zero()


def test_invariance_group_nonunitary():
    phi = ratvec([1, 3, 4])
    beta = F(1, 2)
    r = strict_rime_R(phi, beta)
    y1 = invariance_Y(phi, F(1, 3), F(2, 5))
    y2 = invariance_Y(phi, F(7, 2), F(1, 4))
    assert (y1 @ y2) == invariance_Y(phi, F(7, 6), F(1, 10))
    assert invariance_Y(phi, 1, 1) == Operator1.identity(3)
    yy = kron11(y1, y1)
    assert (r @ yy - yy @ r).is_zero()
    assert y1.det() == (F(1, 3) * F(2, 5)) ** 3
    q, qt = quantum_trace_closed_forms(strict_rime_data(phi, beta))
    assert invariance_Y(phi, 1 - beta, 1) == q
    assert invariance_Y(phi, 1, 1 - beta) == qt
    with pytest.raises(Exception):
        invariance_Y(phi, 0, 1)


def test_invariance_group_unitary():
    mu = ratvec([0, 1, 3])
    u = unitary_rime_R(mu)
    assert (invariance_Y0(mu, F(1, 2)) @ invariance_Y0(mu, F(1, 3))) \
        == invariance_Y0(mu, F(5, 6))
    assert invariance_Y0(mu, 0) == Operator1.identity(3)
    y = invariance_Y0(mu, F(1, 2))
    yy = kron11(y, y)
    assert (u @ yy - yy @ u).is_zero()
    q, qt = quantum_trace_closed_forms(unitary_rime_data(mu))
    assert invariance_Y0(mu, -1) == q
    assert invariance_Y0(mu, 1) == qt


def test_invariance_generators():
    phi = ratvec([1, 2, 4])
    eta = invariance_generator("nonunitary", phi)
    assert eta.trace() == 0
    assert commutator_with_sum(strict_rime_R(phi, F(2, 3)), eta).is_zero()
    mu = ratvec([0, 1, 3])
    eta0 = invariance_generator("unitary", mu)
    assert eta0.trace() == 0
    assert commutator_with_sum(unitary_rime_R(mu), eta0).is_zero()
    # frozen n=2 value of the unitary generator
    e0 = invariance_generator("unitary", [0, 1])
    assert e0 == Operator1([[-1, 1], [-1, 1]])


def test_reversed_leg_conjugations():
    phi = ratvec([1, 2, 5])
    beta = F(2, 3)
    r21 = strict_rime_R(phi, beta).reversed_legs()
    fdg = Operator1.diag(phi)
    rhs = kron11(fdg.inverse(), fdg.inverse()) \
        @ strict_rime_R([1 / p for p in phi], beta) @ kron11(fdg, fdg)
    assert r21 == rhs
    mu = ratvec([0, 1, 3])
    assert unitary_rime_R(mu).reversed_legs() == unitary_rime_R([-m for m in mu])


def test_unitary_limit_exactly_linear():
    mu = ratvec([0, 1, 3])
    u = unitary_rime_R(mu)
    d10 = (strict_rime_R([1 + F(1, 10) * m for m in mu], F(1, 10)) - u).scale(10)
    d100 = (strict_rime_R([1 + F(1, 100) * m for m in mu], F(1, 100)) - u).scale(100)
    assert d10 == d100


def test_appendix_system():
    data = strict_rime_data([1, 2, 3], 1)
    res = appendix_A_residuals(data)
    assert len(res) == 46
    assert all(v == 0 for v in res.values())
    # ice data passes too
    from yibre.cg import standard_rc_matrix
    ice = extract_rime_data(standard_rc_matrix(3, F(1, 4)))
    assert all(v == 0 for v in appendix_A_residuals(ice).values())


@pytest.mark.parametrize("grid,i,j", [("beta_ij", 1, 2), ("gamma_ij", 2, 3),
                                      ("alpha_ij", 1, 3), ("gamma_prime_ij", 3, 1)])
def test_appendix_mutations_detected(grid, i, j):
    data = strict_rime_data([1, 2, 3], 1)
    field = {"beta_ij": data.b, "gamma_ij": data.g, "alpha_ij": data.a,
             "gamma_prime_ij": data.gp}[grid]
    bad = data.replace_entry(grid, i, j, field(i, j) + 7)
    res = appendix_A_residuals(bad)
    assert any(v != 0 for v in res.values())
    bad_r = assemble_rime(bad)
    assert not yb_residual(bad_r).is_zero()


def _random_rime_data(n: int, rng: random.Random) -> RimeData:
    """Seeded coefficients with no relation between them, zero where RimeData requires."""
    q = lambda: F(rng.randint(-9, 9), rng.randint(1, 12))
    grid = lambda: tuple(tuple(q() if i != j else F(0) for j in range(n)) for i in range(n))
    return RimeData(n, tuple(q() for _ in range(n)), grid(), grid(), grid(), grid())


def _scaled(d: RimeData, t) -> RimeData:
    grid = lambda g: tuple(tuple(t * v for v in row) for row in g)
    return RimeData(d.dim, tuple(t * v for v in d.alpha), grid(d.alpha_ij), grid(d.beta_ij),
                    grid(d.gamma_ij), grid(d.gamma_prime_ij))


def _index_tuples(n: int, arity: int):
    return list(permutations(range(1, n + 1), arity))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", [3, 4])
def test_appendix_equations_are_cubic(n, seed):
    # appendix_A_residuals evaluates on data scaled to ints and divides by L^3,
    # which is exact only while every equation is homogeneous of degree 3
    rng = random.Random(seed)
    d = _random_rime_data(n, rng)
    t = F(rng.randint(2, 9), rng.randint(2, 9)) * rng.choice((1, -1))
    grids, tgrids = rime._grids(d), rime._grids(_scaled(d, t))
    for arity, eqs in ((2, rime._PAIR_EQUATIONS), (3, rime._TRIPLE_EQUATIONS)):
        for name, eq in eqs.items():
            values = [eq(*grids, *idx) for idx in _index_tuples(n, arity)]
            assert any(values), name
            scaled = [eq(*tgrids, *idx) for idx in _index_tuples(n, arity)]
            assert scaled == [t ** 3 * v for v in values], name


@pytest.mark.parametrize("grid,i,j", [("beta_ij", 1, 2), ("gamma_ij", 2, 3),
                                      ("alpha_ij", 1, 3), ("gamma_prime_ij", 3, 1)])
@pytest.mark.parametrize("phi", [[1, 2, F(5, 3)], [F(1, 2), 3, F(-2, 7), 5]])
def test_appendix_residuals_match_fraction_evaluation(phi, grid, i, j):
    data = strict_rime_data(phi, F(3, 4))
    field = {"beta_ij": data.b, "gamma_ij": data.g, "alpha_ij": data.a,
             "gamma_prime_ij": data.gp}[grid]
    bad = data.replace_entry(grid, i, j, field(i, j) + F(7, 11))
    res = appendix_A_residuals(bad)
    assert any(res.values())
    assert res == appendix_A_per_accessor(bad)
    assert all(type(v) is Q for v in res.values())


def test_beta_consistency_violation_hits_ee_family():
    data = strict_rime_data([1, 2, 3], 1)
    bad = data.replace_entry("beta_ij", 1, 2, data.b(1, 2) + 1)
    res = appendix_A_residuals(bad)
    assert any(v != 0 for name, v in res.items() if name.startswith("ee"))


def test_gamma_pairing():
    data = strict_rime_data([1, 2, 5], F(2, 3))
    for i in range(1, 4):
        for j in range(1, 4):
            if i != j:
                assert data.gp(i, j) == -data.g(j, i)


@pytest.mark.parametrize("phi,beta", [([1, 2], F(1)), ([1, 2, 4], F(1, 3)),
                                      ([2, 3, -1, 5], F(3, 4))])
def test_quantum_spaces(phi, beta):
    data = strict_rime_data(phi, beta)
    r = assemble_rime(data)
    n = len(phi)
    assert quantum_space_relations(r, 1, "right") == rime_plane_relations(data)
    assert quantum_space_relations(r, 1, "left") == classical_commutator_relations(n)
    assert quantum_space_relations(r, beta - 1, "right") == odd_classical_relations(n)
    assert quantum_space_relations(r, beta - 1, "left") == left_odd_rime_relations(data, beta)


def test_right_even_dimension():
    r = strict_rime_R([1, 2, 4], F(1, 3))
    space = quantum_space_relations(r, 1, "right")
    assert len(space.data) == space.rank() == 3   # n(n-1)/2 relations


def test_quantum_spaces_fault_names_its_entry(monkeypatch):
    # the check returns differences of row spaces, so a bumped R^{12}_{12} fails at
    # the left even relation led by x^1 x^2, in its coefficient of x^2 x^1
    assemble = rime.assemble_rime
    monkeypatch.setattr(rime, "assemble_rime", lambda data: bumped(assemble(data), 1, 2, 1, 2, 1))
    [got] = [c for c in run_suite("rime", 2, 0, 1).checks if c.name == "quantum-spaces[0]"]
    assert got.status == "fail"
    assert got.residual_witness == {"index": "left-even-classical:1,2|2,1", "value": "1"}


def test_generic_data_assembles_to_block_layout():
    """A generic 2-dim coefficient family lands in the displayed 4x4 pattern."""
    from yibre.rime import RimeData
    vals = [F(n, d) for n, d in ((3, 1), (5, 2), (-7, 3), (2, 5), (11, 4),
                                 (-1, 6), (9, 7), (4, 3), (-5, 8), (6, 1))]
    a1, a2, a12, a21, b12, b21, g12, g21, gp12, gp21 = vals
    z = F(0)
    data = RimeData(2, (a1, a2),
                    ((z, a12), (a21, z)), ((z, b12), (b21, z)),
                    ((z, g12), (g21, z)), ((z, gp12), (gp21, z)))
    r = assemble_rime(data)
    grid = [[r._get(row, col) for col in range(4)] for row in range(4)]
    assert grid == [
        [a1, z, z, z],
        [g12, b12, a12, gp12],
        [gp21, a21, b21, g21],
        [z, z, z, a2],
    ]
    assert extract_rime_data(r) == data


def test_quantum_trace_closed_form_at_phi_12():
    """Traces at phi=(1,2) from the linear system; beta=1 is the degenerate point."""
    from yibre.kernel import NotSkewInvertibleError
    from reference import partial_trace, skew_inverse
    data = strict_rime_data([1, 2], F(1, 2))
    psi = skew_inverse(assemble_rime(data))
    qc, qtc = quantum_trace_closed_forms(data)
    assert partial_trace(psi, 2) == qc
    assert partial_trace(psi, 1) == qtc
    # at beta = 1 the product Q Qtilde = (1-beta)^(n-1) vanishes and the
    # defining system is singular: the solution is not skew invertible there
    with pytest.raises(NotSkewInvertibleError):
        skew_inverse(strict_rime_R([1, 2], 1))
    qd, qtd = quantum_trace_closed_forms(strict_rime_data([1, 2], 1))
    assert (qd @ qtd).is_zero()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_quantum_traces_match_the_partial_traces_of_the_skew_inverse(n):
    """The two solves give exactly Tr_2 and Tr_1 of the whole skew inverse."""
    from yibre.tensor import conjugate2

    from reference import partial_trace, skew_inverse
    rd = RationalDraw(600 + n)
    strict = strict_rime_R(rd.vector(n), F(2, 7))
    gauss = Operator1([[QuadExt(i + 1, 1 if i == j else 0, -1) if i <= j else ONE
                        for j in range(n)] for i in range(n)])
    # a non-rime R makes the index order of both traces visible (no symmetry hides it)
    for r in (strict, unitary_rime_R(rd.vector(n)), conjugate2(strict, gauss),
              strict + kron11(Operator1.unit(n, 1, n), Operator1.unit(n, n, 1))):
        psi = skew_inverse(r)
        q, qt = quantum_traces(r)
        assert q == partial_trace(psi, 2)
        assert qt == partial_trace(psi, 1)


def _snapshot(op):
    den, rows = op._ints()
    return den, {r: dict(row) for r, row in rows.items()}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_quantum_trace_residuals_solve_only_for_a_nonzero_defect(n):
    rd = RationalDraw(620 + n)
    strict = strict_rime_R(rd.vector(n), F(2, 7))
    non_rime = strict + kron11(Operator1.unit(n, 1, n), Operator1.unit(n, n, 1))
    for r in (strict, unitary_rime_R(rd.vector(n)), non_rime):
        q, qt = quantum_traces(r)
        bump = Operator1.unit(n, n, 1)
        for pair in ((q, qt), (q + bump, qt), (q, qt + bump.scale(F(1, 3))), (qt, q)):
            before = [_snapshot(x) for x in (r, *pair)]
            got, want = quantum_trace_residuals(r, *pair), quantum_trace_differences(r, *pair)
            assert [g.zero for g in got] == [w.is_zero() for w in want]
            got = tuple(g.form() for g in got)
            assert got == want
            assert [_snapshot(x) for x in (r, *pair)] == before
            for g, w in zip(got, want):
                assert first_nonzero_witness(g) == first_nonzero_witness(w)
        assert all(x.zero for x in quantum_trace_residuals(r, q, qt))
        assert not quantum_trace_residuals(r, q + bump, qt)[0].zero
        assert not quantum_trace_residuals(r, q, qt + bump)[1].zero
    with pytest.raises(NotSkewInvertibleError):
        quantum_trace_residuals(strict_rime_R([1, 2], 1), Operator1.identity(2),
                                Operator1.identity(2))


def test_reversed_leg_conjugation_fault_names_its_entry(monkeypatch):
    # a bumped R(1/phi, beta)^{21}_{12} is only in the conjugated side, so the
    # nonzero defect is multiplied out to the whole residual's entry there
    strict = rime.strict_rime_R
    monkeypatch.setattr(rime, "strict_rime_R",
                        lambda phi, beta: bumped(strict(phi, beta), 2, 1, 1, 2, 1))
    [got] = [c for c in run_suite("rime", 3, 1, 1).checks
             if c.name == "reversed-leg-conjugation[0]"]
    assert got.status == "fail"
    assert got.residual_witness == {"index": "nonunitary:2,1|1,2", "value": "-1"}


def test_quantum_traces_refuse_a_singular_reshuffled_matrix():
    from yibre.kernel import NotSkewInvertibleError
    with pytest.raises(NotSkewInvertibleError):
        quantum_traces(Operator2.identity(2))
    with pytest.raises(NotSkewInvertibleError):
        quantum_traces(strict_rime_R([1, 2], 1))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_invariance_matrices_match_their_triple_product_loops(n):
    rd = RationalDraw(700 + n)
    for _ in range(3):
        phi, u, v, a = rd.vector(n), rd.rational(), rd.rational(), rd.rational()
        assert invariance_Y(phi, u, v) == invariance_Y_loops(phi, u, v)
        assert invariance_Y0(phi, a) == invariance_Y0_loops(phi, a)
    assert invariance_Y(phi, u, u) == invariance_Y_loops(phi, u, u)


def test_invariance_matrices_with_a_zero_factor():
    """u phi_j = v phi_i, or a = mu_l - mu_j, zeroes one factor of column j."""
    phi = ratvec([1, 2, 3, 5])
    # column 1 has the factor (2*1 - 1*2)/(1 - 2) = 0 at l = 2, so Y^1_1 = 0
    y = invariance_Y(phi, 2, 1)
    assert y.get(1, 1) == 0 and y.get(2, 1) != 0
    assert y == invariance_Y_loops(phi, ONE * 2, ONE)
    mu = ratvec([0, 1, 3, 7])
    # a = mu_2 - mu_1 = 1: the factor 1 + a/(mu_1 - mu_2) of column 1 is zero
    y0 = invariance_Y0(mu, 1)
    assert y0.get(1, 1) == 0 and y0.get(2, 1) != 0
    assert y0 == invariance_Y0_loops(mu, ONE)
    for a in (mu[l] - mu[j] for j in range(4) for l in range(4) if l != j):
        assert invariance_Y0(mu, a) == invariance_Y0_loops(mu, a)


# --- the O(n^2) closed forms against their per-entry references -------------------

def _with_zero(v):
    """The vector with its last entry set to 0, unless it already holds a 0."""
    return v if 0 in v else v[:-1] + (F(0),)


def _trace_inputs(n: int, rd: RationalDraw):
    """Strict data (a zero phi_i among them), unitary data with beta_jl = 1 for
    mu_j - mu_l = 1, and seeded coefficients that solve nothing."""
    yield strict_rime_data(rd.vector(n), F(2, 7))
    yield strict_rime_data(_with_zero(rd.vector(n)), rd.rational())
    yield unitary_rime_data(range(n))
    yield unitary_rime_data([F(x) for x in (0, 1, 3, 4, 5, 7, 8)[:n]])
    yield _random_rime_data(n, random.Random(n))


@pytest.mark.parametrize("n", range(1, 8))
def test_quantum_trace_closed_forms_match_the_per_entry_products(n):
    rd = RationalDraw(900 + n)
    unit_betas = 0
    for data in _trace_inputs(n, rd):
        got, want = quantum_trace_closed_forms(data), quantum_trace_closed_forms_per_entry(data)
        assert got[0] == want[0] and got[1] == want[1]
        unit_betas += sum(data.b(j, l) == 1 for j in range(1, n + 1) for l in range(1, n + 1))
    assert unit_betas >= n - 1


@pytest.mark.parametrize("n", range(1, 8))
def test_appendix_grids_match_the_accessor_evaluation(n):
    rd = RationalDraw(950 + n)
    for data in (_random_rime_data(n, random.Random(50 + n)), strict_rime_data(rd.vector(n), 3),
                 unitary_rime_data(range(n))):
        got = appendix_A_residuals(data)
        assert len(got) == 46
        assert got == appendix_A_per_accessor(data)
        assert list(got) == list(appendix_A_per_accessor(data))
    # and each equation at each index tuple, so no maximum can hide a transcription
    d = _random_rime_data(n, random.Random(60 + n))
    grids = rime._grids(d)
    for arity, eqs, by_accessor in ((2, rime._PAIR_EQUATIONS, PAIR_EQUATIONS_BY_ACCESSOR),
                                    (3, rime._TRIPLE_EQUATIONS, TRIPLE_EQUATIONS_BY_ACCESSOR)):
        assert list(eqs) == list(by_accessor)
        for name, eq in eqs.items():
            for idx in _index_tuples(n, arity):
                assert eq(*grids, *idx) == by_accessor[name](d, *idx), (name, idx)


def _single_entry_mutations(data: RimeData):
    n = data.dim
    for i in range(n):
        alpha = list(data.alpha)
        alpha[i] += 7
        yield RimeData(n, tuple(alpha), data.alpha_ij, data.beta_ij, data.gamma_ij,
                       data.gamma_prime_ij)
    for grid in ("alpha_ij", "beta_ij", "gamma_ij", "gamma_prime_ij"):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j:
                    value = getattr(data, grid)[i - 1][j - 1]
                    yield data.replace_entry(grid, i, j, value + F(7, 3))


@pytest.mark.parametrize("n", [3, 4])
def test_appendix_early_exit_agrees_with_the_full_system(n):
    rd = RationalDraw(970 + n)
    for data in (strict_rime_data(rd.vector(n), F(3, 4)), unitary_rime_data(rd.vector(n))):
        assert not rime.appendix_A_violated(data)
        detected = 0
        for bad in _single_entry_mutations(data):
            full = appendix_A_residuals(bad)
            assert rime.appendix_A_violated(bad) == any(full.values())
            detected += any(full.values())
        assert detected > 0


def _rime_check(n: int, name: str):
    return next(c for c in suites.rime_suite(n, RationalDraw(n), 1) if c.name == name)


@pytest.mark.parametrize("n", range(1, 8))
def test_eigenvector_checks_match_their_per_call_vectors(n):
    """The suite reads every w_a from one table; residuals at Q's that are not the traces."""
    rd = RationalDraw(990 + n)
    eig = _rime_check(n, "quantum-trace-eigenvectors[0]").residual
    jordan = _rime_check(n, "quantum-trace-jordan-action[0]").residual
    for phi in (rd.vector(n), _with_zero(rd.vector(n))):
        beta = rd.rational()
        traces = quantum_trace_closed_forms(strict_rime_data(phi, beta))
        random_q = Operator1([[rd.rational() for _ in range(n)] for _ in range(n)])
        for q in (traces[0], random_q):
            got = eig(SimpleNamespace(phi=phi, beta=beta, q=(q, None)))
            assert got == eigenvector_residuals_per_call(phi, beta, q)
            got = jordan(SimpleNamespace(mu=phi, uq=(q, None)))
            assert got == jordan_action_residuals_per_call(phi, q)
        assert any(any(v) for v in eig(SimpleNamespace(phi=phi, beta=beta,
                                                       q=(random_q, None))).values())


@pytest.mark.parametrize("n", range(2, 7))
def test_rime_builders_match_their_per_entry_forms(n):
    """Each builder hands its entries over whole; the entry-by-entry forms agree,
    and a bumped input gives another operator."""
    from reference import assemble_rime_per_entry, invariance_generator_per_entry
    rd = RationalDraw(960 + n)
    for data in (*_trace_inputs(n, rd), unitary_rime_data(rd.vector(n))):
        got, want = assemble_rime(data), assemble_rime_per_entry(data)
        assert got == want and got._ints() == want._ints()
        bumped = data.replace_entry("gamma_ij", 1, 2, data.g(1, 2) + 1)
        assert assemble_rime(bumped) != want
        got, want = quantum_trace_closed_forms(data), quantum_trace_closed_forms_per_entry(data)
        assert got[0]._ints() == want[0]._ints() and got[1]._ints() == want[1]._ints()
        bumped = data.replace_entry("beta_ij", 1, 2, data.b(1, 2) + 1)
        assert quantum_trace_closed_forms(bumped) != want
    phi, u, v = rd.vector(n), rd.rational(), rd.rational()
    y = invariance_Y(phi, u, v)
    assert y._ints() == invariance_Y_loops(phi, u, v)._ints()
    assert invariance_Y(phi, u, v + 29) != invariance_Y_loops(phi, u, v)
    for kind in ("nonunitary", "unitary"):
        got, want = invariance_generator(kind, phi), invariance_generator_per_entry(kind, phi)
        assert got == want and got._ints() == want._ints()
        bumped = (phi[0] + 29, *phi[1:])
        assert invariance_generator(kind, bumped) != want
