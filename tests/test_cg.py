from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from yibre import cg, kernel, rime, suites
from yibre.cg import (CGParams, cg_equivalence_residual, cg_matrix, cg_symmetry_residual,
                      d_twist_conjugate, d_twist_matrix,
                      generating_function_residual, phi_transition,
                      sectype_identity_residual, standard_rc_matrix,
                      standard_riming, summation_matrix, x_change_of_basis)
from yibre.kernel import InvalidInputError, RationalDraw, elem_syms_omitting, ratvec
from yibre.rime import RimeClass, classify, strict_rime_R
from yibre.suites import run_suite
from yibre.tensor import (Operator1, Operator2, conjugate2, hecke_residual,
                          kron11, row_space, yb_residual)

from reference import (bumped, cg_matrix_per_entry, cg_plane_relations,
                       generating_function_per_entry, phi_transition_per_entry,
                       quantum_space_relations, x_inverse_per_entry, xty_mapped_all_rows)

Q = F(1, 4)


def rows_of(r, i, j):
    n = r.dim
    return [r.get(i, j, k, l) for k in range(1, n + 1) for l in range(1, n + 1)]


def test_cg_frozen_n2():
    r = cg_matrix(CGParams(2, Q, 1))
    assert rows_of(r, 1, 1) == [1, 0, 0, 0]
    assert rows_of(r, 1, 2) == [0, 1 - Q, 1, 0]
    assert rows_of(r, 2, 1) == [0, Q, 0, 0]
    assert rows_of(r, 2, 2) == [0, 0, 0, 1]


def test_cg_n1_identity():
    assert cg_matrix(CGParams(1, Q, 1)) == Operator2.identity(1)


def test_cg_n3_staircase_terms():
    r = cg_matrix(CGParams(3, Q, 1))
    assert r.get(1, 3, 3, 1) == 1
    assert r.get(1, 3, 1, 3) == 1 - Q
    assert r.get(1, 3, 2, 2) == 1 - Q


@pytest.mark.parametrize("n,p", [(2, F(1)), (3, F(1)), (3, F(2, 3)), (4, F(-3))])
def test_cg_ybe_hecke(n, p):
    r = cg_matrix(CGParams(n, Q, p))
    assert yb_residual(r).is_zero()
    assert hecke_residual(r, 1 - Q).is_zero()


def test_d_twist():
    r = cg_matrix(CGParams(3, Q, 1))
    assert d_twist_conjugate(r, 1) == r
    assert d_twist_conjugate(r, 2) == cg_matrix(CGParams(3, Q, 2))
    d = d_twist_matrix(3, 2)
    dd = kron11(d, d)
    assert (r @ dd) == (dd @ r)
    # a matrix without the invariance fails the precondition
    bad = strict_rime_R([1, 2, 4], F(1, 2))
    with pytest.raises(InvalidInputError):
        d_twist_conjugate(bad, 2)


def test_x_change_of_basis_frozen():
    x, xinv = x_change_of_basis([1, 2])
    assert x == Operator1([[1, 2], [1, 1]])
    assert xinv == Operator1([[-1, 2], [1, -1]])
    assert x_change_of_basis([5])[0] == Operator1([[1]])


@pytest.mark.parametrize("phi", [[1, 2], [1, 2, 3], [0, 1, 5, -2]])
def test_x_inverse_exact(phi):
    x, xinv = x_change_of_basis(phi)
    assert (x @ xinv) == Operator1.identity(len(phi))
    assert (xinv @ x) == Operator1.identity(len(phi))


@pytest.mark.parametrize("phi,beta", [([1, 2], F(1, 2)), ([1, 2, 4], F(1, 3))])
def test_cg_equivalence(phi, beta):
    assert cg_equivalence_residual(phi, beta, x_change_of_basis(phi)[0]).is_zero()


def test_cg_equivalence_seeded_n4_n5():
    rd = RationalDraw(7)
    for n in (4, 5):
        phi = rd.vector(n, distinct=True)
        assert cg_equivalence_residual(phi, F(2, 5), x_change_of_basis(phi)[0]).is_zero()


def test_cg_equivalence_beta_one_rejected():
    with pytest.raises(InvalidInputError):
        cg_equivalence_residual([1, 2], 1, x_change_of_basis([1, 2])[0])


def test_sectype_exhaustive():
    for phi in ([1, 2], [1, 2, 4], [1, 2, 4, 7]):
        n = len(phi)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                for k in range(1, n + 1):
                    for l in range(1, n + 1):
                        assert sectype_identity_residual(phi, i, j, k, l) == 0


def test_sectype_reads_the_table_it_is_given():
    phi = ratvec([1, 2, 4])
    tuples = [(i, j, k, l) for i in range(1, 4) for j in range(1, 4) if i != j
              for k in range(1, 4) for l in range(1, 4)]
    table = elem_syms_omitting(phi)
    assert all(sectype_identity_residual(phi, *t, table) == 0 for t in tuples)
    # a bumped table entry shows up in some residual, so the table is what is read
    table[0][1] += 1
    assert any(sectype_identity_residual(phi, *t, table) != 0 for t in tuples)
    assert all(sectype_identity_residual(phi, *t) == 0 for t in tuples)
    for bad in ((0, 1, 1, 1), (1, 4, 1, 1)):
        with pytest.raises(InvalidInputError):
            sectype_identity_residual(phi, *bad)


def test_sectype_seeded_tuples():
    rd = RationalDraw(13)
    phi = rd.vector(4, distinct=True)
    for _ in range(20):
        i = rd.int_in(1, 4)
        j = rd.int_in(1, 4)
        if i == j:
            j = i % 4 + 1
        k, l = rd.int_in(1, 4), rd.int_in(1, 4)
        assert sectype_identity_residual(phi, i, j, k, l) == 0
    with pytest.raises(InvalidInputError):
        sectype_identity_residual(phi, 2, 2, 1, 1)


def test_phi_transition():
    assert phi_transition([1, 2], [1, 2]) == Operator1.identity(2)
    pt = phi_transition([1, 2], [3, 5])
    assert pt == Operator1([[4, -3], [2, -1]])
    rd = RationalDraw(5)
    for n in (2, 3):
        a, b = rd.vector(n, distinct=True), rd.vector(n, distinct=True)
        xp, _ = x_change_of_basis(b)
        _, xi = x_change_of_basis(a)
        assert phi_transition(a, b) == (xp @ xi)


def test_generating_function():
    assert all(v == 0 for row in generating_function_residual([1, 2]) for v in row)
    rd = RationalDraw(9)
    grid = generating_function_residual(rd.vector(4, distinct=True))
    assert all(v == 0 for row in grid for v in row)


@pytest.mark.parametrize("n", range(2, 8))
def test_generating_function_grid_matches_per_entry(n, monkeypatch):
    rd = RationalDraw(100 + n)
    phi = rd.vector(n, distinct=True)
    assert generating_function_residual(phi) == generating_function_per_entry(phi)
    # the grid certifies the recursion behind elem_syms_omitting, so it never reads it
    def refuse(values):
        raise AssertionError("elem_syms_omitting called")
    monkeypatch.setattr(cg, "elem_syms_omitting", refuse)
    monkeypatch.setattr(kernel, "elem_syms_omitting", refuse)
    assert all(v == 0 for row in generating_function_residual(phi) for v in row)


def test_standard_riming():
    for n in (2, 3, 4):
        rc, xt, conj, residual = standard_riming(n, Q)
        assert residual.is_zero()
        assert yb_residual(rc).is_zero()
        assert hecke_residual(rc, 1 - Q).is_zero()
        assert conj == conjugate2(rc, xt)
        assert classify(conj) in (RimeClass.RIME_NON_STRICT, RimeClass.RIME_STRICT)
    assert summation_matrix(3) == Operator1([[1, 0, 0], [1, 1, 0], [1, 1, 1]])
    r2 = standard_rc_matrix(2, Q)
    assert rows_of(r2, 1, 2) == [0, 1 - Q, 1, 0]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cg_symmetry(n):
    assert cg_symmetry_residual(n, Q).is_zero()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cg_quantum_plane(n):
    rcg = cg_matrix(CGParams(n, Q, 1))
    assert quantum_space_relations(rcg, 1, "right") == cg_plane_relations(n, Q)


@pytest.mark.parametrize("n,phi", [(2, [1, 2]), (3, [1, 2, 4])])
def test_xty_maps_plane_ideals(n, phi):
    beta = 1 - Q
    rr = strict_rime_R(phi, beta)
    x, _ = x_change_of_basis(phi)
    m = rr.scalar_shift(-1) @ kron11(x, x)
    rcg = cg_matrix(CGParams(n, Q, 1))
    assert row_space(n, m.data.values()) == row_space(n, rcg.scalar_shift(-1).data.values())


def test_plane_checks_fault_name_their_entry(monkeypatch):
    # both checks return differences of row spaces, so a bumped (R_CG)^{12}_{12}
    # fails at the relation led by y^1 y^2, in its coefficient of y^2 y^1
    matrix = cg.cg_matrix
    monkeypatch.setattr(cg, "cg_matrix", lambda params: bumped(matrix(params), 1, 2, 1, 2, 1))
    got = {c.name: c for c in run_suite("cg", 2, 0, 1).checks}
    assert got["cg-quantum-plane"].status == got["xty-ideal-map"].status == "fail"
    assert got["cg-quantum-plane"].residual_witness == {"index": "1,2|2,1", "value": "4"}
    assert got["xty-ideal-map"].residual_witness == {"index": "1,2|2,1", "value": "-4"}


# --- the O(n^2) closed forms against their per-entry references -------------------

def _with_zero(v):
    """The vector with its last entry set to 0, unless it already holds a 0."""
    return v if 0 in v else v[:-1] + (F(0),)


@pytest.mark.parametrize("n", range(1, 8))
def test_x_inverse_matches_the_per_entry_lagrange_form(n):
    rd = RationalDraw(800 + n)
    for phi in (rd.vector(n), _with_zero(rd.vector(n)), ratvec(range(n))):
        x, xinv = x_change_of_basis(phi)
        assert xinv == x_inverse_per_entry(phi)
        assert x == Operator1(elem_syms_omitting(phi))


def _transition_pairs(n: int, rd: RationalDraw):
    """Unrelated vectors, a zero phi_j, and phi' sharing values with phi at other
    indices (phi_j = phi'_i with i != j) or at every index (phi' = phi)."""
    phi = rd.vector(n)
    yield phi, rd.vector(n)
    yield _with_zero(rd.vector(n)), rd.vector(n)
    fresh = next(x for x in (F(k, 13) for k in range(1, 100)) if x not in phi)
    yield phi, phi[1:] + (fresh,)
    yield phi, phi[::-1]
    yield phi, phi


@pytest.mark.parametrize("n", range(1, 8))
def test_phi_transition_matches_the_per_entry_products(n):
    rd = RationalDraw(850 + n)
    for phi, phi_prime in _transition_pairs(n, rd):
        got = phi_transition(phi, phi_prime)
        assert got == phi_transition_per_entry(phi, phi_prime)
        assert got == x_change_of_basis(phi_prime)[0] @ x_change_of_basis(phi)[1]
    assert phi_transition(phi, phi) == Operator1.identity(n)


@pytest.mark.parametrize("n", range(1, 8))
def test_cg_matrix_matches_the_per_entry_powers(n):
    rd = RationalDraw(870 + n)
    for qi, p in ((rd.rational(), rd.rational()), (Q, 1), (rd.rational(), -1), (2, F(-3, 5))):
        params = CGParams(n, qi, p)
        assert cg_matrix(params) == cg_matrix_per_entry(params)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_xty_check_reduces_the_plane_before_mapping(n, monkeypatch):
    """rowspace((R - 1) X1 X2) = rowspace(R - 1) X1 X2, also for an R that is not rime."""
    rd = RationalDraw(880 + n)
    xty = next(c for c in suites.cg_suite(n, RationalDraw(n), 1) if c.name == "xty-ideal-map")
    phi = rd.vector(n)
    x, _ = x_change_of_basis(phi)
    for r in (strict_rime_R(phi, 1 - Q),
              Operator2.from_dense(n, [[rd.rational() if rd.int_in(0, 2) == 0 else 0
                                        for _ in range(n * n)] for _ in range(n * n)])):
        monkeypatch.setattr(rime, "strict_rime_R", lambda phis, beta, r=r: r)
        # an identity rcg contributes no relations, so the residual is the mapped space itself
        got, want = (xty.residual(SimpleNamespace(phis=phi, rcg=Operator2.identity(n))),
                     xty_mapped_all_rows(r, x))
        assert got.zero == want.is_zero() and got.form() == want
        rcg = cg_matrix(CGParams(n, Q, 1))
        got = xty.residual(SimpleNamespace(phis=phi, rcg=rcg))
        want = xty_mapped_all_rows(r, x) - row_space(n, rcg.scalar_shift(-1).data.values())
        assert got.zero == want.is_zero() and got.form() == want


@pytest.mark.parametrize("n", range(2, 7))
def test_cg_matrix_hands_over_the_per_entry_rows(n):
    rd = RationalDraw(890 + n)
    for qi, p in ((rd.rational(), rd.rational()), (1, 2), (F(-3, 5), 1)):
        got, want = cg_matrix(CGParams(n, qi, p)), cg_matrix_per_entry(CGParams(n, qi, p))
        assert got._ints() == want._ints()
        assert cg_matrix(CGParams(n, qi + 29, p)) != want
        assert cg_matrix(CGParams(n, qi, p * 3)) != want
