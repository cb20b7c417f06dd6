import random
from fractions import Fraction as F
from itertools import permutations

import pytest

from yibre.kernel import InvalidInputError, NotSkewInvertibleError, RationalDraw, ratvec
from yibre.rime import quantum_trace_closed_forms, unitary_rime_R, unitary_rime_data
from yibre.tensor import (Echelon, Operator1, Operator2, Operator3, cybe_residual,
                          first_nonzero_witness, hecke_residual, kron11, lift,
                          op1_on_leg2, op1_on_leg3, partial_trace,
                          permutation_P, rank_of_rows, rref_of_rows, skew_inverse,
                          wedge, yb_residual)


def test_permutation():
    assert permutation_P(1) == Operator2.identity(1)
    p = permutation_P(2)
    assert p.get(1, 2, 2, 1) == 1 and p.get(2, 1, 1, 2) == 1
    assert p.get(1, 2, 1, 2) == 0
    for n in (2, 3):
        assert (permutation_P(n) @ permutation_P(n)) == Operator2.identity(n)


def test_braid_for_p():
    p = permutation_P(3)
    l12, l23 = lift(p, 12), lift(p, 23)
    assert (l12 @ l23 @ l12) == (l23 @ l12 @ l23)


def dense_kron_placement(r: Operator2, legs: int) -> Operator3:
    """Independent oracle: place entries by explicit index loops."""
    n = r.dim
    out = Operator3(n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    v = r.get(i, j, k, l)
                    if not v:
                        continue
                    for m in range(n):
                        a, b, c, d = i - 1, j - 1, k - 1, l - 1
                        if legs == 12:
                            out._set((a * n + b) * n + m, (c * n + d) * n + m, v)
                        elif legs == 13:
                            out._set((a * n + m) * n + b, (c * n + m) * n + d, v)
                        else:
                            out._set((m * n + a) * n + b, (m * n + c) * n + d, v)
    return out


def test_lift_matches_kron_oracle():
    rd = RationalDraw(3)
    n = 2
    r = Operator2(n)
    for i in range(1, 3):
        for j in range(1, 3):
            for k in range(1, 3):
                for l in range(1, 3):
                    r.set(i, j, k, l, rd.rational(nonzero=False))
    for legs in (12, 13, 23):
        assert lift(r, legs) == dense_kron_placement(r, legs)
    assert lift(Operator2.identity(2), 13) == Operator3.identity(2)


def test_yb_trivial_solutions():
    assert yb_residual(permutation_P(3)).is_zero()
    assert yb_residual(Operator2.identity(2)).is_zero()


def test_cybe_zero_map():
    assert cybe_residual(Operator2(3)).is_zero()


def test_hecke_of_p():
    assert hecke_residual(permutation_P(3), 0).is_zero()


def test_partial_traces():
    assert partial_trace(permutation_P(3), 2) == Operator1.identity(3)
    assert partial_trace(permutation_P(3), 1) == Operator1.identity(3)
    assert partial_trace(Operator2.identity(3), 1) == Operator1.identity(3).scale(3)
    assert partial_trace(Operator2.identity(3), 2) == Operator1.identity(3).scale(3)


def test_skew_inverse_of_p():
    for n in (2, 3):
        assert skew_inverse(permutation_P(n)) == permutation_P(n)


def test_skew_inverse_identity_fails():
    with pytest.raises(NotSkewInvertibleError):
        skew_inverse(Operator2.identity(2))


def test_skew_inverse_defining_relation():
    """Tr_2(R_12 Psi_23) = P_13, checked from the three-leg product directly."""
    mu = ratvec([0, 1, 3])
    r = unitary_rime_R(mu)
    psi = skew_inverse(r)
    n = 3
    prod = lift(r, 12) @ lift(psi, 23)
    # trace out leg 2 of an Operator3
    traced = Operator2(n)
    for row, cols in prod.data.items():
        a, b, c = row // (n * n), (row // n) % n, row % n
        for col, v in cols.items():
            d, e, f = col // (n * n), (col // n) % n, col % n
            if b == e:
                traced.add_to(a + 1, c + 1, d + 1, f + 1, v)
    assert traced == permutation_P(n)


def test_unitary_skew_inverse_closed_form():
    mu = ratvec([0, 1])
    psi = skew_inverse(unitary_rime_R(mu))
    q, qt = quantum_trace_closed_forms(unitary_rime_data(mu))
    assert partial_trace(psi, 2) == q
    assert partial_trace(psi, 1) == qt


def test_op1_lifts_commute():
    a = Operator1([[1, 2], [3, 4]])
    b = Operator1([[0, 1], [1, 1]])
    assert (op1_on_leg2(a, 1) @ op1_on_leg2(b, 2)) == (op1_on_leg2(b, 2) @ op1_on_leg2(a, 1))
    assert (op1_on_leg3(a, 1) @ op1_on_leg3(b, 3)) == (op1_on_leg3(b, 3) @ op1_on_leg3(a, 1))
    assert op1_on_leg2(a, 1) == kron11(a, Operator1.identity(2))


def test_wedge_antisymmetry():
    a = Operator1([[1, 2], [3, 4]])
    b = Operator1([[0, 1], [5, 1]])
    assert wedge(a, b) == -(wedge(b, a))
    assert wedge(a, a).is_zero()


def test_operator1_inverse_and_det():
    m = Operator1([[1, 2], [3, 4]])
    assert m.det() == -2
    assert (m @ m.inverse()) == Operator1.identity(2)
    assert Operator1([[1, 2], [2, 4]]).det() == 0


def _seeded_matrix(rng: random.Random, n: int) -> list[list[F]]:
    """Rational matrix with zero entries; about a third get a dependent row, a third a zero row."""
    rows = [[F(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < 0.8 else F(0)
             for _ in range(n)] for _ in range(n)]
    kind = rng.randrange(3)
    if kind == 1 and n > 1:
        a, b = rng.sample(range(n), 2)
        c = F(rng.randint(-3, 3), rng.randint(1, 3))
        rows[a] = [x + c * y for x, y in zip(rows[b], rows[(b + 1) % n])]
    elif kind == 2:
        rows[rng.randrange(n)] = [F(0)] * n
    return rows


def _leibniz_det(rows) -> F:
    n = len(rows)
    total = F(0)
    for perm in permutations(range(n)):
        sign = (-1) ** sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
        term = F(sign)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


SEEDED = [Operator1(_seeded_matrix(random.Random(seed), 1 + seed % 5)) for seed in range(40)]
# leads out of row order, so elimination has to swap rows
SEEDED.append(Operator1([[0, 0, 2], [0, 3, 1], [1, 1, 0]]))


@pytest.mark.parametrize("idx", range(len(SEEDED)))
def test_echelon_det_inverse_rank_rref(idx):
    a = SEEDED[idx]
    n = a.dim
    det = a.det()
    assert det == _leibniz_det(a.rows)
    b = SEEDED[(idx + 5) % len(SEEDED)]
    if b.dim == n:
        assert (a @ b).det() == det * b.det()
    rank = a.rank()
    assert (rank == n) == (det != 0)
    if det:
        assert (a @ a.inverse()) == Operator1.identity(n)
        assert (a.inverse() @ a) == Operator1.identity(n)
    else:
        with pytest.raises(InvalidInputError):
            a.inverse()
    rref = rref_of_rows(a.rows)
    assert len(rref) == rank == rank_of_rows(a.rows)
    assert rref_of_rows(rref) == rref
    leads = [next(c for c, v in enumerate(row) if v) for row in rref]
    assert leads == sorted(set(leads))
    assert all(row[lead] == (i == k) for i, lead in enumerate(leads)
               for k, row in enumerate(rref))


def test_echelon_insert_reports_leads():
    ech = Echelon()
    assert ech.insert({0: F(0), 2: F(3)}) == 2
    assert ech.insert({}) is None
    assert ech.insert({2: F(-6)}) is None
    assert ech.insert({1: F(1), 2: F(1)}) == 1
    assert ech.rank == 2
    assert ech.pivots[2] == {2: 1}
    assert ech.rref() == [{1: 1}, {2: 1}]


def test_operator2_rank_is_sparse_and_exact():
    n = 3
    antisym = permutation_P(n) - Operator2.identity(n)
    assert antisym.rank() == n * (n - 1) // 2
    assert Operator2(n).rank() == 0
    with pytest.raises(InvalidInputError):
        antisym.inverse()


def test_yb_iff_reversed():
    # on catalog members: yb(R) = 0 iff yb(R21) = 0
    from yibre import blocks
    for kind, ps in ((blocks.RBL1, (2, 1)), (blocks.RBL4, (3, 9, 1)),
                     (blocks.JORDANIAN, (1, 2))):
        r = blocks.block_matrix(kind, *ps)
        assert yb_residual(r).is_zero() == yb_residual(r.reversed_legs()).is_zero()
    bad = Operator2.identity(2)
    bad.set(1, 2, 2, 2, F(5))
    bad.set(1, 1, 2, 1, F(3))
    assert yb_residual(bad).is_zero() == yb_residual(bad.reversed_legs()).is_zero()


def test_witness_reporting():
    r = Operator2(2)
    r.set(1, 2, 2, 1, F(7))
    key, val = first_nonzero_witness(r)
    assert key == "1,2|2,1" and val == 7
    m = Operator1.zero(2)
    m.rows[1][0] = F(-1, 3)
    assert first_nonzero_witness(m) == ("2|1", F(-1, 3))
    assert first_nonzero_witness(Operator2(2)) is None


# --- property-based checks ----------------------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st

small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def _random_op2(entries):
    r = Operator2(2)
    it = iter(entries)
    for i in (1, 2):
        for j in (1, 2):
            for k in (1, 2):
                for l in (1, 2):
                    r.set(i, j, k, l, next(it))
    return r


@given(st.lists(small_rationals, min_size=32, max_size=32))
@settings(max_examples=40, deadline=None)
def test_lift_is_multiplicative(entries):
    a = _random_op2(entries[:16])
    b = _random_op2(entries[16:])
    for legs in (12, 13, 23):
        assert lift(a @ b, legs) == lift(a, legs) @ lift(b, legs)


@given(st.lists(small_rationals, min_size=48, max_size=48))
@settings(max_examples=25, deadline=None)
def test_composition_associative(entries):
    a = _random_op2(entries[:16])
    b = _random_op2(entries[16:32])
    c = _random_op2(entries[32:])
    assert ((a @ b) @ c) == (a @ (b @ c))
    assert (a @ (b + c)) == (a @ b + a @ c)


@given(st.lists(small_rationals, min_size=16, max_size=16))
@settings(max_examples=40, deadline=None)
def test_reversal_is_involutive_and_transpose_commutes(entries):
    a = _random_op2(entries)
    assert a.reversed_legs().reversed_legs() == a
    assert a.transpose().transpose() == a
    assert a.reversed_legs().transpose() == a.transpose().reversed_legs()


def test_scalar_shift():
    r = Operator2(2)
    r.set(1, 2, 2, 1, F(3))
    shifted = r.scalar_shift(F(1, 2))
    assert shifted.get(1, 1, 1, 1) == F(1, 2)
    assert shifted.get(1, 2, 2, 1) == 3
    assert shifted.scalar_shift(F(-1, 2)) == r


def test_operator2_inverse():
    from yibre.rime import strict_rime_R
    r = strict_rime_R([1, 2, 4], F(1, 3))
    assert (r @ r.inverse()) == Operator2.identity(3)
