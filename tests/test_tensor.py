import operator
import random
import tracemalloc
from fractions import Fraction as F
from itertools import permutations, product
from math import gcd, lcm

import pytest

import yibre.tensor as tensor_module
from yibre.classical import (CONJUGATION_PAIRS, b_cg_eta, b_cg_r, b_skew_r, build_classical, rcg_r,
                             rime_skew_r, rime_skew_sl_r, rime_skew_sl_xi)
from yibre.cg import CGParams, cg_matrix, d_twist_matrix, x_change_of_basis
from yibre.kernel import InvalidInputError, NotSkewInvertibleError, QuadExt, RationalDraw, ratvec
from yibre.rational import Q
from yibre.rime import (invariance_Y, invariance_Y0, quantum_trace_closed_forms, strict_rime_R,
                        unitary_rime_R, unitary_rime_data)
from yibre.tensor import (Echelon, Operator1, Operator2, Operator3, _conjugation_defect,
                          commutator_with_sum, conjugate2, conjugate2_residual, cybe_residual,
                          equivalence_residual, first_nonzero_witness, hecke_residual, kron11,
                          kron_sum, permutation_P, place, reshuffled_matrix, row_space,
                          shifted_conjugate2_residual, shifted_cybe_residual, signed_products,
                          span_difference, span_rank, wedge, yb_residual)

from reference import (add_entry, braid_yb_residual, bumped, conjugate2_dense,
                       conjugated_difference, dense_grid, dense_matmul, dense_signed_sum,
                       equivalence_dense, first_nonzero_witness_sorted, full_cybe_residual,
                       partial_trace, row_space_difference, skew_inverse,
                       two_chain_conjugation_defect)


def test_permutation():
    assert permutation_P(1) == Operator2.identity(1)
    p = permutation_P(2)
    assert p.get(1, 2, 2, 1) == 1 and p.get(2, 1, 1, 2) == 1
    assert p.get(1, 2, 1, 2) == 0
    for n in (2, 3):
        assert (permutation_P(n) @ permutation_P(n)) == Operator2.identity(n)


def test_braid_for_p():
    p = permutation_P(3)
    l12, l23 = place(p, (1, 2), 3), place(p, (2, 3), 3)
    assert (l12 @ l23 @ l12) == (l23 @ l12 @ l23)


def dense_kron_placement(r: Operator2, legs: tuple) -> Operator3:
    """Independent oracle: place entries by explicit index loops."""
    n = r.dim
    out = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    v = r.get(i, j, k, l)
                    if not v:
                        continue
                    for m in range(n):
                        a, b, c, d = i - 1, j - 1, k - 1, l - 1
                        if legs == (1, 2):
                            add_entry(out, (a * n + b) * n + m, (c * n + d) * n + m, v)
                        elif legs == (1, 3):
                            add_entry(out, (a * n + m) * n + b, (c * n + m) * n + d, v)
                        else:
                            add_entry(out, (m * n + a) * n + b, (m * n + c) * n + d, v)
    return Operator3._entries(n, out)


def test_lift_matches_kron_oracle():
    """``place`` lifts a two-leg operator to legs 12, 13 and 23 as the index-loop oracle does."""
    rd = RationalDraw(3)
    n = 2
    r = Operator2._entries(n, {x: {y: rd.rational(nonzero=False) for y in range(n * n)}
                               for x in range(n * n)})
    for legs in ((1, 2), (1, 3), (2, 3)):
        assert place(r, legs, 3) == dense_kron_placement(r, legs)
    assert place(Operator2.identity(2), (1, 3), 3) == Operator3.identity(2)


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
    prod = place(r, (1, 2), 3) @ place(psi, (2, 3), 3)
    # trace out leg 2 of an Operator3
    traced = {}
    for row, cols in prod.data.items():
        a, b, c = row // (n * n), (row // n) % n, row % n
        for col, v in cols.items():
            d, e, f = col // (n * n), (col // n) % n, col % n
            if b == e:
                add_entry(traced, a * n + c, d * n + f, v)
    assert Operator2._entries(n, traced) == permutation_P(n)


def test_unitary_skew_inverse_closed_form():
    mu = ratvec([0, 1])
    psi = skew_inverse(unitary_rime_R(mu))
    q, qt = quantum_trace_closed_forms(unitary_rime_data(mu))
    assert partial_trace(psi, 2) == q
    assert partial_trace(psi, 1) == qt


@pytest.mark.parametrize("n,seed,quad", [(2, 0, None), (2, 1, None), (3, 2, None),
                                         (3, 3, -1), (4, 4, None)])
def test_reshuffled_matrix_matches_dense_formula(n, seed, quad):
    """M[(a,d),(g,b)] = R^{ab}_{dg} on every cell of a seeded random R."""
    r = _random_sparse(Operator2, n, seed, LARGE_DENS, quad)
    m = reshuffled_matrix(r)
    assert type(m) is Operator1 and m.dim == n * n
    for a, b, d, g in product(range(1, n + 1), repeat=4):
        assert m.get((a - 1) * n + d, (g - 1) * n + b) == r.get(a, b, d, g)
    # a bijection of cells, so exactly the nonzeros of R are stored
    assert sorted(map(str, _stored(m).values())) == sorted(map(str, _stored(r).values()))


def test_op1_lifts_commute():
    """Operators placed on different legs commute."""
    a = Operator1([[1, 2], [3, 4]])
    b = Operator1([[0, 1], [1, 1]])
    a1, b2 = place(a, (1,), 2), place(b, (2,), 2)
    assert (a1 @ b2) == (b2 @ a1)
    ident = Operator1.identity(2)
    a1, b3 = place(kron11(a, ident), (1, 2), 3), place(kron11(ident, b), (2, 3), 3)
    assert (a1 @ b3) == (b3 @ a1)
    assert place(a, (1,), 2) == kron11(a, Operator1.identity(2))


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
    assert det == _leibniz_det(dense_grid(a))
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
    # dense rows, zero entries and zero rows included
    rows = [dict(enumerate(row)) for row in dense_grid(a)]
    rref = Echelon(rows).rref()
    assert len(rref) == rank == Echelon(rows).rank
    assert Echelon(rref).rref() == rref
    leads = [min(row) for row in rref]
    assert leads == sorted(set(leads))
    assert all(row.get(lead, 0) == (i == k) for i, lead in enumerate(leads)
               for k, row in enumerate(rref))


@pytest.mark.parametrize("seed", range(24))
def test_row_space_is_canonical(seed):
    rng = random.Random(seed)
    n = 2 + seed % 3
    # up to n*n + 2 rows of one to three entries each, so some sets are dependent
    rows = [{c: F(rng.randint(-3, 3), rng.randint(1, 3))
             for c in rng.sample(range(n * n), rng.randint(1, 3))}
            for _ in range(rng.randint(0, n * n + 2))]
    space = row_space(n, rows)
    shuffled = rng.sample(rows, len(rows))
    assert row_space(n, shuffled) == space
    assert row_space(n, rows + rows[:2] + [{}, {0: F(0)}]) == space
    # an invertible recombination: nonzero multiples plus earlier rows
    mixed = []
    for row in shuffled:
        scale = rng.choice((-2, F(1, 3), 5))
        new = {c: scale * v for c, v in row.items()}
        for prev in mixed:
            k = rng.randint(-2, 2)
            for c, v in prev.items():
                new[c] = new.get(c, 0) + k * v
        mixed.append(new)
    assert row_space(n, mixed) == space
    assert space @ space == space
    assert space.rank() == len(space.data) == Echelon(rows).rank
    # each row sits at its lead monomial with a 1 there and a 0 at every other lead
    for lead, row in space.data.items():
        assert min(row) == lead and row[lead] == 1
        assert not (row.keys() - {lead}) & space.data.keys()


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
    bad = Operator2._entries(2, {0: {0: 1, 2: F(3)}, 1: {1: 1, 3: F(5)}, 2: {2: 1}, 3: {3: 1}})
    assert yb_residual(bad).is_zero() == yb_residual(bad.reversed_legs()).is_zero()


def test_witness_reporting():
    r = Operator2._entries(2, {1: {2: F(7)}})
    key, val = first_nonzero_witness(r)
    assert key == "1,2|2,1" and val == 7
    m = Operator1._entries(2, {1: {0: F(-1, 3)}})
    assert first_nonzero_witness(m) == ("2|1", F(-1, 3))
    assert first_nonzero_witness(Operator2(2)) is None


# --- property-based checks ----------------------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st

small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def _random_op2(entries):
    it = iter(entries)
    return Operator2._entries(2, {r: {c: next(it) for c in range(4)} for r in range(4)})


@given(st.lists(small_rationals, min_size=32, max_size=32))
@settings(max_examples=40, deadline=None)
def test_lift_is_multiplicative(entries):
    """Placing a two-leg operator on a leg pair of V^3 is multiplicative."""
    a = _random_op2(entries[:16])
    b = _random_op2(entries[16:])
    for legs in ((1, 2), (1, 3), (2, 3)):
        assert place(a @ b, legs, 3) == place(a, legs, 3) @ place(b, legs, 3)


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
    r = Operator2._entries(2, {1: {2: F(3)}})
    shifted = r.scalar_shift(F(1, 2))
    assert shifted.get(1, 1, 1, 1) == F(1, 2)
    assert shifted.get(1, 2, 2, 1) == 3
    assert shifted.scalar_shift(F(-1, 2)) == r


def test_operator2_inverse():
    from yibre.rime import strict_rime_R
    r = strict_rime_R([1, 2, 4], F(1, 3))
    assert (r @ r.inverse()) == Operator2.identity(3)


# --- sparse @, + and - against a plain dict-of-scalars reference ----------------

SMALL_DENS = (1, 2, 3, 4, 5, 6, 7, 8)
LARGE_DENS = (1, 12, 10 ** 9 + 7, 2 ** 61 - 1, 3 ** 40, 2 ** 20 * 5 ** 9)


def _random_sparse(cls, n, seed, dens, quad=None):
    """Seeded operator with about a third of its cells set; QuadExt(a, b, quad) in half."""
    rng = random.Random(seed)
    size = n ** cls.legs
    out = {}
    for r in range(size):
        for c in range(size):
            if rng.random() < 0.35:
                v = F(rng.randint(-9, 9) or 1, rng.choice(dens))
                if quad is not None and rng.random() < 0.5:
                    v = QuadExt(v, F(rng.randint(-4, 4), rng.choice(dens)), quad)
                out.setdefault(r, {})[c] = v
    return cls._entries(n, out)


def test_witness_matches_the_sorted_scan():
    # the least row and its least column, read off the integer rows, give the sorted
    # scan's (key, value) exactly: integer, mixed-denominator and QuadExt entries
    quad = F(2)
    for cls in (Operator1, Operator2, Operator3):
        n = 3 if cls is Operator3 else 4
        cases = [_random_sparse(cls, n, seed, dens, q)
                 for seed in range(4) for dens, q in (((1,), None), (SMALL_DENS, None),
                                                     (LARGE_DENS, None), (SMALL_DENS, quad))]
        cases.append(cls._entries(n, {2: {3: F(1, 3), 1: QuadExt(0, 1, quad)}, 3: {0: 1}}))
        for op in cases:
            got = first_nonzero_witness(op)
            assert got == first_nonzero_witness_sorted(op) and got is not None
            assert type(got[1]) is type(first_nonzero_witness_sorted(op)[1])
        assert first_nonzero_witness(cls.zero(n)) is None
        assert first_nonzero_witness(cases[0] - cases[0]) is None


def _stored(op) -> dict:
    """Every stored (row, col) -> entry, failing on a stored zero or an empty row."""
    assert all(op.data.values()), "empty row stored"
    cells = {(r, c): v for r, row in op.data.items() for c, v in row.items()}
    assert all(cells.values()), "zero entry stored"
    return cells


def _reference(a, b, how: str) -> dict:
    """(row, col) -> nonzero entry of a @ b, a + b or a - b by plain scalar arithmetic."""
    ea, eb = _stored(a), _stored(b)
    out = {}
    if how == "@":
        for (r, k), v in ea.items():
            for (k2, c), w in eb.items():
                if k == k2:
                    out[(r, c)] = out.get((r, c), F(0)) + v * w
    else:
        out = dict(ea)
        for key, w in eb.items():
            out[key] = out.get(key, F(0)) + (w if how == "+" else -w)
    return {key: v for key, v in out.items() if v}


def _apply(a, b, how: str):
    return {"@": operator.matmul, "+": operator.add, "-": operator.sub}[how](a, b)


KERNEL_CASES = [
    (Operator2, 2, SMALL_DENS, None, None),
    (Operator2, 3, SMALL_DENS, None, None),
    (Operator2, 3, LARGE_DENS, None, None),
    (Operator3, 2, SMALL_DENS, None, None),
    (Operator3, 2, LARGE_DENS, None, None),
    (Operator2, 2, SMALL_DENS, -1, None),
    (Operator2, 2, LARGE_DENS, None, -1),
    (Operator2, 2, SMALL_DENS, -1, -1),
    (Operator3, 2, SMALL_DENS, 0, 0),
    (Operator2, 3, LARGE_DENS, None, 0),
    (Operator1, 4, SMALL_DENS, None, None),
    (Operator1, 6, LARGE_DENS, None, None),
    (Operator1, 5, SMALL_DENS, -1, None),
    (Operator1, 5, LARGE_DENS, -1, -1),
    (Operator1, 6, SMALL_DENS, 0, 0),
    (Operator1, 4, LARGE_DENS, None, 0),
]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("cls,n,dens,quad_a,quad_b", KERNEL_CASES)
@pytest.mark.parametrize("how", ["@", "+", "-"])
def test_sparse_kernels_match_reference(how, cls, n, dens, quad_a, quad_b, seed):
    a = _random_sparse(cls, n, 100 * seed + 1, dens, quad_a)
    b = _random_sparse(cls, n, 100 * seed + 2, dens, quad_b)
    got = _apply(a, b, how)
    assert type(got) is cls and got.dim == n
    assert _stored(got) == _reference(a, b, how)
    if quad_a is None and quad_b is None:
        assert all(type(v) is Q for v in _stored(got).values())
    # the operands are left as they were
    assert a == _random_sparse(cls, n, 100 * seed + 1, dens, quad_a)
    assert b == _random_sparse(cls, n, 100 * seed + 2, dens, quad_b)


@pytest.mark.parametrize("how", ["@", "+", "-"])
def test_sparse_kernel_reference_catches_a_bumped_entry(how):
    a = _random_sparse(Operator2, 3, 7, LARGE_DENS)
    b = _random_sparse(Operator2, 3, 8, LARGE_DENS)
    got = _stored(_apply(a, b, how))
    ref = _reference(a, b, how)
    assert got == ref
    key = min(ref)
    ref[key] += F(1, 10 ** 9 + 7)
    assert got != ref
    assert _stored(_apply(a, bumped(b, *key, F(1, 3)), how)) != _stored(_apply(a, b, how))


@pytest.mark.parametrize("cls,n,dens,quad", [
    (Operator2, 3, LARGE_DENS, None), (Operator3, 2, SMALL_DENS, None),
    (Operator2, 2, SMALL_DENS, -1), (Operator3, 2, SMALL_DENS, 0),
])
def test_sparse_full_cancellation(cls, n, dens, quad):
    a = _random_sparse(cls, n, 5, dens, quad)
    for zero in (a - a, a + (-a), (-a) + a):
        assert zero.data == {}
        assert zero == cls(n) and hash(zero) == hash(cls(n))
        assert zero.is_zero()
    assert first_nonzero_witness(a - a) is None


def test_sparse_kernels_store_fractions_for_integer_entries():
    # entries handed in as bare ints still come out of @, + and - as Fractions
    a = Operator2(2, {0: {0: 2, 3: -3}, 2: {1: 5}})
    b = Operator2(2, {0: {0: 1}, 1: {1: 4}, 3: {2: 7}})
    for how in ("@", "+", "-"):
        got = _stored(_apply(a, b, how))
        assert got and all(type(v) is Q for v in got.values())
        assert got == _reference(a, b, how)
    with pytest.raises(InvalidInputError):
        Operator2(2) @ Operator2(3)


def test_arithmetic_refuses_operands_of_another_type_or_dim():
    # +, -, scale and @ are each one signed sum, so every operand is checked there
    one, two, three = Operator1.identity(4), Operator2.identity(2), Operator3.identity(2)
    for mixed in (lambda: two - one, lambda: one + two, lambda: two @ one,
                  lambda: two @ three, lambda: three @ two, lambda: two + three,
                  lambda: Operator1.identity(2) + Operator1.identity(3),
                  lambda: Operator1.identity(3) - Operator1.identity(2),
                  lambda: Operator2.identity(2) @ Operator2.identity(3),
                  lambda: one + 1):
        with pytest.raises(InvalidInputError):
            mixed()
    # the same operands of one type and dim still combine
    assert (two - two).is_zero() and two @ two == two and (one + one) == one.scale(2)


def test_operator1_arithmetic_results_own_their_rows():
    a = Operator1([[1, "1/2"], [F(-3, 4), 2]])
    assert all(type(x) is Q for x in _stored(a).values())
    assert Operator1([[0, 2], [0, 0]]).data == {0: {1: F(2)}}
    b = Operator1.identity(2)
    operand_rows = list(a.data.values()) + list(b.data.values())
    for got in (a + b, a - b, -a, a.scale(3), a @ b, a.transpose(), a.inverse(),
                Operator1.identity(2), Operator1.zero(2), a.scale(0), a - a):
        # _stored also fails on a stored zero or an empty row
        assert got.dim == 2 and all(type(x) is Q for x in _stored(got).values())
        assert all(row is not ra for row in got.data.values() for ra in operand_rows)
        assert len({id(row) for row in got.data.values()}) == len(got.data)
    assert a @ a.inverse() == b and (a + b) - b == a and -(-a) == a
    eps = QuadExt(0, 1, 0)   # eps^2 = 0, so scaling can cancel an entry
    assert Operator1([[eps, 1], [0, eps]]).scale(eps).data == {0: {1: eps}}
    with pytest.raises(InvalidInputError):
        Operator1([[1, 2], [3]])
    with pytest.raises(InvalidInputError):
        Operator1([[1.5]])


# --- the one-common-denominator kernel against a dense Fraction reference ------------

DENSE_SETTINGS = settings(derandomize=True, max_examples=40, deadline=None)
kernel_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=30)


@st.composite
def sparse_operands(draw, cls, dims=(1, 2, 3), scalars=kernel_rationals):
    """An operator built from a drawn dict of entries; often empty, never dense."""
    n = draw(st.sampled_from(dims))
    size = n ** cls.legs
    cell = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
    out = {}
    for (r, c), v in draw(st.dictionaries(cell, scalars, max_size=size * size // 2)).items():
        out.setdefault(r, {})[c] = v
    return cls._entries(n, out)


def _dense_placement(x, n: int, legs: tuple) -> list[list]:
    """R on the named leg pair of V^3, written out index by index."""
    def flat(i, j, k):
        return (i * n + j) * n + k

    out = [[F(0)] * n ** 3 for _ in range(n ** 3)]
    for a, b, c, d, m in product(range(n), repeat=5):
        v = x[a * n + b][c * n + d]
        if legs == (1, 2):
            out[flat(a, b, m)][flat(c, d, m)] = v
        elif legs == (2, 3):
            out[flat(m, a, b)][flat(m, c, d)] = v
        else:
            out[flat(a, m, b)][flat(c, m, d)] = v
    return out


def _dense_kron(x, y) -> list[list]:
    n = len(x)
    return [[x[i][j] * y[k][l] for j in range(n) for l in range(n)]
            for i in range(n) for k in range(n)]


def _assert_canonical(op):
    """Arithmetic left its integer rows: minimal den, gcd 1, no stored zero or empty row."""
    assert op._rows is not None and all(op._rows.values())
    nums = [x for row in op._rows.values() for x in row.values()]
    assert all(type(x) is int and x for x in nums)
    assert op._den >= 1 and gcd(op._den, *nums) == 1
    assert op._den == lcm(*(v.denominator for _, _, v in op.nonzero_entries()))


def _same_dim(a, b):
    b = b if b.dim == a.dim else b.zero(a.dim)
    return a, b


@given(st.sampled_from([Operator1, Operator2]).flatmap(
    lambda cls: st.tuples(sparse_operands(cls), sparse_operands(cls), kernel_rationals)))
@DENSE_SETTINGS
def test_kernel_arithmetic_matches_dense_reference(ops):
    a, b, k = ops
    a, b = _same_dim(a, b)
    da, db = dense_grid(a), dense_grid(b)
    size = a.size
    cases = [
        (a @ b, dense_matmul(da, db)),
        (a + b, [[da[r][c] + db[r][c] for c in range(size)] for r in range(size)]),
        (a - b, [[da[r][c] - db[r][c] for c in range(size)] for r in range(size)]),
        (-a, [[-v for v in row] for row in da]),
        (a.scale(k), [[k * v for v in row] for row in da]),
        (a - a, [[F(0)] * size for _ in range(size)]),
        (a + (-a) + b, db),
    ]
    for got, ref in cases:
        assert type(got) is type(a) and got.dim == a.dim
        _assert_canonical(got)
        assert dense_grid(got) == ref
        assert all(type(v) is Q for _, _, v in got.nonzero_entries())
    assert (a - a).is_zero() and (a + (-a)).data == {}


@given(sparse_operands(Operator2), st.sampled_from([(1, 2), (1, 3), (2, 3)]))
@DENSE_SETTINGS
def test_lift_matches_dense_reference(r, legs):
    """``place`` on a leg pair of V^3 keeps the operand's den and is the dense placement."""
    got = place(r, legs, 3)
    _assert_canonical(got)
    assert got._den == r._ints()[0]
    assert dense_grid(got) == _dense_placement(dense_grid(r), r.dim, legs)


@st.composite
def kron_terms(draw, scalars=kernel_rationals, coefficients=kernel_rationals):
    """One to four terms (k, a, b) over a pool of three one-leg operators of one dim."""
    n = draw(st.sampled_from((1, 2, 3)))
    factor = st.sampled_from([draw(sparse_operands(Operator1, dims=(n,), scalars=scalars))
                              for _ in range(3)])
    return [(draw(coefficients), draw(factor), draw(factor))
            for _ in range(draw(st.integers(1, 4)))]


def _dense_kron_sum(terms) -> list[list]:
    size = terms[0][1].dim ** 2
    total = [[F(0)] * size for _ in range(size)]
    for k, a, b in terms:
        for r, row in enumerate(_dense_kron(dense_grid(a), dense_grid(b))):
            for c, v in enumerate(row):
                total[r][c] += k * v
    return total


@given(kron_terms())
@DENSE_SETTINGS
def test_kron11_matches_dense_reference(terms):
    _, a, b = terms[0]
    got = kron11(a, b)
    _assert_canonical(got)
    assert dense_grid(got) == _dense_kron(dense_grid(a), dense_grid(b))
    before = [(dense_grid(a), dense_grid(b)) for _, a, b in terms]
    got = kron_sum(terms)
    assert type(got) is Operator2 and got.dim == a.dim
    _assert_canonical(got)
    assert dense_grid(got) == _dense_kron_sum(terms)
    assert wedge(a, b) == kron11(a, b) - kron11(b, a)
    # every term against its negation cancels to no rows at all
    zero = kron_sum(terms + _negated(terms))
    _assert_canonical(zero)
    assert zero.data == {} and zero == Operator2.zero(a.dim)
    # a cancelled term leaves no stored zero or empty row among the others
    rest = kron_sum([terms[0], _negated(terms)[0], *terms[1:]])
    _assert_canonical(rest)
    assert dense_grid(rest) == _dense_kron_sum(terms[1:]) if terms[1:] else rest.data == {}
    assert [(dense_grid(a), dense_grid(b)) for _, a, b in terms] == before


def test_kron_sum_skips_zero_coefficients_and_factors():
    a = Operator1([[F(1, 2), 0, 3], [0, F(-2, 3), 0], [5, 0, 1]])
    b = Operator1([[0, F(7, 4), 0], [1, 0, 0], [0, 2, F(-1, 5)]])
    zero = Operator1.zero(3)
    assert kron_sum([(0, a, b)]) == Operator2.zero(3)
    assert kron_sum([(1, zero, a), (1, a, zero)]).data == {}
    assert kron_sum([(0, a, b), (F(3, 2), b, a), (5, zero, b)]) == kron11(b, a).scale(F(3, 2))


@pytest.mark.parametrize("d", [-1, 0])
@given(data=st.data())
@DENSE_SETTINGS
def test_kron_sum_of_quadext_operands(d, data):
    quad = st.one_of(kernel_rationals, _quad_scalars(d))
    terms = data.draw(kron_terms(scalars=quad, coefficients=quad))
    got = kron_sum(terms)
    assert all(row and all(row.values()) for row in got.data.values()), "zero or empty row stored"
    assert dense_grid(got) == _dense_kron_sum(terms)
    assert kron_sum(terms + _negated(terms)).data == {}
    if d == 0:
        # products of pure dual parts vanish, whole rows with them
        eps = QuadExt(0, 1, 0)
        dual = [f.scale(eps) for _, a, b in terms for f in (a, b)]
        assert kron_sum([(1, dual[0], dual[-1])]).data == {}
        assert kron_sum([(eps, dual[0], terms[0][2])]).data == {}
        assert kron_sum([(eps, dual[0], dual[-1]), (1, dual[0], dual[0])]).data == {}


def test_kron_sum_and_signed_products_keep_one_form():
    # a zero factor adds nothing, but its term's scalars still make the sum a scalar sum
    a = Operator1([[QuadExt(1, 2, -1), 0], [F(1, 3), QuadExt(0, 1, -1)]])
    zero = Operator1.zero(2)
    got = kron_sum([(1, a, zero)])
    want = signed_products([(1, a, zero)])
    assert got._den is None and want._den is None
    assert got.data == {} and want.data == {}
    one = Operator1.identity(2)
    assert kron_sum([(QuadExt(0, 1, -1), one, zero)])._den is None
    assert kron_sum([(1, one, zero)])._den == 1


def test_kron_sum_refuses_bad_terms():
    two, three = Operator1.identity(2), Operator1.identity(3)
    with pytest.raises(InvalidInputError):
        kron_sum([])
    with pytest.raises(InvalidInputError):
        kron_sum([(1, two, three)])
    with pytest.raises(InvalidInputError):
        kron_sum([(1, two, two), (1, three, three)])
    with pytest.raises(InvalidInputError):
        kron_sum([(1, two, Operator2.identity(2))])
    # a zero coefficient or a zero factor still has its factors checked
    with pytest.raises(InvalidInputError):
        kron_sum([(0, two, three)])
    with pytest.raises(InvalidInputError):
        kron_sum([(1, Operator1.zero(2), three)])


@pytest.mark.parametrize("d", [-1, 0])
@given(data=st.data())
@DENSE_SETTINGS
def test_trace_matches_the_diagonal(d, data):
    scalars = st.one_of(kernel_rationals, _quad_scalars(d))
    a = data.draw(sparse_operands(Operator1, dims=(1, 2, 3), scalars=scalars))
    want = sum((a.get(i, i) for i in range(1, a.dim + 1)), F(0))
    assert a.trace() == want and type(a.trace()) is type(want)


def test_unit_is_stored_as_integer_rows():
    u = Operator1.unit(3, 1, 2)
    _assert_canonical(u)
    assert u._den == 1 and u.data == {1: {0: 1}} and u.trace() == 0
    # a stored zero is dropped when the entries are cleared
    v = Operator1._entries(3, {0: {0: F(5, 3)}, 1: {0: 0}})
    _assert_canonical(v)
    assert v.data == {0: {0: F(5, 3)}} and v.trace() == F(5, 3)
    again = v + Operator1.unit(3, 2, 1)
    _assert_canonical(again)
    assert dense_grid(again) == [[F(5, 3), 1, 0], [0, 0, 0], [0, 0, 0]]
    # each unit is its own operator, and a sum leaves its operands as they were
    assert u.data == {1: {0: 1}} and v.data == {0: {0: F(5, 3)}}


@given(sparse_operands(Operator2), sparse_operands(Operator2))
@DENSE_SETTINGS
def test_eq_and_hash_agree_between_built_and_computed(a, b):
    a, b = _same_dim(a, b)
    got = a @ b - b
    grid_b = dense_grid(b)
    built = Operator2._entries(a.dim, {
        r: {c: v - grid_b[r][c] for c, v in enumerate(row)}
        for r, row in enumerate(dense_matmul(dense_grid(a), grid_b))})
    assert got == built and built == got and hash(got) == hash(built)
    assert got != bumped(built, 0, 0, F(1, 29))


def _quad_scalars(d: int):
    return st.builds(lambda x, y: QuadExt(x, y, d), kernel_rationals, kernel_rationals)


@pytest.mark.parametrize("d", [-1, 0])
@given(data=st.data())
@DENSE_SETTINGS
def test_quadext_operands_take_the_generic_path(d, data):
    a = data.draw(sparse_operands(Operator1, dims=(2, 3), scalars=_quad_scalars(d)))
    b = data.draw(sparse_operands(Operator1, dims=(2, 3), scalars=kernel_rationals))
    a, b = _same_dim(a, b)
    eps = QuadExt(0, 1, d)
    da, db = dense_grid(a), dense_grid(b)
    size = a.size
    cases = [
        (a @ b, dense_matmul(da, db)),
        (b @ a, dense_matmul(db, da)),
        (a - b, [[da[r][c] - db[r][c] for c in range(size)] for r in range(size)]),
        (a.scale(eps), [[eps * v for v in row] for row in da]),
        (kron11(a, a), _dense_kron(da, da)),
    ]
    for got, ref in cases:
        if a.data:
            assert got._den is None
        assert all(v for row in got.data.values() for v in row.values()), "zero stored"
        assert dense_grid(got) == ref
    if d == 0:
        # products of pure dual parts cancel: (eps A)(eps B) = 0
        dual = a.scale(eps)
        assert (dual @ dual).is_zero() and (dual @ dual).data == {}
        assert kron11(dual, dual).data == {}


# --- the fused signed-product kernel against products formed whole on dense grids ----

@st.composite
def signed_terms(draw, scalars=kernel_rationals, coefficients=kernel_rationals):
    """One to four terms (k, F1[, F2[, F3]]) over a pool of operators of one type and dim.

    Factors are drawn from a pool of three, so products repeat and can cancel.
    """
    cls = draw(st.sampled_from([Operator1, Operator2, Operator3]))
    dims = (1, 2) if cls is Operator3 else (1, 2, 3)
    n = draw(st.sampled_from(dims))
    pool = [draw(sparse_operands(cls, dims=(n,), scalars=scalars)) for _ in range(3)]
    factor = st.sampled_from(pool)
    return [(draw(coefficients), *draw(st.lists(factor, min_size=1, max_size=3)))
            for _ in range(draw(st.integers(1, 4)))]


def _negated(terms):
    return [(-k, *fs) for k, *fs in terms]


@given(signed_terms())
@DENSE_SETTINGS
def test_signed_products_match_the_unfused_chain(terms):
    first = terms[0][1]
    before = [dense_grid(f) for _, *fs in terms for f in fs]
    got = signed_products(terms)
    assert type(got) is type(first) and got.dim == first.dim
    _assert_canonical(got)
    assert dense_grid(got) == dense_signed_sum(terms)
    # every term against its negation cancels exactly to the stored zero operator
    zero = signed_products(terms + _negated(terms))
    _assert_canonical(zero)
    assert zero.data == {} and zero == type(first).zero(first.dim)
    # the operands are left as they were
    assert [dense_grid(f) for _, *fs in terms for f in fs] == before


def test_signed_products_cover_each_term_shape():
    a = Operator2(2, {0: {0: F(1, 2), 3: F(-3)}, 2: {1: F(5, 7)}, 3: {3: F(2)}})
    b = Operator2(2, {0: {1: F(4)}, 1: {0: F(-1, 3)}, 3: {2: F(7, 2)}})
    cases = [[(F(2, 3), a)], [(F(-5, 4), a, b)], [(F(7, 9), a, b, a)],
             [(1, a), (F(-1, 2), b, a), (F(3, 8), b, a, b)]]
    for terms in cases:
        assert dense_grid(signed_products(terms)) == dense_signed_sum(terms)
    # negative control: a bumped coefficient changes the sum
    assert (dense_grid(signed_products([(1, a), (F(-1, 2), b, a)]))
            != dense_signed_sum([(1, a), (F(-1, 3), b, a)]))


@pytest.mark.parametrize("d", [-1, 0])
@given(data=st.data())
@DENSE_SETTINGS
def test_signed_products_of_quadext_operands(d, data):
    quad = st.one_of(kernel_rationals, _quad_scalars(d))
    terms = data.draw(signed_terms(scalars=quad, coefficients=quad))
    got = signed_products(terms)
    assert all(v for row in got.data.values() for v in row.values()), "zero stored"
    assert dense_grid(got) == dense_signed_sum(terms)
    assert signed_products(terms + _negated(terms)).data == {}
    if d == 0:
        # a product of two pure dual parts vanishes: (eps A)(eps B) = 0
        eps = QuadExt(0, 1, 0)
        dual = [f.scale(eps) for _, *fs in terms for f in fs]
        assert signed_products([(1, dual[0], dual[-1])]).data == {}
        assert signed_products([(eps, dual[0])]).data == {}


def test_signed_products_refuse_bad_terms():
    with pytest.raises(InvalidInputError):
        signed_products([])
    with pytest.raises(InvalidInputError):
        signed_products([(1,)])
    with pytest.raises(InvalidInputError):
        signed_products([(1, Operator2(2), Operator2(3))])
    with pytest.raises(InvalidInputError):
        signed_products([(1, Operator2(2)), (1, Operator2(3))])
    with pytest.raises(InvalidInputError):
        signed_products([(1, Operator1.identity(2)), (1, Operator2.identity(2))])
    # a zero coefficient or a zero factor still has its factors checked
    with pytest.raises(InvalidInputError):
        signed_products([(0, Operator2(2), Operator2(3))])
    with pytest.raises(InvalidInputError):
        signed_products([(1, Operator2(2), Operator2(2), Operator2.identity(3))])


def test_cybe_residual_holds_no_whole_product():
    # the six lifted products of a passing cYBE are never stored whole; at n = 6 they
    # took 5.3 MB of tracemalloc peak before the fused kernel and take about 0.4 MB now
    r = rime_skew_sl_r(RationalDraw(0).vector(6))
    r._ints()
    tracemalloc.start()
    try:
        residual = cybe_residual(r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert residual.is_zero()
    assert peak < 1.5e6, f"cybe_residual peaked at {peak / 1e6:.2f} MB"


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_yb_residual_matches_the_braid_products(n):
    # a N - N b with N = b a, built one leg-3 slice at a time, against aba - bab: the same
    # integer rows over the same denominator, and the same first witness
    from yibre.rime import strict_rime_R
    rd = RationalDraw(60 + n)
    r = strict_rime_R(rd.vector(n), rd.rational())
    bumped = r + Operator2._entries(n, {1: {n: F(3, 5)}})
    wild = Operator2._entries(n, {x: {y: rd.rational() for y in range(n * n) if (x + y) % 3 == 0}
                                  for x in range(n * n)})
    gauss = r + Operator2._entries(n, {0: {n + 1: QuadExt(0, 1, -1)}})
    for op in (r, bumped, wild, gauss, Operator2.zero(n), Operator2.identity(n)):
        got, want = yb_residual(op), braid_yb_residual(op)
        assert got._den == want._den and got._rows == want._rows and got == want
        assert first_nonzero_witness(got) == first_nonzero_witness(want)
    assert yb_residual(r).is_zero() and yb_residual(gauss)._den is None
    assert not yb_residual(bumped).is_zero() and not yb_residual(wild).is_zero()


def test_yb_residual_holds_one_slice_of_the_middle_product():
    # the braid residual holds one leg-3 slice of n^2 rows of the middle product N = b a
    # and neither placement: at n = 8 it peaks at about 0.08 MB of tracemalloc, the two-term
    # form at 0.36 MB, and forming N whole at 0.79 MB
    from yibre.rime import strict_rime_R
    r = strict_rime_R(RationalDraw(1).vector(8), F(2, 7))
    r._ints()
    peaks = []
    for fn in (yb_residual,
               lambda r: signed_products([(1, place(r, (2, 3), 3), place(r, (1, 2), 3))])):
        tracemalloc.start()
        try:
            fn(r)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < peaks[1] / 4, f"yb_residual peaked at {peaks[0] / 1e6:.2f} MB"


def _dense_random_op2(rd: RationalDraw, n: int) -> Operator2:
    return Operator2.from_dense(n, [[rd.rational() for _ in range(n * n)] for _ in range(n * n)])


def _sorted_triple(row: int, n: int) -> bool:
    return row // (n * n) <= row // n % n <= row % n


@pytest.mark.parametrize("n", [2, 3, 4])
def test_skew_cybe_reads_its_sorted_rows(n):
    rd = RationalDraw(70 + n)
    for _ in range(3):
        a = _dense_random_op2(rd, n)
        r = a - a.reversed_legs()
        full, reduced = full_cybe_residual(r), cybe_residual(r)
        assert not full.is_zero()
        # the residual is antisymmetric under swaps of legs 1, 2 and of legs 2, 3
        p12, p23 = place(permutation_P(n), (1, 2), 3), place(permutation_P(n), (2, 3), 3)
        assert p12 @ full @ p12 == -full and p23 @ full @ p23 == -full
        # only sorted rows are formed, each equal to the whole residual's row
        assert all(_sorted_triple(x, n) for x in reduced.data)
        assert reduced.data == {x: row for x, row in full.data.items() if _sorted_triple(x, n)}
        assert any(not _sorted_triple(x, n) for x in full.data)
        assert first_nonzero_witness(reduced) == first_nonzero_witness(full)
    # a skew solution is zero both ways
    r = rime_skew_sl_r(rd.vector(n, distinct=True))
    assert cybe_residual(r).is_zero() and full_cybe_residual(r).is_zero()


def test_nonskew_cybe_gets_every_row():
    rd = RationalDraw(80)
    for n in (2, 3):
        r = _dense_random_op2(rd, n)
        assert not (r + r.reversed_legs()).is_zero()
        residual = cybe_residual(r)
        assert residual == full_cybe_residual(r)
        assert any(not _sorted_triple(x, n) for x in residual.data)
    # one entry off skew is enough to take the whole path
    r = bumped(rime_skew_sl_r([1, 2, 4]), 1, 2, 2, 1, 1)
    assert cybe_residual(r) == full_cybe_residual(r)


def _snapshot(op):
    """An operator's den and a copy of its integer rows, to show it was left as it was."""
    den, rows = op._ints()
    return den, {r: dict(row) for r, row in rows.items()}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cybe_with_symmetric_part_in_span_of_P_and_1_reads_its_sorted_rows(n):
    # r = a + c P + d 1 with a skew: r + r_21 = 2c P + 2d 1, so CYB(r) is still
    # totally antisymmetric and its sorted rows decide it
    rd = RationalDraw(90 + n)
    p, one = permutation_P(n), Operator2.identity(n)
    for c, d in ((1, -1), (rd.rational(), rd.rational()), (0, rd.rational()),
                 (rd.rational(), 0)):
        a = _dense_random_op2(rd, n)
        r = a - a.reversed_legs() + p.scale(c) + one.scale(d)
        assert not (r + r.reversed_legs()).is_zero()
        before = _snapshot(r)
        full, reduced = full_cybe_residual(r), cybe_residual(r)
        assert _snapshot(r) == before
        assert not full.is_zero()
        p12, p23 = place(p, (1, 2), 3), place(p, (2, 3), 3)
        assert p12 @ full @ p12 == -full and p23 @ full @ p23 == -full
        assert all(_sorted_triple(x, n) for x in reduced.data)
        assert reduced.data == {x: row for x, row in full.data.items() if _sorted_triple(x, n)}
        assert any(not _sorted_triple(x, n) for x in full.data)
        assert first_nonzero_witness(reduced) == first_nonzero_witness(full)
    # the parameter-free CG solution has symmetric part P - 1 and solves the cYBE
    r = rcg_r(n)
    assert (r + r.reversed_legs()) == p - one
    assert cybe_residual(r).is_zero() and full_cybe_residual(r).is_zero()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_conjugate2_residual_is_the_whole_difference(n):
    rd = RationalDraw(100 + n)
    t = _invertible(n, 100 + n, None)
    tinv = t.inverse()
    rhs = _dense_random_op2(rd, n)
    lhs = conjugate2(rhs, t)
    ops = (lhs, rhs, t, tinv)
    before = [_snapshot(op) for op in ops]
    got = conjugate2_residual(*ops)
    assert got.zero and got.form().is_zero()
    # a bumped side is not conjugate: the residual is the whole difference, witness and all
    unit = Operator1.unit(n, 1, 1)
    for bumped, other in ((lhs + kron11(unit, unit), rhs), (lhs, rhs.scale(2)),
                          (lhs, conjugate2(lhs, t))):
        got = conjugate2_residual(bumped, other, t, tinv)
        want = conjugated_difference(bumped, other, t)
        assert not got.zero
        got = got.form()
        assert not got.is_zero()
        assert got == want and first_nonzero_witness(got) == first_nonzero_witness(want)
    assert [_snapshot(op) for op in ops] == before


def _random_op1(rd: RationalDraw, n: int) -> Operator1:
    return Operator1([[rd.rational() for _ in range(n)] for _ in range(n)])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cybe_of_an_identity_shift(n):
    # CYB(a + xi ^ 1) = CYB(a) + C_12 - C_13 + C_23 with C = [a, xi_1 + xi_2], for any a, xi
    rd = RationalDraw(120 + n)
    for _ in range(2):
        a, xi = _dense_random_op2(rd, n), _random_op1(rd, n)
        c = commutator_with_sum(a, xi)
        got = full_cybe_residual(a + wedge(xi, Operator1.identity(n)))
        assert not c.is_zero() and not got.is_zero()
        assert got == (full_cybe_residual(a) + place(c, (1, 2), 3) - place(c, (1, 3), 3)
                       + place(c, (2, 3), 3))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_shifted_cybe_residual_is_the_whole_form(n):
    rd = RationalDraw(130 + n)
    mu = rd.vector(n, distinct=True)
    ident, unit = Operator1.identity(n), Operator1.unit(n, 1, 2)
    a, xi = rime_skew_r(mu), rime_skew_sl_xi(mu)
    solutions = [(rime_skew_sl_r(mu), a, xi), (b_cg_r(n), b_skew_r(n), -b_cg_eta(n))]
    for r, *parts in solutions:
        got = shifted_cybe_residual(r, *parts, cybe_residual(parts[0]))
        assert got.zero and got.form().is_zero()
        assert full_cybe_residual(r).is_zero()
    # a bumped r, which is no longer a + xi ^ 1; a xi with [a, xi_1 + xi_2] != 0; and
    # a random non-skew a with a random xi
    other = _random_op1(rd, n)
    cases = [(rime_skew_sl_r(mu) + kron11(unit, unit), a, xi),
             (b_cg_r(n) + wedge(unit, Operator1.unit(n, 2, 1)), b_skew_r(n), -b_cg_eta(n)),
             (a + wedge(other, ident), a, other)]
    if n <= 4:
        dense = _dense_random_op2(rd, n)
        cases.append((dense + wedge(other, ident), dense, other))
    for r, *parts in cases:
        got, want = shifted_cybe_residual(r, *parts, cybe_residual(parts[0])), cybe_residual(r)
        assert not got.zero
        got = got.form()
        assert not got.is_zero()
        assert got == want and first_nonzero_witness(got) == first_nonzero_witness(want)
    assert not commutator_with_sum(a, other).is_zero()
    # a bumped base a' with its own CYB, under the solution r (no longer a' + xi ^ 1) and
    # under r' = a' + xi ^ 1 (a shift whose base fails): the whole form either way
    unit2 = Operator1.unit(n, 2, 1)
    for r, a_, xi_ in solutions:
        bumped = a_ + wedge(unit, unit2)
        for rr in (r, bumped + wedge(xi_, ident)):
            got = shifted_cybe_residual(rr, bumped, xi_, cybe_residual(bumped))
            assert not got.zero
            got, want = got.form(), cybe_residual(rr)
            assert got == want and first_nonzero_witness(got) == first_nonzero_witness(want)
        assert not cybe_residual(bumped + wedge(xi_, ident)).is_zero()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_shifted_cybe_residual_reads_the_given_base_residual(n):
    """CYB(a) is the caller's and is not decided again: a nonzero one sends r to the
    whole form, which is zero here, and a zero one lets r pass at once."""
    mu = RationalDraw(150 + n).vector(n, distinct=True)
    r, a, xi = rime_skew_sl_r(mu), rime_skew_r(mu), rime_skew_sl_xi(mu)
    bump = place(kron11(Operator1.unit(n, 1, 2), Operator1.unit(n, 1, 2)), (1, 2), 3)
    got = shifted_cybe_residual(r, a, xi, bump)
    assert not got.zero and got.form() == cybe_residual(r)
    got = shifted_cybe_residual(r, a, xi, Operator3.zero(n))
    assert got.zero and got.form().is_zero()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_conjugation_defect_of_identity_shifts(n):
    # (a + xi ^ 1) T1 T2 - T1 T2 (b + zeta ^ 1) = a T1 T2 - T1 T2 b + D (x) T - T (x) D,
    # D = xi T - T zeta, for any a, b, xi, zeta and T
    rd = RationalDraw(140 + n)
    ident = Operator1.identity(n)
    a, b = _dense_random_op2(rd, n), _dense_random_op2(rd, n)
    xi, zeta, t = _random_op1(rd, n), _random_op1(rd, n), _random_op1(rd, n)
    t1, t2 = place(t, (1,), 2), place(t, (2,), 2)
    lhs, rhs = a + wedge(xi, ident), b + wedge(zeta, ident)
    d = xi @ t - t @ zeta
    assert not d.is_zero()
    assert (signed_products([(1, lhs, t1, t2), (-1, t1, t2, rhs)])
            == signed_products([(1, a, t1, t2), (-1, t1, t2, b)]) + kron11(d, t) - kron11(t, d))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_shifted_conjugate2_residual_is_the_whole_form(n):
    rd = RationalDraw(150 + n)
    mu = rd.vector(n, distinct=True)
    ident, unit = Operator1.identity(n), Operator1.unit(n, 1, 2)
    x, xinv = x_change_of_basis(mu)
    a, xi, b, zeta = rime_skew_r(mu), rime_skew_sl_xi(mu), b_skew_r(n), -b_cg_eta(n)
    lhs, rhs = rime_skew_sl_r(mu), b_cg_r(n)
    got = shifted_conjugate2_residual(lhs, rhs, x, xinv, (a, xi), (b, zeta))
    assert got.zero and got.form().is_zero()
    assert conjugated_difference(lhs, rhs, x).is_zero()
    # a bumped lhs or rhs, no longer its parts; xi + e^1_2 on both lhs and its parts, with
    # D = xi X + X eta != 0; and random dense sides with random shifts
    moved = xi + unit
    cases = [(lhs + kron11(unit, unit), rhs, (a, xi), (b, zeta)),
             (lhs, rhs + kron11(unit, unit), (a, xi), (b, zeta)),
             (a + wedge(moved, ident), rhs, (a, moved), (b, zeta))]
    if n <= 4:
        da, db, dxi = _dense_random_op2(rd, n), _dense_random_op2(rd, n), _random_op1(rd, n)
        cases.append((da + wedge(dxi, ident), db + wedge(zeta, ident), (da, dxi), (db, zeta)))
    for left, right, lparts, rparts in cases:
        got = shifted_conjugate2_residual(left, right, x, xinv, lparts, rparts)
        want = conjugated_difference(left, right, x)
        assert not got.zero
        got = got.form()
        assert not got.is_zero()
        assert got == want and first_nonzero_witness(got) == first_nonzero_witness(want)
    assert not (moved @ x - x @ zeta).is_zero()


@pytest.mark.parametrize("n", [2, 3])
def test_span_difference_decides_before_it_forms(n):
    rd = RationalDraw(110 + n)
    size = n * n
    basis = []
    while len(basis) < size:
        row = {c: rd.rational() for c in range(size) if rd.int_in(0, 1)}
        if Echelon([*basis, row]).rank > len(basis):
            basis.append(row)
    k = size // 2 + 1
    span = basis[:k]
    # the same span: row i plus multiples of the later rows, a zero row and a repeat
    same = []
    for i in range(k):
        row = dict(span[i])
        for later in span[i + 1:]:
            f = rd.rational()
            for c, v in later.items():
                row[c] = row.get(c, 0) + f * v
        same.append({c: v for c, v in row.items() if v})
    same += [{}, same[0]]
    cases = [(span, same, False), ([], [{}], False),
             (span, basis[1:k + 1], True),   # equal rank, another span
             (span, span[:-1], True),        # the canonical span inside the other
             (span[:-1], span, True),        # the other inside the canonical span
             (span, [], True)]
    for rows, canonical, differ in cases:
        before = [dict(row) for row in rows], [dict(row) for row in canonical]
        for rank in (None, Echelon(rows).rank):
            got = span_difference(n, rows, canonical, rank)
            want = row_space_difference(n, rows, canonical)
            assert got.zero != differ
            got = got.form()
            assert got == want and got.is_zero() != differ
            # the common dimension, handed on by a decision that found the spans equal
            assert span_rank(rows, canonical, rank) == (None if differ else Echelon(rows).rank)
            assert first_nonzero_witness(got) == first_nonzero_witness(want)
        assert ([dict(row) for row in rows], [dict(row) for row in canonical]) == before


# --- the integer Echelon against leading-1 Fraction elimination ----------------

class _FractionEchelon:
    """Leading-1 elimination on exact scalars, as Echelon ran before integer rows."""

    def __init__(self, rows=()):
        self.pivots = {}
        for row in rows:
            self.insert(row)

    def _subtract(self, row, col):
        factor = row[col]
        for c, v in self.pivots[col].items():
            nv = row.get(c, F(0)) - factor * v
            if nv:
                row[c] = nv
            elif c in row:
                del row[c]

    def reduce(self, row):
        row = {c: v for c, v in row.items() if v}
        while row and min(row) in self.pivots:
            self._subtract(row, min(row))
        return row

    def insert(self, row):
        row = self.reduce(row)
        if not row:
            return None
        lead = min(row)
        inv = F(1) / row[lead]
        self.pivots[lead] = {c: v * inv for c, v in row.items()}
        return lead

    def rref(self):
        for lead in sorted(self.pivots, reverse=True):
            row = self.pivots[lead]
            for c in [c for c in row if c != lead and c in self.pivots]:
                self._subtract(row, c)
        return [self.pivots[lead] for lead in sorted(self.pivots)]


def _fraction_inverse(dense):
    """Rows of A^-1 from the reference RREF of [A | I], or None when A is singular."""
    n = len(dense)
    rref = _FractionEchelon({**dict(enumerate(row)), n + r: F(1)}
                            for r, row in enumerate(dense)).rref()
    if any(min(row) >= n for row in rref):
        return None
    return [[row.get(n + c, F(0)) for c in range(n)] for row in rref]


def _assert_pivots_stored_primitive(ech):
    for lead, row in ech._pivots.items():
        assert all(row.values()), "zero stored"
        assert min(row) == lead
        if type(row[lead]) is int:
            assert all(type(x) is int for x in row.values())
            assert row[lead] > 0 and gcd(*row.values()) == 1
        else:
            assert row[lead] == 1


ECHELON_DENS = (1, 2, 3, 7, 3 ** 40, 2 ** 61 - 1)
echelon_rationals = st.builds(
    F, st.one_of(st.integers(-9, 9), st.sampled_from((3 ** 40, 1 - 2 ** 61))),
    st.sampled_from(ECHELON_DENS))


def _echelon_scalars(quad: bool):
    if not quad:
        return echelon_rationals
    gaussian = st.builds(lambda a, b: QuadExt(a, b, -1), echelon_rationals, echelon_rationals)
    return st.one_of(echelon_rationals, gaussian)


@st.composite
def echelon_rows(draw, m: int, quad: bool):
    """Rows over m columns: sparse rows, zero rows and combinations of earlier rows."""
    scalars = _echelon_scalars(quad)
    rows = []
    for _ in range(draw(st.integers(0, m + 2))):
        kind = draw(st.sampled_from(("sparse", "sparse", "zero", "combination")))
        if kind == "zero":
            row = {c: F(0) for c in draw(st.sets(st.integers(0, m - 1), max_size=2))}
        elif kind == "combination" and rows:
            row = {}
            for prev in draw(st.lists(st.sampled_from(rows), min_size=1, max_size=2)):
                k = draw(echelon_rationals)
                for c, v in prev.items():
                    row[c] = row.get(c, F(0)) + k * v
        else:
            row = draw(st.dictionaries(st.integers(0, m - 1), scalars, min_size=1))
        rows.append(row)
    return rows


@st.composite
def square_matrices(draw, m: int, quad: bool):
    """Dense m x m rows with zero entries; sometimes the last row is a combination of the others."""
    entry = st.one_of(st.just(F(0)), _echelon_scalars(quad))
    dense = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=m, max_size=m))
    if m > 1 and draw(st.booleans()):
        k = draw(echelon_rationals)
        dense[-1] = [x + k * y for x, y in zip(dense[0], dense[1 % (m - 1)])]
    return dense


@pytest.mark.parametrize("quad", [False, True])
@given(data=st.data())
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
def test_echelon_matches_fraction_elimination(quad, data):
    m = data.draw(st.integers(1, 6))
    rows = data.draw(echelon_rows(m, quad))
    ech, ref = Echelon(), _FractionEchelon()
    for row in rows:
        assert ech.insert(row) == ref.insert(row)
        _assert_pivots_stored_primitive(ech)
    assert ech.rank == len(ref.pivots)
    assert ech.pivots == ref.pivots
    assert ech.rref() == ref.rref()
    assert ech.pivots == ref.pivots
    _assert_pivots_stored_primitive(ech)
    dense = data.draw(square_matrices(m, quad))
    a = Operator1(dense)
    det = _leibniz_det(dense)
    assert a.det() == det
    assert a.rank() == len(_FractionEchelon(a.data.values()).pivots)
    inverse = _fraction_inverse(dense)
    assert (inverse is None) == (det == 0)
    if inverse is None:
        with pytest.raises(InvalidInputError):
            a.inverse()
        return
    assert dense_grid(a.inverse()) == inverse
    # negative control: the inverse is injective, so any bumped entry changes it
    r, c = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, m - 1))
    dense[r][c] += F(1, 3)
    try:
        assert dense_grid(Operator1(dense).inverse()) != inverse
    except InvalidInputError:
        assert _leibniz_det(dense) == 0


@given(data=st.data())
@settings(derandomize=True, max_examples=40, deadline=None, database=None)
def test_echelon_back_reduction_over_mixed_pivots(data):
    # upper triangular, rational off the diagonal: back-reducing a rational row
    # meets rational pivots, which scale it, and Gaussian pivots in turn
    m = data.draw(st.integers(2, 5))
    diagonal = _echelon_scalars(True).filter(bool)
    off = st.one_of(st.just(F(0)), echelon_rationals)
    dense = [[F(0)] * r + [data.draw(diagonal)] + data.draw(st.lists(off, min_size=m - r - 1,
                                                                     max_size=m - r - 1))
             for r in range(m)]
    augmented = [{**{c: v for c, v in enumerate(row) if v}, m + r: F(1)}
                 for r, row in enumerate(dense)]
    assert Echelon(augmented).rref() == _FractionEchelon(augmented).rref()
    assert dense_grid(Operator1(dense).inverse()) == _fraction_inverse(dense)


def test_echelon_back_reduces_rational_rows_against_gaussian_pivots():
    # row 0 is scaled by 2 against the rational pivot at column 1, then meets
    # the Gaussian pivot at column 2 over that denominator
    i = QuadExt(0, 1, -1)
    dense = [[F(1), F(1), F(1)], [F(0), F(2), F(0)], [F(0), F(0), i]]
    augmented = [{**{c: v for c, v in enumerate(row) if v}, 3 + r: F(1)}
                 for r, row in enumerate(dense)]
    assert Echelon(augmented).rref() == _FractionEchelon(augmented).rref()
    assert dense_grid(Operator1(dense).inverse()) == _fraction_inverse(dense)
    assert Operator1(dense).inverse().get(1, 3) == i


@pytest.mark.parametrize("quad", [None, -1])
def test_reversed_legs_matches_p_r_p(quad):
    """The row relabelling R_21[(j,i),(l,k)] = R[(i,j),(k,l)] is the product P R P."""
    for n, seed in ((2, 0), (3, 1), (4, 2)):
        r = _random_sparse(Operator2, n, seed, LARGE_DENS, quad)
        p = permutation_P(n)
        got = r.reversed_legs()
        _stored(got)
        assert got == p @ r @ p
        assert got.get(1, 2, 2, 1) == r.get(2, 1, 1, 2)
    assert Operator2.zero(3).reversed_legs().is_zero()


def _invertible(n, seed, quad):
    """The first seeded sparse T from ``seed`` on with a nonzero determinant."""
    while True:
        t = _random_sparse(Operator1, n, seed, SMALL_DENS, quad)
        if t.det() != 0:
            return t
        seed += 100


@pytest.mark.parametrize("quad", [None, -1])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_leg_wise_conjugation_matches_the_dense_kronecker_form(n, quad):
    t = _invertible(n, 10 * n, quad)
    r = _random_sparse(Operator2, n, 10 * n + 1, SMALL_DENS, quad)
    rhs = _random_sparse(Operator2, n, 10 * n + 2, SMALL_DENS)
    conj = conjugate2(r, t)
    _stored(conj)
    assert conj == conjugate2_dense(r, t)
    assert equivalence_residual(r, rhs, t) == equivalence_dense(r, rhs, t)
    # a true equivalence leaves no residual, a bumped one does
    assert equivalence_residual(conj, r, t).is_zero()
    bumped = conj + Operator2.identity(n).scale(F(1, 7))
    assert not equivalence_residual(bumped, r, t).is_zero()


def test_leg_wise_conjugation_refuses_a_singular_t():
    t = Operator1([[1, 2], [2, 4]])
    r = permutation_P(2)
    with pytest.raises(InvalidInputError):
        conjugate2(r, t)
    with pytest.raises(InvalidInputError):
        equivalence_residual(r, r, t)


def _dense_op1(n, seed, quad):
    """Seeded n x n operator with every entry nonzero; QuadExt(a, b, quad) in half."""
    rng = random.Random(seed)
    out = {}
    for r in range(n):
        for c in range(n):
            v = F(rng.randint(-9, 9) or 1, rng.choice(SMALL_DENS))
            if quad is not None and rng.random() < 0.5:
                v = QuadExt(v, F(rng.randint(1, 4), rng.choice(SMALL_DENS)), quad)
            out.setdefault(r, {})[c] = v
    return Operator1._entries(n, out)


@pytest.mark.parametrize("quad", [None, -1])
@pytest.mark.parametrize("n", range(2, 7))
def test_conjugation_defect_matches_the_two_chain_form(n, quad):
    # random sides that are not conjugate and a dense T: the tail T_2 B formed once gives
    # the two-chain sum, witness and all
    t = _dense_op1(n, 300 + n, quad)
    lhs = _random_sparse(Operator2, n, 310 + n, SMALL_DENS, quad)
    rhs = _random_sparse(Operator2, n, 320 + n, SMALL_DENS, quad)
    assert len(t._rows) == n and all(len(row) == n for row in t._rows.values())
    assert (t._den is None) == (quad is not None)
    got, want = _conjugation_defect(lhs, rhs, t), two_chain_conjugation_defect(lhs, rhs, t)
    assert not got.is_zero()
    assert got == want and first_nonzero_witness(got) == first_nonzero_witness(want)


def _suite_defect_inputs(n: int) -> list[tuple]:
    """(name, lhs, rhs, T) of the conjugation defects the suites decide, at passing inputs."""
    rd = RationalDraw(400 + n)
    phi, mu, beta = rd.vector(n, distinct=True), rd.vector(n, distinct=True), F(2, 7)
    r, u = strict_rime_R(phi, beta), unitary_rime_R(mu)
    rcg = cg_matrix(CGParams(n, F(1, 4), 1))
    xmu = x_change_of_basis(mu)[0]
    return [("invariance-Y", r, r, invariance_Y(phi, F(1, 3), F(2, 5))),
            ("invariance-Y0", u, u, invariance_Y0(mu, F(1, 2))),
            ("cg-equivalence", r, cg_matrix(CGParams(n, 1 - beta, 1)), x_change_of_basis(phi)[0]),
            ("d-twist-commutes", rcg, rcg, d_twist_matrix(n, 2)),
            *((f"conjugation:{pair}", build_classical(lk, n, mu), build_classical(rk, n), xmu)
              for pair, (lk, rk) in CONJUGATION_PAIRS.items())]


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_suite_conjugation_defects_match_the_two_chain_form(n):
    # each suite's real defect passes, and one bumped entry on either side gives the
    # two-chain residual and witness
    for name, lhs, rhs, t in _suite_defect_inputs(n):
        assert equivalence_residual(lhs, rhs, t).is_zero(), name
        for left, right in ((bumped(lhs, 1, 2, 2, 1, 1), rhs),
                            (lhs, bumped(rhs, n, 1, 1, n, F(1, 3)))):
            got = equivalence_residual(left, right, t)
            want = two_chain_conjugation_defect(left, right, t)
            assert not got.is_zero(), name
            assert got == want, name
            assert first_nonzero_witness(got) == first_nonzero_witness(want), name


def test_equal_operand_difference_is_one_comparison(monkeypatch):
    rd = RationalDraw(17)
    a = _dense_random_op2(rd, 3)
    twin = Operator2._entries(3, a.data)
    half = a.scale(F(1, 2))
    assert twin is not a and twin._rows == a._rows and twin._den == a._den
    # equal rows over another denominator: a/2 - a is -a/2, not zero
    assert half._rows == a._rows and half._den != a._den
    assert half - a == a.scale(F(-1, 2)) and not (half - a).is_zero()
    # the planner never runs for k F - k G with equal integer rows and denominators
    plan = tensor_module._plan
    monkeypatch.setattr(tensor_module, "_plan", None)
    for zero in (a - twin, signed_products([(Q(2, 3), twin), (Q(-2, 3), a)])):
        assert zero._ints() == (1, {}) and zero == Operator2.zero(3)
    monkeypatch.setattr(tensor_module, "_plan", plan)
    # equal QuadExt operands take the general path, which keeps their scalar form
    quad = _random_sparse(Operator2, 3, 5, SMALL_DENS, -1)
    assert quad._den is None
    assert (quad - Operator2._entries(3, quad.data))._ints() == (None, {})
    # a refused operand is still refused
    with pytest.raises(InvalidInputError):
        a - Operator3._entries(3, a.data)


def _builder_routes(n: int, seed: int) -> list:
    """Operators of one dim from every builder route, with equal ones among them."""
    rd = RationalDraw(seed)
    t = Operator1([[rd.rational() for _ in range(n)] for _ in range(n)])
    den, rows = t._ints()
    ops1 = [t, Operator1._entries(n, t.data), t.transpose(), t.transpose().transpose(),
            Operator1._reduced(n, 6 * den, {r: {c: 6 * x for c, x in row.items()}
                                           for r, row in rows.items()}),
            t.inverse(), t.inverse().inverse(), t.scale(F(1, 2)), Operator1.zero(n),
            Operator1.identity(n), t @ t.inverse()]
    ops2 = [place(t, (1,), 2), kron11(t, Operator1.identity(n)), place(t, (2,), 2),
            place(t.inverse(), (1,), 2).inverse(), Operator2._entries(n, place(t, (2,), 2).data)]
    return [ops1, ops2]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_integer_row_equality_agrees_with_the_fraction_view(n):
    for ops in _builder_routes(n, 500 + n):
        fresh = [Operator1._of(op.dim, *op._ints()) if op.legs == 1 else
                 Operator2._of(op.dim, *op._ints()) for op in ops]
        for a, fa in zip(ops, fresh):
            # a single read leaves the Fraction view unbuilt and agrees with it
            assert fa._data is None
            assert [fa._get(r, c) for r in range(fa.size) for c in range(fa.size)] == [
                a.data.get(r, {}).get(c, 0) for r in range(a.size) for c in range(a.size)]
            assert fa._data is None
            for b, fb in zip(ops, fresh):
                assert (fa == fb) == (a.data == b.data)
                assert fa._data is None and fb._data is None
                if a == b:
                    assert hash(a) == hash(b)
        assert any(a is not b and a == b for a in ops for b in ops)
    # a QuadExt operand compares its entries, with the rational operator of the same values too
    q = Operator1._entries(n, {0: {0: QuadExt(F(1, 2), 0, -1)}})
    assert q._den is None and q == Operator1._entries(n, {0: {0: F(1, 2)}})


@pytest.mark.parametrize("quad", [None, -1])
def test_solve_matches_the_inverse(quad):
    for n, seed in ((2, 3), (3, 4), (5, 5)):
        a = _invertible(n, seed, quad)
        rhs = {0: F(2, 3), n - 1: F(-5)}
        x = a.solve(rhs)
        assert all(x.values()), "zero stored"
        inv = a.inverse()
        want = {i: v for i in range(n)
                if (v := sum((inv.get(i + 1, k + 1) * w for k, w in rhs.items()), F(0)))}
        assert x == want
        assert a.solve({}) == {}
    with pytest.raises(InvalidInputError):
        Operator1([[1, 2], [2, 4]]).solve({0: F(1)})
    with pytest.raises(InvalidInputError):
        Operator1([[1, 2], [2, 4]]).solve({})


# --- builders on integer rows --------------------------------------------------

def _leg_operands(n: int):
    """Seeded rational operators, small and large denominators, the zero operator and
    QuadExt operators with d = -1 and d = 0."""
    yield Operator1.zero(n)
    for seed in range(3):
        yield _random_sparse(Operator1, n, 500 + 10 * n + seed, SMALL_DENS)
        yield _random_sparse(Operator1, n, 600 + 10 * n + seed, LARGE_DENS)
        for d in (-1, 0):
            yield _random_sparse(Operator1, n, 700 + 10 * n + seed, SMALL_DENS, quad=d)


@pytest.mark.parametrize("n", range(1, 6))
def test_leg_lifts_are_the_kronecker_products(n):
    """``place`` of a one-leg operator on leg 1 or 2 of V (x) V is a (x) 1 or 1 (x) a."""
    ident = Operator1.identity(n)
    for a in _leg_operands(n):
        lifted = place(a, (1,), 2), place(a, (2,), 2)
        assert lifted == (kron11(a, ident), kron11(ident, a))
        if a._den is not None:
            for op in lifted:
                _assert_canonical(op)
        # a bumped operand lifts to another operator
        bumped = a + Operator1.unit(n, 1, n)
        assert place(bumped, (1,), 2) != lifted[0] and place(bumped, (2,), 2) != lifted[1]


# every legs tuple of a one-leg operator in widths 2 and 3, of a two-leg one in widths
# 2 and 3 and of a three-leg one in width 3, each in op's own leg order
PLACEMENTS = [(Operator1, (1,), 2), (Operator1, (2,), 2),
              (Operator1, (1,), 3), (Operator1, (2,), 3), (Operator1, (3,), 3),
              (Operator2, (1, 2), 2), (Operator2, (2, 1), 2),
              *((Operator2, legs, 3) for legs in permutations((1, 2, 3), 2)),
              *((Operator3, legs, 3) for legs in permutations((1, 2, 3)))]


def _digit_placement(op, legs: tuple, width: int):
    """Independent oracle: entry (row, col) of op placed on ``legs`` of V^width, read
    from the digit tuples of row and col; op's entry at the digits on ``legs`` when
    the free legs' digits agree, and zero otherwise."""
    n = op.dim

    def flat(digits):
        out = 0
        for d in digits:
            out = out * n + d
        return out

    free = [leg for leg in range(1, width + 1) if leg not in legs]
    out = {}
    for row in product(range(n), repeat=width):
        for col in product(range(n), repeat=width):
            if all(row[leg - 1] == col[leg - 1] for leg in free):
                v = op._get(flat(row[leg - 1] for leg in legs), flat(col[leg - 1] for leg in legs))
                if v:
                    out.setdefault(flat(row), {})[flat(col)] = v
    return (Operator2 if width == 2 else Operator3)._entries(n, out)


@pytest.mark.parametrize("cls,legs,width", PLACEMENTS)
def test_place_matches_digit_oracle(cls, legs, width):
    for n in (1, 2, 3):
        seed = 800 + 10 * n + len(legs)
        # integer, mixed-denominator, large-denominator and QuadExt operands
        ops = [_random_sparse(cls, n, seed, (1,)), _random_sparse(cls, n, seed + 1, SMALL_DENS),
               _random_sparse(cls, n, seed + 2, LARGE_DENS),
               _random_sparse(cls, n, seed + 3, SMALL_DENS, quad=-1),
               _random_sparse(cls, n, seed + 4, SMALL_DENS, quad=0), cls.identity(n)]
        for a in ops:
            got = place(a, legs, width)
            assert type(got) is (Operator2 if width == 2 else Operator3) and got.dim == n
            assert got == _digit_placement(a, legs, width)
            if a._den is not None:
                _assert_canonical(got)
                assert got._den == a._den
        # QuadExt entries with d = -1 and d = 0 do not mix, so each meets a rational operand
        for i, j in ((0, 1), (1, 2), (3, 1), (0, 4), (4, 5)):
            a, b = ops[i], ops[j]
            assert place(a @ b, legs, width) == place(a, legs, width) @ place(b, legs, width)


def test_place_refuses_bad_legs():
    a, r = Operator1([[1, 2], [3, 4]]), permutation_P(2)
    bad = [
        # a leg count other than the operator's
        (a, (1, 2), 2), (a, (1, 2), 3), (r, (2,), 2), (r, (1,), 3), (r, (1, 2, 3), 3),
        (Operator3.identity(2), (1, 2), 3),
        # a repeated leg
        (r, (1, 1), 2), (r, (3, 3), 3),
        # legs 0 and width + 1
        (a, (0,), 2), (a, (3,), 2), (a, (0,), 3), (a, (4,), 3), (r, (0, 1), 2), (r, (1, 3), 2),
        (r, (0, 2), 3), (r, (2, 4), 3),
        # widths 1 and 4
        (a, (1,), 1), (a, (1,), 4), (r, (1, 2), 4)]
    # the placement tables are cached, so each refusal is asked for twice
    for op, legs, width in bad + bad:
        with pytest.raises(InvalidInputError):
            place(op, legs, width)


def _same_operator(got, want):
    """Equal entries and, on rationals, the same canonical integer rows."""
    assert type(got) is type(want) and got == want
    if want._ints()[0] is not None:
        _assert_canonical(got)
        assert got._ints() == want._ints()


@pytest.mark.parametrize("n", range(2, 7))
def test_tensor_builders_match_their_per_entry_forms(n):
    from reference import (from_dense_per_entry, permutation_P_per_entry,
                           reshuffled_matrix_per_entry)
    rng = random.Random(n)
    grid = [[F(rng.randint(-9, 9), rng.choice((1, 2, 7))) if rng.random() < 0.3 else 0
             for _ in range(n * n)] for _ in range(n * n)]
    grid[0][0] = 3  # an int entry, coerced
    dense = from_dense_per_entry(n, grid)
    _same_operator(Operator2.from_dense(n, grid), dense)
    _same_operator(permutation_P(n), permutation_P_per_entry(n))
    for r in (dense, _random_sparse(Operator2, n, 900 + n, LARGE_DENS),
              _random_sparse(Operator2, n, 950 + n, SMALL_DENS, quad=-1)):
        _same_operator(reshuffled_matrix(r), reshuffled_matrix_per_entry(r))
    # negative controls: one bumped input entry changes each builder's output
    grid[1][2] += F(1, 3)
    assert Operator2.from_dense(n, grid) != dense
    assert permutation_P(n) + Operator2.identity(n) != permutation_P_per_entry(n)
    bumped = dense + Operator2.from_dense(n, [[int(r == 1 and c == n) for c in range(n * n)]
                                               for r in range(n * n)])
    assert reshuffled_matrix(bumped) != reshuffled_matrix_per_entry(dense)


@pytest.mark.parametrize("idx", range(len(SEEDED)))
def test_echelon_takes_integer_rows_as_their_rationals(idx):
    """Rows of ints, zeros included, reduce as the same rows of Qs do."""
    a = SEEDED[idx]
    n = a.dim
    den = lcm(*(v.denominator for row in dense_grid(a) for v in row))
    ints = [[int(v * den) for v in row] for row in dense_grid(a)]
    as_ints = [dict(enumerate(row)) for row in ints]
    as_q = [{c: Q(x) for c, x in row.items()} for row in as_ints]
    assert all(type(x) is int for row in as_ints for x in row.values())
    # each insert's lead and value (det multiplies them), rank, pivots and rref agree
    e_int, e_q = Echelon(), Echelon()
    for ri, rq in zip(as_ints, as_q):
        assert e_int._insert(ri) == e_q._insert(rq)
    assert e_int.rank == e_q.rank == a.rank()
    assert e_int.pivots == e_q.pivots
    assert e_int.rref() == e_q.rref()
    # inverse reads the rref of [A | I]
    assert (Echelon({**row, n + r: 1} for r, row in enumerate(as_ints)).rref()
            == Echelon({**row, n + r: Q(1)} for r, row in enumerate(as_q)).rref())
    # det and inverse of the operator stored as these integer rows
    b = Operator1._of(n, 1, {r: {c: x for c, x in enumerate(row) if x}
                             for r, row in enumerate(ints) if any(row)})
    assert b.det() == a.det() * den ** n
    if b.det():
        _same_operator(b.inverse(), a.inverse().scale(Q(1, den)))


def test_constructors_drop_handed_over_zeros():
    """A zero entry or an empty row handed to a constructor is not stored, so the
    operator equals and hashes as the one built without it."""
    for got, want in ((Operator2(2, {0: {0: Q(0), 3: F(1, 2)}, 1: {}}),
                       Operator2(2, {0: {3: F(1, 2)}})),
                      (Operator2(2, {2: {1: 0}}), Operator2.zero(2)),
                      (Operator1([[0, 0], [0, F(0)]]), Operator1.zero(2)),
                      (Operator3(2, {0: {0: QuadExt(0, 0, -1)}}), Operator3.zero(2))):
        assert got == want and hash(got) == hash(want)
        assert got.data == want.data and all(got.data.values())
