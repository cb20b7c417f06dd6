import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yibre.kernel import (DRAW_POOL, DRAW_POOL_NONZERO, WHOLE_VECTOR_DRAWS,
                          InvalidInputError, QuadExt, RationalDraw, elem_syms_omitting,
                          format_rat, products_omitting, rat, ratvec, theta)
from yibre.rational import Q
from yibre.tensor import Operator1

from reference import elem_sym, elem_sym_omit

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=6)


def test_elem_sym_values():
    assert elem_sym(ratvec([1, 2, 3]), 2) == 11
    assert elem_sym(ratvec([5, 7]), 0) == 1
    assert elem_sym(ratvec([1, 2]), 3) == 0
    assert elem_sym(ratvec([F(1, 2), F(1, 3)]), 2) == F(1, 6)


def test_elem_sym_omit():
    assert elem_sym_omit(ratvec([1, 2, 3]), 1, 2) == 4
    assert elem_sym_omit(ratvec([1, 2]), 1, 1) == 2
    assert elem_sym_omit(ratvec([4, 5, 6]), 0, 3) == 1
    with pytest.raises(Exception):
        elem_sym_omit(ratvec([1, 2]), 1, 3)


@given(st.lists(rationals, min_size=1, max_size=6), st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_omit_sum_identity(values, c):
    # sum_i e_c^ihat = (n - c) e_c
    v = ratvec(values)
    n = len(v)
    total = sum(elem_sym_omit(v, c, i) for i in range(1, n + 1))
    assert total == (n - c) * elem_sym(v, c)


@given(st.lists(rationals, min_size=1, max_size=6), st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_omit_recursion(values, r):
    # e_r = e_r^ihat + phi_i e_{r-1}^ihat
    v = ratvec(values)
    for i in range(1, len(v) + 1):
        assert elem_sym(v, r) == elem_sym_omit(v, r, i) + v[i - 1] * elem_sym_omit(v, r - 1, i)


@given(st.lists(rationals, max_size=6))
@settings(derandomize=True, max_examples=60, deadline=None)
def test_omitting_table_matches_elem_sym_omit(values):
    # row j of the table is e_0..e_{n-1} of the values without entry j, repeats allowed
    v = ratvec(values)
    table = elem_syms_omitting(v)
    assert len(table) == len(v)
    for j, row in enumerate(table, 1):
        assert row == [elem_sym_omit(v, k, j) for k in range(len(v))]


def test_rational_serialization():
    assert format_rat(F(3, 4)) == "3/4"
    assert format_rat(F(5)) == "5"
    assert format_rat(F(-7, 2)) == "-7/2"
    assert rat("3/4") == F(3, 4)
    assert rat("-5") == F(-5)
    assert rat(2, 6) == F(1, 3)


def test_format_rat_prints_every_rational_type_alike():
    # a Q prints as it is, with no Q(Q) round trip; a Fraction or an int as its Q does
    for num, den in ((3, 4), (-7, 2), (5, 1), (-5, 1), (0, 1), (-1, 10 ** 12 + 39)):
        want = f"{num}" if den == 1 else f"{num}/{den}"
        assert format_rat(Q(num, den)) == format_rat(F(num, den)) == want
        if den == 1:
            assert format_rat(num) == want
    assert type(format_rat(Q(1, 3))) is str


def test_theta():
    assert theta(3, 2) == 1
    assert theta(2, 2) == 0
    assert theta(1, 2) == 0


def test_rational_draw_determinism():
    a = RationalDraw(7)
    b = RationalDraw(7)
    xs = [a.rational() for _ in range(20)] + list(a.vector(4, distinct=True))
    ys = [b.rational() for _ in range(20)] + list(b.vector(4, distinct=True))
    assert xs == ys
    assert all(x != 0 for x in xs[:20])
    assert all(-12 <= x.numerator <= 12 and 1 <= x.denominator <= 8 for x in xs[:20])
    assert a.history == b.history


def test_rational_draw_frozen_values():
    assert RationalDraw(0).vector(5) == (F(3, 2), F(4, 3), F(-1), F(6), F(7, 5))
    assert RationalDraw(3).vector(4, nonzero=True) == (F(-5, 3), F(-1, 8), F(4), F(7))


def test_draw_pool_sizes():
    pool = {F(p, q) for p in range(-12, 13) for q in range(1, 9)}
    assert len(pool) == DRAW_POOL
    assert len(pool - {0}) == DRAW_POOL_NONZERO


@pytest.mark.parametrize("n,nonzero", [
    (DRAW_POOL + 1, False), (DRAW_POOL_NONZERO + 1, True), (140, False), (10 ** 9, True),
])
def test_distinct_vector_beyond_pool_raises_at_once(n, nonzero):
    rd = RationalDraw(0)
    with pytest.raises(InvalidInputError):
        rd.vector(n, distinct=True, nonzero=nonzero)
    assert rd.history == []


def test_vector_length_checks():
    rd = RationalDraw(0)
    with pytest.raises(InvalidInputError):
        rd.vector(-1)
    assert len(rd.vector(140, distinct=False)) == 140
    assert rd.vector(0) == ()


@pytest.mark.parametrize("nonzero", [False, True])
@pytest.mark.parametrize("n", range(2, 13))
def test_short_distinct_vectors_are_plain_rejection_draws(n, nonzero):
    for seed in range(20):
        ref = RationalDraw(seed)
        while True:
            v = tuple(ref.rational(nonzero=nonzero) for _ in range(n))
            if len(set(v)) == n:
                break
        rd = RationalDraw(seed)
        assert rd.vector(n, nonzero=nonzero) == v
        assert rd.history == ref.history


@pytest.mark.parametrize("n,nonzero", [(35, False), (50, False), (126, True), (127, False)])
def test_long_distinct_vectors_return_quickly(n, nonzero):
    rd = RationalDraw(0)
    start = time.perf_counter()
    v = rd.vector(n, distinct=True, nonzero=nonzero)
    assert time.perf_counter() - start < 1.0
    assert len(v) == len(set(v)) == n
    assert all(-12 <= x.numerator <= 12 and 1 <= x.denominator <= 8 for x in v)
    assert not nonzero or 0 not in v
    assert v == RationalDraw(0).vector(n, distinct=True, nonzero=nonzero)
    # 100 whole vectors, then one re-draw per repeat until the pool is hit
    assert WHOLE_VECTOR_DRAWS * n < len(rd.history) < (WHOLE_VECTOR_DRAWS + 20) * n
    assert v[0] == rd.history[(WHOLE_VECTOR_DRAWS - 1) * n]


def test_quadext_gaussian_rationals():
    i = QuadExt(0, 1, d=-1)
    assert i * i == -1
    assert (1 + i) / (1 - i) == i
    assert QuadExt(F(3, 2), 0, d=-1) == F(3, 2)
    assert hash(QuadExt(F(3, 2), 0, d=-1)) == hash(F(3, 2))
    assert rat(i) is i
    with pytest.raises(InvalidInputError):
        i + QuadExt(0, 1, d=0)
    with pytest.raises(ZeroDivisionError):
        i / QuadExt(0, 0, d=-1)
    with pytest.raises(ZeroDivisionError):
        1 / (i - i)


def test_quadext_entries_flow_through_operators():
    i = QuadExt(0, 1, d=-1)
    d = Operator1.diag([1, i])
    assert d.inverse() == Operator1.diag([1, -i])
    assert d.det() == i
    assert (d @ d) == Operator1.diag([1, -1])


def test_products_omitting_allows_zero_factors():
    assert products_omitting([]) == []
    assert products_omitting([F(5)]) == [1]
    assert products_omitting([F(2), F(3), F(5)]) == [15, 10, 6]
    assert products_omitting([F(2), F(0), F(5)]) == [0, 10, 0]
    assert products_omitting([F(0), F(1, 2), F(0)]) == [0, 0, 0]
