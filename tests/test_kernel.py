from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yibre.kernel import (DegenerateParametersError, InvalidInputError, QuadExt,
                          RationalDraw, elem_sym,
                          elem_sym_omit, elem_sym_omit2, format_rat, rat,
                          ratvec, theta, vandermonde_inverse, vandermonde_matrix)
from yibre.tensor import Operator1

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


def test_double_omit():
    v = ratvec([1, 2, 3, 4])
    assert elem_sym_omit2(v, 1, 1, 3) == 6
    with pytest.raises(Exception):
        elem_sym_omit2(v, 1, 2, 2)


def test_vandermonde_frozen():
    vi = vandermonde_inverse(ratvec([1, 2]))
    assert vi.rows == [[-1, 2], [1, -1]]
    assert vandermonde_inverse(ratvec([5])).rows == [[1]]


@pytest.mark.parametrize("values", [[1, 2], [1, 2, 3], [0, 1, -1, F(1, 2)],
                                    [F(2, 3), 5, -7, F(1, 4), 9]])
def test_vandermonde_inverse_both_orders(values):
    v = ratvec(values)
    vm = vandermonde_matrix(v)
    vi = vandermonde_inverse(v)
    ident = Operator1.identity(len(v))
    assert (vm @ vi) == ident
    assert (vi @ vm) == ident


def test_vandermonde_degenerate():
    with pytest.raises(DegenerateParametersError):
        vandermonde_inverse(ratvec([1, 1, 2]))


def test_rational_serialization():
    assert format_rat(F(3, 4)) == "3/4"
    assert format_rat(F(5)) == "5"
    assert format_rat(F(-7, 2)) == "-7/2"
    assert rat("3/4") == F(3, 4)
    assert rat("-5") == F(-5)
    assert rat(2, 6) == F(1, 3)


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
