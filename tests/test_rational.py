import fractions
import math
import operator
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import yibre
from yibre.kernel import QuadExt, rat
from yibre.rational import Q

SETTINGS = settings(derandomize=True, max_examples=300, deadline=None, database=None)

ints = st.one_of(st.integers(-12, 12), st.integers())
fracs = st.builds(F, ints, ints.filter(bool))
qs = fracs.map(Q)
# every kind of operand a Q meets: rationals (Q, Fraction, int) and the fallbacks
rational_operands = st.one_of(qs, fracs, ints)
operands = st.one_of(rational_operands, st.booleans(), st.floats(allow_nan=False),
                     st.builds(QuadExt, fracs, fracs, st.sampled_from([-1, 0])))

BINARY = [operator.add, operator.sub, operator.mul, operator.truediv]
COMPARE = [operator.eq, operator.ne, operator.lt]


def outcome(fn, *args):
    """fn(*args), or the type of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


def assert_same_rational(got, want):
    """got is a Q with want's numerator and denominator, in lowest terms."""
    assert type(got) is Q, (got, want)
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert math.gcd(got.numerator, got.denominator) == 1 and got.denominator > 0


def assert_same(got, want, rational: bool):
    if isinstance(want, type):  # both raised
        assert got is want
    elif rational:
        assert_same_rational(got, want)
    elif isinstance(want, float) and math.isnan(want):
        assert isinstance(got, float) and math.isnan(got)
    else:
        assert type(got) is type(want) and got == want


@given(qs, operands, st.sampled_from(BINARY))
@SETTINGS
def test_binary_operators_match_fraction(q, other, op):
    rational = isinstance(other, (int, F)) and type(other) is not bool
    for got, want in ((outcome(op, q, other), outcome(op, F(q), other)),
                      (outcome(op, other, q), outcome(op, other, F(q)))):
        assert_same(got, want, rational and not isinstance(want, type))


@given(qs, operands, st.sampled_from(COMPARE))
@SETTINGS
def test_comparisons_match_fraction(q, other, op):
    assert outcome(op, q, other) == outcome(op, F(q), other)
    assert outcome(op, other, q) == outcome(op, other, F(q))


@given(qs, st.integers(-6, 6))
@SETTINGS
def test_integer_powers_match_fraction(q, k):
    want = outcome(operator.pow, F(q), k)
    assert_same(outcome(operator.pow, q, k), want, not isinstance(want, type))


@given(qs)
@SETTINGS
def test_unary_operators_hash_and_truth_match_fraction(q):
    f = F(q)
    for op in (operator.neg, operator.pos, abs):
        assert_same_rational(op(q), op(f))
    assert hash(q) == hash(f) and bool(q) == bool(f)
    assert str(q) == str(f) and q == f and {q: 1}[f] == 1
    if q.denominator == 1:
        assert hash(q) == hash(q.numerator)


@given(ints, ints)
@SETTINGS
def test_constructor_normalises_like_fraction(n, d):
    want = outcome(F, n, d)
    assert_same(outcome(Q, n, d), want, not isinstance(want, type))
    assert_same_rational(Q(n), F(n))


def test_division_by_zero_and_other_constructions():
    for zero in (0, Q(0), F(0)):
        with pytest.raises(ZeroDivisionError):
            Q(3, 2) / zero
    with pytest.raises(ZeroDivisionError):
        1 / Q(0)
    with pytest.raises(ZeroDivisionError):
        Q(0) ** -1
    with pytest.raises(ZeroDivisionError):
        Q(1, 0)
    for args in (("-3/4",), (0.5,), (F(6, 8),), (Q(6, 8),), (F(1, 2), F(3, 4))):
        assert_same_rational(Q(*args), F(*args))


def test_q_stays_a_slotted_fraction_and_the_stdlib_is_untouched():
    # rat lifts a caller's Fraction, and a Q weighs what a Fraction weighs
    assert type(rat(F(1, 2))) is Q and isinstance(Q(1, 2), F)
    assert not hasattr(Q(1, 2), "__dict__")
    assert sys.getsizeof(Q(1, 2)) == sys.getsizeof(F(1, 2))
    # importing the package replaces, adds or removes nothing on fractions.Fraction
    script = ("import fractions; before = dict(vars(fractions.Fraction)); import yibre.cli; "
              "assert dict(vars(fractions.Fraction)) == before")
    src = os.path.dirname(os.path.dirname(yibre.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", script], check=True, env=env, timeout=60)
    # and nothing run in this process has patched it since
    for name in ("__new__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__pow__", "__neg__", "__pos__", "__abs__",
                 "__eq__", "__hash__", "__lt__", "__bool__"):
        fn = getattr(fractions.Fraction, name)
        assert fn.__code__.co_filename == fractions.__file__, name
