"""``Q``: the exact rational every yibre scalar is made of.

``Q`` is a ``fractions.Fraction`` whose ``+ - * /``, their reflected forms,
``-``, ``abs``, ``+``, integer ``**`` and ``==`` run the stdlib's own
normalising steps (Knuth's gcd shortcuts, TAOCP Vol. 2, 4.5.1) straight on
the two slots, without ``Fraction``'s operator dispatch and checked
constructor.  Every result is a ``Q`` with the numerator and denominator
``Fraction`` would give, so a ``Q`` equals, hashes, orders and prints like the
``Fraction`` of the same value, and ``isinstance(q, Fraction)`` holds.  An
operand that is neither an int nor a ``Fraction`` (a float, a bool, a
``QuadExt``) goes to ``Fraction``'s own method, which behaves as it always has.

``fractions.Fraction`` itself is left untouched: a patch would be a side
effect on every other user of it in the process.  ``Q`` lives in a module of
its own, outside the package's traced layers, so its time counts as its
callers' own, as stdlib ``Fraction`` time does.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

_new = object.__new__


def _q(n: int, d: int) -> "Q":
    """The Q n/d, for d > 0 and gcd(n, d) == 1; nothing is checked."""
    q = _new(Q)
    q._numerator = n
    q._denominator = d
    return q


def _sum(na: int, da: int, nb: int, db: int) -> "Q":
    """na/da + nb/db over lowest terms, as ``Fraction._add``."""
    g = gcd(da, db)
    if g == 1:
        return _q(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _q(t, s * db)
    return _q(t // g2, s * (db // g2))


def _product(na: int, da: int, nb: int, db: int) -> "Q":
    """(na/da) * (nb/db) over lowest terms, as ``Fraction._mul``."""
    g1 = gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return _q(na * nb, db * da)


def _quotient(na: int, da: int, nb: int, db: int) -> "Q":
    """(na/da) / (nb/db) over lowest terms, as ``Fraction._div``."""
    g1 = gcd(na, nb)
    if g1 > 1:
        na //= g1
        nb //= g1
    g2 = gcd(db, da)
    if g2 > 1:
        da //= g2
        db //= g2
    n, d = na * db, nb * da
    if d < 0:
        n, d = -n, -d
    elif d == 0:
        raise ZeroDivisionError(f"Fraction({n}, 0)")
    return _q(n, d)


class Q(Fraction):
    """An exact rational: a ``Fraction`` with its arithmetic inlined; see the module doc."""

    __slots__ = ()

    # the slots themselves, read without a Python-level property call
    numerator = Fraction._numerator
    denominator = Fraction._denominator

    # each operator tests ``type(b) is Q`` before ``isinstance(b, Fraction)``:
    # isinstance of a subclass goes through ABCMeta.__instancecheck__, which
    # costs about as much as the arithmetic

    def __new__(cls, numerator=0, denominator=None):
        if type(numerator) is int:
            if denominator is None:
                return _q(numerator, 1)
            if type(denominator) is int:
                if denominator == 0:
                    raise ZeroDivisionError(f"Fraction({numerator}, 0)")
                g = gcd(numerator, denominator)
                if denominator < 0:
                    g = -g
                return _q(numerator // g, denominator // g)
        return Fraction.__new__(cls, numerator, denominator)

    def __add__(a, b):
        if type(b) is int:
            return _q(a._numerator + b * a._denominator, a._denominator)
        if type(b) is Q or isinstance(b, Fraction):
            return _sum(a._numerator, a._denominator, b._numerator, b._denominator)
        return Fraction.__add__(a, b)

    def __radd__(b, a):
        if type(a) is int:
            return _q(a * b._denominator + b._numerator, b._denominator)
        if type(a) is Q or isinstance(a, Fraction):
            return _sum(a._numerator, a._denominator, b._numerator, b._denominator)
        return Fraction.__radd__(b, a)

    def __sub__(a, b):
        if type(b) is int:
            return _q(a._numerator - b * a._denominator, a._denominator)
        if type(b) is Q or isinstance(b, Fraction):
            return _sum(a._numerator, a._denominator, -b._numerator, b._denominator)
        return Fraction.__sub__(a, b)

    def __rsub__(b, a):
        if type(a) is int:
            return _q(a * b._denominator - b._numerator, b._denominator)
        if type(a) is Q or isinstance(a, Fraction):
            return _sum(a._numerator, a._denominator, -b._numerator, b._denominator)
        return Fraction.__rsub__(b, a)

    def __mul__(a, b):
        if type(b) is int:
            g = gcd(b, a._denominator)
            return _q(a._numerator * (b // g), a._denominator // g)
        if type(b) is Q or isinstance(b, Fraction):
            return _product(a._numerator, a._denominator, b._numerator, b._denominator)
        return Fraction.__mul__(a, b)

    def __rmul__(b, a):
        if type(a) is int:
            g = gcd(a, b._denominator)
            return _q(b._numerator * (a // g), b._denominator // g)
        if type(a) is Q or isinstance(a, Fraction):
            return _product(a._numerator, a._denominator, b._numerator, b._denominator)
        return Fraction.__rmul__(b, a)

    def __truediv__(a, b):
        if type(b) is int:
            return _quotient(a._numerator, a._denominator, b, 1)
        if type(b) is Q or isinstance(b, Fraction):
            return _quotient(a._numerator, a._denominator, b._numerator, b._denominator)
        return Fraction.__truediv__(a, b)

    def __rtruediv__(b, a):
        if type(a) is int:
            return _quotient(a, 1, b._numerator, b._denominator)
        if type(a) is Q or isinstance(a, Fraction):
            return _quotient(a._numerator, a._denominator, b._numerator, b._denominator)
        return Fraction.__rtruediv__(b, a)

    def __pow__(a, b):
        if type(b) is not int:
            return Fraction.__pow__(a, b)
        n, d = a._numerator, a._denominator
        if b >= 0:
            return _q(n ** b, d ** b)
        if n > 0:
            return _q(d ** -b, n ** -b)
        if n < 0:
            return _q((-d) ** -b, (-n) ** -b)
        raise ZeroDivisionError(f"Fraction({d ** -b}, 0)")

    def __pos__(a):
        return a

    def __neg__(a):
        return _q(-a._numerator, a._denominator)

    def __abs__(a):
        return a if a._numerator >= 0 else _q(-a._numerator, a._denominator)

    def __eq__(a, b):
        if type(b) is int:
            return a._numerator == b and a._denominator == 1
        if type(b) is Q or isinstance(b, Fraction):
            return a._numerator == b._numerator and a._denominator == b._denominator
        return Fraction.__eq__(a, b)

    # defining __eq__ would otherwise set __hash__ to None
    __hash__ = Fraction.__hash__
