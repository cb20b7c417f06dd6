"""Exact rational scalars, elementary symmetric functions and Lagrange/Vandermonde inversion.

Everything in this package computes over ``fractions.Fraction``, or over the
exact quadratic extensions :class:`QuadExt` where a check needs sqrt(-1) or a
first-order epsilon; there is no floating point anywhere.  Identities are
certified by evaluation at seeded random rational points, so all draws happen
through :class:`RationalDraw`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, Sequence

Rat = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class DegenerateParametersError(ValueError):
    """A parameter vector violates a pairwise-distinctness (or nonzero) requirement."""


class NotSkewInvertibleError(ValueError):
    """The defining linear system of the skew inverse is singular."""


class InvalidInputError(ValueError):
    """An operation precondition does not hold."""


def rat(value, den=None) -> Fraction:
    """Coerce ints, 'p/q' strings or Fractions to an exact rational.

    A :class:`QuadExt` passes through unchanged, so it can be an operator entry.
    """
    if den is not None:
        return Fraction(value, den)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, QuadExt):
        return value
    if isinstance(value, str):
        return Fraction(value.strip())
    raise InvalidInputError(f"cannot interpret {value!r} as a rational")


def format_rat(x: Fraction) -> str:
    """Serialize as 'p/q', or 'p' when the denominator is one."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class QuadExt:
    """a + b*sqrt(d) over exact rationals, for a fixed integer d.

    d = -1 gives the Gaussian rationals and d = 0 the dual numbers
    (eps^2 = 0).  Rationals mix in as b = 0; mixing two values of d raises.
    Division needs a nonzero norm a^2 - d*b^2, else ZeroDivisionError.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d: int):
        self.a = rat(a)
        self.b = rat(b)
        self.d = d

    def _lift(self, o) -> "QuadExt":
        if isinstance(o, QuadExt):
            if o.d != self.d:
                raise InvalidInputError(f"cannot mix sqrt({self.d}) with sqrt({o.d})")
            return o
        return QuadExt(o, ZERO, self.d)

    def __add__(self, o):
        o = self._lift(o)
        return QuadExt(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __sub__(self, o):
        o = self._lift(o)
        return QuadExt(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, o):
        return self._lift(o) - self

    def __mul__(self, o):
        o = self._lift(o)
        return QuadExt(self.a * o.a + self.d * self.b * o.b,
                       self.a * o.b + self.b * o.a, self.d)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = self._lift(o)
        norm = o.a * o.a - o.d * o.b * o.b
        if not norm:
            raise ZeroDivisionError(f"{o!r} has zero norm")
        return self * QuadExt(o.a / norm, -o.b / norm, o.d)

    def __rtruediv__(self, o):
        return self._lift(o) / self

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.d)

    def __eq__(self, o):
        if not isinstance(o, (QuadExt, int, Fraction)):
            return NotImplemented
        o = self._lift(o)
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash(self.a) if not self.b else hash((self.a, self.b, self.d))

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __repr__(self):
        return f"QuadExt({self.a}, {self.b}, d={self.d})"


def ratvec(values: Iterable) -> tuple[Fraction, ...]:
    return tuple(rat(v) for v in values)


def require_distinct(values: Sequence[Fraction], what: str = "parameters") -> None:
    if len(set(values)) != len(values):
        raise DegenerateParametersError(f"{what} must be pairwise distinct: {values}")


def theta(i: int, j: int) -> int:
    """Step function: 1 when i > j, else 0."""
    return 1 if i > j else 0


def elem_sym(values: Sequence[Fraction], k: int) -> Fraction:
    """Elementary symmetric polynomial e_k of the given values (e_0 = 1)."""
    if k < 0:
        return ZERO
    n = len(values)
    if k > n:
        return ZERO
    # coeffs[j] = e_j of the prefix processed so far
    coeffs = [ONE] + [ZERO] * k
    for v in values:
        for j in range(k, 0, -1):
            coeffs[j] += v * coeffs[j - 1]
    return coeffs[k]


def elem_sym_omit(values: Sequence[Fraction], k: int, omit: int) -> Fraction:
    """e_k of the vector with 1-based entry ``omit`` removed."""
    n = len(values)
    if not 1 <= omit <= n:
        raise InvalidInputError(f"omit index {omit} out of range 1..{n}")
    reduced = tuple(values[:omit - 1]) + tuple(values[omit:])
    return elem_sym(reduced, k)


def elem_sym_omit2(values: Sequence[Fraction], k: int, omit_a: int, omit_b: int) -> Fraction:
    """e_k with two distinct 1-based entries removed."""
    if omit_a == omit_b:
        raise InvalidInputError("omit indices must differ")
    a, b = sorted((omit_a, omit_b))
    reduced = tuple(values[:a - 1]) + tuple(values[a:b - 1]) + tuple(values[b:])
    return elem_sym(reduced, k)


def vandermonde_matrix(values: Sequence[Fraction]):
    """V^j_k = phi_k^(n-j) as an Operator1."""
    from .tensor import Operator1

    n = len(values)
    return Operator1([[values[k] ** (n - j - 1) for k in range(n)] for j in range(n)])


def vandermonde_inverse(values: Sequence[Fraction]):
    """Exact inverse of the Vandermonde matrix via the Lagrange formula.

    (V^-1)^k_j = (-1)^(j-1) e_(j-1)^khat / prod_(l!=k) (phi_k - phi_l).
    """
    from .tensor import Operator1

    values = ratvec(values)
    require_distinct(values)
    n = len(values)
    rows = []
    for k in range(1, n + 1):
        denom = ONE
        for l in range(1, n + 1):
            if l != k:
                denom *= values[k - 1] - values[l - 1]
        rows.append([(-ONE) ** (j - 1) * elem_sym_omit(values, j - 1, k) / denom
                     for j in range(1, n + 1)])
    return Operator1(rows)


class RationalDraw:
    """Seeded source of small random rationals for identity testing.

    Numerators are uniform in [-12, 12] without 0, denominators in [1, 8];
    vectors are re-drawn until they satisfy distinctness/nonzero demands.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = random.Random(seed)
        self.history: list[Fraction] = []

    def rational(self, nonzero: bool = True) -> Fraction:
        num = 0
        while num == 0:
            num = self._rng.randint(-12, 12)
            if not nonzero:
                break
        x = Fraction(num, self._rng.randint(1, 8))
        self.history.append(x)
        return x

    def vector(self, n: int, distinct: bool = True, nonzero: bool = False) -> tuple[Fraction, ...]:
        while True:
            v = tuple(self.rational(nonzero=nonzero) for _ in range(n))
            if not distinct or len(set(v)) == n:
                return v

    def int_in(self, lo: int, hi: int) -> int:
        return self._rng.randint(lo, hi)

    def choice(self, seq):
        return self._rng.choice(seq)
