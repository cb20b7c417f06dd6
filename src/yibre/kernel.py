"""Exact rational scalars, elementary symmetric functions and seeded rational draws.

Everything in this package computes over exact rationals, the
``fractions.Fraction`` subclass :class:`~yibre.rational.Q` that ``rat`` makes,
or over the exact quadratic extensions :class:`QuadExt` where a check needs
sqrt(-1) or a first-order epsilon; there is no floating point anywhere.
Identities are certified by evaluation at seeded random rational points, so
all draws happen through :class:`RationalDraw`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt, lcm
from typing import Callable, Iterable, Sequence

from .rational import Q

ZERO = Q(0)
ONE = Q(1)


class DegenerateParametersError(ValueError):
    """A parameter vector violates a pairwise-distinctness (or nonzero) requirement."""


class NotSkewInvertibleError(ValueError):
    """The defining linear system of the skew inverse is singular."""


class InvalidInputError(ValueError):
    """An operation precondition does not hold."""


def rat(value, den=None) -> Fraction:
    """Coerce ints, 'p/q' strings or Fractions to a :class:`Q`.

    A :class:`QuadExt` passes through unchanged, so it can be an operator entry.
    """
    if den is not None:
        return Q(value, den)
    if type(value) is Q:
        return value
    if isinstance(value, (int, Fraction)):
        return Q(value)
    if isinstance(value, QuadExt):
        return value
    if isinstance(value, str):
        return Q(value.strip())
    raise InvalidInputError(f"cannot interpret {value!r} as a rational")


def format_rat(x: Fraction) -> str:
    """Serialize as 'p/q', or 'p' when the denominator is one; a ``Q`` prints as it is."""
    return str(x) if type(x) is Q else str(Q(x))


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


class Deferred:
    """A residual decided before it is formed: ``zero`` True says a decision proved it
    exactly zero, and ``form()`` builds the whole residual-like value, zero or not, on
    every call.  ``zero`` False proves nothing, so a reader forms it and looks."""

    __slots__ = ("zero", "form")

    def __init__(self, zero: bool, form: Callable[[], object]):
        self.zero, self.form = zero, form

    def __add__(self, other: "Deferred") -> "Deferred":
        """The concatenation of two deferred lists."""
        return Deferred(self.zero and other.zero, lambda: self.form() + other.form())


def perfect_square_root(x: Fraction) -> Fraction | None:
    """The rational square root of x, or None when x is not a rational square."""
    if x < 0:
        return None
    rn, rd = isqrt(x.numerator), isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Q(rn, rd)
    return None


def sparse_minus(p: dict, q: dict) -> dict:
    """Entrywise p - q of two sparse coefficient dicts (a missing key is zero)."""
    return {k: p.get(k, ZERO) - q.get(k, ZERO) for k in p.keys() | q.keys()}


def cleared(values: Iterable[Fraction]) -> tuple[int, list[int]]:
    """(L, ints): L the lcm of the values' denominators and each value times L.

    A value with no denominator (a QuadExt) raises AttributeError.
    """
    values = list(values)
    den = lcm(*{v.denominator for v in values})
    return den, [v.numerator * (den // v.denominator) for v in values]


def ratvec(values: Iterable) -> tuple[Fraction, ...]:
    return tuple(rat(v) for v in values)


def require_distinct(values: Sequence[Fraction], what: str = "parameters") -> None:
    if len(set(values)) != len(values):
        raise DegenerateParametersError(
            f"{what} must be pairwise distinct: {', '.join(map(format_rat, values))}")


def theta(i: int, j: int) -> int:
    """Step function: 1 when i > j, else 0."""
    return 1 if i > j else 0


def elem_syms(values: Sequence[Fraction]) -> list[Fraction]:
    """All elementary symmetric polynomials [e_0, ..., e_n] of the values, in one pass."""
    coeffs = [ONE] + [ZERO] * len(values)
    for m, v in enumerate(values, 1):
        for j in range(m, 0, -1):
            coeffs[j] += v * coeffs[j - 1]
    return coeffs


def elem_syms_omitting(values: Sequence[Fraction]) -> list[list[Fraction]]:
    """Row j (0-based) holds [e_0, ..., e_{n-1}] of the values with entry j left out.

    Each row comes from e_k = e_k^jhat + v_j e_{k-1}^jhat, solved upward from
    e_0^jhat = 1, so the whole table costs O(n^2) after one ``elem_syms``.
    """
    e = elem_syms(values)
    table = []
    for v in values:
        row = [ONE]
        for k in range(1, len(values)):
            row.append(e[k] - v * row[-1])
        table.append(row)
    return table


def products_omitting(factors: Sequence) -> list:
    """Entry k is the product of every factor but ``factors[k]``.

    Each is a prefix product over l < k times a suffix product over l > k:
    O(n) multiplications and no division, so zero factors are allowed.
    """
    n = len(factors)
    if n < 2:
        return [ONE] * n
    out = [factors[0]] * n              # out[k] = prod_{l < k} factors[l] for k >= 1
    for k in range(2, n):
        out[k] = out[k - 1] * factors[k - 1]
    suffix = factors[n - 1]             # prod_{l > k} factors[l] for k < n - 1
    for k in range(n - 2, 0, -1):
        out[k] *= suffix
        suffix *= factors[k]
    out[0] = suffix
    return out


# Distinct values RationalDraw.rational can return: p/q with |p| <= 12, 1 <= q <= 8.
DRAW_POOL = 127
DRAW_POOL_NONZERO = 126
# Whole-vector re-draws before RationalDraw.vector re-draws only the repeated
# entries.  Plain rejection stalls on long vectors (acceptance about 2e-2 at
# n = 25, under 1e-4 at n = 35), while for n <= 15 100 rejections in a row
# have probability below 1e-12, so short vectors keep their plain draws.
WHOLE_VECTOR_DRAWS = 100


class RationalDraw:
    """Seeded source of small random rationals for identity testing.

    Numerators are uniform in [-12, 12] without 0, denominators in [1, 8];
    vectors are re-drawn until they satisfy distinctness/nonzero demands, and
    after WHOLE_VECTOR_DRAWS rejections only their repeated entries are.
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
        x = Q(num, self._rng.randint(1, 8))
        self.history.append(x)
        return x

    def vector(self, n: int, distinct: bool = True, nonzero: bool = False) -> tuple[Fraction, ...]:
        pool = DRAW_POOL_NONZERO if nonzero else DRAW_POOL
        if n < 0:
            raise InvalidInputError(f"vector length {n} is negative")
        if distinct and n > pool:
            raise InvalidInputError(f"cannot draw {n} distinct values from a pool of {pool}")
        for _ in range(WHOLE_VECTOR_DRAWS):
            v = tuple(self.rational(nonzero=nonzero) for _ in range(n))
            if not distinct or len(set(v)) == n:
                return v
        # keep the first occurrence of each value and re-draw the repeats in order
        out: dict[Fraction, None] = {}
        for x in v:
            while x in out:
                x = self.rational(nonzero=nonzero)
            out[x] = None
        return tuple(out)

    def int_in(self, lo: int, hi: int) -> int:
        return self._rng.randint(lo, hi)
