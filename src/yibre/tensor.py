"""Operators on V, V(x)V and V(x)V(x)V, plus the Yang-Baxter-type residual functionals.

Conventions, fixed once for the whole package:

* an operator A on V acts as (Av)^i = A^i_j v^j, so A^i_j is the (row i, col j)
  entry of an ordinary matrix;
* the matrix unit e^i_j sends the basis vector e_i to e_j, i.e. as a matrix it
  has a single 1 in row j, column i;
* a two-leg operator R has entries R^{ij}_{kl} with the upper pair (ij) as the
  row index and the lower pair (kl) as the column, composed by
  (RS)^{ij}_{kl} = R^{ij}_{ab} S^{ab}_{kl};
* pairs are flattened row-major, (i,j) -> (i-1)*n + (j-1).

All three operator types are stored sparsely, with nonzero entries only, as
integer rows over one common denominator, and share one implementation of
their arithmetic: most objects in this package have O(n^2) nonzero entries out
of n^4 or n^6 slots.  ``data[row][col]`` reads the entries as Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Sequence

from .kernel import ONE, ZERO, Deferred, InvalidInputError, cleared, rat
from .rational import Q


class Echelon:
    """Incremental sparse row-echelon basis over exact scalars.

    The package's one Gaussian elimination: ``det``, ``inverse`` and ``rank`` of
    the operators, ``row_space`` and the graded ideals of ``qalg`` all run
    through it.  A row is a dict column -> scalar, zero entries ignored.  Each
    incoming row is cleared once to integers over one common denominator (a
    row of ints is taken as it is, over 1), and each pivot is kept as a
    primitive integer row with a positive lead, so elimination runs on Python
    ints.  A row with an entry that has no integer form (a QuadExt) runs the
    same steps on its scalars, and its pivot is kept scaled to a leading 1.
    ``pivots`` reads every pivot scaled to a leading 1.
    """

    __slots__ = ("_pivots", "_view")

    def __init__(self, rows: Iterable[dict] = ()):
        self._pivots: dict[int, dict] = {}
        self._view: dict[int, dict] | None = None
        for row in rows:
            self.insert(row)

    @property
    def pivots(self) -> dict[int, dict]:
        """Lead column -> pivot row scaled to a leading 1; read-only, built on first read."""
        if self._view is None:
            self._view = {lead: ({c: Q(x, p) for c, x in row.items()}
                                 if type(p := row[lead]) is int else dict(row))
                          for lead, row in self._pivots.items()}
        return self._view

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def _reduce(self, row: dict) -> tuple[int | None, dict, int | None]:
        """(den, row, lead): ``row`` cleared and reduced until its lead column carries no pivot."""
        den, row = _clear(row)
        pivots = self._pivots
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                return den, row, lead
            den, row = _eliminate(den, row, piv, lead)
        return den, row, None

    def contains(self, row: dict) -> bool:
        """Whether ``row`` lies in the span, i.e. reduces to nothing; the basis is unchanged."""
        return self._reduce(row)[2] is None

    def insert(self, row: dict) -> int | None:
        """Reduce ``row`` and keep it as a pivot; its lead column, or None if dependent."""
        return self._insert(row)[0]

    def _insert(self, row: dict) -> tuple[int | None, object]:
        """``insert``'s lead and the reduced row's exact value there; (None, 0) if dependent."""
        den, row, lead = self._reduce(row)
        if lead is None:
            return None, ZERO
        value = row[lead]
        self._pivots[lead] = _pivot_form(den, row, lead)
        self._view = None
        return lead, value if den is None else Q(value, den)

    def rref(self) -> list[dict]:
        """Back-reduce the pivots in place; the reduced rows by increasing lead."""
        pivots = self._pivots
        for lead in sorted(pivots, reverse=True):
            row = pivots[lead]
            # pivots with larger leads are already reduced, so each step clears
            # one pivot column and touches no other
            cols = [c for c in row if c != lead and c in pivots]
            if cols:
                den = 1 if type(row[lead]) is int else None
                for c in cols:
                    den, row = _eliminate(den, row, pivots[c], c)
                pivots[lead] = _pivot_form(den, row, lead)
        self._view = None
        return [self.pivots[lead] for lead in sorted(pivots)]

    def _common(self) -> tuple[int | None, dict[int, dict]]:
        """(den, rows): the pivots scaled to a leading 1, as integer rows over one
        common denominator; (None, ``pivots``) when a pivot holds scalars."""
        pivots = self._pivots
        if not all(type(row[lead]) is int for lead, row in pivots.items()):
            return None, self.pivots
        den = lcm(*(row[lead] for lead, row in pivots.items()))
        out = {}
        for lead, row in pivots.items():
            k = den // row[lead]
            out[lead] = {c: x * k for c, x in row.items()}
        return den, out


def _clear(row: dict) -> tuple[int | None, dict]:
    """(den, ints): a row's nonzero entries times den, the lcm of their denominators.

    A row of ints is its own integer form over 1.  Zeros are dropped by their
    integer numerators.  An entry with no integer form (a QuadExt) gives
    (None, the nonzero entries as scalars).
    """
    if all(type(v) is int for v in row.values()):
        return 1, {c: v for c, v in row.items() if v}
    try:
        den, ints = cleared(row.values())
    except AttributeError:
        # an int entry becomes a Q, so no later division is int / int
        return None, {c: Q(v) if type(v) is int else v for c, v in row.items() if v}
    return den, {c: x for c, x in zip(row, ints) if x}


def _eliminate(den: int | None, row: dict, piv: dict, col: int) -> tuple[int | None, dict]:
    """(den, row) with ``row[col]`` cleared by the pivot ``piv`` that leads at ``col``.

    On integers the step is row*d - f*piv, with f = row[col] and d = piv[col]
    divided by their gcd, and one gcd pass keeps gcd(den, *row) == 1.  A row or
    pivot of scalars (den None) runs the same step over the field, where the
    gcd of f and d is d.  ``row`` may be updated in place.
    """
    d = piv[col]
    if den is not None and type(d) is not int:
        row, den = {c: Q(x, den) for c, x in row.items()}, None
    f = row[col]
    if den is None:
        f, d = f / d, 1
    else:
        g = gcd(f, d)
        if g != 1:
            f, d = f // g, d // g
        if d != 1:
            den *= d
            row = {c: x * d for c, x in row.items()}
    for c, x in piv.items():
        v = row.get(c, 0) - f * x
        if v:
            row[c] = v
        elif c in row:
            del row[c]
    if den is not None and den != 1:
        g = gcd(den, *row.values())
        if g != 1:
            den //= g
            row = {c: x // g for c, x in row.items()}
    return den, row


def _pivot_form(den: int | None, row: dict, lead: int) -> dict:
    """A reduced row as kept: primitive with a positive lead, or scalars scaled to a leading 1."""
    p = row[lead]
    if den is None:
        return {c: v / p for c, v in row.items()}
    g = gcd(*row.values())
    if p < 0:
        g = -g
    return row if g == 1 else {c: x // g for c, x in row.items()}


def _cleared_rows(data: dict[int, dict]) -> tuple[int | None, dict[int, dict]]:
    """(den, rows): the entries times den, the lcm of their denominators, as integer rows.

    Zeros, and rows left empty, are dropped by their integer numerators after
    clearing.  An entry with no integer form (a QuadExt) gives (None, the
    nonzero entries as they are).
    """
    try:
        den, ints = cleared(v for row in data.values() for v in row.values())
    except AttributeError:
        return None, {r: nz for r, row in data.items()
                      if (nz := {c: v for c, v in row.items() if v})}
    ints = iter(ints)
    return den, {r: nz for r, row in data.items()
                 if (nz := {c: x for c in row if (x := next(ints))})}


class _SparseSquare:
    """Shared sparse machinery for one-, two- and three-leg operators.

    All arithmetic runs on one common denominator per operator: ``_den`` a
    positive int and ``_rows[row][col]`` each nonzero entry times ``_den`` as an
    int, with gcd(_den, *numerators) == 1, so ``_den`` is the lcm of the
    entries' reduced denominators.  ``data`` is the read-only view of the
    entries as Fractions, built from the rows on first read.  A builder hands
    over its entries whole (``_entries``), which are cleared once, or relabels
    another operator's integer rows (``_of``), and nothing writes an operator
    after that: every result is a new operator.  An entry with no integer form
    (a QuadExt) makes ``_den`` None; ``_rows`` then holds the entries
    themselves.  ``+``, ``-``, ``scale``, ``scalar_shift`` and ``@`` are each
    one ``signed_products`` sum, which refuses operands of another type or dim.
    """

    __slots__ = ("dim", "size", "_data", "_den", "_rows")
    legs = 0

    def __init__(self, dim: int, data: dict[int, dict[int, Fraction]] | None = None):
        """An operator from entries ``{row: {col: scalar}}``, cleared to integer rows at once."""
        self.dim = dim
        self.size = dim ** self.legs
        self._den, self._rows = _cleared_rows(data or {})
        self._data = self._rows if self._den is None else None

    @classmethod
    def zero(cls, dim: int):
        return cls._of(dim, 1, {})

    @classmethod
    def identity(cls, dim: int):
        return cls._of(dim, 1, {r: {r: 1} for r in range(dim ** cls.legs)})

    @classmethod
    def _of(cls, dim: int, den: int | None, rows: dict[int, dict]):
        """An operator from rows over den that store no zero and share a gcd of 1 with it."""
        out = cls.__new__(cls)
        out.dim, out.size = dim, dim ** cls.legs
        out._den, out._rows = den, rows
        out._data = rows if den is None else None
        return out

    @classmethod
    def _entries(cls, dim: int, data: dict[int, dict]):
        """The base constructor's operator from entries ``{row: {col: scalar}}``, for every
        type, ``Operator1`` included, whose own constructor takes dense rows."""
        return cls._of(dim, *_cleared_rows(data))

    @classmethod
    def _reduced(cls, dim: int, den: int | None, rows: dict[int, dict]):
        """``_of`` after dividing den and every numerator by their gcd."""
        if den is not None and den != 1:
            g = den
            for row in rows.values():
                if (g := gcd(g, *row.values())) == 1:
                    break
            if g != 1:
                den //= g
                rows = {r: {c: x // g for c, x in row.items()} for r, row in rows.items()}
        return cls._of(dim, den, rows)

    @property
    def data(self) -> dict[int, dict[int, Fraction]]:
        """The nonzero entries as ``data[row][col]``; read-only, built once from the rows."""
        if self._data is None:
            den = self._den
            self._data = {r: {c: Q(x, den) for c, x in row.items()}
                          for r, row in self._rows.items()}
        return self._data

    def _ints(self) -> tuple[int | None, dict[int, dict]]:
        """(den, rows): the integer rows over den, or (None, the entries) with a QuadExt."""
        return self._den, self._rows

    def _operands(self, other):
        """(la, arows, lb, brows): integer forms, or both operands' entries when either has none."""
        la, arows = self._ints()
        lb, brows = other._ints()
        if la is None or lb is None:
            return None, self.data, None, other.data
        return la, arows, lb, brows

    # -- raw flat-index access ------------------------------------------------
    def _get(self, r: int, c: int) -> Fraction:
        """One entry; read off the integer rows until the Fraction view is built."""
        if self._data is None:
            x = self._rows.get(r, {}).get(c)
            return ZERO if x is None else Q(x, self._den)
        return self._data.get(r, {}).get(c, ZERO)

    # -- algebra: each operation is one signed sum, so its operands are checked there
    def __add__(self, other):
        return signed_products([(1, self), (1, other)])

    def __sub__(self, other):
        return signed_products([(1, self), (-1, other)])

    def __neg__(self):
        return signed_products([(-1, self)])

    def scale(self, k):
        return signed_products([(k, self)])

    def __matmul__(self, other):
        return signed_products([(1, self, other)])

    def __eq__(self, other):
        """Equal entries.  Integer rows are canonical, so two operators on them are equal iff
        their (den, rows) are; an operator with a QuadExt entry compares its entries."""
        if type(self) is not type(other) or self.dim != other.dim:
            return False
        if self._den is None or other._den is None:
            return self.data == other.data
        return self._den == other._den and self._rows == other._rows

    def __hash__(self):
        return hash((type(self).__name__, self.dim,
                     tuple(sorted((r, c, v) for r, row in self.data.items()
                                  for c, v in row.items()))))

    def is_zero(self) -> bool:
        return not self._rows

    def transpose(self):
        den, rows = self._ints()
        out = {}
        for r, row in rows.items():
            for c, x in row.items():
                out.setdefault(c, {})[r] = x
        return self._of(self.dim, den, out)

    def scalar_shift(self, k):
        """self + k * identity."""
        return signed_products([(1, self), (k, self.identity(self.dim))])

    def nonzero_entries(self):
        for r in sorted(self.data):
            for c in sorted(self.data[r]):
                v = self.data[r][c]
                if v:
                    yield r, c, v

    def rank(self) -> int:
        return Echelon(self._ints()[1].values()).rank

    def inverse(self):
        """A^-1 from the RREF of [den*A | I]; singular when a lead lands in I."""
        den, rows = self._ints()
        size = self.size
        ech = Echelon()
        for r in range(size):
            if ech.insert({**rows.get(r, {}), size + r: 1}) >= size:
                raise InvalidInputError("matrix is singular")
        ech.rref()
        # the right block is (den*A)^-1, so A^-1 is den times it
        pden, pivots = ech._common()
        k = 1 if den is None else den
        return self._reduced(self.dim, pden, {r: {c - size: x * k for c, x in row.items()
                                                  if c >= size}
                                              for r, row in pivots.items()})

    def solve(self, rhs: dict) -> dict:
        """x with A x = rhs, both sparse as index -> scalar, from the RREF of [den*A | den*rhs].

        Singular when a row reduces to nothing or its lead lands in the rhs column.
        """
        den, rows = self._ints()
        size = self.size
        k = 1 if den is None else den
        ech = Echelon()
        for r in range(size):
            lead = ech.insert({**rows.get(r, {}), size: rhs.get(r, 0) * k})
            if lead is None or lead >= size:
                raise InvalidInputError("matrix is singular")
        ech.rref()
        # each reduced row is e_lead plus x[lead] in the rhs column
        return {lead: x for lead, row in ech.pivots.items() if (x := row.get(size))}


class Operator1(_SparseSquare):
    """Exact n x n matrix with action (Av)^i = A^i_j v^j, stored as data[i][j] (0-based)."""

    __slots__ = ()
    legs = 1

    def __init__(self, rows: Sequence[Sequence]):
        """Validate dense rows from outside: square, every entry coerced by ``rat``."""
        rows = [[rat(x) for x in row] for row in rows]
        if any(len(row) != len(rows) for row in rows):
            raise InvalidInputError("matrix must be square")
        super().__init__(len(rows), {i: dict(enumerate(row)) for i, row in enumerate(rows)})

    @classmethod
    def unit(cls, n: int, i: int, j: int) -> "Operator1":
        """The matrix unit e^i_j (1-based): e_i |-> e_j."""
        return cls._of(n, 1, {j - 1: {i - 1: 1}})

    @classmethod
    def diag(cls, values: Sequence) -> "Operator1":
        return cls._entries(len(values), {i: {i: rat(x)} for i, x in enumerate(values)})

    def get(self, i: int, j: int) -> Fraction:
        return self._get(i - 1, j - 1)

    def trace(self) -> Fraction:
        den, rows = self._ints()
        if den is None:
            return sum((row[r] for r, row in rows.items() if r in row), ZERO)
        return Q(sum(row[r] for r, row in rows.items() if r in row), den)

    def apply(self, vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
        return tuple(sum((v * vec[j] for j, v in self.data.get(i, {}).items()), ZERO)
                     for i in range(self.dim))

    def det(self) -> Fraction:
        """Product of the reduced rows' leads, signed by the lead-column permutation.

        The rows are den*A, so the product is divided by den^dim.
        """
        den, rows = self._ints()
        ech = Echelon()
        det = ONE
        leads = []
        for r in range(self.dim):
            lead, value = ech._insert(rows.get(r, {}))
            if lead is None:
                return ZERO
            det *= value
            leads.append(lead)
        if den is not None:
            det /= den ** self.dim
        inversions = sum(a > b for i, a in enumerate(leads) for b in leads[i + 1:])
        return -det if inversions % 2 else det

    def __repr__(self):
        ent = ", ".join(f"A[{r + 1}|{c + 1}]={v}" for r, c, v in self.nonzero_entries())
        return f"Operator1(dim={self.dim}, {ent})"


class Operator2(_SparseSquare):
    """Endomorphism of V(x)V with 4-index accessor R^{ij}_{kl}."""

    __slots__ = ()
    legs = 2

    def _flat(self, i: int, j: int) -> int:
        return (i - 1) * self.dim + (j - 1)

    def get(self, i: int, j: int, k: int, l: int) -> Fraction:
        return self._get(self._flat(i, j), self._flat(k, l))

    @classmethod
    def from_dense(cls, n: int, grid: Sequence[Sequence]) -> "Operator2":
        size = range(n * n)
        return cls._entries(n, {r: {c: rat(grid[r][c]) for c in size} for r in size})

    def reversed_legs(self) -> "Operator2":
        """R_21 = P R P: R_21[(j,i),(l,k)] = R[(i,j),(k,l)]."""
        return place(self, (2, 1), 2)

    def four_index_items(self):
        n = self.dim
        for r, c, v in self.nonzero_entries():
            yield (r // n + 1, r % n + 1, c // n + 1, c % n + 1, v)

    def __repr__(self):
        ent = ", ".join(f"R[{i}{j}|{k}{l}]={v}" for i, j, k, l, v in self.four_index_items())
        return f"Operator2(dim={self.dim}, {ent})"


class Operator3(_SparseSquare):
    """Endomorphism of V(x)V(x)V; produced by leg placements and their products."""

    __slots__ = ()
    legs = 3


def kron_sum(terms) -> Operator2:
    """The sum of k * (a (x) b) over terms (k, a, b) of one-leg operators of one dim.

    The terms are planned as in ``signed_products``, on one common denominator,
    and every term is written straight into one set of integer rows, which are
    normalised once.  A coefficient or factor with no integer form (a QuadExt)
    runs the same loop on scalars, and products that vanish there are dropped.
    """
    _, n, den, plan = _plan(terms, Operator1)
    out = {}
    summed = set()  # rows written by more than one term, where entries can cancel
    for m, (arows, brows) in plan:
        if m != 1:
            # a dual-number product can vanish, so zeros are filtered here too
            arows = {i: row for i, arow in arows.items()
                     if (row := {j: w for j, x in arow.items() if (w := m * x)})}
        for i, arow in arows.items():
            for kb, brow in brows.items():
                r = i * n + kb
                row = out.get(r)
                if row is None:
                    row = {j * n + l: w for j, va in arow.items() for l, vb in brow.items()
                           if (w := va * vb)}
                    if row:
                        out[r] = row
                    continue
                summed.add(r)
                for j, va in arow.items():
                    for l, vb in brow.items():
                        c = j * n + l
                        row[c] = row.get(c, 0) + va * vb
    for r in summed:
        row = {c: x for c, x in out[r].items() if x}
        if row:
            out[r] = row
        else:
            del out[r]
    return Operator2._reduced(n, den, out)


def kron11(a: Operator1, b: Operator1) -> Operator2:
    """a (x) b acting on V(x)V."""
    return kron_sum([(1, a, b)])


def wedge(a: Operator1, b: Operator1) -> Operator2:
    """a ^ b = a (x) b - b (x) a."""
    return kron_sum([(1, a, b), (-1, b, a)])


def place(op, legs: Sequence[int], width: int):
    """``op`` on the 1-based legs ``legs`` of V^width, in op's own leg order, and the
    identity on the other legs: an ``Operator2`` for width 2, an ``Operator3`` for 3.

    So place(a, (1,), 2) = a (x) 1, place(r, (1, 3), 3) = r_13 and
    place(r, (3, 2), 3) = r_32.  Op's integer rows are relabelled through the
    index tables of ``_placement_tables``.  Refused unless ``legs`` names op's
    leg count of distinct legs in 1..width.
    """
    spread, shifts = _placement_tables(op.legs, tuple(legs), width, op.dim)
    den, rows = op._ints()
    out = {}
    for r, row in rows.items():
        base = spread[r]
        moved = out[base] = {spread[c]: x for c, x in row.items()}
        for o in shifts:
            out[base + o] = {c + o: x for c, x in moved.items()}
    return (Operator2 if width == 2 else Operator3)._of(op.dim, den, out)


@lru_cache(maxsize=64)
def _placement_tables(count: int, legs: tuple, width: int,
                      n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(spread, shifts) for a ``count``-leg operator of dim n placed on ``legs`` of V^width.

    ``spread`` moves each digit of op's index to its leg, and ``shifts`` lists every
    nonzero assignment of digits to the free legs (offset 0 holds the relabelled
    row itself).  Cached, as few (legs, width, n) recur; an invalid placement
    raises on every call, since the cache keeps no exception.
    """
    if width not in (2, 3):
        raise InvalidInputError(f"legs are placed in width 2 or 3, not {width}")
    if (len(legs) != count or len(set(legs)) != len(legs)
            or min(legs) < 1 or max(legs) > width):
        raise InvalidInputError(f"cannot place a {count}-leg operator on legs {legs} "
                                f"of width {width}")
    spread, offsets = [0], [0]
    for leg in legs:
        step = n ** (width - leg)
        spread = [s + d * step for s in spread for d in range(n)]
    for leg in range(1, width + 1):
        if leg not in legs:
            step = n ** (width - leg)
            offsets = [o + d * step for o in offsets for d in range(n)]
    return tuple(spread), tuple(offsets[1:])


def permutation_P(n: int) -> Operator2:
    """P^{ij}_{kl} = delta^i_l delta^j_k; P^2 = identity."""
    return Operator2._of(n, 1, {i * n + j: {j * n + i: 1} for i in range(n) for j in range(n)})


def row_space(n: int, rows: Iterable[dict]) -> Operator2:
    """The span of sparse rows over the n*n monomials x^i x^j, in reduced echelon form.

    Each reduced row is stored at its lead monomial, so the operator is canonical
    (two row sets span one space iff their row spaces are equal), idempotent, and
    has one stored row per dimension.
    """
    ech = Echelon(rows)
    ech.rref()
    return Operator2._reduced(n, *ech._common())


def span_rank(rows: Sequence[dict], canonical: Iterable[dict],
              rank: int | None = None) -> int | None:
    """The dimension of the span of ``rows`` when it equals that of ``canonical``, else None.

    The spans are equal iff every row lies in the canonical span and the rows
    reach its dimension.  Each row is reduced in the forward echelon of
    ``canonical``; the rows' dimension is ``rank`` when the caller knows it, and
    otherwise they are inserted into an echelon of their own only until it
    reaches the canonical dimension.  Neither side is back-reduced.
    """
    ech = Echelon(canonical)
    if not all(ech.contains(row) for row in rows):
        return None
    if rank is None:
        own = Echelon()
        # a rank already reached stops the loop at once
        for row in rows:
            if own.rank >= ech.rank:
                break
            own.insert(row)
        rank = own.rank
    return rank if rank == ech.rank else None


def span_difference(n: int, rows: Iterable[dict], canonical: Iterable[dict],
                    rank: int | None = None) -> Deferred:
    """row_space(n, rows) - row_space(n, canonical), decided by ``span_rank``: zero when it
    finds the spans equal."""
    rows, canonical = list(rows), list(canonical)
    return Deferred(span_rank(rows, canonical, rank) is not None,
                    lambda: row_space(n, rows) - row_space(n, canonical))


def _plan(terms, cls=None):
    """(cls, dim, den, plan) of the terms (k, F1, ..., Fm) of a signed sum of products.

    Every F is an operator of one type and dim, that of the first factor unless
    ``cls`` names it.  ``den`` is the lcm over the terms of k.denominator *
    prod den(F), and ``plan`` lists (m, [rows of F1, ..., rows of Fm]) with the
    integer multiplier m = k * den / that term's denominator.  A coefficient or
    factor with no integer form (a QuadExt) makes ``den`` None, and then m is k
    and the rows are the factors' entries.  A zero coefficient or a zero factor
    adds nothing, so it gets no plan entry; its denominator is still folded in,
    so scalars give a scalar sum.
    """
    dim = None
    den = 1  # None once a coefficient or factor has no integer form
    kept = []  # (k, factors, their integer rows, k.denominator * prod den(F))
    for term in terms:
        k, fs = term[0], term[1:]
        if not fs:
            raise InvalidInputError("every term of a signed sum needs a factor")
        if dim is None:
            cls, dim = cls or type(fs[0]), fs[0].dim
        d, rows = 1, []
        for f in fs:
            if type(f) is not cls or f.dim != dim:
                raise InvalidInputError("factors must be operators of one type and dim")
            rows.append(f._rows)
            if (fd := f._den) != 1:
                d = None if fd is None or d is None else d * fd
        if type(k) is not int:
            k = rat(k)
            if d is not None:
                d = d * k.denominator if type(k) is Q else None
        if d is None:
            den = None
        elif den is not None and d != den:
            den = lcm(den, d)
        if k and all(rows):
            kept.append((k, fs, rows, d))
    if dim is None:
        raise InvalidInputError("a signed sum of products needs at least one term")
    if den is None:
        return cls, dim, None, [(k, [f.data for f in fs]) for k, fs, _, _ in kept]
    return cls, dim, den, [(k.numerator * (den // d), rows) for k, _, rows, d in kept]


def signed_products(terms):
    """The sum of k * F1 @ F2 @ ... @ Fm over terms (k, F1, ..., Fm), with no product stored.

    The terms are planned by ``_plan``, on the factors' integer rows over one
    common denominator, and the sum is built one output row at a time: each
    term carries its row of F1 through the middle factors, folds its integer
    multiplier into the loop over the last factor, and adds straight into that
    output row, so only the nonzero rows of the sum are ever held.  A coefficient or
    factor with no integer form (a QuadExt) runs the same loop on scalars.  A
    difference k F - k G of two operators with equal integer rows over one
    denominator is the zero operator after one comparison, before any planning.
    """
    if len(terms) == 2 and len(terms[0]) == 2 and len(terms[1]) == 2:
        (k, f), (j, g) = terms
        if (type(f) is type(g) and f._den is not None and f._den == g._den and f.dim == g.dim
                and type(k) in (int, Q) and type(j) in (int, Q) and j == -k
                and f._rows == g._rows):
            return type(f)._of(f.dim, 1, {})
    cls, dim, den, plan = _plan(terms)
    plan = [(m, rows[0], rows[1:-1], rows[-1] if len(rows) > 1 else None) for m, rows in plan]
    out = {}
    for r in dict.fromkeys(chain.from_iterable([first for _, first, _, _ in plan])):
        acc = {}
        for m, first, middle, last in plan:
            row = first.get(r)
            if row is None:
                continue
            if last is None:
                if not acc:
                    acc = dict(row) if m == 1 else {c: m * x for c, x in row.items()}
                    continue
                for c, x in row.items():
                    acc[c] = acc.get(c, 0) + m * x
                continue
            for f in middle:
                row = _row_product_into({}, row, f)
            _row_product_into(acc, row, last, m)
        if not all(acc.values()):
            # entries that cancel, or dual-number products that vanish, are dropped
            acc = {c: x for c, x in acc.items() if x}
        if acc:
            out[r] = acc
    return cls._reduced(dim, den, out)


def _row_product_into(acc: dict, row: dict, rows: dict, m=1) -> dict:
    """Add m times one sparse row times the operator with the given rows into ``acc``;
    return it.  m scales each entry of the row as it is read."""
    for k, v in row.items():
        frow = rows.get(k)
        if frow:
            if m != 1:
                v = m * v
            for c, w in frow.items():
                acc[c] = acc.get(c, 0) + v * w
    return acc


def yb_residual(r: Operator2) -> Operator3:
    """Braid-form Yang-Baxter residual (R(x)1)(1(x)R)(R(x)1) - (1(x)R)(R(x)1)(1(x)R).

    With a = R (x) 1, b = 1 (x) R and the middle product N = b a, the residual
    is aba - bab = a N - N b, so N is formed once.  a leaves leg 3 alone, so
    the rows (., ., k) of a N and of N b read only the rows (., ., k) of N:
    the residual is built one k at a time, holding n^2 rows of N, not n^3.
    Neither placement is stored; each is read off R's rows.  Row (i, j, k) of N is
    the sum of R^{jk}_{j'k'} times a's row (i, j', k'), which is R's row (i, j')
    with leg 3 = k'.  a's row (i, j, k) is R's row (i, j) against the slice,
    whose rows are keyed by their pair (i, j).  b's row (q, j, k) is R's row
    (j, k) with leg 1 = q.  The rows are R's integer rows over den(R)^3, or its
    scalars when an entry has no integer form (a QuadExt).
    """
    n = r.dim
    nn = n * n
    den, rows = r._ints()
    out = {}
    for k in range(n):
        # the slice (., ., k) of N, keyed by the pair (i, j) of its row (i, j, k)
        nk = {}
        for j in range(n):
            brow = rows.get(j * n + k)
            if brow is None:
                continue
            for i in range(n):
                acc = {}
                for jk, v in brow.items():
                    arow = rows.get(i * n + jk // n)
                    if arow:
                        k2 = jk % n
                        for c, w in arow.items():
                            col = c * n + k2
                            acc[col] = acc.get(col, 0) + v * w
                if acc:
                    nk[i * n + j] = acc
        for p in dict.fromkeys(chain(rows, nk)):
            acc = {}
            if (row := rows.get(p)) is not None:
                _row_product_into(acc, row, nk)
            if (row := nk.get(p)) is not None:
                for y, v in row.items():
                    q, s = divmod(y, nn)
                    brow = rows.get(s)
                    if brow:
                        base = q * nn
                        for c, w in brow.items():
                            col = base + c
                            acc[col] = acc.get(col, 0) - v * w
            # entries that cancel, or dual-number products that vanish, are dropped
            if acc := {c: v for c, v in acc.items() if v}:
                out[p * n + k] = acc
    return Operator3._reduced(n, None if den is None else den ** 3, out)


def ybe_numbered_residual(r: Operator2) -> Operator3:
    """Numbered-leg YBE residual R12 R13 R23 - R23 R13 R12."""
    r12, r13, r23 = place(r, (1, 2), 3), place(r, (1, 3), 3), place(r, (2, 3), 3)
    return signed_products([(1, r12, r13, r23), (-1, r23, r13, r12)])


def cybe_residual(r: Operator2) -> Operator3:
    """[r12,r13] + [r12,r23] + [r13,r23], on its rows (a, b, c) with a <= b <= c when
    r + r_21 = c P + d 1 exactly.

    Write r = a + (c/2) P + (d/2) 1 with a skew.  The identity term drops out of
    every commutator.  Conjugating by P_12 swaps legs 1 and 2, so
    [P_12, a_13 + a_23] = 0, and likewise [P_13, a_12 + a_32] = 0 and
    [P_23, a_21 + a_31] = 0; with a_ji = -a_ij the six mixed terms of a with P
    group into these three, so they cancel.  So CYB(r) = CYB(a) + (c^2/4) CYB(P),
    and CYB(P) = [P_13, P_23] since [P_12, P_13 + P_23] = 0.  Both parts are
    totally antisymmetric under leg permutations: CYB(a) lies in the third
    exterior power, and a transposition of legs swaps the two 3-cycles
    P_13 P_23 and P_23 P_13.  So the sorted rows decide the residual: it
    vanishes iff they do.  A sorted triple is the least of its permutations,
    so the first nonzero entry is the same as the whole residual's.  Any other
    r gets every row.
    """
    r12, r13, r23 = place(r, (1, 2), 3), place(r, (1, 3), 3), place(r, (2, 3), 3)
    f12, f13, f23 = r12, r13, r23
    if p_and_1_coefficients(r.reversed_legs() + r) is not None:
        f12, f13, f23 = (_sorted_rows(f) for f in (r12, r13, r23))
    return signed_products([(1, f12, r13), (-1, f13, r12),
                            (1, f12, r23), (-1, f23, r12),
                            (1, f13, r23), (-1, f23, r13)])


def shifted_cybe_residual(r: Operator2, a: Operator2, xi: Operator1,
                          cyb_a: Operator3) -> Deferred:
    """``cybe_residual(r)`` for an r that should equal a + xi ^ 1, decided through a, xi
    and ``cyb_a``, which is ``cybe_residual(a)`` as the caller already holds it.

    Write s = xi ^ 1 = xi_1 - xi_2 on V (x) V, so s_12 = xi_1 - xi_2,
    s_13 = xi_1 - xi_3 and s_23 = xi_2 - xi_3 on V^3.  Copies of xi on
    different legs commute, so the three brackets of s with s vanish, and
    CYB(a + s) = CYB(a) plus the six brackets of a with s.  Grouped by the legs
    of a, and dropping the copy of xi on the leg a does not touch:
    [a_12, s_13 + s_23] = [a_12, xi_1 + xi_2] = C_12,
    [s_12, a_13] + [a_13, s_23] = [a_13, -xi_1 - xi_3] = -C_13 and
    [s_12, a_23] + [s_13, a_23] = [a_23, xi_2 + xi_3] = C_23,
    with C = [a, xi_1 + xi_2] (``commutator_with_sum``).  So, for any a and xi,

        CYB(a + xi ^ 1) = CYB(a) + C_12 - C_13 + C_23.

    When r = a + xi ^ 1 exactly and CYB(a) and C both vanish, the residual is
    zero; its form is ``cybe_residual(r)``.
    """
    return Deferred(_is_shift(r, a, xi) and cyb_a.is_zero()
                    and commutator_with_sum(a, xi).is_zero(), lambda: cybe_residual(r))


def _is_shift(r: Operator2, a: Operator2, xi: Operator1) -> bool:
    """Whether r = a + xi ^ 1 exactly."""
    shift = wedge(xi, Operator1.identity(r.dim))
    return signed_products([(1, r), (-1, a), (-1, shift)]).is_zero()


def p_and_1_coefficients(s: Operator2) -> tuple | None:
    """(c, d) with s = c P + d 1, read off at (1,2|2,1) and (1,2|1,2); None if s is not
    of that form.  At n = 1, where P = 1, it is (0, s^11_11)."""
    n = s.dim
    if n == 1:
        return ZERO, s._get(0, 0)
    rows = s._ints()[1]
    c, d = rows.get(1, {}).get(n, 0), rows.get(1, {}).get(1, 0)
    want = {}
    for i in range(n):
        for j in range(n):
            x, y = i * n + j, j * n + i
            row = {y: c, x: d} if x != y else {x: c + d}
            if row := {k: v for k, v in row.items() if v}:
                want[x] = row
    return (s._get(1, n), s._get(1, 1)) if rows == want else None


def _sorted_rows(op: Operator3) -> Operator3:
    """``op`` restricted to its rows (a, b, c) with a <= b <= c; the others read as zero."""
    n = op.dim
    den, rows = op._ints()
    return Operator3._reduced(n, den, {x: row for x, row in rows.items()
                                       if x // (n * n) <= x // n % n <= x % n})


def nhacybe_residual(r: Operator2, c, primed: bool = False) -> Operator3:
    """r o r - c*r13 where r o r = r12 r13 + r13 r23 - r23 r12 (primed picks r o' r)."""
    r12, r13, r23 = place(r, (1, 2), 3), place(r, (1, 3), 3), place(r, (2, 3), 3)
    if primed:
        circ = [(1, r13, r12), (1, r23, r13), (-1, r12, r23)]
    else:
        circ = [(1, r12, r13), (1, r13, r23), (-1, r23, r12)]
    return signed_products([*circ, (-rat(c), r13)])


def hecke_residual(r: Operator2, beta) -> Operator2:
    """R^2 - beta*R - (1-beta)*identity."""
    beta = rat(beta)
    return signed_products([(1, r, r), (-beta, r),
                            (beta - ONE, Operator2.identity(r.dim))])


def reshuffled_matrix(r: Operator2) -> Operator1:
    """M[(a,d),(g,b)] = R^{ab}_{dg}, relabelled from R's integer rows; M is invertible
    iff R is skew invertible."""
    n = r.dim
    den, rows = r._ints()
    out = {}
    for x, row in rows.items():
        a, b = divmod(x, n)
        for y, v in row.items():
            d, g = divmod(y, n)
            out.setdefault(a * n + d, {})[g * n + b] = v
    return Operator1._of(n * n, den, out)


def conjugate2(r: Operator2, t: Operator1) -> Operator2:
    """(T (x) T) r (T (x) T)^-1, with T (x) T as T_1 T_2: n entries a row, not n^2."""
    tinv = t.inverse()
    return signed_products([(1, place(t, (1,), 2), place(t, (2,), 2), r,
                             place(tinv, (1,), 2), place(tinv, (2,), 2))])


def _conjugation_defect(lhs: Operator2, rhs: Operator2, t: Operator1) -> Operator2:
    """lhs T_1 T_2 - T_1 (T_2 rhs), with T (x) T as T_1 T_2.

    The tail T_2 rhs is formed once, as its own signed sum: a row-by-row chain
    T_1 T_2 rhs would form each row of it again for every entry of T_1 that
    reads it, n times over for a dense T.
    """
    t1, t2 = place(t, (1,), 2), place(t, (2,), 2)
    tail = signed_products([(1, t2, rhs)])
    return signed_products([(1, lhs, t1, t2), (-1, t1, tail)])


def conjugate2_residual(lhs: Operator2, rhs: Operator2, t: Operator1,
                        tinv: Operator1) -> Deferred:
    """lhs - (T (x) T) rhs (T (x) T)^-1, given T's inverse, as the defect times (T (x) T)^-1.

    The defect lhs T_1 T_2 - T_1 T_2 rhs is one signed sum with no inverse in
    it, and the residual is zero iff it is, since T is invertible.  The form
    multiplies the defect by tinv_1 tinv_2, which gives the residual exactly
    when tinv is T^-1; the caller vouches for that.
    """
    defect = _conjugation_defect(lhs, rhs, t)
    return Deferred(defect.is_zero(), lambda: _times_inverse(defect, tinv))


def _times_inverse(defect: Operator2, tinv: Operator1) -> Operator2:
    """defect tinv_1 tinv_2: the conjugation residual of the defect, tinv being T^-1."""
    return signed_products([(1, defect, place(tinv, (1,), 2), place(tinv, (2,), 2))])


def shifted_conjugate2_residual(lhs: Operator2, rhs: Operator2, t: Operator1,
                                tinv: Operator1, lhs_parts: tuple, rhs_parts: tuple) -> Deferred:
    """``conjugate2_residual`` for lhs = a + xi ^ 1 and rhs = b + zeta ^ 1, decided through
    the parts (a, xi) and (b, zeta).

    With xi ^ 1 = xi (x) 1 - 1 (x) xi and (A (x) B)(C (x) D) = AC (x) BD,
    (xi ^ 1)(T (x) T) - (T (x) T)(zeta ^ 1) = (xi T - T zeta) (x) T - T (x) (xi T - T zeta),
    so the defect lhs T_1 T_2 - T_1 T_2 rhs is the parts' defect
    a T_1 T_2 - T_1 T_2 b plus D (x) T - T (x) D, with the n x n D = xi T - T zeta.
    When both sides equal their parts exactly and both the parts' defect and D
    vanish, the residual is zero; its form is the whole defect times tinv_1 tinv_2.
    """
    (a, xi), (b, zeta) = lhs_parts, rhs_parts
    return Deferred(_is_shift(lhs, a, xi) and _is_shift(rhs, b, zeta)
                    and signed_products([(1, xi, t), (-1, t, zeta)]).is_zero()
                    and _conjugation_defect(a, b, t).is_zero(),
                    lambda: _times_inverse(_conjugation_defect(lhs, rhs, t), tinv))


def equivalence_residual(lhs: Operator2, rhs: Operator2, t: Operator1) -> Operator2:
    """lhs (T x T) - (T x T) rhs, with T x T as T_1 T_2; refused for a singular T."""
    if t.det() == 0:
        raise InvalidInputError("T must be invertible")
    return _conjugation_defect(lhs, rhs, t)


def commutator_with_sum(r: Operator2, a: Operator1) -> Operator2:
    """[r, a_1 + a_2]."""
    a1, a2 = place(a, (1,), 2), place(a, (2,), 2)
    return signed_products([(1, r, a1), (1, r, a2), (-1, a1, r), (-1, a2, r)])


def first_nonzero_witness(op) -> tuple[str, Fraction] | None:
    """Locate the first nonzero entry of a residual, least row and then least column, for
    failure reports; read off the integer rows, so no other entry becomes a ``Q``."""
    den, rows = op._ints()
    if not rows:
        return None
    r = min(rows)
    c = min(rows[r])
    v = rows[r][c] if den is None else Q(rows[r][c], den)
    n = op.dim
    if op.legs == 1:
        return f"{r + 1}|{c + 1}", v
    if op.legs == 2:
        return f"{r // n + 1},{r % n + 1}|{c // n + 1},{c % n + 1}", v
    return (f"{r // (n * n) + 1},{(r // n) % n + 1},{r % n + 1}"
            f"|{c // (n * n) + 1},{(c // n) % n + 1},{c % n + 1}"), v
