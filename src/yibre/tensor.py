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

All three operator types are stored sparsely, ``data[row][col]`` with nonzero
entries only, and share one implementation of their arithmetic: most objects
in this package have O(n^2) nonzero entries out of n^4 or n^6 slots.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .kernel import ONE, ZERO, InvalidInputError, NotSkewInvertibleError, rat


class Echelon:
    """Incremental sparse row-echelon basis over exact scalars.

    The package's one Gaussian elimination: ``det``, ``inverse`` and ``rank`` of
    the operators, ``rank_of_rows``, ``rref_of_rows`` and the graded ideals of
    ``qalg`` all run through it.  A row is a dict column -> scalar, zero entries
    ignored; ``pivots`` maps each lead column to its row scaled to a leading 1.
    """

    __slots__ = ("pivots",)

    def __init__(self, rows: Iterable[dict] = ()):
        self.pivots: dict[int, dict[int, Fraction]] = {}
        for row in rows:
            self.insert(row)

    def reduce(self, row: dict) -> dict:
        """A copy of ``row`` reduced until its lead column carries no pivot."""
        row = {c: v for c, v in row.items() if v}
        while row:
            lead = min(row)
            piv = self.pivots.get(lead)
            if piv is None:
                break
            _subtract_multiple(row, piv, lead)
        return row

    def insert(self, row: dict) -> int | None:
        """Reduce ``row`` and keep it as a pivot; its lead column, or None if dependent."""
        row = self.reduce(row)
        if not row:
            return None
        lead = min(row)
        inv = ONE / row[lead]
        self.pivots[lead] = {c: v * inv for c, v in row.items()}
        return lead

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def rref(self) -> list[dict]:
        """Back-reduce the pivots in place; the reduced rows by increasing lead."""
        for lead in sorted(self.pivots, reverse=True):
            row = self.pivots[lead]
            # pivots with larger leads are already reduced, so each subtraction
            # clears one pivot column and touches no other
            for c in [c for c in row if c != lead and c in self.pivots]:
                _subtract_multiple(row, self.pivots[c], c)
        return [self.pivots[lead] for lead in sorted(self.pivots)]


def _subtract_multiple(row: dict, piv: dict, col: int) -> None:
    """row -= row[col] * piv in place, dropping zeros (piv[col] is 1)."""
    factor = row[col]
    for c, v in piv.items():
        nv = row.get(c, ZERO) - factor * v
        if nv:
            row[c] = nv
        elif c in row:
            del row[c]


def _inverse_rows(rows: list[dict], size: int) -> list[dict]:
    """Sparse rows of A^-1 from the RREF of [A | I]; singular when a lead lands in I."""
    ech = Echelon()
    for i, row in enumerate(rows):
        if ech.insert({**row, size + i: ONE}) >= size:
            raise InvalidInputError("matrix is singular")
    return [{c - size: v for c, v in row.items() if c >= size} for row in ech.rref()]


def rank_of_rows(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank of dense rows."""
    return Echelon(dict(enumerate(r)) for r in rows).rank


def rref_of_rows(rows: Sequence[Sequence[Fraction]]) -> tuple[tuple[Fraction, ...], ...]:
    """Reduced row-echelon form with zero rows dropped; canonical for row spaces."""
    ncols = len(rows[0]) if rows else 0
    reduced = Echelon(dict(enumerate(r)) for r in rows).rref()
    return tuple(tuple(row.get(c, ZERO) for c in range(ncols)) for row in reduced)


def _cleared(data: dict[int, dict[int, Fraction]]) -> tuple[int, dict[int, dict]]:
    """(L, rows): L the lcm of the entries' denominators, rows the entries times L as ints.

    Sums and products of the rows then run on Python ints, with one gcd per
    output entry (in ``_over``) instead of one per Fraction multiply-add.  A
    QuadExt entry has no integer form, so such an operand comes back as
    (1, data) and the same loops run on its scalars unchanged.
    """
    try:
        den = lcm(*{v.denominator for row in data.values() for v in row.values()})
    except AttributeError:
        return 1, data
    return den, {r: {c: v.numerator * (den // v.denominator) for c, v in row.items()}
                 for r, row in data.items()}


def _over(acc: dict, den: int) -> dict:
    """The nonzero entries of acc divided by den, integers stored as reduced Fractions."""
    return {c: Fraction(x, den) if type(x) is int else x / den for c, x in acc.items() if x}


class _SparseSquare:
    """Shared sparse machinery for one-, two- and three-leg operators."""

    legs = 0

    def __init__(self, dim: int, data: dict[int, dict[int, Fraction]] | None = None):
        self.dim = dim
        self.size = dim ** self.legs
        self.data: dict[int, dict[int, Fraction]] = data if data is not None else {}

    @classmethod
    def zero(cls, dim: int):
        out = cls.__new__(cls)
        _SparseSquare.__init__(out, dim)
        return out

    @classmethod
    def identity(cls, dim: int):
        out = cls.zero(dim)
        out.data = {r: {r: ONE} for r in range(out.size)}
        return out

    # -- raw flat-index access ------------------------------------------------
    def _get(self, r: int, c: int) -> Fraction:
        return self.data.get(r, {}).get(c, ZERO)

    def _add(self, r: int, c: int, v: Fraction) -> None:
        if not v:
            return
        row = self.data.setdefault(r, {})
        nv = row.get(c, ZERO) + v
        if nv:
            row[c] = nv
        else:
            del row[c]
            if not row:
                del self.data[r]

    def _set(self, r: int, c: int, v: Fraction) -> None:
        if v:
            self.data.setdefault(r, {})[c] = v
        else:
            row = self.data.get(r)
            if row and c in row:
                del row[c]
                if not row:
                    del self.data[r]

    # -- algebra ----------------------------------------------------------------
    def _zero_like(self):
        return self.zero(self.dim)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign: int):
        """self + sign * other over the common denominator of both operands."""
        la, arows = _cleared(self.data)
        lb, brows = _cleared(other.data)
        den = lcm(la, lb)
        fa, fb = den // la, sign * (den // lb)
        out = self._zero_like()
        for r in arows.keys() | brows.keys():
            arow, brow = arows.get(r, {}), brows.get(r, {})
            row = _over({c: fa * arow.get(c, 0) + fb * brow.get(c, 0)
                         for c in arow.keys() | brow.keys()}, den)
            if row:
                out.data[r] = row
        return out

    def __neg__(self):
        out = self._zero_like()
        for r, row in self.data.items():
            out.data[r] = {c: -v for c, v in row.items()}
        return out

    def scale(self, k):
        k = rat(k)
        out = self._zero_like()
        for r, row in self.data.items():
            # a dual-number product can vanish, so zeros are filtered here too
            row = {c: w for c, v in row.items() if (w := k * v)}
            if row:
                out.data[r] = row
        return out

    def __matmul__(self, other):
        if self.dim != other.dim:
            raise InvalidInputError("dimension mismatch")
        la, arows = _cleared(self.data)
        lb, brows = _cleared(other.data)
        den = la * lb
        out = self._zero_like()
        for r, row in arows.items():
            acc = {}
            for k, v in row.items():
                brow = brows.get(k)
                if brow:
                    for c, w in brow.items():
                        acc[c] = acc.get(c, 0) + v * w
            acc = _over(acc, den)
            if acc:
                out.data[r] = acc
        return out

    def __eq__(self, other):
        return (type(self) is type(other) and self.dim == other.dim
                and self._clean() == other._clean())

    def __hash__(self):
        return hash((type(self).__name__, self.dim,
                     tuple(sorted((r, c, v) for r, row in self._clean().items()
                                  for c, v in row.items()))))

    def _clean(self) -> dict[int, dict[int, Fraction]]:
        return {r: row for r, row in self.data.items() if row}

    def is_zero(self) -> bool:
        return all(not v for row in self.data.values() for v in row.values())

    def transpose(self):
        out = self._zero_like()
        for r, row in self.data.items():
            for c, v in row.items():
                out._set(c, r, v)
        return out

    def scalar_shift(self, k):
        """self + k * identity."""
        out = self._zero_like()
        for r, row in self.data.items():
            out.data[r] = dict(row)
        k = rat(k)
        for r in range(self.size):
            out._add(r, r, k)
        return out

    def nonzero_entries(self):
        for r in sorted(self.data):
            for c in sorted(self.data[r]):
                v = self.data[r][c]
                if v:
                    yield r, c, v

    def rank(self) -> int:
        return Echelon(self.data.values()).rank

    def inverse(self):
        out = self._zero_like()
        rows = [self.data.get(r, {}) for r in range(self.size)]
        out.data = dict(enumerate(_inverse_rows(rows, self.size)))
        return out


class Operator1(_SparseSquare):
    """Exact n x n matrix with action (Av)^i = A^i_j v^j, stored as data[i][j] (0-based)."""

    legs = 1

    def __init__(self, rows: Sequence[Sequence]):
        """Validate dense rows from outside: square, every entry coerced by ``rat``."""
        rows = [[rat(x) for x in row] for row in rows]
        if any(len(row) != len(rows) for row in rows):
            raise InvalidInputError("matrix must be square")
        super().__init__(len(rows), {i: nz for i, row in enumerate(rows)
                                     if (nz := {j: v for j, v in enumerate(row) if v})})

    @classmethod
    def unit(cls, n: int, i: int, j: int) -> "Operator1":
        """The matrix unit e^i_j (1-based): e_i |-> e_j."""
        m = cls.zero(n)
        m._set(j - 1, i - 1, ONE)
        return m

    @classmethod
    def diag(cls, values: Sequence) -> "Operator1":
        m = cls.zero(len(values))
        for i, v in enumerate(values):
            m._set(i, i, rat(v))
        return m

    def get(self, i: int, j: int) -> Fraction:
        return self._get(i - 1, j - 1)

    def trace(self) -> Fraction:
        return sum((self._get(i, i) for i in range(self.dim)), ZERO)

    def apply(self, vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
        return tuple(sum((v * vec[j] for j, v in self.data.get(i, {}).items()), ZERO)
                     for i in range(self.dim))

    def det(self) -> Fraction:
        """Product of the leads before scaling, signed by the lead-column permutation."""
        ech = Echelon()
        det = ONE
        leads = []
        for r in range(self.dim):
            rem = ech.reduce(self.data.get(r, {}))
            if not rem:
                return ZERO
            lead = ech.insert(rem)
            det *= rem[lead]
            leads.append(lead)
        inversions = sum(a > b for i, a in enumerate(leads) for b in leads[i + 1:])
        return -det if inversions % 2 else det

    def __repr__(self):
        ent = ", ".join(f"A[{r + 1}|{c + 1}]={v}" for r, c, v in self.nonzero_entries())
        return f"Operator1(dim={self.dim}, {ent})"


class Operator2(_SparseSquare):
    """Endomorphism of V(x)V with 4-index accessor R^{ij}_{kl}."""

    legs = 2

    def _flat(self, i: int, j: int) -> int:
        return (i - 1) * self.dim + (j - 1)

    def get(self, i: int, j: int, k: int, l: int) -> Fraction:
        return self._get(self._flat(i, j), self._flat(k, l))

    def set(self, i: int, j: int, k: int, l: int, v) -> None:
        self._set(self._flat(i, j), self._flat(k, l), rat(v))

    def add_to(self, i: int, j: int, k: int, l: int, v) -> None:
        self._add(self._flat(i, j), self._flat(k, l), rat(v))

    @classmethod
    def from_dense(cls, n: int, grid: Sequence[Sequence]) -> "Operator2":
        out = cls(n)
        for r in range(n * n):
            for c in range(n * n):
                v = rat(grid[r][c])
                if v:
                    out._set(r, c, v)
        return out

    def reversed_legs(self) -> "Operator2":
        """R_21 = P R P."""
        p = permutation_P(self.dim)
        return p @ self @ p

    def four_index_items(self):
        n = self.dim
        for r, c, v in self.nonzero_entries():
            yield (r // n + 1, r % n + 1, c // n + 1, c % n + 1, v)

    def __repr__(self):
        ent = ", ".join(f"R[{i}{j}|{k}{l}]={v}" for i, j, k, l, v in self.four_index_items())
        return f"Operator2(dim={self.dim}, {ent})"


class Operator3(_SparseSquare):
    """Endomorphism of V(x)V(x)V; produced by lifts and their products."""

    legs = 3


def kron11(a: Operator1, b: Operator1) -> Operator2:
    """a (x) b acting on V(x)V."""
    n = a.dim
    out = Operator2(n)
    for i, arow in a.data.items():
        for j, va in arow.items():
            for k, brow in b.data.items():
                for l, vb in brow.items():
                    # _set drops a vanishing dual-number product
                    out._set(i * n + k, j * n + l, va * vb)
    return out


def wedge(a: Operator1, b: Operator1) -> Operator2:
    """a ^ b = a (x) b - b (x) a."""
    return kron11(a, b) - kron11(b, a)


def op1_on_leg2(a: Operator1, leg: int) -> Operator2:
    """Lift a one-leg operator to V(x)V on the named leg (1 or 2)."""
    n = a.dim
    ident = Operator1.identity(n)
    return kron11(a, ident) if leg == 1 else kron11(ident, a)


def permutation_P(n: int) -> Operator2:
    """P^{ij}_{kl} = delta^i_l delta^j_k; P^2 = identity."""
    out = Operator2(n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            out.set(i, j, j, i, ONE)
    return out


def lift(op: Operator2, legs: int, n: int | None = None) -> Operator3:
    """Embed a two-leg operator into V^3 on leg pair 12, 13 or 23."""
    if n is None:
        n = op.dim
    if op.dim != n:
        raise InvalidInputError("operator dimension does not match n")
    out = Operator3(n)
    for i, j, k, l, v in op.four_index_items():
        a, b, c, d = i - 1, j - 1, k - 1, l - 1
        for m in range(n):
            if legs == 12:
                out._set((a * n + b) * n + m, (c * n + d) * n + m, v)
            elif legs == 23:
                out._set((m * n + a) * n + b, (m * n + c) * n + d, v)
            elif legs == 13:
                out._set((a * n + m) * n + b, (c * n + m) * n + d, v)
            else:
                raise InvalidInputError(f"unknown leg pair {legs}")
    return out


def yb_residual(r: Operator2) -> Operator3:
    """Braid-form Yang-Baxter residual (R(x)1)(1(x)R)(R(x)1) - (1(x)R)(R(x)1)(1(x)R)."""
    a = lift(r, 12)
    b = lift(r, 23)
    return a @ b @ a - b @ a @ b


def ybe_numbered_residual(r: Operator2) -> Operator3:
    """Numbered-leg YBE residual R12 R13 R23 - R23 R13 R12."""
    r12, r13, r23 = lift(r, 12), lift(r, 13), lift(r, 23)
    return r12 @ r13 @ r23 - r23 @ r13 @ r12


def cybe_residual(r: Operator2) -> Operator3:
    """[r12,r13] + [r12,r23] + [r13,r23]."""
    r12, r13, r23 = lift(r, 12), lift(r, 13), lift(r, 23)

    def comm(x, y):
        return x @ y - y @ x

    return comm(r12, r13) + comm(r12, r23) + comm(r13, r23)


def nhacybe_residual(r: Operator2, c, primed: bool = False) -> Operator3:
    """r o r - c*r13 where r o r = r12 r13 + r13 r23 - r23 r12 (primed picks r o' r)."""
    c = rat(c)
    r12, r13, r23 = lift(r, 12), lift(r, 13), lift(r, 23)
    if primed:
        circ = r13 @ r12 + r23 @ r13 - r12 @ r23
    else:
        circ = r12 @ r13 + r13 @ r23 - r23 @ r12
    return circ - r13.scale(c)


def hecke_residual(r: Operator2, beta) -> Operator2:
    """R^2 - beta*R - (1-beta)*identity."""
    beta = rat(beta)
    return (r @ r) - r.scale(beta) - Operator2.identity(r.dim).scale(ONE - beta)


def partial_trace(op: Operator2, leg: int) -> Operator1:
    """Trace out one leg: (Tr_2 op)^i_k = op^{ia}_{ka}, (Tr_1 op)^j_l = op^{aj}_{al}."""
    n = op.dim
    out = Operator1.zero(n)
    for i, j, k, l, v in op.four_index_items():
        if leg == 2 and j == l:
            out._add(i - 1, k - 1, v)
        elif leg == 1 and i == k:
            out._add(j - 1, l - 1, v)
    return out


def reshuffled_matrix(r: Operator2) -> Operator1:
    """M[(a,d),(g,b)] = R^{ab}_{dg}; M is invertible iff R is skew invertible."""
    n = r.dim
    m = Operator1.zero(n * n)
    for a, b, d, g, v in r.four_index_items():
        m._set((a - 1) * n + d - 1, (g - 1) * n + b - 1, v)
    return m


def skew_inverse(r: Operator2) -> Operator2:
    """Solve Tr_2( R_12 Psi_23 ) = P_13 for Psi exactly.

    The defining relation flattens to M[(a,d),(g,b)] * Psi'[(g,b),(c,f)] = P'
    with M the reshuffled matrix and Psi'[(g,b),(c,f)] = Psi^{gc}_{bf};
    a singular M means R is not skew invertible.
    """
    n = r.dim
    # P_13 entry at row (a,d), col (c,f): delta(a,f) delta(c,d)
    rhs = Operator1.zero(n * n)
    for a in range(n):
        for d in range(n):
            rhs._set(a * n + d, d * n + a, ONE)
    try:
        minv = reshuffled_matrix(r).inverse()
    except InvalidInputError as exc:
        raise NotSkewInvertibleError("reshuffled matrix is singular") from exc
    psi = Operator2(n)
    for row, col, v in (minv @ rhs).nonzero_entries():
        (g, b), (c, f) = divmod(row, n), divmod(col, n)
        psi._set(g * n + c, b * n + f, v)
    return psi


def conjugate2(r: Operator2, t: Operator1) -> Operator2:
    """(T (x) T) r (T (x) T)^-1."""
    tt = kron11(t, t)
    tinv = t.inverse()
    return tt @ r @ kron11(tinv, tinv)


def commutator_with_sum(r: Operator2, a: Operator1) -> Operator2:
    """[r, a_1 + a_2]."""
    s = op1_on_leg2(a, 1) + op1_on_leg2(a, 2)
    return r @ s - s @ r


def first_nonzero_witness(op) -> tuple[str, Fraction] | None:
    """Locate the first nonzero entry of a residual, for failure reports."""
    n = op.dim
    for r, c, v in op.nonzero_entries():
        if op.legs == 1:
            key = f"{r + 1}|{c + 1}"
        elif op.legs == 2:
            key = f"{r // n + 1},{r % n + 1}|{c // n + 1},{c % n + 1}"
        else:
            key = (f"{r // (n * n) + 1},{(r // n) % n + 1},{r % n + 1}"
                   f"|{c // (n * n) + 1},{(c // n) % n + 1},{c % n + 1}")
        return key, v
    return None
