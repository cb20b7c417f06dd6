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

Two- and three-leg operators are stored sparsely (dict of rows) because every
object in this package has O(n^2) nonzero entries out of n^4 or n^6 slots.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .kernel import ONE, ZERO, InvalidInputError, NotSkewInvertibleError, rat


class Operator1:
    """Dense exact n x n matrix with action (Av)^i = A^i_j v^j."""

    __slots__ = ("dim", "rows")

    def __init__(self, rows: Sequence[Sequence]):
        self.rows = [[rat(x) for x in row] for row in rows]
        self.dim = len(self.rows)
        if any(len(r) != self.dim for r in self.rows):
            raise InvalidInputError("matrix must be square")

    @classmethod
    def identity(cls, n: int) -> "Operator1":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, n: int) -> "Operator1":
        return cls([[ZERO] * n for _ in range(n)])

    @classmethod
    def unit(cls, n: int, i: int, j: int) -> "Operator1":
        """The matrix unit e^i_j (1-based): e_i |-> e_j."""
        m = cls.zero(n)
        m.rows[j - 1][i - 1] = ONE
        return m

    @classmethod
    def diag(cls, values: Sequence) -> "Operator1":
        n = len(values)
        m = cls.zero(n)
        for i, v in enumerate(values):
            m.rows[i][i] = rat(v)
        return m

    def get(self, i: int, j: int) -> Fraction:
        return self.rows[i - 1][j - 1]

    def __add__(self, other: "Operator1") -> "Operator1":
        return Operator1([[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other: "Operator1") -> "Operator1":
        return Operator1([[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self) -> "Operator1":
        return Operator1([[-a for a in row] for row in self.rows])

    def scale(self, c) -> "Operator1":
        c = rat(c)
        return Operator1([[c * a for a in row] for row in self.rows])

    def __matmul__(self, other: "Operator1") -> "Operator1":
        n = self.dim
        out = [[ZERO] * n for _ in range(n)]
        for i in range(n):
            rowi = self.rows[i]
            for k in range(n):
                c = rowi[k]
                if c:
                    rowk = other.rows[k]
                    oi = out[i]
                    for j in range(n):
                        if rowk[j]:
                            oi[j] += c * rowk[j]
        return Operator1(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, Operator1) and self.rows == other.rows

    def __hash__(self):
        return hash(tuple(tuple(r) for r in self.rows))

    def is_zero(self) -> bool:
        return all(not x for row in self.rows for x in row)

    def transpose(self) -> "Operator1":
        return Operator1([[self.rows[j][i] for j in range(self.dim)] for i in range(self.dim)])

    def trace(self) -> Fraction:
        return sum((self.rows[i][i] for i in range(self.dim)), ZERO)

    def apply(self, vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
        return tuple(sum((self.rows[i][j] * vec[j] for j in range(self.dim)), ZERO)
                     for i in range(self.dim))

    def det(self) -> Fraction:
        """Product of the leads before scaling, signed by the lead-column permutation."""
        ech = Echelon()
        det = ONE
        leads = []
        for row in self.rows:
            rem = ech.reduce(dict(enumerate(row)))
            if not rem:
                return ZERO
            lead = ech.insert(rem)
            det *= rem[lead]
            leads.append(lead)
        inversions = sum(a > b for i, a in enumerate(leads) for b in leads[i + 1:])
        return -det if inversions % 2 else det

    def inverse(self) -> "Operator1":
        n = self.dim
        inv = _inverse_rows([dict(enumerate(r)) for r in self.rows], n)
        return Operator1([[row.get(j, ZERO) for j in range(n)] for row in inv])

    def rank(self) -> int:
        return rank_of_rows(self.rows)

    def entries(self) -> Iterable[tuple[int, int, Fraction]]:
        for i in range(self.dim):
            for j in range(self.dim):
                if self.rows[i][j]:
                    yield i + 1, j + 1, self.rows[i][j]

    def __repr__(self):
        return f"Operator1({self.rows!r})"


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


class _SparseSquare:
    """Shared sparse machinery for two- and three-leg operators."""

    legs = 0

    def __init__(self, dim: int, data: dict[int, dict[int, Fraction]] | None = None):
        self.dim = dim
        self.size = dim ** self.legs
        self.data: dict[int, dict[int, Fraction]] = data if data is not None else {}

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
        return type(self)(self.dim)

    def __add__(self, other):
        out = self._zero_like()
        for r, row in self.data.items():
            out.data[r] = dict(row)
        for r, row in other.data.items():
            for c, v in row.items():
                out._add(r, c, v)
        return out

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        out = self._zero_like()
        for r, row in self.data.items():
            out.data[r] = {c: -v for c, v in row.items()}
        return out

    def scale(self, k):
        k = rat(k)
        out = self._zero_like()
        if k:
            for r, row in self.data.items():
                out.data[r] = {c: k * v for c, v in row.items()}
        return out

    def __matmul__(self, other):
        if self.dim != other.dim:
            raise InvalidInputError("dimension mismatch")
        out = self._zero_like()
        for r, row in self.data.items():
            acc: dict[int, Fraction] = {}
            for k, v in row.items():
                brow = other.data.get(k)
                if brow:
                    for c, w in brow.items():
                        nv = acc.get(c, ZERO) + v * w
                        if nv:
                            acc[c] = nv
                        elif c in acc:
                            del acc[c]
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
    def identity(cls, n: int) -> "Operator2":
        out = cls(n)
        for r in range(n * n):
            out.data[r] = {r: ONE}
        return out

    @classmethod
    def from_dense(cls, n: int, grid: Sequence[Sequence]) -> "Operator2":
        out = cls(n)
        for r in range(n * n):
            for c in range(n * n):
                v = rat(grid[r][c])
                if v:
                    out._set(r, c, v)
        return out

    def rank(self) -> int:
        return Echelon(self.data.values()).rank

    def inverse(self) -> "Operator2":
        rows = [self.data.get(r, {}) for r in range(self.size)]
        return Operator2(self.dim, dict(enumerate(_inverse_rows(rows, self.size))))

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

    @classmethod
    def identity(cls, n: int) -> "Operator3":
        out = cls(n)
        for r in range(n ** 3):
            out.data[r] = {r: ONE}
        return out


def kron11(a: Operator1, b: Operator1) -> Operator2:
    """a (x) b acting on V(x)V."""
    n = a.dim
    out = Operator2(n)
    for i in range(n):
        for j in range(n):
            va = a.rows[i][j]
            if not va:
                continue
            for k in range(n):
                for l in range(n):
                    vb = b.rows[k][l]
                    if vb:
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


def op1_on_leg3(a: Operator1, leg: int) -> Operator3:
    """Lift a one-leg operator to V^3 on the named leg."""
    n = a.dim
    out = Operator3(n)
    for i in range(n):
        for j in range(n):
            v = a.rows[i][j]
            if not v:
                continue
            for s in range(n):
                for t in range(n):
                    if leg == 1:
                        out._set((i * n + s) * n + t, (j * n + s) * n + t, v)
                    elif leg == 2:
                        out._set((s * n + i) * n + t, (s * n + j) * n + t, v)
                    else:
                        out._set((s * n + t) * n + i, (s * n + t) * n + j, v)
    return out


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
            out.rows[i - 1][k - 1] += v
        elif leg == 1 and i == k:
            out.rows[j - 1][l - 1] += v
    return out


def skew_inverse(r: Operator2) -> Operator2:
    """Solve Tr_2( R_12 Psi_23 ) = P_13 for Psi exactly.

    The defining relation flattens to M[(a,d),(g,b)] * Psi'[(g,b),(c,f)] = P'
    with M[(a,d),(g,b)] = R^{ab}_{dg} and Psi'[(g,b),(c,f)] = Psi^{gc}_{bf};
    a singular M means R is not skew invertible.
    """
    n = r.dim
    nn = n * n
    m = [[ZERO] * nn for _ in range(nn)]
    for a in range(n):
        for b in range(n):
            for d in range(n):
                for g in range(n):
                    v = r.get(a + 1, b + 1, d + 1, g + 1)
                    if v:
                        m[a * n + d][g * n + b] = v
    rhs = [[ZERO] * nn for _ in range(nn)]
    for a in range(n):
        for d in range(n):
            # P_13 entry at row (a,c), col (d,f): delta(a,f) delta(c,d)
            for c in range(n):
                for f in range(n):
                    if a == f and c == d:
                        rhs[a * n + d][c * n + f] = ONE
    try:
        minv = Operator1(m).inverse()
    except InvalidInputError as exc:
        raise NotSkewInvertibleError("reshuffled matrix is singular") from exc
    sol = minv @ Operator1(rhs)
    psi = Operator2(n)
    for g in range(n):
        for b in range(n):
            for c in range(n):
                for f in range(n):
                    v = sol.rows[g * n + b][c * n + f]
                    if v:
                        psi.set(g + 1, c + 1, b + 1, f + 1, v)
    return psi


def conjugate2(r: Operator2, t: Operator1) -> Operator2:
    """(T (x) T) r (T (x) T)^-1."""
    tt = kron11(t, t)
    tinv = t.inverse()
    return tt @ r @ kron11(tinv, tinv)


def commutes_with_pair(r: Operator2, y: Operator1) -> bool:
    """Invariance-group test R Y1 Y2 = Y1 Y2 R."""
    yy = kron11(y, y)
    return (r @ yy - yy @ r).is_zero()


def commutator_with_sum(r: Operator2, a: Operator1) -> Operator2:
    """[r, a_1 + a_2]."""
    s = op1_on_leg2(a, 1) + op1_on_leg2(a, 2)
    return r @ s - s @ r


def first_nonzero_witness(op) -> tuple[str, Fraction] | None:
    """Locate the first nonzero entry of a residual, for failure reports."""
    if isinstance(op, Operator1):
        for i, j, v in op.entries():
            return f"{i}|{j}", v
        return None
    n = op.dim
    for r, c, v in op.nonzero_entries():
        if op.legs == 2:
            key = f"{r // n + 1},{r % n + 1}|{c // n + 1},{c % n + 1}"
        else:
            key = (f"{r // (n * n) + 1},{(r // n) % n + 1},{r % n + 1}"
                   f"|{c // (n * n) + 1},{(c // n) % n + 1},{c % n + 1}")
        return key, v
    return None
