"""Orderable quadratic rime algebras: rewriting, overlaps and Poincare series.

A presentation x^j x^k -> f_jk x^k x^j + g_jk x^k x^k (j < k) rewrites every
word to a combination of weakly decreasing words; the only overlaps are
(x^j x^k) x^l = x^j (x^k x^l) with j < k < l, and the five coefficient
residuals of that overlap decide confluence.  Graded dimensions of a general
quadratic algebra are computed by exact rank of the relations' image in each
degree's quotient, never by trusting normal-form counting.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .kernel import ONE, ZERO, InvalidInputError, QuadExt, rat
from .poisson import QuadraticBracket, rime_bracket
from .tensor import Echelon, _clear


@dataclass(frozen=True)
class OrderedPresentation:
    """Rules x^j x^k -> f[j][k] x^k x^j + g[j][k] x^k x^k for j < k (1-based)."""

    dim: int
    f: tuple[tuple[Fraction, ...], ...]
    g: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def build(cls, n: int, f_fn, g_fn) -> "OrderedPresentation":
        f = tuple(tuple(rat(f_fn(j, k)) if j < k else ZERO for k in range(1, n + 1))
                  for j in range(1, n + 1))
        g = tuple(tuple(rat(g_fn(j, k)) if j < k else ZERO for k in range(1, n + 1))
                  for j in range(1, n + 1))
        return cls(n, f, g)

    @classmethod
    def case_i(cls, n: int, g_fn) -> "OrderedPresentation":
        """f = -1 with free coefficients g_jk."""
        return cls.build(n, lambda j, k: -ONE, g_fn)

    @classmethod
    def case_ii(cls, n: int, f) -> "OrderedPresentation":
        """Constant f with g_jk = 1 - f."""
        f = rat(f)
        return cls.build(n, lambda j, k: f, lambda j, k: ONE - f)

    def fc(self, j, k):
        return self.f[j - 1][k - 1]

    def gc(self, j, k):
        return self.g[j - 1][k - 1]

    def is_strict(self) -> bool:
        return all(self.fc(j, k) and self.gc(j, k)
                   for j in range(1, self.dim + 1) for k in range(j + 1, self.dim + 1))

    def rescaled(self, d) -> "OrderedPresentation":
        """Effect of x^i -> d_i x^i: f fixed, g_jk -> g_jk d_k / d_j."""
        d = [rat(x) for x in d]
        n = self.dim
        return OrderedPresentation(
            n, self.f,
            tuple(tuple(self.g[j][k] * d[k] / d[j] if j < k else ZERO
                        for k in range(n)) for j in range(n)))

    def relation_rows(self) -> list[dict[int, Fraction]]:
        """Sparse rows of x^j x^k - f x^k x^j - g x^k x^k over 2-letter monomials."""
        n = self.dim
        return [{(j - 1) * n + (k - 1): ONE, (k - 1) * n + (j - 1): -self.fc(j, k),
                 (k - 1) * n + (k - 1): -self.gc(j, k)}
                for j in range(1, n + 1) for k in range(j + 1, n + 1)]


def normal_order(word, pres: OrderedPresentation) -> dict[tuple, Fraction]:
    """Rewrite to the weakly decreasing normal form; returns {word: coefficient}."""
    pending = {tuple(word): ONE}
    done: dict[tuple, Fraction] = {}
    while pending:
        w, coeff = pending.popitem()
        pos = next((i for i in range(len(w) - 1) if w[i] < w[i + 1]), None)
        if pos is None:
            done[w] = done.get(w, ZERO) + coeff
            continue
        j, k = w[pos], w[pos + 1]
        swap = w[:pos] + (k, j) + w[pos + 2:]
        square = w[:pos] + (k, k) + w[pos + 2:]
        for nw, c in ((swap, coeff * pres.fc(j, k)), (square, coeff * pres.gc(j, k))):
            if c:
                pending[nw] = pending.get(nw, ZERO) + c
    return {w: c for w, c in done.items() if c}


def ordered_form_left(pres, j, k, l) -> dict[str, Fraction]:
    """Coefficients of the ordered form of (x^j x^k) x^l."""
    f, g = pres.fc, pres.gc
    return {
        "xlkj": f(j, k) * f(j, l) * f(k, l),
        "xllj": f(j, k) * f(j, l) * g(k, l),
        "xlkk": f(k, l) ** 2 * g(j, k),
        "xllk": f(k, l) * g(j, k) * g(k, l) + f(k, l) ** 2 * (f(j, k) * g(j, l)
                                                             + g(j, k) * g(k, l)),
        "xlll": (f(j, k) * g(j, l) * g(k, l) + g(j, k) * g(k, l) ** 2
                 + f(k, l) * g(k, l) * (f(j, k) * g(j, l) + g(j, k) * g(k, l))),
    }


def ordered_form_right(pres, j, k, l) -> dict[str, Fraction]:
    """Coefficients of the ordered form of x^j (x^k x^l)."""
    f, g = pres.fc, pres.gc
    return {
        "xlkj": f(j, k) * f(j, l) * f(k, l),
        "xllj": f(j, l) ** 2 * g(k, l),
        "xlkk": f(k, l) * f(j, l) * g(j, k),
        "xllk": f(k, l) * g(j, l),
        "xlll": g(k, l) * g(j, l) + f(j, l) * g(k, l) * g(j, l),
    }


def overlap_residuals(pres: OrderedPresentation) -> dict[tuple, dict[str, Fraction]]:
    """Per j < k < l, the nonzero coefficient differences of the two ordered forms."""
    n = pres.dim
    out = {}
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            for l in range(k + 1, n + 1):
                left = ordered_form_left(pres, j, k, l)
                right = ordered_form_right(pres, j, k, l)
                diff = {name: left[name] - right[name] for name in left
                        if left[name] != right[name]}
                if diff:
                    out[(j, k, l)] = diff
    return out


def overlap_residuals_semantic(pres: OrderedPresentation) -> dict[tuple, dict]:
    """Same overlaps through normal_order itself (the diamond test)."""
    n = pres.dim
    out = {}
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            for l in range(k + 1, n + 1):
                # rewrite (jk) first versus (kl) first, then normal-order both
                first: dict[tuple, Fraction] = {}
                for w, c in (((k, j, l), pres.fc(j, k)), ((k, k, l), pres.gc(j, k))):
                    for nw, nc in normal_order(w, pres).items():
                        first[nw] = first.get(nw, ZERO) + c * nc
                second: dict[tuple, Fraction] = {}
                for w, c in (((j, l, k), pres.fc(k, l)), ((j, l, l), pres.gc(k, l))):
                    for nw, nc in normal_order(w, pres).items():
                        second[nw] = second.get(nw, ZERO) + c * nc
                diff = {}
                for w in set(first) | set(second):
                    v = first.get(w, ZERO) - second.get(w, ZERO)
                    if v:
                        diff[w] = v
                if diff:
                    out[(j, k, l)] = diff
    return out


CASE_I = "case-i"
CASE_II = "case-ii"
NOT_CONFLUENT_STRICT = "not-confluent-strict"
NON_STRICT = "non-strict"


@dataclass
class OrderableClass:
    label: str
    f: Fraction | None = None
    g: tuple | None = None
    rescaling: tuple | None = None


def classify_orderable(pres: OrderedPresentation) -> OrderableClass:
    """Confluent strict presentations are f = -1 (free g) or constant f with scaled g.

    The classification solves the overlap system, which constrains nothing for
    fewer than three generators; it is meaningful for dim >= 3.
    """
    n = pres.dim
    if not pres.is_strict():
        return OrderableClass(NON_STRICT)
    fs = {pres.fc(j, k) for j in range(1, n + 1) for k in range(j + 1, n + 1)}
    if len(fs) != 1:
        return OrderableClass(NOT_CONFLUENT_STRICT)
    f = fs.pop()
    if f == -1:
        if overlap_residuals(pres):
            return OrderableClass(NOT_CONFLUENT_STRICT)
        return OrderableClass(CASE_I, f=f, g=pres.g)
    if f == 1:
        # strict g with f = 1 cannot satisfy the overlap conditions
        return OrderableClass(NOT_CONFLUENT_STRICT)
    # case (ii) requires g_jk g_kl = (1-f) g_jl; witness d with g_jk = (1-f) d_k/d_j
    d = [ONE] * n
    for k in range(2, n + 1):
        d[k - 1] = pres.gc(1, k) / (ONE - f)
    candidate = tuple(d)
    normalized = pres.rescaled([ONE / x for x in candidate])
    ok = all(normalized.gc(j, k) == ONE - f
             for j in range(1, n + 1) for k in range(j + 1, n + 1))
    if ok and not overlap_residuals(pres):
        return OrderableClass(CASE_II, f=f, rescaling=candidate)
    return OrderableClass(NOT_CONFLUENT_STRICT)


# --- graded dimensions ---------------------------------------------------------

def poincare_series(n: int, relation_rows, max_degree: int) -> tuple[int, ...]:
    """dim of degree-m components of T(V)/(relations), m = 0..max_degree.

    The degree-m ideal is I_m = I_{m-1} (x) V + V^(m-2) (x) R, so with
    A_m = T^m / I_m,

        A_m = (A_{m-1} (x) V) / image(V^(m-2) (x) R),

    and dim A_m is dim A_{m-1} * n less the rank of that image.  A word of
    I_{m-2} times R lies in I_{m-1} (x) V, so the image is already spanned by
    the normal words u of degree m-2 (a basis of A_{m-2}) times R.  Each
    relation sum c x^i x^j gives the row sum c NF(u x^i) (x) x^j, written in
    the previous degree's normal words v (x) x^j, at column v*n + j.  NF(w) is
    w for a normal word and minus the rest of its pivot row for a pivot column
    of the reduced echelon of the previous degree; the forms are carried from
    degree to degree as integer rows over one common denominator.
    """
    if max_degree > 6:
        raise InvalidInputError("degree capped at 6")
    # each relation as its terms (i, j, c) of c x^i x^j, on integers when it has them
    rel = [[(*divmod(col, n), c) for col, c in _clear(row)[1].items()]
           for row in relation_rows]
    dims = [1]
    if max_degree >= 1:
        dims.append(n)
    # the normal words of degree m-2 and m-1, and the normal forms of the words u x^i
    # with u of degree m-2, here for m = 2: the empty word, and every letter normal
    prefixes, words = [0], list(range(n))
    forms = {i: {i: 1} for i in words}
    for m in range(2, max_degree + 1):
        ech = Echelon()
        for u in prefixes:
            base = u * n
            for terms in rel:
                row = {}
                for i, j, c in terms:
                    for v, x in forms[base + i].items():
                        col = v * n + j
                        row[col] = row.get(col, 0) + c * x
                ech.insert(row)
        dims.append(len(words) * n - ech.rank)
        if m < max_degree:
            ech.rref()
            den, pivots = ech._common()
            one = 1 if den is None else den
            forms = {w: ({c: -x for c, x in pivots[w].items() if c != w} if w in pivots
                         else {w: one})
                     for v in words for w in range(v * n, v * n + n)}
            prefixes, words = words, [w for w in forms if w not in pivots]
    return tuple(dims[:max_degree + 1])


def commutative_relation_rows(n: int) -> list[dict[int, Fraction]]:
    return [{i * n + j: ONE, j * n + i: -ONE} for i in range(n) for j in range(i + 1, n)]


def binomial_series(n: int, max_degree: int) -> tuple[int, ...]:
    return tuple(comb(n + m - 1, m) for m in range(max_degree + 1))


def gl11_relation_rows(q, omega) -> list[dict[int, Fraction]]:
    """Degree-2 relations of the even quantum space of the two-parameter block."""
    q, omega = rat(q), rat(omega)
    if q in (0, 1, -1) or not omega:
        raise InvalidInputError("needs q outside {0, 1, -1} and omega nonzero")
    qq = q + 1 / q
    return [
        # xx - qq xy + yy = 0 and (1/om) xx - qq yx + om yy = 0
        {0: ONE, 1: -qq, 3: ONE},
        {0: ONE / omega, 2: -qq, 3: omega},
    ]


def gl11_window_test(q, omega, max_degree: int = 4) -> dict:
    """Does the even quantum space have the alternating-word series (1, 2, 2, ...)?"""
    series = poincare_series(2, gl11_relation_rows(q, omega), max_degree)
    expected = (1, 2) + (2,) * (max_degree - 1)
    return {"series": series, "gl11_type": series == expected[:len(series)]}


def classical_limit_bracket(n: int) -> QuadraticBracket:
    """Epsilon-linear part of the constant-f relations at f = 1 + eps.

    x^j x^k - x^k x^j = eps (x^k x^j - x^k x^k) + O(eps^2), so the bracket is
    {x^j, x^k} = x^k(x^j - x^k) for j < k after symmetrizing.
    """
    return rime_bracket(n, lambda j, k: (ZERO, -ONE, ONE))


def classical_limit_bracket_dual(n: int) -> QuadraticBracket:
    """The same bracket extracted with dual-number coefficients f = 1 + eps."""
    f = QuadExt(ONE, ONE, 0)
    g = 1 - f
    # defect x^j x^k - x^k x^j = (f-1) x^k x^j + g x^k x^k, eps part
    return rime_bracket(n, lambda j, k: (ZERO, g.b, (f - 1).b))
