"""Quadratic rime Poisson pencil: construction, invariance and normal forms.

A quadratic bracket {x^i, x^j} = c^{ij}_{kl} x^k x^l is a two-leg tensor laid
out like an R-matrix, so ``QuadraticBracket`` is an ``Operator2``: row (i, j)
holds {x^i, x^j} for i < j only and column (k, l) with k <= l the coefficient
of x^k x^l, which bakes in antisymmetry in (i,j) and symmetry in (k,l).  Sums,
differences, equality and failure witnesses are the sparse kernel's.
First-order statements run over dual numbers (``QuadExt`` with d = 0, so
epsilon^2 = 0), so "infinitesimal" is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .kernel import (ONE, ZERO, Deferred, InvalidInputError, QuadExt, RationalDraw,
                     elem_syms_omitting, perfect_square_root, rat, ratvec, require_distinct,
                     sparse_minus)
from .rational import Q
from .tensor import Operator1, Operator2, commutator_with_sum


@dataclass(frozen=True)
class PencilParams:
    psi: tuple[Fraction, ...]
    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "psi", ratvec(self.psi))
        require_distinct(self.psi, "psi")
        for f in "abc":
            object.__setattr__(self, f, rat(getattr(self, f)))

    def rho(self, t):
        return self.a * t * t + self.b * t + self.c

    def rho_prime(self, t):
        return 2 * self.a * t + self.b

    @property
    def discriminant(self) -> Fraction:
        return self.b * self.b - 4 * self.a * self.c


class QuadraticBracket(Operator2):
    """{x^i, x^j} in row (i-1)n+(j-1) for i < j, the x^k x^l term in column (k-1)n+(l-1), k <= l."""

    __slots__ = ()

    def __init__(self, dim: int, pairs: dict | None = None):
        """The bracket with {x^i, x^j} = ``pairs[(i, j)]``, a dict (k, l) -> coefficient, for
        i < j; the terms (k, l) and (l, k) are merged at column (min, max)."""
        rows = {}
        for (i, j), poly in (pairs or {}).items():
            if not 1 <= i < j <= dim:
                raise InvalidInputError("pairs are stored with i < j")
            row = rows[(i - 1) * dim + j - 1] = {}
            for (k, l), v in poly.items():
                if not (1 <= k <= dim and 1 <= l <= dim):
                    raise InvalidInputError(f"monomial x^{k} x^{l} is outside 1..{dim}")
                c = (min(k, l) - 1) * dim + max(k, l) - 1
                row[c] = row.get(c, 0) + rat(v)
        super().__init__(dim, rows)

    def pair(self, i: int, j: int) -> dict[tuple[int, int], Fraction]:
        """Monomial dictionary of {x^i, x^j} for any i != j."""
        n = self.dim
        row = self.data.get((min(i, j) - 1) * n + max(i, j) - 1, {})
        return {(c // n + 1, c % n + 1): v if i < j else -v for c, v in row.items()}

    @property
    def pairs(self) -> dict[tuple[int, int], dict[tuple[int, int], Fraction]]:
        """A copy of the stored pairs, {(i, j): pair(i, j)} over i < j with {x^i, x^j} != 0."""
        n = self.dim
        return {(r // n + 1, r % n + 1): self.pair(r // n + 1, r % n + 1) for r in self.data}

    def full(self) -> Operator2:
        """The full tensor T: row (i, j) holds {x^i, x^j} for every i != j, so T_ji = -T_ij,
        and each x^k x^l term with k < l is split in halves over the columns (k, l) and (l, k).
        """
        n = self.dim
        den, rows = self._ints()
        # integer rows keep their halves as integers over twice the denominator
        square, half = (2, 1) if den is not None else (1, Q(1, 2))
        full = {}
        for r, row in rows.items():
            i, j = divmod(r, n)
            out = full[r] = {}
            for c, x in row.items():
                k, l = divmod(c, n)
                if k == l:
                    out[c] = square * x
                else:
                    out[c] = out[l * n + k] = x * half
            full[j * n + i] = {c: -x for c, x in out.items()}
        return Operator2._reduced(n, None if den is None else 2 * den, full)

    def rescale(self, d) -> "QuadraticBracket":
        """Structure constants of the bracket in coordinates xtilde^i = d_i x^i."""
        d = ratvec(d)
        return QuadraticBracket(self.dim, {
            (i, j): {(k, l): v * d[i - 1] * d[j - 1] / (d[k - 1] * d[l - 1])
                     for (k, l), v in poly.items()}
            for (i, j), poly in self.pairs.items()})


def rime_bracket(n: int, pair) -> QuadraticBracket:
    """{x^i, x^j} = c_ii (x^i)^2 + c_jj (x^j)^2 + c_ij x^i x^j with (c_ii, c_jj, c_ij) =
    ``pair(i, j)`` at each 0-based i < j: the shape ``rime_fit`` reads back."""
    rows = {}
    for i in range(n):
        for j in range(i + 1, n):
            cii, cjj, cij = pair(i, j)
            rows[i * n + j] = {i * n + i: cii, j * n + j: cjj, i * n + j: cij}
    return QuadraticBracket._entries(n, rows)


def pencil_bracket(params: PencilParams) -> QuadraticBracket:
    """{x^i,x^j} = (rho_j (x^i)^2 + rho_i (x^j)^2)/psi_ij + (a psi_ij - (rho_i+rho_j)/psi_ij) x^i x^j."""
    psi = params.psi
    rho = [params.rho(p) for p in psi]

    def pair(i, j):
        d = psi[i] - psi[j]
        return rho[j] / d, rho[i] / d, params.a * d - (rho[i] + rho[j]) / d
    return rime_bracket(len(psi), pair)


def pencil_bracket_uv_form(params: PencilParams) -> QuadraticBracket:
    """Same pencil from (a u^2 + b uv + c v^2)/psi_ij with u = psi_j x^i - psi_i x^j, v = x^i - x^j."""
    psi, a, b, c = params.psi, params.a, params.b, params.c

    def pair(i, j):
        pi, pj = psi[i], psi[j]
        d = pi - pj
        return ((a * pj * pj + b * pj + c) / d, (a * pi * pi + b * pi + c) / d,
                (-2 * a * pi * pj - b * (pi + pj) - 2 * c) / d)
    return rime_bracket(len(psi), pair)


def jacobi_residual(br: QuadraticBracket) -> dict[tuple[int, int, int], dict]:
    """Cyclic sum {x^i,{x^j,x^k}} per triple i<j<k, as degree-3 coefficient dicts.

    The Leibniz rule {x^a, x^p x^q} = {x^a, x^p} x^q + x^p {x^a, x^q}, per cyclic rotation
    (a, b, c) and term x^p x^q of {x^b, x^c}, reads each bracket off a stored integer row.
    """
    n = br.dim
    den, rows = br._ints()
    # {x^a, x^b}, 0-based, as (sign, stored row); only rows a < b are stored, so {x^a, x^a} = 0
    bracket = lambda a, b: (1, rows.get(a * n + b, {})) if a < b else (-1, rows.get(b * n + a, {}))
    out = {}
    for i, j, k in combinations(range(n), 3):
        total = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            s, inner = bracket(b, c)
            for pq, v in inner.items():
                p, q = divmod(pq, n)
                for y, z in ((p, q), (q, p)):
                    t, outer = bracket(a, y)
                    for st, w in outer.items():
                        mono = tuple(sorted((st // n + 1, st % n + 1, z + 1)))
                        total[mono] = total.get(mono, 0) + s * t * v * w
        if total := {m: v if den is None else Q(v, den * den)
                     for m, v in sorted(total.items()) if v}:
            out[(i + 1, j + 1, k + 1)] = total
    return out


def rime_fit(br: QuadraticBracket):
    """Detect {x^i,x^j} = a_ij (x^i)^2 - a_ji (x^j)^2 + 2 nu_ij x^i x^j; None if not rime."""
    n = br.dim
    a = [[ZERO] * n for _ in range(n)]
    nu = [[ZERO] * n for _ in range(n)]
    for (i, j), poly in br.pairs.items():
        allowed = {(i, i), (j, j), (i, j)}
        if set(poly) - allowed:
            return None
        a[i - 1][j - 1] = poly.get((i, i), ZERO)
        a[j - 1][i - 1] = -poly.get((j, j), ZERO)
        nu[i - 1][j - 1] = poly.get((i, j), ZERO) / 2
        nu[j - 1][i - 1] = -nu[i - 1][j - 1]
    return tuple(map(tuple, a)), tuple(map(tuple, nu))


def lie_derivative(br: QuadraticBracket, a_mat: Operator1) -> QuadraticBracket:
    """delta f^{ij} = A^i_k {x^k,x^j} + A^j_k {x^i,x^k} - x^l A^k_l d_k {x^i,x^j}.

    That is -[T, A_1 + A_2] on the bracket's full tensor T (``full``), read back from
    the rows i < j.
    """
    n = br.dim
    delta = commutator_with_sum(br.full(), a_mat)
    return QuadraticBracket(n, {(r // n + 1, r % n + 1): {(c // n + 1, c % n + 1): -v
                                                          for c, v in row.items()}
                                for r, row in delta.data.items() if r // n < r % n})


def xi_values(psi) -> list[Fraction]:
    """xi_i = sum_{s != i} 1/(psi_s - psi_i)."""
    n = len(psi)
    return [sum((ONE / (psi[s] - psi[i]) for s in range(n) if s != i), ZERO)
            for i in range(n)]


def invariance_generator(params: PencilParams) -> Operator1:
    """A(rho)^i_j = rho_i/psi_ij off-diagonal, (n-1)/2 rho'_i + rho_i xi_i on it."""
    psi = params.psi
    n = len(psi)
    xi = xi_values(psi)
    m = {}
    for i in range(n):
        ri = params.rho(psi[i])
        m[i] = {i: Q(n - 1, 2) * params.rho_prime(psi[i]) + ri * xi[i]}
        m[i].update((j, ri / (psi[i] - psi[j])) for j in range(n) if j != i)
    return Operator1._entries(n, m)


def rime_preserving_matrix(params: PencilParams, nu, diag=None) -> Operator1:
    """A^l_k = nu_k rho_l / psi_lk off-diagonal, with free (or given) diagonal."""
    psi = params.psi
    n = len(psi)
    nu = ratvec(nu)
    m = {}
    for l in range(n):
        rl = params.rho(psi[l])
        m[l] = {k: nu[k] * rl / (psi[l] - psi[k]) for k in range(n) if k != l}
    if diag is not None:
        for i in range(n):
            m[i][i] = rat(diag[i])
    return Operator1._entries(n, m)


def compensating_diagonal(params: PencilParams, nu) -> list[Fraction]:
    """Diagonal choice A^i_i = rho'_i nu_i + sum_s nu_s rho_s / psi_si killing delta2."""
    psi = params.psi
    n = len(psi)
    nu = ratvec(nu)
    out = []
    for i in range(n):
        tot = params.rho_prime(psi[i]) * nu[i]
        for s in range(n):
            if s != i:
                tot += nu[s] * params.rho(psi[s]) / (psi[s] - psi[i])
        out.append(tot)
    return out


def delta1_variation(params: PencilParams, nu) -> QuadraticBracket:
    """Closed form of the residual rime variation delta^(1)."""
    psi = params.psi
    rho = [params.rho(p) for p in psi]
    nu = ratvec(nu)

    def pair(i, j):
        d = psi[i] - psi[j]
        lead = rho[i] * rho[j] * (nu[i] - nu[j]) / (d * d)
        return lead + params.a * nu[j] * rho[j], lead - params.a * nu[i] * rho[i], -2 * lead
    return rime_bracket(len(psi), pair)


def psi_variation(params: PencilParams, dpsi) -> QuadraticBracket:
    """Closed form of the first-order change of the pencil under psi -> psi + eps dpsi."""
    psi = params.psi
    rho = [params.rho(p) for p in psi]
    dpsi = ratvec(dpsi)

    def pair(i, j):
        d = psi[i] - psi[j]
        lead = (rho[i] * dpsi[j] - rho[j] * dpsi[i]) / (d * d)
        return lead - params.a * dpsi[j], lead + params.a * dpsi[i], -2 * lead
    return rime_bracket(len(psi), pair)


def psi_variation_dual(params: PencilParams, dpsi) -> QuadraticBracket:
    """Same variation computed with dual numbers: eps-part of pencil(psi + eps dpsi)."""
    dpsi = ratvec(dpsi)
    psi = [QuadExt(p, dpsi[i], 0) for i, p in enumerate(params.psi)]
    rho = [params.rho(p) for p in psi]

    def pair(i, j):
        d = psi[i] - psi[j]
        return (rho[j] / d).b, (rho[i] / d).b, (params.a * d - (rho[i] + rho[j]) / d).b
    return rime_bracket(len(psi), pair)


def compensation_check(params: PencilParams, nu) -> dict[str, QuadraticBracket]:
    """The rime-preserving variation is a psi-reparameterization plus a rescaling."""
    br = pencil_bracket(params)
    dpsi = [params.rho(p) * rat(v) for p, v in zip(params.psi, ratvec(nu))]
    dvar_closed = psi_variation(params, dpsi)
    a_full = rime_preserving_matrix(params, nu, diag=compensating_diagonal(params, nu))
    d1 = delta1_variation(params, nu)
    return {"ris10-closed-vs-dual": dvar_closed - psi_variation_dual(params, dpsi),
            "lie-derivative-is-minus-delta1": -lie_derivative(br, a_full) - d1,
            "delta1-compensated-by-psi": d1 + dvar_closed}


# --- sl(2) structure ----------------------------------------------------------

def sl2_generators(psi) -> tuple[Operator1, Operator1, Operator1]:
    """B-, B0, B+ acting on polynomial values at the points psi."""
    psi = ratvec(psi)
    require_distinct(psi, "psi")
    n = len(psi)
    xi = xi_values(psi)
    bm, b0, bp = {}, {}, {}
    for i in range(n):
        bm[i] = {i: -xi[i]}
        b0[i] = {i: -(Q(n - 1, 2) + psi[i] * xi[i])}
        bp[i] = {i: -((n - 1) * psi[i] + psi[i] * psi[i] * xi[i])}
        for j in range(n):
            if j != i:
                d = psi[i] - psi[j]
                bm[i][j] = ONE / d
                b0[i][j] = psi[i] / d
                bp[i][j] = psi[i] * psi[i] / d
    return Operator1._entries(n, bm), Operator1._entries(n, b0), Operator1._entries(n, bp)


def varpi(y: Operator1) -> Operator1:
    """Flip the diagonal sign; an involution splitting Mat into two projector images.

    y's integer rows are relabelled as they are, over y's own denominator.
    """
    den, rows = y._ints()
    return Operator1._of(y.dim, den, {r: {c: -x if c == r else x for c, x in row.items()}
                                      for r, row in rows.items()})


def trid_residuals(y1: Operator1, y2: Operator1) -> tuple[Operator1, Operator1, Operator1]:
    """The three product identities satisfied by varpi."""
    lhs = varpi(y1) @ varpi(y2) + varpi(y1 @ y2)
    r1 = lhs - (varpi(varpi(y1) @ varpi(y2)) + y1 @ y2)
    r2 = lhs - (varpi(varpi(y1) @ y2) + y1 @ varpi(y2))
    r3 = lhs - (varpi(y1 @ varpi(y2)) + varpi(y1) @ y2)
    return r1, r2, r3


def lagrange_basis_matrix(psi) -> Operator1:
    """Columns are the coefficient vectors of l_i(t) = prod_{s != i} (t - psi_s): the
    coefficient of t^d is (-1)^(n-1-d) e_(n-1-d) of psi without psi_i, from one
    ``elem_syms_omitting`` table in O(n^2)."""
    psi = ratvec(psi)
    n = len(psi)
    omitting = elem_syms_omitting(psi)
    return Operator1([[-e[n - 1 - d] if (n - 1 - d) % 2 else e[n - 1 - d] for e in omitting]
                      for d in range(n)])


def projective_action_monomial(n: int, a, b, c) -> Operator1:
    """f -> rho f' - (n-1)/2 rho' f on span{1, t, .., t^(n-1)} in the monomial basis."""
    a, b, c = rat(a), rat(b), rat(c)
    m = {}
    half = Q(n - 1, 2)
    for k in range(n):
        # top coefficient cancels at k = n - 1, so the space is preserved
        for r, v in ((k + 1, a * k - 2 * half * a), (k, b * k - half * b), (k - 1, c * k)):
            if 0 <= r < n:
                m.setdefault(r, {})[k] = v
    return Operator1._entries(n, m)


def sl2_suite(psi) -> dict[str, object]:
    """Commutators, the Lagrange-basis projective action and the varpi identities, as residuals."""
    psi = ratvec(psi)
    n = len(psi)
    bm, b0, bp = sl2_generators(psi)
    comm = lambda x, y: x @ y - y @ x
    lag = lagrange_basis_matrix(psi)
    laginv = lag.inverse()
    # three fixed pairs of dense test matrices for the varpi identities
    samples = [(Operator1([[Q((i * 7 + j * 3 + s) % 5 - 2, 1 + (i + j + s) % 3)
                            for j in range(n)] for i in range(n)]),
                Operator1([[Q((i * 5 + j * 11 + s) % 7 - 3, 1 + (i * j + s) % 4)
                            for j in range(n)] for i in range(n)])) for s in range(3)]
    return {
        "b0-bminus": comm(b0, bm) + bm,
        "b0-bplus": comm(b0, bp) - bp,
        "bplus-bminus": comm(bp, bm) + b0.scale(2),
        "lagrange-basis-match": [
            laginv @ projective_action_monomial(n, a, b, c) @ lag
            - (bp.scale(a) + b0.scale(b) + bm.scale(c))
            for (a, b, c) in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (2, -3, Q(1, 5)))],
        "varpi-identities": [r for y1, y2 in samples for r in trid_residuals(y1, y2)],
        "varpi-involution": [varpi(varpi(m)) - m for m, _ in samples],
        "generator-is-varpi-of-projective": [
            invariance_generator(PencilParams(psi, a, b, c))
            - varpi(bp.scale(a) + b0.scale(b) + bm.scale(c))
            for (a, b, c) in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 3))],
    }


# --- discriminant moves and normal form ----------------------------------------

def discriminant_action(rho: tuple, move: str, value=None) -> tuple:
    """Coefficient maps of the shift / dilate / invert moves on rho = (a, b, c)."""
    a, b, c = (rat(x) for x in rho)
    if move == "shift":
        z = rat(value)
        return (a, b + 2 * z * a, c + z * b + z * z * a)
    if move == "dilate":
        lam = rat(value)
        if not lam:
            raise InvalidInputError("dilation must be nonzero")
        return (lam * a, b, c / lam)
    if move == "invert":
        return (-c, -b, -a)
    raise InvalidInputError(f"unknown move {move!r}")


MASSIVE = "massive-orbit"
LIGHTLIKE = "lightlike-orbit"
ZERO_POLY = "zero-polynomial"


@dataclass
class NormalFormResult:
    orbit: str
    witness: list[tuple] | None = None
    needs_quadratic_extension: bool = False
    blocked_by_psi: bool = False
    final_psi: tuple = ()
    final_rho: tuple = ()
    transport_verified: bool = False


def _apply_moves(params: PencilParams, moves) -> tuple[tuple, tuple, tuple]:
    """Run the move list; returns (psi, rho, diagonal coordinate scale)."""
    psi = list(params.psi)
    rho = (params.a, params.b, params.c)
    scale = [ONE] * len(psi)
    for move, value in moves:
        rho = discriminant_action(rho, move, value)
        # shifting rho by zeta presents the same bracket at psi - zeta,
        # dilating by lambda at psi / lambda
        if move == "shift":
            psi = [p - rat(value) for p in psi]
        elif move == "dilate":
            psi = [p / rat(value) for p in psi]
        elif move == "invert":
            if any(not p for p in psi):
                raise InvalidInputError("inversion needs nonzero psi")
            scale = [s / p for s, p in zip(scale, psi)]
            psi = [ONE / p for p in psi]
    return tuple(psi), rho, tuple(scale)


def normal_form_classify(params: PencilParams) -> NormalFormResult:
    """Branch on D(rho); produce a rational move witness to bt or c when one exists."""
    a, b, c = params.a, params.b, params.c
    if not (a or b or c):
        return NormalFormResult(ZERO_POLY, witness=[], final_psi=params.psi,
                                final_rho=(a, b, c), transport_verified=True)
    disc = params.discriminant
    orbit = MASSIVE if disc else LIGHTLIKE
    moves: list[tuple] | None = None
    needs_ext = False
    blocked = False
    if orbit == MASSIVE:
        if a == 0:
            # rho = bt + c with b != 0: one shift reaches bt
            moves = [("shift", -c / b)]
        else:
            d = perfect_square_root(disc)
            if d is None:
                needs_ext = True
            else:
                roots = [(-b + d) / (2 * a), (-b - d) / (2 * a)]
                r_inf = next((r for r in roots if r not in params.psi), None)
                if r_inf is None:
                    blocked = True
                else:
                    m1 = ("shift", r_inf)
                    rho1 = discriminant_action((a, b, c), *m1)
                    m2 = ("invert", None)
                    rho2 = discriminant_action(rho1, *m2)
                    # rho2 = (0, b2, c2); finish with a shift
                    moves = [m1, m2, ("shift", -rho2[2] / rho2[1])]
    else:
        if a == 0:
            moves = []          # b = 0 is forced by D = 0, already constant
        else:
            root = -b / (2 * a)
            if root in params.psi:
                blocked = True
            else:
                moves = [("shift", root), ("invert", None)]
    result = NormalFormResult(orbit, witness=moves,
                              needs_quadratic_extension=needs_ext,
                              blocked_by_psi=blocked)
    if moves is not None:
        psi_f, rho_f, scale = _apply_moves(params, moves)
        result.final_psi = psi_f
        result.final_rho = rho_f
        target_shape_ok = (rho_f[0] == 0 and rho_f[2] == 0) if orbit == MASSIVE \
            else (rho_f[0] == 0 and rho_f[1] == 0)
        transported = pencil_bracket(params).rescale(scale)
        target = pencil_bracket(PencilParams(psi_f, *rho_f))
        result.transport_verified = target_shape_ok and transported == target
    return result


# --- classical limits of the quantum planes ------------------------------------

def bracket_from_quantum(params, beta=None) -> QuadraticBracket:
    """Commutator defect of the rime quantum plane, as a Poisson bracket.

    Non-unitary (beta given): beta_ij = -beta psi_j/(psi_i - psi_j), producing
    beta * pencil(psi, bt).  Unitary (beta None): beta_ij = 1/(mu_i - mu_j),
    producing the constant member pencil(mu, -1).
    """
    params = ratvec(params)
    require_distinct(params)
    if beta is not None:
        beta = rat(beta)

    def pair(i, j):
        d = params[i] - params[j]
        if beta is None:
            bij, bji = ONE / d, -ONE / d
        else:
            bij, bji = -beta * params[j] / d, beta * params[i] / d
        # -(b_ij x^i + b_ji x^j)(x^i - x^j)
        return -bij, bji, bij - bji
    return rime_bracket(len(params), pair)


# --- linear rime brackets -------------------------------------------------------

def linear_bracket(a, f: dict, g: dict) -> dict[int, Fraction]:
    """{f, g} of two linear forms ({var: coeff}, 0-based) under {x^i,x^j} = a_ij x^i - a_ji x^j."""
    out: dict[int, Fraction] = {}
    for i, v in f.items():
        for j, w in g.items():
            if i == j:
                continue
            out[i] = out.get(i, ZERO) + v * w * a[i][j]
            out[j] = out.get(j, ZERO) - v * w * a[j][i]
    return {k: x for k, x in out.items() if x}


def linear_jacobi_residual(a) -> dict[tuple[int, int, int], dict[int, Fraction]]:
    """Cyclic Jacobi sums of {x^i,x^j} = a_ij x^i - a_ji x^j, per triple: for each cyclic
    rotation (u, v, w) of i < j < k, the coefficient of x^u is a_uv a_vw - a_uw a_wv."""
    a = [[rat(x) for x in row] for row in a]
    return {(i + 1, j + 1, k + 1): tot for i, j, k in combinations(range(len(a)), 3)
            if (tot := {u: c for u, v, w in ((i, j, k), (j, k, i), (k, i, j))
                        if (c := a[u][v] * a[v][w] - a[u][w] * a[w][v])})}


def jsla_residuals(a) -> dict[tuple[int, int, int], Fraction]:
    """a_ik a_kj - a_ij a_jk over distinct triples, once per i and j < k: it is odd in (j, k)."""
    a = [[rat(x) for x in row] for row in a]
    out = {}
    for i, row in enumerate(a):
        for j, k in combinations(range(len(a)), 2):
            if i != j and i != k and (v := row[k] * a[k][j] - row[j] * a[j][k]):
                out[(i + 1, j + 1, k + 1)], out[(i + 1, k + 1, j + 1)] = v, -v
    return out


def differences_commute_residuals(a) -> Deferred:
    """{x^i - x^j, x^k - x^l} for i != j and k != l, i outer, then j, k and l, 0-based,
    as one list.

    The bracket is bilinear and x^i - x^j = d_i - d_j with d_i = x^i - x^n, so the
    (n-1)^2 brackets {d_i, d_k} decide them all.  In the form, every bracket that
    vanishes is one shared empty dict.
    """
    n = len(a)
    last = n - 1
    empty = {}
    return Deferred(not any(linear_bracket(a, {i: ONE, last: -ONE}, {k: ONE, last: -ONE})
                            for i in range(last) for k in range(last)),
                    lambda: [linear_bracket(a, {i: ONE, j: -ONE}, {k: ONE, l: -ONE}) or empty
                             for i in range(n) for j in range(n) if i != j
                             for k in range(n) for l in range(n) if k != l])


def almost_trivial_residuals(a) -> Deferred:
    """{x^i, x^k - x^l} + x^k - x^l for every i and k != l, i outer, 0-based, as one list
    whose entries keep their x^k and x^l terms when zero.  Each is g(i, k) - g(i, l) with
    g(i, k) = {x^i, x^k} + x^k, by bilinearity, so the n(n-1) entries with l = n decide all."""
    n = len(a)
    entry = lambda i, k, l: sparse_minus(linear_bracket(a, {i: ONE}, {k: ONE, l: -ONE}),
                                         {k: -ONE, l: ONE})
    return Deferred(not any(v for i in range(n) for k in range(n - 1)
                            for v in entry(i, k, n - 1).values()),
                    lambda: [entry(i, k, l) for i in range(n) for k in range(n)
                             for l in range(n) if k != l])


def linear_rime_suite(n: int, draw: RationalDraw) -> dict[str, object]:
    """Jacobi <-> jsla on samples, the n >= 4 algebra and the n = 3 sl(2) case, as residuals."""
    out = {}
    # rescalings of the constant solution have a_ij = c_j; they satisfy jsla and Jacobi
    family = []
    for _ in range(5):
        u = draw.vector(n, distinct=False, nonzero=True)
        a = [[u[j] if i != j else ZERO for j in range(n)] for i in range(n)]
        family.append({"jsla": jsla_residuals(a), "jacobi": linear_jacobi_residual(a)})
    out["jsla-family-jacobi"] = family
    if n >= 3:
        # negative control: a broken a_12 shows up in both residual families
        bad = [[ZERO if i == j else ONE for j in range(n)] for i in range(n)]
        bad[0][1] = Q(5)
        out["violation-detected"] = bool(jsla_residuals(bad)) and bool(linear_jacobi_residual(bad))
    # the unique strict algebra {x^i,x^j} = x^i - x^j
    ones = [[ZERO if i == j else ONE for j in range(n)] for i in range(n)]
    out["unique-algebra-jacobi"] = linear_jacobi_residual(ones)
    out["almost-trivial"] = almost_trivial_residuals(ones)
    out["differences-commute"] = differences_commute_residuals(ones)
    if n == 3:
        a3 = [[ZERO, ONE, ONE], [ONE, ZERO, -ONE], [-ONE, -ONE, ZERO]]
        out["n3-jacobi"] = linear_jacobi_residual(a3)
        h = {0: ONE, 2: -ONE}
        e = {0: ONE, 2: ONE}
        f = {1: ONE, 0: Q(-1, 4), 2: Q(-1, 4)}
        out["n3-sl2"] = {
            "h-e": sparse_minus(linear_bracket(a3, h, e), {k: 2 * v for k, v in e.items()}),
            "h-f": sparse_minus(linear_bracket(a3, h, f), {k: -2 * v for k, v in f.items()}),
            "e-f": sparse_minus(linear_bracket(a3, e, f), h),
        }
    return out
