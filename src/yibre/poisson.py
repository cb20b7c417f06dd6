"""Quadratic rime Poisson pencil: construction, invariance and normal forms.

Brackets are stored as {x^i, x^j} for i < j, each a dictionary over sorted
degree-2 monomials; this bakes in antisymmetry in (i,j) and symmetry in (k,l).
First-order statements run over dual numbers (``QuadExt`` with d = 0, so
epsilon^2 = 0), so "infinitesimal" is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .kernel import (ONE, ZERO, InvalidInputError, QuadExt, rat, ratvec,
                     require_distinct)
from .tensor import Operator1


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


class QuadraticBracket:
    """{x^i, x^j} = sum of degree-2 monomials, stored for i < j only (1-based)."""

    def __init__(self, dim: int, pairs: dict | None = None):
        self.dim = dim
        self.pairs: dict[tuple[int, int], dict[tuple[int, int], Fraction]] = {}
        if pairs:
            for (i, j), poly in pairs.items():
                self.set_pair(i, j, poly)

    def set_pair(self, i: int, j: int, poly: dict) -> None:
        if not 1 <= i < j <= self.dim:
            raise InvalidInputError("pairs are stored with i < j")
        clean = {}
        for (k, l), v in poly.items():
            key = (min(k, l), max(k, l))
            v = rat(v)
            if v:
                clean[key] = clean.get(key, ZERO) + v
        self.pairs[(i, j)] = {m: v for m, v in clean.items() if v}

    def pair(self, i: int, j: int) -> dict[tuple[int, int], Fraction]:
        """Monomial dictionary of {x^i, x^j} for any i != j."""
        if i < j:
            return dict(self.pairs.get((i, j), {}))
        return {m: -v for m, v in self.pairs.get((j, i), {}).items()}

    def coeff(self, i: int, j: int, k: int, l: int) -> Fraction:
        """The symmetric structure constant c^{ij}_{kl}."""
        if i == j:
            return ZERO
        poly = self.pair(i, j)
        m = (min(k, l), max(k, l))
        v = poly.get(m, ZERO)
        return v if k == l else v / 2

    def is_zero(self) -> bool:
        return all(not poly for poly in self.pairs.values())

    def __eq__(self, other):
        if not isinstance(other, QuadraticBracket) or self.dim != other.dim:
            return False
        keys = set(self.pairs) | set(other.pairs)
        return all(self.pair(*k) == other.pair(*k) for k in keys)

    def rescale(self, d) -> "QuadraticBracket":
        """Structure constants of the bracket in coordinates xtilde^i = d_i x^i."""
        d = ratvec(d)
        out = QuadraticBracket(self.dim)
        for (i, j), poly in self.pairs.items():
            out.set_pair(i, j, {(k, l): v * d[i - 1] * d[j - 1] / (d[k - 1] * d[l - 1])
                                for (k, l), v in poly.items()})
        return out


def pencil_bracket(params: PencilParams) -> QuadraticBracket:
    """{x^i,x^j} = (rho_j (x^i)^2 + rho_i (x^j)^2)/psi_ij + (a psi_ij - (rho_i+rho_j)/psi_ij) x^i x^j."""
    psi = params.psi
    n = len(psi)
    br = QuadraticBracket(n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            dij = psi[i - 1] - psi[j - 1]
            ri, rj = params.rho(psi[i - 1]), params.rho(psi[j - 1])
            br.set_pair(i, j, {(i, i): rj / dij,
                               (j, j): ri / dij,
                               (i, j): params.a * dij - (ri + rj) / dij})
    return br


def pencil_bracket_uv_form(params: PencilParams) -> QuadraticBracket:
    """Same pencil from (a u^2 + b uv + c v^2)/psi_ij with u = psi_j x^i - psi_i x^j, v = x^i - x^j."""
    psi = params.psi
    n = len(psi)
    br = QuadraticBracket(n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            dij = psi[i - 1] - psi[j - 1]
            pi, pj = psi[i - 1], psi[j - 1]
            poly = {
                (i, i): (params.a * pj * pj + params.b * pj + params.c) / dij,
                (j, j): (params.a * pi * pi + params.b * pi + params.c) / dij,
                (i, j): (-2 * params.a * pi * pj - params.b * (pi + pj) - 2 * params.c) / dij,
            }
            br.set_pair(i, j, poly)
    return br


def _poly_times_var(poly: dict, var: int) -> dict:
    """Degree-2 monomial dict times x^var, as sorted degree-3 monomials."""
    out = {}
    for (k, l), v in poly.items():
        key = tuple(sorted((k, l, var)))
        out[key] = out.get(key, ZERO) + v
    return out


def _bracket_with_monomial(br: QuadraticBracket, i: int, mono: tuple[int, int]):
    """{x^i, x^k x^l} via the Leibniz rule, degree-3 dict."""
    k, l = mono
    out = {}
    for key, v in _poly_times_var(br.pair(i, k), l).items():
        out[key] = out.get(key, ZERO) + v
    for key, v in _poly_times_var(br.pair(i, l), k).items():
        out[key] = out.get(key, ZERO) + v
    return out


def jacobi_residual(br: QuadraticBracket) -> dict[tuple[int, int, int], dict]:
    """Cyclic sum {x^i,{x^j,x^k}} per triple i<j<k, as degree-3 coefficient dicts."""
    n = br.dim
    out = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                total: dict = {}
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = br.pair(b, c)
                    for mono, v in inner.items():
                        for key, w in _bracket_with_monomial(br, a, mono).items():
                            total[key] = total.get(key, ZERO) + v * w
                total = {m: v for m, v in total.items() if v}
                if total:
                    out[(i, j, k)] = total
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


def rime_bracket(n: int, a, nu) -> QuadraticBracket:
    """Assemble a bracket from rime data a_ij (zero diagonal) and antisymmetric nu_ij."""
    br = QuadraticBracket(n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            br.set_pair(i, j, {(i, i): rat(a[i - 1][j - 1]),
                               (j, j): -rat(a[j - 1][i - 1]),
                               (i, j): 2 * rat(nu[i - 1][j - 1])})
    return br


def lie_derivative(br: QuadraticBracket, a_mat: Operator1) -> QuadraticBracket:
    """delta f^{ij} = A^i_k {x^k,x^j} + A^j_k {x^i,x^k} - x^l A^k_l d_k {x^i,x^j}."""
    n = br.dim
    out = QuadraticBracket(n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            total: dict = {}

            def add(poly, scale=ONE):
                for m, v in poly.items():
                    key = (min(m), max(m))
                    total[key] = total.get(key, ZERO) + scale * v

            for k in range(1, n + 1):
                if a_mat.rows[i - 1][k - 1]:
                    add(br.pair(k, j), a_mat.rows[i - 1][k - 1])
                if a_mat.rows[j - 1][k - 1]:
                    add(br.pair(i, k), a_mat.rows[j - 1][k - 1])
            # transport term: - x^l A^k_l d_k (c_{ab} x^a x^b)
            for (aa, bb), v in br.pair(i, j).items():
                for l in range(1, n + 1):
                    w = a_mat.rows[aa - 1][l - 1]
                    if w:
                        add({(l, bb): -v * w})
                    w2 = a_mat.rows[bb - 1][l - 1]
                    if w2:
                        add({(aa, l): -v * w2})
            out.set_pair(i, j, total)
    return out


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
    m = Operator1.zero(n)
    for i in range(1, n + 1):
        ri = params.rho(psi[i - 1])
        m.rows[i - 1][i - 1] = (Fraction(n - 1, 2) * params.rho_prime(psi[i - 1])
                                + ri * xi[i - 1])
        for j in range(1, n + 1):
            if j != i:
                m.rows[i - 1][j - 1] = ri / (psi[i - 1] - psi[j - 1])
    return m


def rime_preserving_matrix(params: PencilParams, nu, diag=None) -> Operator1:
    """A^l_k = nu_k rho_l / psi_lk off-diagonal, with free (or given) diagonal."""
    psi = params.psi
    n = len(psi)
    nu = ratvec(nu)
    m = Operator1.zero(n)
    for l in range(1, n + 1):
        for k in range(1, n + 1):
            if l != k:
                m.rows[l - 1][k - 1] = nu[k - 1] * params.rho(psi[l - 1]) \
                    / (psi[l - 1] - psi[k - 1])
    if diag is not None:
        for i in range(n):
            m.rows[i][i] = rat(diag[i])
    return m


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
    n = len(psi)
    nu = ratvec(nu)
    br = QuadraticBracket(n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            dij = psi[i - 1] - psi[j - 1]
            ri, rj = params.rho(psi[i - 1]), params.rho(psi[j - 1])
            lead = ri * rj * (nu[i - 1] - nu[j - 1]) / (dij * dij)
            poly = {(i, i): lead + params.a * nu[j - 1] * rj,
                    (j, j): lead - params.a * nu[i - 1] * ri,
                    (i, j): -2 * lead}
            br.set_pair(i, j, poly)
    return br


def psi_variation(params: PencilParams, dpsi) -> QuadraticBracket:
    """Closed form of the first-order change of the pencil under psi -> psi + eps dpsi."""
    psi = params.psi
    n = len(psi)
    dpsi = ratvec(dpsi)
    br = QuadraticBracket(n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            dij = psi[i - 1] - psi[j - 1]
            ri, rj = params.rho(psi[i - 1]), params.rho(psi[j - 1])
            lead = (ri * dpsi[j - 1] - rj * dpsi[i - 1]) / (dij * dij)
            poly = {(i, i): lead - params.a * dpsi[j - 1],
                    (j, j): lead + params.a * dpsi[i - 1],
                    (i, j): -2 * lead}
            br.set_pair(i, j, poly)
    return br


def psi_variation_dual(params: PencilParams, dpsi) -> QuadraticBracket:
    """Same variation computed with dual numbers: eps-part of pencil(psi + eps dpsi)."""
    psi = params.psi
    n = len(psi)
    dpsi = ratvec(dpsi)
    rho = lambda t: params.a * t * t + params.b * t + params.c
    br = QuadraticBracket(n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            pi = QuadExt(psi[i - 1], dpsi[i - 1], 0)
            pj = QuadExt(psi[j - 1], dpsi[j - 1], 0)
            dij = pi - pj
            ri, rj = rho(pi), rho(pj)
            poly = {(i, i): (rj / dij).b,
                    (j, j): (ri / dij).b,
                    (i, j): (params.a * dij - (ri + rj) / dij).b}
            br.set_pair(i, j, poly)
    return br


@dataclass
class CompensationReport:
    ris10_matches_dual: bool
    lie_derivative_is_minus_delta1: bool
    delta1_compensated_by_psi: bool

    def all_ok(self) -> bool:
        return (self.ris10_matches_dual and self.lie_derivative_is_minus_delta1
                and self.delta1_compensated_by_psi)


def compensation_check(params: PencilParams, nu) -> CompensationReport:
    """The rime-preserving variation is a psi-reparameterization plus a rescaling."""
    br = pencil_bracket(params)
    dpsi = [params.rho(p) * rat(v) for p, v in zip(params.psi, ratvec(nu))]
    dvar_closed = psi_variation(params, dpsi)
    dvar_dual = psi_variation_dual(params, dpsi)
    a_full = rime_preserving_matrix(params, nu, diag=compensating_diagonal(params, nu))
    dx = lie_derivative(br, a_full)
    d1 = delta1_variation(params, nu)
    minus_dx = QuadraticBracket(br.dim)
    for (i, j), poly in dx.pairs.items():
        minus_dx.set_pair(i, j, {m: -v for m, v in poly.items()})
    comp = QuadraticBracket(br.dim)
    for i in range(1, br.dim + 1):
        for j in range(i + 1, br.dim + 1):
            tot = dict(d1.pair(i, j))
            for m, v in dvar_closed.pair(i, j).items():
                tot[m] = tot.get(m, ZERO) + v
            comp.set_pair(i, j, tot)
    return CompensationReport(dvar_closed == dvar_dual, minus_dx == d1, comp.is_zero())


# --- sl(2) structure ----------------------------------------------------------

def sl2_generators(psi) -> tuple[Operator1, Operator1, Operator1]:
    """B-, B0, B+ acting on polynomial values at the points psi."""
    psi = ratvec(psi)
    require_distinct(psi, "psi")
    n = len(psi)
    xi = xi_values(psi)
    bm, b0, bp = Operator1.zero(n), Operator1.zero(n), Operator1.zero(n)
    for i in range(n):
        bm.rows[i][i] = -xi[i]
        b0.rows[i][i] = -(Fraction(n - 1, 2) + psi[i] * xi[i])
        bp.rows[i][i] = -((n - 1) * psi[i] + psi[i] * psi[i] * xi[i])
        for j in range(n):
            if j != i:
                d = psi[i] - psi[j]
                bm.rows[i][j] = ONE / d
                b0.rows[i][j] = psi[i] / d
                bp.rows[i][j] = psi[i] * psi[i] / d
    return bm, b0, bp


def varpi(y: Operator1) -> Operator1:
    """Flip the diagonal sign; an involution splitting Mat into two projector images."""
    out = Operator1([row[:] for row in y.rows])
    for i in range(y.dim):
        out.rows[i][i] = -out.rows[i][i]
    return out


def trid_residuals(y1: Operator1, y2: Operator1) -> tuple[Operator1, Operator1, Operator1]:
    """The three product identities satisfied by varpi."""
    lhs = varpi(y1) @ varpi(y2) + varpi(y1 @ y2)
    r1 = lhs - (varpi(varpi(y1) @ varpi(y2)) + y1 @ y2)
    r2 = lhs - (varpi(varpi(y1) @ y2) + y1 @ varpi(y2))
    r3 = lhs - (varpi(y1 @ varpi(y2)) + varpi(y1) @ y2)
    return r1, r2, r3


def lagrange_basis_matrix(psi) -> Operator1:
    """Columns are the coefficient vectors of l_i(t) = prod_{s != i} (t - psi_s)."""
    psi = ratvec(psi)
    n = len(psi)
    cols = []
    for i in range(n):
        coeffs = [ONE]
        for s in range(n):
            if s == i:
                continue
            # multiply by (t - psi_s)
            nxt = [ZERO] * (len(coeffs) + 1)
            for d, cv in enumerate(coeffs):
                nxt[d] -= cv * psi[s]
                nxt[d + 1] += cv
            coeffs = nxt
        cols.append(coeffs)
    return Operator1([[cols[j][d] for j in range(n)] for d in range(n)])


def projective_action_monomial(n: int, a, b, c) -> Operator1:
    """f -> rho f' - (n-1)/2 rho' f on span{1, t, .., t^(n-1)} in the monomial basis."""
    a, b, c = rat(a), rat(b), rat(c)
    m = Operator1.zero(n)
    half = Fraction(n - 1, 2)
    for k in range(n):
        # top coefficient cancels at k = n - 1, so the space is preserved
        if k + 1 <= n - 1:
            m.rows[k + 1][k] += a * k - 2 * half * a
        m.rows[k][k] += b * k - half * b
        if k - 1 >= 0:
            m.rows[k - 1][k] += c * k
    return m


def sl2_suite(psi, seed_mats=None) -> dict[str, bool]:
    """Commutators, the Lagrange-basis projective action and the varpi identities."""
    psi = ratvec(psi)
    n = len(psi)
    bm, b0, bp = sl2_generators(psi)
    comm = lambda x, y: x @ y - y @ x
    out = {
        "b0-bminus": comm(b0, bm) == -bm,
        "b0-bplus": comm(b0, bp) == bp,
        "bplus-bminus": comm(bp, bm) == b0.scale(-2),
    }
    lag = lagrange_basis_matrix(psi)
    laginv = lag.inverse()
    ok = True
    for (a, b, c) in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (2, -3, Fraction(1, 5))):
        mono = projective_action_monomial(n, a, b, c)
        in_lagrange = laginv @ mono @ lag
        combo = bp.scale(a) + b0.scale(b) + bm.scale(c)
        if in_lagrange != combo:
            ok = False
    out["lagrange-basis-match"] = ok
    if seed_mats is None:
        seed_mats = [(Operator1([[Fraction((i * 7 + j * 3 + s) % 5 - 2, 1 + (i + j + s) % 3)
                                  for j in range(n)] for i in range(n)]),
                      Operator1([[Fraction((i * 5 + j * 11 + s) % 7 - 3, 1 + (i * j + s) % 4)
                                  for j in range(n)] for i in range(n)])) for s in range(3)]
    trid_ok = True
    for y1, y2 in seed_mats:
        for r in trid_residuals(y1, y2):
            if not r.is_zero():
                trid_ok = False
    out["varpi-identities"] = trid_ok
    out["varpi-involution"] = all(varpi(varpi(m)) == m for m, _ in seed_mats)
    out["generator-is-varpi-of-projective"] = True
    for (a, b, c) in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 3)):
        params = PencilParams(psi, a, b, c)
        combo = bp.scale(a) + b0.scale(b) + bm.scale(c)
        if invariance_generator(params) != varpi(combo):
            out["generator-is-varpi-of-projective"] = False
    return out


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


def _is_rational_square(x: Fraction):
    if x < 0:
        return None
    from math import isqrt
    rn, rd = isqrt(x.numerator), isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


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
            d = _is_rational_square(disc)
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
    n = len(params)
    br = QuadraticBracket(n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            d = params[i - 1] - params[j - 1]
            if beta is None:
                bij, bji = ONE / d, -ONE / d
            else:
                bij = -rat(beta) * params[j - 1] / d
                bji = rat(beta) * params[i - 1] / d
            # -(b_ij x^i + b_ji x^j)(x^i - x^j)
            br.set_pair(i, j, {(i, i): -bij, (i, j): bij - bji, (j, j): bji})
    return br


# --- linear rime brackets -------------------------------------------------------

def linear_jacobi_residual(a) -> dict[tuple[int, int, int], dict[int, Fraction]]:
    """Cyclic Jacobi sums of {x^i,x^j} = a_ij x^i - a_ji x^j, per triple."""
    n = len(a)
    a = [[rat(x) for x in row] for row in a]

    def br(i, j):
        # linear form of {x^i, x^j} as {var: coeff}, 0-based vars
        if i == j:
            return {}
        return {i: a[i][j], j: -a[j][i]}

    def br_form(i, form):
        out: dict[int, Fraction] = {}
        for k, v in form.items():
            for var, w in br(i, k).items():
                out[var] = out.get(var, ZERO) + v * w
        return {k: v for k, v in out.items() if v}

    res = {}
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                tot: dict[int, Fraction] = {}
                for (x, y, z) in ((i, j, k), (j, k, i), (k, i, j)):
                    for var, v in br_form(x, br(y, z)).items():
                        tot[var] = tot.get(var, ZERO) + v
                tot = {m: v for m, v in tot.items() if v}
                if tot:
                    res[(i + 1, j + 1, k + 1)] = tot
    return res


def jsla_residuals(a) -> dict[tuple[int, int, int], Fraction]:
    """a_ik a_kj - a_ij a_jk over distinct triples."""
    n = len(a)
    a = [[rat(x) for x in row] for row in a]
    out = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if len({i, j, k}) == 3:
                    v = a[i][k] * a[k][j] - a[i][j] * a[j][k]
                    if v:
                        out[(i + 1, j + 1, k + 1)] = v
    return out


def linear_rime_suite(n: int, draw=None) -> dict[str, bool]:
    """Jacobi <-> jsla on samples, the n >= 4 algebra, and the n = 3 sl(2) case."""
    out = {}
    # rescalings of the constant solution have a_ij = c_j; they satisfy jsla and Jacobi
    from .kernel import RationalDraw
    rd = draw or RationalDraw(123)
    ok = True
    for _ in range(5):
        u = rd.vector(n, distinct=False, nonzero=True)
        a = [[u[j] if i != j else ZERO for j in range(n)] for i in range(n)]
        if jsla_residuals(a) or linear_jacobi_residual(a):
            ok = False
    out["jsla-family-jacobi"] = ok
    if n >= 3:
        bad = [[ZERO if i == j else ONE for j in range(n)] for i in range(n)]
        bad[0][1] = Fraction(5)
        out["violation-detected"] = bool(jsla_residuals(bad)) and bool(linear_jacobi_residual(bad))
    # the unique strict algebra {x^i,x^j} = x^i - x^j
    ones = [[ZERO if i == j else ONE for j in range(n)] for i in range(n)]
    out["unique-algebra-jacobi"] = not linear_jacobi_residual(ones)

    def br_ones(form1, form2):
        # bracket of two linear forms under {x^i,x^j} = x^i - x^j
        res: dict[int, Fraction] = {}
        for i, v in form1.items():
            for j, w in form2.items():
                if i == j:
                    continue
                res[i] = res.get(i, ZERO) + v * w
                res[j] = res.get(j, ZERO) - v * w
        return {k: v for k, v in res.items() if v}

    almost = True
    for i in range(n):
        for k in range(n):
            for l in range(n):
                if k == l:
                    continue
                got = br_ones({i: ONE}, {k: ONE, l: -ONE})
                want = {k: -ONE, l: ONE}
                if got != {m: v for m, v in want.items() if v}:
                    almost = False
    out["almost-trivial"] = almost
    differences_central = True
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    if i == j or k == l:
                        continue
                    if br_ones({i: ONE, j: -ONE}, {k: ONE, l: -ONE}):
                        differences_central = False
    out["differences-commute"] = differences_central
    if n == 3:
        a3 = [[ZERO, ONE, ONE], [ONE, ZERO, -ONE], [-ONE, -ONE, ZERO]]
        out["n3-jacobi"] = not linear_jacobi_residual(a3)

        def br3(f1, f2):
            res: dict[int, Fraction] = {}
            for i, v in f1.items():
                for j, w in f2.items():
                    if i == j:
                        continue
                    res[i] = res.get(i, ZERO) + v * w * a3[i][j]
                    res[j] = res.get(j, ZERO) - v * w * a3[j][i]
            return {k: x for k, x in res.items() if x}

        h = {0: ONE, 2: -ONE}
        e = {0: ONE, 2: ONE}
        f = {1: ONE, 0: Fraction(-1, 4), 2: Fraction(-1, 4)}
        scale2 = lambda form, s: {k: s * v for k, v in form.items()}
        out["n3-sl2"] = (br3(h, e) == scale2(e, 2) and br3(h, f) == scale2(f, -2)
                         and br3(e, f) == h)
    return out
