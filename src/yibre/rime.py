"""Rime R-matrix constructors and their structure theory.

A rime matrix is R^{ij}_{kl} = alpha_ij d^i_l d^j_k + beta_ij d^i_k d^j_l
+ gamma_ij d^i_k d^i_l + gamma'_ij d^j_k d^j_l (no summation), the weakening of
the ice condition where the lower index set need only be contained in the
upper one.  The strict solutions form one projective family per value of the
Hecke parameter beta; this module builds them and checks everything the
family is supposed to satisfy: the Hecke relation, eigenvalue multiplicities,
skew-invertibility with closed-form quantum traces, the invariance groups and
the full equation system that characterizes rime Yang-Baxter solutions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb

from .kernel import (ONE, ZERO, Deferred, InvalidInputError, NotSkewInvertibleError, cleared,
                     products_omitting, rat, ratvec, require_distinct)
from .rational import Q
from .tensor import (Operator1, Operator2, _row_product_into, hecke_residual, permutation_P,
                     reshuffled_matrix)


@dataclass(frozen=True)
class RimeData:
    """Coefficient family (alpha_i, alpha_ij, beta_ij, gamma_ij, gamma'_ij).

    Grids are 1-based via the accessors; beta, gamma and gamma' vanish on the
    diagonal (redundancy fix), alpha_ii is stored in ``alpha``.
    """

    dim: int
    alpha: tuple[Fraction, ...]
    alpha_ij: tuple[tuple[Fraction, ...], ...]
    beta_ij: tuple[tuple[Fraction, ...], ...]
    gamma_ij: tuple[tuple[Fraction, ...], ...]
    gamma_prime_ij: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = self.dim
        for grid in (self.beta_ij, self.gamma_ij, self.gamma_prime_ij):
            for i in range(n):
                if grid[i][i]:
                    raise InvalidInputError("beta/gamma/gamma' must vanish on the diagonal")

    def a(self, i, j):
        return self.alpha[i - 1] if i == j else self.alpha_ij[i - 1][j - 1]

    def b(self, i, j):
        return self.beta_ij[i - 1][j - 1]

    def g(self, i, j):
        return self.gamma_ij[i - 1][j - 1]

    def gp(self, i, j):
        return self.gamma_prime_ij[i - 1][j - 1]

    def iota(self) -> "RimeData":
        """Involution alpha_ij <-> alpha_ji, beta_ij <-> beta_ji, gamma_ij <-> gamma'_ji."""
        n = self.dim
        tr = lambda g: tuple(tuple(g[j][i] for j in range(n)) for i in range(n))
        return RimeData(n, self.alpha, tr(self.alpha_ij), tr(self.beta_ij),
                        tr(self.gamma_prime_ij), tr(self.gamma_ij))

    def replace_entry(self, grid: str, i: int, j: int, value) -> "RimeData":
        """Copy with one off-diagonal entry overwritten (for mutation tests)."""
        if i == j:
            raise InvalidInputError("mutations act on off-diagonal entries")
        fields = {"alpha_ij": self.alpha_ij, "beta_ij": self.beta_ij,
                  "gamma_ij": self.gamma_ij, "gamma_prime_ij": self.gamma_prime_ij}
        g = [list(r) for r in fields[grid]]
        g[i - 1][j - 1] = rat(value)
        fields[grid] = tuple(tuple(r) for r in g)
        return RimeData(self.dim, self.alpha, fields["alpha_ij"], fields["beta_ij"],
                        fields["gamma_ij"], fields["gamma_prime_ij"])


class RimeClass(enum.Enum):
    ICE = "ice"
    RIME_NON_STRICT = "rime-non-strict"
    RIME_STRICT = "rime-strict"
    NOT_RIME = "not-rime"


def assemble_rime(data: RimeData) -> Operator2:
    """Assemble the 4-coefficient family into the two-leg operator.

    Row (i, j), i != j, holds alpha_ij at (j, i), beta_ij at (i, j), gamma_ij at
    (i, i) and gamma'_ij at (j, j): four distinct columns, so no entry is summed.
    """
    n = data.dim
    rows = {}
    for i in range(n):
        rows[i * n + i] = {i * n + i: rat(data.alpha[i])}
        for j in range(n):
            if i != j:
                rows[i * n + j] = {j * n + i: rat(data.alpha_ij[i][j]),
                                   i * n + j: rat(data.beta_ij[i][j]),
                                   i * n + i: rat(data.gamma_ij[i][j]),
                                   j * n + j: rat(data.gamma_prime_ij[i][j])}
    return Operator2._entries(n, rows)


def extract_rime_data(r: Operator2) -> RimeData | None:
    """Read the coefficient family back off a matrix; None when not rime."""
    n = r.dim
    for i, j, k, l, v in r.four_index_items():
        if not {k, l} <= {i, j}:
            return None
    z = [[ZERO] * n for _ in range(n)]
    alpha_ij = [row[:] for row in z]
    beta = [row[:] for row in z]
    gamma = [row[:] for row in z]
    gammap = [row[:] for row in z]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            alpha_ij[i - 1][j - 1] = r.get(i, j, j, i)
            beta[i - 1][j - 1] = r.get(i, j, i, j)
            gamma[i - 1][j - 1] = r.get(i, j, i, i)
            gammap[i - 1][j - 1] = r.get(i, j, j, j)
    alpha = tuple(r.get(i, i, i, i) for i in range(1, n + 1))
    tupled = lambda g: tuple(tuple(row) for row in g)
    return RimeData(n, alpha, tupled(alpha_ij), tupled(beta), tupled(gamma), tupled(gammap))


def classify(r: Operator2) -> RimeClass:
    """Ice / strict rime / non-strict rime / not rime, decided on the matrix."""
    data = extract_rime_data(r)
    if data is None:
        return RimeClass.NOT_RIME
    n = data.dim
    ice = all(not data.g(i, j) and not data.gp(i, j)
              for i in range(1, n + 1) for j in range(1, n + 1) if i != j)
    if ice:
        return RimeClass.ICE
    strict = all(data.a(i, j) * data.g(i, j)
                 for i in range(1, n + 1) for j in range(1, n + 1) if i != j)
    return RimeClass.RIME_STRICT if strict else RimeClass.RIME_NON_STRICT


def strict_rime_data(phi, beta) -> RimeData:
    """Coefficients of the non-unitary family: beta_ij = beta*phi_i/(phi_i-phi_j)."""
    phi = ratvec(phi)
    beta = rat(beta)
    require_distinct(phi, "phi")
    n = len(phi)
    b = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                b[i][j] = beta * phi[i] / (phi[i] - phi[j])
    return _data_from_beta(n, b)


def unitary_rime_data(mu) -> RimeData:
    """Coefficients of the unitary family: beta_ij = 1/(mu_i - mu_j)."""
    mu = ratvec(mu)
    require_distinct(mu, "mu")
    n = len(mu)
    b = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                b[i][j] = ONE / (mu[i] - mu[j])
    return _data_from_beta(n, b)


def _data_from_beta(n: int, b) -> RimeData:
    # gauge-fixed solution shape: alpha_ij = 1 - beta_ji, gamma_ij = -beta_ij,
    # gamma'_ij = beta_ji, alpha_i = 1
    alpha_ij = [[ZERO] * n for _ in range(n)]
    gamma = [[ZERO] * n for _ in range(n)]
    gammap = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                alpha_ij[i][j] = ONE - b[j][i]
                gamma[i][j] = -b[i][j]
                gammap[i][j] = b[j][i]
    t = lambda g: tuple(tuple(row) for row in g)
    return RimeData(n, (ONE,) * n, t(alpha_ij), t(b), t(gamma), t(gammap))


def strict_rime_R(phi, beta) -> Operator2:
    return assemble_rime(strict_rime_data(phi, beta))


def unitary_rime_R(mu) -> Operator2:
    return assemble_rime(unitary_rime_data(mu))


@dataclass(frozen=True)
class EigenReport:
    multiplicity_one: int
    multiplicity_beta_minus_one: int
    jordan: bool


def eigen_multiplicities(r: Operator2, beta) -> EigenReport:
    """Multiplicities of the Hecke eigenvalues 1 and beta-1 (Jordan flag at beta=2)."""
    beta = rat(beta)
    if not hecke_residual(r, beta).is_zero():
        raise InvalidInputError("matrix is not Hecke with the given beta")
    n2 = r.dim ** 2
    ident = Operator2.identity(r.dim)
    if beta == 2:
        nontrivial = not (r - ident).is_zero()
        return EigenReport(n2, 0, nontrivial)
    m1 = n2 - (r - ident).rank()
    m2 = n2 - (r - ident.scale(beta - ONE)).rank()
    return EigenReport(m1, m2, False)


def quantum_trace_closed_forms(data: RimeData) -> tuple[Operator1, Operator1]:
    """Closed-form left/right quantum traces of a rime solution.

    Q^k_j = -beta_jk prod_{l != k} (1 - beta_jl) off the diagonal with
    Q^j_j = prod_l (1 - beta_jl); the tilde version uses beta_lj.  Each column
    takes every prod_{l != k} from ``products_omitting``, which divides by no
    factor, so beta_jl = 1 is allowed; both traces cost O(n^2) scalar operations.
    """
    n = data.dim
    q, qt = {}, {}
    for j in range(n):
        bj = data.beta_ij[j]
        for out, coefficient, factors in ((q, [-v for v in bj], [ONE - v for v in bj]),
                                          (qt, bj, [ONE - row[j] for row in data.beta_ij])):
            # factor j is 1 - beta_jj = 1, so the diagonal prod_l is rest[j]
            for k, rest in enumerate(products_omitting(factors)):
                out.setdefault(k, {})[j] = rest if k == j else coefficient[k] * rest
    return Operator1._entries(n, q), Operator1._entries(n, qt)


def quantum_traces(r: Operator2) -> tuple[Operator1, Operator1]:
    """Q = Tr_2 Psi_R and Qtilde = Tr_1 Psi_R, with no Psi_R formed.

    The skew inverse solves Tr_2(R_12 Psi_23) = P_13, which flattens to
    M Psi' = P' with M the reshuffled matrix and Psi'[(g,b),(c,f)] = Psi^{gc}_{bf}.
    Since P' u = u for u = sum_a e_(a,a), the trace Q^i_k = (Psi' u)[(i,k)] is
    x[(i,k)] with M x = u, and Qtilde^j_l = (u^T Psi')[(j,l)] is w[(l,j)] with
    M^T w = u.  A singular M means R is not skew invertible.
    """
    n = r.dim
    m = reshuffled_matrix(r)
    u = {a * n + a: 1 for a in range(n)}
    try:
        x = m.solve(u)
    except InvalidInputError as exc:
        raise NotSkewInvertibleError("reshuffled matrix is singular") from exc
    w = m.transpose().solve(u)
    return (Operator1([[x.get(i * n + k, ZERO) for k in range(n)] for i in range(n)]),
            Operator1([[w.get(l * n + j, ZERO) for l in range(n)] for j in range(n)]))


def quantum_trace_residuals(r: Operator2, q: Operator1,
                            qt: Operator1) -> tuple[Deferred, Deferred]:
    """(q - Q, qt - Qtilde) for (Q, Qtilde) = ``quantum_traces(r)``, each decided with no solve.

    One forward elimination shows the reshuffled matrix M nonsingular (a
    singular M raises NotSkewInvertibleError, as there).  Then M x = u has one
    solution, so q = Q iff M vec(q) = u with vec(q)[(i,k)] = q^i_k, and
    qt = Qtilde iff M^T w = u with w[(l,j)] = qt^j_l: each trace is decided by
    one product, its defect, on integers.  The two forms share one solve.
    """
    n = r.dim
    m = reshuffled_matrix(r)
    if m.rank() < m.size:
        raise NotSkewInvertibleError("reshuffled matrix is singular")
    # integer rows over den, or entries over None, which reads as 1
    mden, mrows = m._ints()
    qden, qrows = q._ints()
    tden, trows = qt._ints()
    vq = {i * n + k: v for i, row in qrows.items() for k, v in row.items()}
    wt = {l * n + j: v for j, row in trows.items() for l, v in row.items()}
    # (M x)[a] is x times M's transpose, (M^T w)[a] is w times M
    mk = mden or 1
    traces = cache(lambda: quantum_traces(r))
    return (Deferred(_is_unit_sum(_row_product_into({}, vq, m.transpose()._ints()[1]), n,
                                  mk * (qden or 1)), lambda: q - traces()[0]),
            Deferred(_is_unit_sum(_row_product_into({}, wt, mrows), n, mk * (tden or 1)),
                     lambda: qt - traces()[1]))


def _is_unit_sum(vec: dict, n: int, k) -> bool:
    """Whether vec, its zeros dropped, is k u with u = sum_a e_(a,a)."""
    return {c: v for c, v in vec.items() if v} == {a * n + a: k for a in range(n)}


def jordan_action_coefficients(n: int, i: int) -> tuple[Fraction, ...]:
    """Coefficients binom(n-1-s, i-s) of Q w_i = sum_s c_s w_s in the unitary case."""
    return tuple(Q(comb(n - 1 - s, i - s)) if i - s >= 0 and n - 1 - s >= i - s else ZERO
                 for s in range(n))


def _invariance_matrix(n: int, numerator, denominator, coefficient) -> Operator1:
    """Y^j_j = prod_{l != j} f_jl and Y^i_j = c_ji prod_{l != i,j} f_jl (0-based), on ints.

    Each factor is f_jl = numerator(j, l) / denominator(j, l) and each
    coefficient c_ji = coefficient(j) / denominator(j, i), all ints.  Column j
    has the one denominator prod_{l != j} denominator(j, l), and its numerators
    are products omitting one factor from ``products_omitting``, which divides
    by none, so a zero f_jl is allowed: O(n^2) int operations and one Q per
    entry instead of O(n^3) rational products.
    """
    y = {}
    for j in range(n):
        others = [l for l in range(n) if l != j]
        f = [numerator(j, l) for l in others]
        den = 1
        for l in others:
            den *= denominator(j, l)
        rest = products_omitting(f)
        y.setdefault(j, {})[j] = Q(rest[0] * f[0] if f else 1, den)
        c = coefficient(j)
        for i, ri in zip(others, rest):
            y.setdefault(i, {})[j] = Q(c * ri, den)
    return Operator1._entries(n, y)


def invariance_Y(phi, u, v) -> Operator1:
    """Two-parameter invariance matrix Y(u,v) of the non-unitary family.

    With phi = Phi/D on ints, f_jl = (u phi_j - v phi_l)/(phi_j - phi_l) is
    (u' v_d Phi_j - v' u_d Phi_l) / (u_d v_d (Phi_j - Phi_l)) for u = u'/u_d and
    v = v'/v_d, and c_ji = (u - v) phi_j/(phi_j - phi_i) has the numerator
    (u' v_d - v' u_d) Phi_j over the same denominator.
    """
    phi = ratvec(phi)
    require_distinct(phi, "phi")
    u, v = rat(u), rat(v)
    if not u or not v:
        raise InvalidInputError("u and v must be nonzero")
    _, p = cleared(phi)
    un, vn = u.numerator * v.denominator, v.numerator * u.denominator
    d = u.denominator * v.denominator
    return _invariance_matrix(len(phi), lambda j, l: un * p[j] - vn * p[l],
                              lambda j, l: d * (p[j] - p[l]), lambda j: (un - vn) * p[j])


def invariance_Y0(mu, a) -> Operator1:
    """One-parameter invariance matrix Y0(a) of the unitary family; additive in a.

    With mu = M/D on ints and a = a'/a_d, f_jl = 1 + a/(mu_j - mu_l) is
    (a_d (M_j - M_l) + a' D) / (a_d (M_j - M_l)), and c_ji = a/(mu_j - mu_i) has
    the numerator a' D over the same denominator.
    """
    mu = ratvec(mu)
    require_distinct(mu, "mu")
    a = rat(a)
    big_d, m = cleared(mu)
    ad, shift = a.denominator, a.numerator * big_d
    return _invariance_matrix(len(mu), lambda j, l: ad * (m[j] - m[l]) + shift,
                              lambda j, l: ad * (m[j] - m[l]), lambda j: shift)


def invariance_generator(kind: str, params) -> Operator1:
    """Traceless generator of the determinant-one invariance subgroup.

    kind 'nonunitary' takes phi, kind 'unitary' takes mu.  Both are the
    derivatives of the invariance families at the identity, so they satisfy
    [R, eta_1 + eta_2] = 0.
    """
    params = ratvec(params)
    require_distinct(params)
    n = len(params)
    if kind == "nonunitary":
        # d/dt Y(1 + t/2, 1 - t/2) at t=0: eta^i_j = phi_j/(phi_j - phi_i) off the
        # diagonal, eta^j_j = sum_{l != j} phi_j/(phi_j - phi_l) - (n-1)/2
        offdiag, shift = lambda j, i: params[j] / (params[j] - params[i]), -Q(n - 1, 2)
    elif kind == "unitary":
        # eta^i_j = 1/(mu_j - mu_i) off the diagonal, eta^j_j = sum_{l != j} 1/(mu_j - mu_l)
        offdiag, shift = lambda j, i: ONE / (params[j] - params[i]), ZERO
    else:
        raise InvalidInputError(f"unknown generator kind {kind!r}")
    eta = {i: {} for i in range(n)}
    for j in range(n):
        col = {i: offdiag(j, i) for i in range(n) if i != j}
        col[j] = sum(col.values(), shift)
        for i, v in col.items():
            eta[i][j] = v
    return Operator1._entries(n, eta)


# --- full equation system for the rime Yang-Baxter Ansatz -------------------

# Each equation reads padded 1-based coefficient grids: A[i][j] = alpha_ij with
# A[i][i] = alpha_i, B[i][j] = beta_ij, G[i][j] = gamma_ij, GP[i][j] = gamma'_ij.

_PAIR_EQUATIONS = {  # name -> residual over an ordered pair (i,j), i != j
    "yb1": lambda A, B, G, GP, i, j: A[i][j] * G[i][j] * (G[j][i] + GP[i][j]),
    "yb2a": lambda A, B, G, GP, i, j: A[i][j] * (B[i][j] * B[j][i] + G[i][j] * GP[i][j]),
    "yb2b": lambda A, B, G, GP, i, j: A[i][j] * (B[i][j] * B[j][i] - G[i][j] * G[j][i]),
    "yb3a": lambda A, B, G, GP, i, j: A[i][j] * G[i][j] * (A[i][j] + B[j][i] - A[j][j]),
    "yb3b": lambda A, B, G, GP, i, j: A[i][j] * G[i][j] * (A[j][i] + B[i][j] - A[j][j]),
    "yb4": lambda A, B, G, GP, i, j: (
        B[i][j] * (A[i][i] ** 2 - A[i][j] * A[j][i] - A[i][i] * B[i][j])
        + (A[i][i] - B[i][j]) * G[i][j] * GP[i][j]),
    "eI": lambda A, B, G, GP, i, j: (
        (A[i][i] - A[j][j]) * G[i][j] ** 2 + A[i][j] * G[i][j] * (G[i][j] + GP[j][i])),
    "eI1": lambda A, B, G, GP, i, j: (
        A[i][j] * B[i][j] * GP[j][i] + (A[i][i] * B[i][j] + GP[i][j] * G[i][j]) * G[i][j]),
    "eI2a": lambda A, B, G, GP, i, j: (
        (A[i][j] - A[j][i] - B[i][j] + B[j][i]) * G[i][j] * GP[j][i]),
    "eI2b": lambda A, B, G, GP, i, j: (
        (A[i][j] - A[j][i] - B[i][j] + B[j][i]) * B[i][j] * B[j][i]),
    "eI3": lambda A, B, G, GP, i, j: (
        A[i][j] * GP[j][i] * (A[j][j] - A[i][j])
        + B[j][i] * G[i][j] * (A[i][i] - B[j][i])
        + G[i][j] * (B[i][j] * B[j][i] + G[j][i] * GP[j][i])),
    "eI4": lambda A, B, G, GP, i, j: (
        (A[i][i] ** 2 - A[i][i] * (A[j][i] + B[j][i])
         + B[i][j] * B[j][i] - G[i][j] * G[j][i]) * G[i][j]
        - (A[i][i] ** 2 - A[i][i] * (A[i][j] + B[i][j])
           + B[i][j] * B[j][i] - GP[i][j] * GP[j][i]) * GP[j][i]),
}

_TRIPLE_EQUATIONS = {  # name -> residual over an ordered triple (i,j,k) of distinct indices
    "ee1": lambda A, B, G, GP, i, j, k: (
        (A[i][j] - A[k][i] - B[i][j] + B[k][i]) * G[i][j] * GP[k][i]),
    "ee2": lambda A, B, G, GP, i, j, k: (
        A[i][j] * (B[i][j] * B[j][k] + B[i][k] * B[j][i] - B[i][k] * B[j][k])),
    "ee3a": lambda A, B, G, GP, i, j, k: (
        A[i][j] * (G[i][j] * G[j][k] + G[i][k] * (B[j][k] - B[j][i]))),
    "ee3b": lambda A, B, G, GP, i, j, k: (
        A[i][j] * (G[i][j] * GP[k][j] + G[i][k] * (B[k][j] - B[i][j]))),
    "ee4": lambda A, B, G, GP, i, j, k: (
        (A[i][j] * A[j][i] - A[j][k] * A[k][j]) * B[i][k]
        + B[i][j] * B[j][k] * (B[i][j] - B[j][k])),
    "ee5": lambda A, B, G, GP, i, j, k: (
        (A[i][i] + B[i][k] - B[j][i]) * B[j][i] * G[i][k]
        + G[i][k] * G[j][i] * GP[j][i]
        + A[i][k] * (G[j][k] * GP[j][i] + B[j][k] * GP[k][i])),
    "ee6": lambda A, B, G, GP, i, j, k: (
        (A[i][i] + A[i][j] - A[k][j] - B[k][j]) * G[i][j] * G[i][k]
        - G[i][k] ** 2 * G[k][j]
        + G[i][j] * (A[i][k] * GP[k][i] - G[i][j] * GP[k][j])),
    "ee7": lambda A, B, G, GP, i, j, k: (
        (A[i][i] - B[k][j]) * B[i][j] * G[i][k]
        + (B[i][k] * B[k][j] + G[i][j] * GP[i][j]) * G[i][k]
        + A[i][k] * B[i][j] * GP[k][i]
        - (B[i][j] - B[i][k]) * G[i][j] * GP[k][j]),
    "ee8a": lambda A, B, G, GP, i, j, k: (
        A[i][j] * (G[i][j] * G[j][k] + G[i][k] * (A[j][k] - A[j][i]))),
    "ee8b": lambda A, B, G, GP, i, j, k: (
        A[j][i] * (G[i][j] * G[j][k] + G[i][k] * (A[j][k] - A[j][i]))),
    "ee8c": lambda A, B, G, GP, i, j, k: (
        A[i][j] * (G[i][j] * GP[k][j] + G[i][k] * (A[k][j] - A[i][j]))),
}


def _grids(data: RimeData) -> tuple[list[list], list[list], list[list], list[list]]:
    """The padded 1-based grids (A, B, G, GP) the equations read; row and column 0 are 0."""
    n = data.dim
    pad = lambda grid: [[0] * (n + 1)] + [[0, *row] for row in grid]
    a = pad(data.alpha_ij)
    for i in range(1, n + 1):
        a[i][i] = data.alpha[i - 1]
    return a, pad(data.beta_ij), pad(data.gamma_ij), pad(data.gamma_prime_ij)


def _cleared(data: RimeData) -> tuple[int, RimeData]:
    """(L, data scaled by L), with L the lcm of all the coefficients' denominators."""
    n = data.dim
    grids = (data.alpha_ij, data.beta_ij, data.gamma_ij, data.gamma_prime_ij)
    den, ints = cleared([*data.alpha, *(v for grid in grids for row in grid for v in row)])
    rows = [tuple(ints[s:s + n]) for s in range(0, len(ints), n)]
    return den, RimeData(n, rows[0], *(tuple(rows[1 + g * n:1 + (g + 1) * n]) for g in range(4)))


def _appendix_A_families(data: RimeData):
    """Yield (name, max |residual|) family by family: pair then triple families, then
    the same for the involution image, in the order of ``appendix_A_residuals``.

    Every equation is homogeneous of degree 3 in (alpha, beta, gamma, gamma'),
    so it is evaluated in ints on the data scaled by L and divided by L^3 once.
    The involution image transposes the grids and swaps gamma with gamma'.
    """
    n = data.dim
    den, data = _cleared(data)
    cube = den ** 3
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    triples = [(i, j, k) for i, j in pairs for k in range(1, n + 1) if k != i and k != j]
    a, b, g, gp = _grids(data)
    tr = lambda grid: [list(col) for col in zip(*grid)]
    for suffix, (A, B, G, GP) in (("", (a, b, g, gp)), ("~iota", (tr(a), tr(b), tr(gp), tr(g)))):
        for name, eq in _PAIR_EQUATIONS.items():
            worst = max((abs(eq(A, B, G, GP, i, j)) for i, j in pairs), default=0)
            yield name + suffix, Q(worst, cube)
        for name, eq in _TRIPLE_EQUATIONS.items():
            worst = max((abs(eq(A, B, G, GP, i, j, k)) for i, j, k in triples), default=0)
            yield name + suffix, Q(worst, cube)


def appendix_A_residuals(data: RimeData) -> dict[str, Fraction]:
    """Max |residual| of every equation family and its involution image.

    Each family reads the coefficient grids directly: O(n^2) pair and O(n^3)
    triple evaluations, in ints, with no accessor call per coefficient.
    """
    return dict(_appendix_A_families(data))


def appendix_A_violated(data: RimeData) -> bool:
    """Whether any family of ``appendix_A_residuals`` is nonzero; stops at the first that is."""
    return any(worst for _, worst in _appendix_A_families(data))


# --- quantum spaces ----------------------------------------------------------
# A relation space over the 2-letter monomials x^i x^j is its tensor.row_space,
# so two spaces are equal iff their difference is zero.  Each ``*_rows``
# function gives the spanning rows, which ``tensor.span_difference`` compares
# without reducing them to that form.

def quantum_space_rows(r: Operator2, eigenvalue, side: str) -> list[dict]:
    """Spanning rows of the degree-2 relation space of a quantum (super)plane.

    Right spaces are spanned by the rows of (R - lambda) as coefficient vectors
    over monomials x^k x^l; left spaces pair the lower indices against reversed
    monomials x^j x^i.  eigenvalue is 1 for even spaces, beta - 1 for odd ones.
    """
    if side not in ("left", "right"):
        raise InvalidInputError("side must be 'left' or 'right'")
    shifted = r.scalar_shift(-rat(eigenvalue))
    if side == "left":
        shifted = shifted.transpose() @ permutation_P(r.dim)
    return list(shifted._ints()[1].values())


def rime_plane_rows(data: RimeData) -> list[dict]:
    """The relations [x^i,x^j] + (beta_ij x^i + beta_ji x^j)(x^i - x^j) = 0."""
    n = data.dim
    pos = lambda a, b: (a - 1) * n + (b - 1)
    # expanded: x^i x^j - x^j x^i + beta_ij (x^i x^i - x^i x^j) + beta_ji (x^j x^i - x^j x^j)
    return [{pos(i, j): ONE - data.b(i, j), pos(j, i): data.b(j, i) - ONE,
             pos(i, i): data.b(i, j), pos(j, j): -data.b(j, i)}
            for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def classical_commutator_rows(n: int) -> list[dict]:
    """Commutators [x^i, x^j] = 0: the rows of identity - P."""
    return list((Operator2.identity(n) - permutation_P(n))._ints()[1].values())


def odd_classical_rows(n: int) -> list[dict]:
    """Anticommutators [xi^i, xi^j]_+ = 0 including the squares: the rows of identity + P."""
    return list((Operator2.identity(n) + permutation_P(n))._ints()[1].values())


def left_odd_rime_rows(data: RimeData, beta) -> list[dict]:
    """(2-beta) xi_i^2 + xi_i rho_i + (1-beta) rho_i xi_i = 0 and the mixed family.

    rho_i = sum_{j != i} xi_j; including the j = i term would double-count the
    square and leave the span of the kernel-computed relation space.
    """
    n = data.dim
    beta = rat(beta)
    pos = lambda a, b: (a - 1) * n + (b - 1)
    rows = []
    for i in range(1, n + 1):
        row = {pos(i, i): 2 - beta}
        for j in range(1, n + 1):
            if j != i:
                row[pos(i, j)] = ONE          # xi_i rho_i
                row[pos(j, i)] = ONE - beta   # rho_i xi_i
        rows.append(row)
    rows += [{pos(i, j): ONE - data.b(i, j), pos(j, i): ONE - data.b(j, i)}
             for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    return rows
