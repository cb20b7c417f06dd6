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
from math import comb

from .kernel import (ONE, ZERO, InvalidInputError, elem_sym_omit, rat, ratvec,
                     require_distinct)
from .tensor import (Operator1, Operator2, hecke_residual, partial_trace,
                     rref_of_rows, skew_inverse)


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
    """Assemble the 4-coefficient family into the two-leg operator."""
    n = data.dim
    r = Operator2(n)
    for i in range(1, n + 1):
        r.set(i, i, i, i, data.alpha[i - 1])
        for j in range(1, n + 1):
            if i == j:
                continue
            r.add_to(i, j, j, i, data.a(i, j))
            r.add_to(i, j, i, j, data.b(i, j))
            r.add_to(i, j, i, i, data.g(i, j))
            r.add_to(i, j, j, j, data.gp(i, j))
    return r


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
    Q^j_j = prod_l (1 - beta_jl); the tilde version uses beta_lj.
    """
    n = data.dim
    q = Operator1.zero(n)
    qt = Operator1.zero(n)
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            if k == j:
                pq = ONE
                pqt = ONE
                for l in range(1, n + 1):
                    pq *= ONE - data.b(j, l)
                    pqt *= ONE - data.b(l, j)
                q.rows[k - 1][j - 1] = pq
                qt.rows[k - 1][j - 1] = pqt
            else:
                pq = -data.b(j, k)
                pqt = data.b(j, k)
                for l in range(1, n + 1):
                    if l != k:
                        pq *= ONE - data.b(j, l)
                        pqt *= ONE - data.b(l, j)
                q.rows[k - 1][j - 1] = pq
                qt.rows[k - 1][j - 1] = pqt
    return q, qt


def quantum_traces(r: Operator2) -> tuple[Operator1, Operator1]:
    """Q = Tr_2 Psi_R and Qtilde = Tr_1 Psi_R from the skew inverse."""
    psi = skew_inverse(r)
    return partial_trace(psi, 2), partial_trace(psi, 1)


def eigenvector_w(params, a: int) -> tuple[Fraction, ...]:
    """w_a with components (w_a)^j = e_a^jhat of the parameter vector."""
    params = ratvec(params)
    n = len(params)
    return tuple(elem_sym_omit(params, a, j) for j in range(1, n + 1))


def jordan_action_coefficients(n: int, i: int) -> tuple[Fraction, ...]:
    """Coefficients binom(n-1-s, i-s) of Q w_i = sum_s c_s w_s in the unitary case."""
    return tuple(Fraction(comb(n - 1 - s, i - s)) if i - s >= 0 and n - 1 - s >= i - s else ZERO
                 for s in range(n))


def invariance_Y(phi, u, v) -> Operator1:
    """Two-parameter invariance matrix Y(u,v) of the non-unitary family."""
    phi = ratvec(phi)
    require_distinct(phi, "phi")
    u, v = rat(u), rat(v)
    if not u or not v:
        raise InvalidInputError("u and v must be nonzero")
    n = len(phi)
    y = Operator1.zero(n)
    for j in range(1, n + 1):
        diag = ONE
        for l in range(1, n + 1):
            if l != j:
                diag *= (u * phi[j - 1] - v * phi[l - 1]) / (phi[j - 1] - phi[l - 1])
        y.rows[j - 1][j - 1] = diag
        for i in range(1, n + 1):
            if i == j:
                continue
            val = (u - v) * phi[j - 1] / (phi[j - 1] - phi[i - 1])
            for l in range(1, n + 1):
                if l != i and l != j:
                    val *= (u * phi[j - 1] - v * phi[l - 1]) / (phi[j - 1] - phi[l - 1])
            y.rows[i - 1][j - 1] = val
    return y


def invariance_Y0(mu, a) -> Operator1:
    """One-parameter invariance matrix Y0(a) of the unitary family; additive in a."""
    mu = ratvec(mu)
    require_distinct(mu, "mu")
    a = rat(a)
    n = len(mu)
    y = Operator1.zero(n)
    for j in range(1, n + 1):
        diag = ONE
        for l in range(1, n + 1):
            if l != j:
                diag *= ONE + a / (mu[j - 1] - mu[l - 1])
        y.rows[j - 1][j - 1] = diag
        for i in range(1, n + 1):
            if i == j:
                continue
            val = a / (mu[j - 1] - mu[i - 1])
            for l in range(1, n + 1):
                if l != i and l != j:
                    val *= ONE + a / (mu[j - 1] - mu[l - 1])
            y.rows[i - 1][j - 1] = val
    return y


def invariance_generator(kind: str, params) -> Operator1:
    """Traceless generator of the determinant-one invariance subgroup.

    kind 'nonunitary' takes phi, kind 'unitary' takes mu.  Both are the
    derivatives of the invariance families at the identity, so they satisfy
    [R, eta_1 + eta_2] = 0.
    """
    params = ratvec(params)
    require_distinct(params)
    n = len(params)
    eta = Operator1.zero(n)
    if kind == "nonunitary":
        for j in range(1, n + 1):
            # d/dt Y(1 + t/2, 1 - t/2) at t=0
            diag = -Fraction(n - 1, 2)
            for l in range(1, n + 1):
                if l != j:
                    diag += params[j - 1] / (params[j - 1] - params[l - 1])
            eta.rows[j - 1][j - 1] = diag
            for i in range(1, n + 1):
                if i != j:
                    eta.rows[i - 1][j - 1] = params[j - 1] / (params[j - 1] - params[i - 1])
    elif kind == "unitary":
        for j in range(1, n + 1):
            eta.rows[j - 1][j - 1] = sum((ONE / (params[j - 1] - params[l - 1])
                                          for l in range(1, n + 1) if l != j), ZERO)
            for i in range(1, n + 1):
                if i != j:
                    eta.rows[i - 1][j - 1] = ONE / (params[j - 1] - params[i - 1])
    else:
        raise InvalidInputError(f"unknown generator kind {kind!r}")
    return eta


# --- full equation system for the rime Yang-Baxter Ansatz -------------------

def _pair_equations():
    """Name -> residual over an ordered pair (i,j), i != j."""
    return {
        "yb1": lambda d, i, j: d.a(i, j) * d.g(i, j) * (d.g(j, i) + d.gp(i, j)),
        "yb2a": lambda d, i, j: d.a(i, j) * (d.b(i, j) * d.b(j, i) + d.g(i, j) * d.gp(i, j)),
        "yb2b": lambda d, i, j: d.a(i, j) * (d.b(i, j) * d.b(j, i) - d.g(i, j) * d.g(j, i)),
        "yb3a": lambda d, i, j: d.a(i, j) * d.g(i, j) * (d.a(i, j) + d.b(j, i) - d.a(j, j)),
        "yb3b": lambda d, i, j: d.a(i, j) * d.g(i, j) * (d.a(j, i) + d.b(i, j) - d.a(j, j)),
        "yb4": lambda d, i, j: (d.b(i, j) * (d.a(i, i) ** 2 - d.a(i, j) * d.a(j, i)
                                             - d.a(i, i) * d.b(i, j))
                                + (d.a(i, i) - d.b(i, j)) * d.g(i, j) * d.gp(i, j)),
        "eI": lambda d, i, j: ((d.a(i, i) - d.a(j, j)) * d.g(i, j) ** 2
                               + d.a(i, j) * d.g(i, j) * (d.g(i, j) + d.gp(j, i))),
        "eI1": lambda d, i, j: (d.a(i, j) * d.b(i, j) * d.gp(j, i)
                                + (d.a(i, i) * d.b(i, j) + d.gp(i, j) * d.g(i, j)) * d.g(i, j)),
        "eI2a": lambda d, i, j: ((d.a(i, j) - d.a(j, i) - d.b(i, j) + d.b(j, i))
                                 * d.g(i, j) * d.gp(j, i)),
        "eI2b": lambda d, i, j: ((d.a(i, j) - d.a(j, i) - d.b(i, j) + d.b(j, i))
                                 * d.b(i, j) * d.b(j, i)),
        "eI3": lambda d, i, j: (d.a(i, j) * d.gp(j, i) * (d.a(j, j) - d.a(i, j))
                                + d.b(j, i) * d.g(i, j) * (d.a(i, i) - d.b(j, i))
                                + d.g(i, j) * (d.b(i, j) * d.b(j, i) + d.g(j, i) * d.gp(j, i))),
        "eI4": lambda d, i, j: (
            (d.a(i, i) ** 2 - d.a(i, i) * (d.a(j, i) + d.b(j, i))
             + d.b(i, j) * d.b(j, i) - d.g(i, j) * d.g(j, i)) * d.g(i, j)
            - (d.a(i, i) ** 2 - d.a(i, i) * (d.a(i, j) + d.b(i, j))
               + d.b(i, j) * d.b(j, i) - d.gp(i, j) * d.gp(j, i)) * d.gp(j, i)),
    }


def _triple_equations():
    """Name -> residual over an ordered triple (i,j,k) of distinct indices."""
    return {
        "ee1": lambda d, i, j, k: ((d.a(i, j) - d.a(k, i) - d.b(i, j) + d.b(k, i))
                                   * d.g(i, j) * d.gp(k, i)),
        "ee2": lambda d, i, j, k: d.a(i, j) * (d.b(i, j) * d.b(j, k)
                                               + d.b(i, k) * d.b(j, i)
                                               - d.b(i, k) * d.b(j, k)),
        "ee3a": lambda d, i, j, k: d.a(i, j) * (d.g(i, j) * d.g(j, k)
                                                + d.g(i, k) * (d.b(j, k) - d.b(j, i))),
        "ee3b": lambda d, i, j, k: d.a(i, j) * (d.g(i, j) * d.gp(k, j)
                                                + d.g(i, k) * (d.b(k, j) - d.b(i, j))),
        "ee4": lambda d, i, j, k: ((d.a(i, j) * d.a(j, i) - d.a(j, k) * d.a(k, j)) * d.b(i, k)
                                   + d.b(i, j) * d.b(j, k) * (d.b(i, j) - d.b(j, k))),
        "ee5": lambda d, i, j, k: ((d.a(i, i) + d.b(i, k) - d.b(j, i)) * d.b(j, i) * d.g(i, k)
                                   + d.g(i, k) * d.g(j, i) * d.gp(j, i)
                                   + d.a(i, k) * (d.g(j, k) * d.gp(j, i)
                                                  + d.b(j, k) * d.gp(k, i))),
        "ee6": lambda d, i, j, k: ((d.a(i, i) + d.a(i, j) - d.a(k, j) - d.b(k, j))
                                   * d.g(i, j) * d.g(i, k)
                                   - d.g(i, k) ** 2 * d.g(k, j)
                                   + d.g(i, j) * (d.a(i, k) * d.gp(k, i)
                                                  - d.g(i, j) * d.gp(k, j))),
        "ee7": lambda d, i, j, k: ((d.a(i, i) - d.b(k, j)) * d.b(i, j) * d.g(i, k)
                                   + (d.b(i, k) * d.b(k, j) + d.g(i, j) * d.gp(i, j)) * d.g(i, k)
                                   + d.a(i, k) * d.b(i, j) * d.gp(k, i)
                                   - (d.b(i, j) - d.b(i, k)) * d.g(i, j) * d.gp(k, j)),
        "ee8a": lambda d, i, j, k: d.a(i, j) * (d.g(i, j) * d.g(j, k)
                                                + d.g(i, k) * (d.a(j, k) - d.a(j, i))),
        "ee8b": lambda d, i, j, k: d.a(j, i) * (d.g(i, j) * d.g(j, k)
                                                + d.g(i, k) * (d.a(j, k) - d.a(j, i))),
        "ee8c": lambda d, i, j, k: d.a(i, j) * (d.g(i, j) * d.gp(k, j)
                                                + d.g(i, k) * (d.a(k, j) - d.a(i, j))),
    }


def appendix_A_residuals(data: RimeData) -> dict[str, Fraction]:
    """Max |residual| of every equation family and its involution image."""
    n = data.dim
    out: dict[str, Fraction] = {}
    variants = {"": data, "~iota": data.iota()}
    for suffix, d in variants.items():
        for name, eq in _pair_equations().items():
            worst = ZERO
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i != j:
                        worst = max(worst, abs(eq(d, i, j)))
            out[name + suffix] = worst
        for name, eq in _triple_equations().items():
            worst = ZERO
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    for k in range(1, n + 1):
                        if len({i, j, k}) == 3:
                            worst = max(worst, abs(eq(d, i, j, k)))
            out[name + suffix] = worst
    return out


# --- quantum spaces ----------------------------------------------------------

@dataclass(frozen=True)
class RelationBasis:
    """RREF basis of a degree-2 relation space over ordered 2-letter monomials."""

    dim: int
    rows: tuple[tuple[Fraction, ...], ...]

    def __eq__(self, other):
        return isinstance(other, RelationBasis) and self.dim == other.dim and self.rows == other.rows


def relation_basis_from_rows(n: int, rows) -> RelationBasis:
    reduced = rref_of_rows([list(map(rat, r)) for r in rows]) if rows else ()
    return RelationBasis(n, reduced)


def quantum_space_relations(r: Operator2, eigenvalue, side: str,
                            parity: str = "even") -> RelationBasis:
    """Degree-2 relation space of a quantum (super)plane.

    Right spaces collect the rows of (R - lambda) as coefficient vectors over
    monomials x^k x^l; left spaces pair the lower indices against reversed
    monomials x^j x^i.  eigenvalue is 1 for even spaces, beta - 1 for odd ones.
    """
    if side not in ("left", "right"):
        raise InvalidInputError("side must be 'left' or 'right'")
    if parity not in ("even", "odd"):
        raise InvalidInputError("parity must be 'even' or 'odd'")
    n = r.dim
    lam = rat(eigenvalue)
    shifted = r.scalar_shift(-lam)
    rows = []
    if side == "right":
        for rr in range(n * n):
            row = [ZERO] * (n * n)
            got = False
            for cc, v in shifted.data.get(rr, {}).items():
                row[cc] = v
                got = True
            if got:
                rows.append(row)
    else:
        cols: dict[int, list[Fraction]] = {}
        for i, j, k, l, v in Operator2(n, shifted.data).four_index_items():
            key = (k - 1) * n + (l - 1)
            row = cols.setdefault(key, [ZERO] * (n * n))
            # coefficient sits at the reversed monomial x^j x^i
            row[(j - 1) * n + (i - 1)] += v
        rows = [cols[k] for k in sorted(cols)]
    return relation_basis_from_rows(n, rows)


def rime_plane_relations(data: RimeData) -> RelationBasis:
    """The relations [x^i,x^j] + (beta_ij x^i + beta_ji x^j)(x^i - x^j) = 0."""
    n = data.dim
    rows = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            row = [ZERO] * (n * n)
            pos = lambda a, b: (a - 1) * n + (b - 1)
            row[pos(i, j)] += ONE
            row[pos(j, i)] -= ONE
            # (beta_ij x^i + beta_ji x^j)(x^i - x^j)
            row[pos(i, i)] += data.b(i, j)
            row[pos(i, j)] -= data.b(i, j)
            row[pos(j, i)] += data.b(j, i)
            row[pos(j, j)] -= data.b(j, i)
            rows.append(row)
    return relation_basis_from_rows(n, rows)


def classical_commutator_relations(n: int) -> RelationBasis:
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            row = [ZERO] * (n * n)
            row[i * n + j] = ONE
            row[j * n + i] = -ONE
            rows.append(row)
    return relation_basis_from_rows(n, rows)


def odd_classical_relations(n: int) -> RelationBasis:
    """Anticommutators [xi^i, xi^j]_+ = 0 including the squares."""
    rows = []
    for i in range(n):
        for j in range(i, n):
            row = [ZERO] * (n * n)
            row[i * n + j] += ONE
            row[j * n + i] += ONE
            rows.append(row)
    return relation_basis_from_rows(n, rows)


def left_odd_rime_relations(data: RimeData, beta) -> RelationBasis:
    """(2-beta) xi_i^2 + xi_i rho_i + (1-beta) rho_i xi_i = 0 and the mixed family.

    rho_i = sum_{j != i} xi_j; including the j = i term would double-count the
    square and leave the span of the kernel-computed relation space.
    """
    n = data.dim
    beta = rat(beta)
    pos = lambda a, b: (a - 1) * n + (b - 1)
    rows = []
    for i in range(1, n + 1):
        row = [ZERO] * (n * n)
        row[pos(i, i)] += 2 - beta
        for j in range(1, n + 1):
            if j == i:
                continue
            row[pos(i, j)] += ONE          # xi_i rho_i
            row[pos(j, i)] += ONE - beta   # rho_i xi_i
        rows.append(row)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            row = [ZERO] * (n * n)
            row[pos(i, j)] += ONE - data.b(i, j)
            row[pos(j, i)] += ONE - data.b(j, i)
            rows.append(row)
    return relation_basis_from_rows(n, rows)
