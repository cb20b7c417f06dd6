"""Cremmer-Gervais R-matrices and the symmetric-function change of basis.

The two-parameter family is kept polynomial in q^-2 and p, so a single
rational ``qsq_inv`` stands for q^-2 everywhere and no square roots appear.
The Hecke parameter is beta = 1 - q^-2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .kernel import (ONE, ZERO, InvalidInputError, elem_syms, elem_syms_omitting,
                     products_omitting, rat, ratvec, require_distinct, theta)
from .rime import RimeClass, classify, strict_rime_R
from .tensor import (Operator1, Operator2, conjugate2, equivalence_residual, permutation_P,
                     place)


@dataclass(frozen=True)
class CGParams:
    dim: int
    qsq_inv: Fraction  # the value q^-2
    p: Fraction = ONE

    def __post_init__(self):
        object.__setattr__(self, "qsq_inv", rat(self.qsq_inv))
        object.__setattr__(self, "p", rat(self.p))
        if not self.qsq_inv:
            raise InvalidInputError("qsq_inv must be nonzero")
        if not self.p:
            raise InvalidInputError("p must be nonzero")

    @property
    def beta(self) -> Fraction:
        return ONE - self.qsq_inv


def cg_matrix(params: CGParams) -> Operator2:
    """Entries q^{-2 theta_ij} p^{i-j} d^i_l d^j_k plus the two (1-q^-2) staircase sums.

    The powers p^d (|d| < n) and the staircase weights (1-q^-2) p^d are formed
    once per call, so each entry costs one lookup and one multiplication at most.
    Row (i, j) holds its entry at (j, i) and the staircase at (s, i + j - s), with
    s running from i up to j - 1 or from j + 1 up to i - 1: distinct columns, all
    in range, so no entry is summed.
    """
    n, qi, p = params.dim, params.qsq_inv, params.p
    rows = {}
    one_minus = ONE - qi
    pw = {0: ONE}
    for d in range(1, n):
        pw[d] = pw[d - 1] * p
        pw[-d] = pw[1 - d] / p
    stair = {d: one_minus * v for d, v in pw.items()}
    for i in range(n):
        for j in range(n):
            row = rows[i * n + j] = {j * n + i: qi * pw[i - j] if theta(i, j) else pw[i - j]}
            for s in range(i, j):           # i <= s < j
                row[s * n + i + j - s] = stair[i - s]
            for s in range(j + 1, i):       # j < s < i
                row[s * n + i + j - s] = -stair[i - s]
    return Operator2._entries(n, rows)


def d_twist_matrix(n: int, p) -> Operator1:
    """D(p)^i_j = delta^i_j p^(i-1)."""
    p = rat(p)
    if not p:
        raise InvalidInputError("p must be nonzero")
    return Operator1.diag([p ** i for i in range(n)])


def d_twist_conjugate(r: Operator2, p) -> Operator2:
    """D(p)_1 R D(p)_1^{-1}, legal only when D(p)_1 D(p)_2 commutes with R."""
    n = r.dim
    d = d_twist_matrix(n, p)
    if not equivalence_residual(r, r, d).is_zero():
        raise InvalidInputError("D(p) x D(p) does not commute with the matrix")
    d1 = place(d, (1,), 2)
    return d1 @ r @ place(d.inverse(), (1,), 2)


def x_change_of_basis(phi) -> tuple[Operator1, Operator1]:
    """X^k_j = e_{j-1}^khat(phi) and its Lagrange closed-form inverse.

    (X^-1)^j_i = (-1)^{j-1} phi_i^{n-j} / prod_{k != i}(phi_i - phi_k).  Each
    column i forms its denominator once and its powers of phi_i upward from
    phi_i^0, so the inverse costs O(n^2) scalar operations; a zero phi_i only
    zeroes the powers, and distinctness keeps every denominator nonzero.
    """
    phi = ratvec(phi)
    require_distinct(phi, "phi")
    n = len(phi)
    # row k holds e_0..e_{n-1} of phi without phi_k
    x = Operator1(elem_syms_omitting(phi))
    rows = [[ZERO] * n for _ in range(n)]
    for i, pi in enumerate(phi):
        denom = ONE
        for k, pk in enumerate(phi):
            if k != i:
                denom *= pi - pk
        power = ONE / denom
        for j in range(n - 1, -1, -1):      # 0-based j, power = phi_i^{n-1-j} / denom
            rows[j][i] = -power if j % 2 else power
            power *= pi
    xinv = Operator1(rows)
    if (x @ xinv) != Operator1.identity(n):
        raise InvalidInputError("closed-form inverse failed")  # distinctness guarantees this
    return x, xinv


def cg_equivalence_residual(phi, beta, x: Operator1) -> Operator2:
    """R(phi,beta) (X x X) - (X x X) R_CG with q^-2 = 1 - beta; zero by construction.

    ``x`` must be X(phi), the first half of ``x_change_of_basis(phi)``, which the
    caller already holds; it is not checked against phi, and any other matrix
    gives a nonzero residual that says nothing about R(phi, beta).
    """
    beta = rat(beta)
    if beta == 1:
        raise InvalidInputError("beta = 1 puts q^-2 at zero")
    phi = ratvec(phi)
    r = strict_rime_R(phi, beta)
    return equivalence_residual(r, cg_matrix(CGParams(len(phi), ONE - beta, ONE)), x)


def sectype_identity_residual(phi, i: int, j: int, k: int, l: int,
                              omitting: list[list[Fraction]] | None = None) -> Fraction:
    """Symmetric-function identity behind the change of basis, one index tuple.

    ``omitting`` is phi's ``elem_syms_omitting`` table, built here when not
    given; a caller that loops over index tuples builds it once per phi.
    """
    phi = ratvec(phi)
    require_distinct(phi, "phi")
    if i == j:
        raise InvalidInputError("requires i != j")
    n = len(phi)
    if not (1 <= i <= n and 1 <= j <= n):
        raise InvalidInputError(f"indices {i}, {j} out of range 1..{n}")
    if omitting is None:
        omitting = elem_syms_omitting(phi)

    def e(m, omit):
        return omitting[omit - 1][m] if 0 <= m < n else ZERO
    lhs = (phi[i - 1] * e(k - 1, i) - phi[j - 1] * e(k - 1, j)) \
        * (e(l - 1, i) - e(l - 1, j)) / (phi[i - 1] - phi[j - 1])
    rhs = ZERO
    for s in range(max(1, k - l + 2), k + 1):
        rhs += e(l + s - 2, i) * e(k - s, j) - e(l + s - 2, j) * e(k - s, i)
    return lhs - rhs


def phi_transition(phi, phi_prime) -> Operator1:
    """Closed form of X(phi') X(phi)^{-1}.

    Entry (i,j) is prod_{k != i}(phi_j - phi'_k) / prod_{l != j}(phi_j - phi_l);
    the apparent pole at phi_j = phi'_i cancels against the full product, so
    the cancelled form is used and no extra precondition is needed.  Column j
    forms its denominator once and its numerators with ``products_omitting``,
    which divides by no factor, so phi_j = phi'_i is safe: O(n^2) scalar
    operations.
    """
    phi = ratvec(phi)
    phi_prime = ratvec(phi_prime)
    require_distinct(phi, "phi")
    require_distinct(phi_prime, "phi'")
    if len(phi) != len(phi_prime):
        raise InvalidInputError("vectors must share a length")
    n = len(phi)
    rows = [[ZERO] * n for _ in range(n)]
    for j, pj in enumerate(phi):
        den = ONE
        for l, pl in enumerate(phi):
            if l != j:
                den *= pj - pl
        for i, num in enumerate(products_omitting([pj - pk for pk in phi_prime])):
            rows[i][j] = num / den
    return Operator1(rows)


def generating_function_residual(phi) -> list[list[Fraction]]:
    """Grid of e_j(phi) - e_j^ihat - phi_i e_{j-1}^ihat over all (i, j).

    e_j is affine in each phi_i with slope e_{j-1}^ihat, so vanishing of this
    grid is exactly the derivative rule de_j/dphi_i = e_{j-1}^ihat behind the
    generating-function form of the change of basis.

    The e_k^ihat come from ``elem_syms`` of phi with entry i removed, built
    from scratch for each i: ``elem_syms_omitting`` solves them from this very
    rule, so reading its table here would certify nothing.
    """
    phi = ratvec(phi)
    n = len(phi)
    e = elem_syms(phi)
    grid = []
    for i in range(n):
        omit = elem_syms(phi[:i] + phi[i + 1:]) + [ZERO]
        grid.append([e[j] - omit[j] - phi[i] * omit[j - 1] for j in range(1, n + 1)])
    return grid


def standard_rc_matrix(n: int, qsq_inv) -> Operator2:
    """Exchange matrix of the multiparameter standard solution that admits riming."""
    qi = rat(qsq_inv)
    rows = {}
    for i in range(n):
        rows[i * n + i] = {i * n + i: ONE}
        for j in range(n):
            if i < j:
                rows[i * n + j] = {j * n + i: ONE, i * n + j: ONE - qi}
            elif i > j:
                rows[i * n + j] = {j * n + i: qi}
    return Operator2._entries(n, rows)


def riming_target_matrix(n: int, qsq_inv) -> Operator2:
    """Rime form read off the transformed exchange relations."""
    qi = rat(qsq_inv)
    rows = {}
    for i in range(n):
        rows[i * n + i] = {i * n + i: ONE}
        for j in range(n):
            if i < j:
                rows[i * n + j] = {j * n + i: ONE, i * n + j: ONE - qi, i * n + i: -(ONE - qi)}
            elif i > j:
                rows[i * n + j] = {j * n + i: qi, j * n + j: ONE - qi}
    return Operator2._entries(n, rows)


def summation_matrix(n: int) -> Operator1:
    """Xtilde^i_j = 1 - theta_ji: lower-triangular matrix of ones."""
    return Operator1([[ONE if j <= i else ZERO for j in range(n)] for i in range(n)])


def standard_riming(n: int, qsq_inv) -> tuple[Operator2, Operator1, Operator2, Operator2]:
    """Conjugate the standard solution by the summation matrix; lands on a rime form.

    Returns (rc, xt, conj, residual): the standard solution, the summation
    matrix, the conjugated matrix and its difference from the rime target.
    """
    if n < 2:
        raise InvalidInputError("needs n >= 2")
    rc = standard_rc_matrix(n, qsq_inv)
    xt = summation_matrix(n)
    conj = conjugate2(rc, xt)
    residual = conj - riming_target_matrix(n, qsq_inv)
    if residual.is_zero() and classify(conj) not in (RimeClass.RIME_STRICT,
                                                     RimeClass.RIME_NON_STRICT,
                                                     RimeClass.ICE):
        raise InvalidInputError("conjugated matrix failed the rime test")
    return rc, xt, conj, residual


def cg_symmetry_residual(n: int, qsq_inv) -> Operator2:
    """(R_CG)^{ab}_{kl} - d^a_k d^b_l - d^a_l d^b_k + (R_CG)^{ba}_{kl} at p = 1."""
    rcg = cg_matrix(CGParams(n, qsq_inv, ONE))
    p = permutation_P(n)
    return rcg + p @ rcg - Operator2.identity(n) - p


def cg_plane_rows(n: int, qsq_inv) -> list[dict]:
    """Right even plane of R_CG: y^i y^j = q^2 y^j y^i + (q^2-1)(y^{i+1}y^{j-1} + ...), i<j."""
    qi = rat(qsq_inv)
    pos = lambda a, b: (a - 1) * n + (b - 1)
    rows = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            # multiplied through by q^-2 to stay polynomial in qsq_inv
            row = {pos(i, j): qi, pos(j, i): -ONE}
            for s in range(i + 1, j):
                row[pos(s, i + j - s)] = qi - ONE
            rows.append(row)
    return rows
