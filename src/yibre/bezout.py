"""Bezout operators on truncated polynomial spaces and their Rota-Baxter shadows.

Operators here act on P_n = span{x^a y^b : 0 <= a,b < n} with the basis
labelled by increasing powers, e_i <-> x^(i-1).  In that picture the matrix
of the divided-difference operator is exactly the closed wedge form of
``closed_form_operator``, and the n = 2 Rota-Baxter and star-multiplication
tables come out verbatim.  The classical module writes the same operators in
the decreasing-power basis with input-indexed rows; ``basis_flip`` is the
exact bridge between the two pictures.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from .kernel import ONE, ZERO, Deferred, InvalidInputError, rat, ratvec, require_distinct
from .rational import Q
from .tensor import (Echelon, Operator1, Operator2, Operator3, _row_product_into,
                     commutator_with_sum, cybe_residual, kron11, kron_sum, nhacybe_residual,
                     p_and_1_coefficients, permutation_P, place, reshuffled_matrix,
                     signed_products, ybe_numbered_residual, yb_residual)

B0 = "b0"
B = "b"
RS = "rs"
BTILDE = "btilde"
BEZOUT_KINDS = (B0, B, RS, BTILDE)


# --- polynomial actions ------------------------------------------------------

def b0_action(k: int, l: int) -> dict[tuple[int, int], Fraction]:
    """(x^k y^l - x^l y^k)/(x - y) expanded on monomials."""
    if k > l:
        return {(l + s, k - s - 1): ONE for s in range(k - l)}
    if k < l:
        return {(k + s, l - s - 1): -ONE for s in range(l - k)}
    return {}


def b_action(k: int, l: int) -> dict[tuple[int, int], Fraction]:
    """x * b0, i.e. x(x^k y^l - x^l y^k)/(x - y)."""
    if k > l:
        return {(l + s, k - s): ONE for s in range(1, k - l + 1)}
    if k < l:
        return {(k + s, l - s): -ONE for s in range(1, l - k + 1)}
    return {}


def rs_action(k: int, l: int) -> dict[tuple[int, int], Fraction]:
    """x^k y^l -> theta(k-l) x^k y^l - theta(l-k) x^l y^k."""
    if k > l:
        return {(k, l): ONE}
    if k < l:
        return {(l, k): -ONE}
    return {}


def _matrix_from_action(action, n: int) -> Operator2:
    """Column (a, b) holds the image of x^a y^b, truncated to the powers below n."""
    rows = {}
    for a in range(n):
        for b in range(n):
            for (k, l), v in action(a, b).items():
                if k < n and l < n:
                    rows.setdefault(k * n + l, {})[a * n + b] = v
    return Operator2._entries(n, rows)


def bezout_operator(kind: str, n: int) -> Operator2:
    """Matrix of b0, b, the rimeable-standard step operator, or btilde = b - I/2."""
    if n < 1:
        raise InvalidInputError("n must be positive")
    if kind == B0:
        return _matrix_from_action(b0_action, n)
    if kind == B:
        return _matrix_from_action(b_action, n)
    if kind == RS:
        return _matrix_from_action(rs_action, n)
    if kind == BTILDE:
        return bezout_operator(B, n) - Operator2.identity(n).scale(Q(1, 2))
    raise InvalidInputError(f"unknown bezout kind {kind!r}")


def closed_form_operator(kind: str, n: int) -> Operator2:
    """The same operators assembled from their wedge/unit closed forms, as one Kronecker sum."""
    u = Operator1.unit
    terms = []
    if kind == B0:
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                for a in range(1, j - i + 1):
                    x, y = u(n, j, i + a - 1), u(n, i, j - a)
                    terms += [(1, x, y), (-1, y, x)]
    elif kind in (B, BTILDE):
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                for a in range(1, j - i):
                    x, y = u(n, j, i + a), u(n, i, j - a)
                    terms += [(1, x, y), (-1, y, x)]
                terms += [(1, u(n, j, j), u(n, i, i)), (-1, u(n, i, j), u(n, j, i))]
        if kind == BTILDE:
            ident = Operator1.identity(n)
            terms.append((Q(-1, 2), ident, ident))
    elif kind == RS:
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                if a > b:
                    terms.append((1, u(n, a, a), u(n, b, b)))
                elif a < b:
                    terms.append((-1, u(n, a, b), u(n, b, a)))
    else:
        raise InvalidInputError(f"unknown bezout kind {kind!r}")
    return kron_sum(terms) if terms else Operator2.zero(n)


def basis_flip(op: Operator2) -> Operator2:
    """Transpose + basis reversal: the bridge to the decreasing-power picture."""
    n = op.dim
    nn = n * n
    den, rows = op._ints()
    out = {}
    for r, row in rows.items():
        for c, x in row.items():
            # flat (i, j) -> (n+1-i, n+1-j) is x -> n^2 - 1 - x
            out.setdefault(nn - 1 - c, {})[nn - 1 - r] = x
    return Operator2._of(n, den, out)


# --- identity suite ----------------------------------------------------------

def bezout_identity_suite(b0: Operator2, b: Operator2, rs: Operator2) -> dict[str, Operator2]:
    """Named residuals of the quadratic/P identities of the b0, b and rs operators of one n."""
    n = b0.dim
    p = permutation_P(n)
    ident = Operator2.identity(n)
    return {
        "b0-square": b0 @ b0,
        "b0-right-p": b0 @ p + b0,
        "b0-left-p": p @ b0 - b0,
        "b0-sum": b0 + b0.reversed_legs(),
        "b-idempotent": b @ b - b,
        "b-right-p": b @ p + b,
        "b-sum": b + b.reversed_legs() - (ident - p),
        "rs-idempotent": rs @ rs - rs,
        "rs-right-p": rs @ p + rs,
        "rs-sum": rs + rs.reversed_legs() - (ident - p),
    }


def sr_decomposition(r: Operator2):
    """(alpha, beta) with r + r_21 = alpha P + beta I, or None when not of that form."""
    return p_and_1_coefficients(r + r.reversed_legs())


def quadratic_data(r: Operator2):
    """(u, v) with r^2 = u r + v I, or None; requires r independent of I.

    One ``Echelon`` over the rows (r, I, -r^2), one per entry stored in r, I or r^2,
    whose null space holds (u, v, 1): unique iff the r and I columns carry the
    pivots and the last does not, and then the reduced pivots hold -u and -v.
    """
    dr, rrows, ds, srows = r._operands(r @ r)
    dr, ds = dr or 1, ds or 1  # None: scalar entries, taken as they are
    ech = Echelon()
    for x in range(r.size):
        rrow, srow = rrows.get(x, {}), srows.get(x, {})
        for c in dict.fromkeys(chain(rrow, srow, (x,))):
            if ech.insert({0: rrow.get(c, 0) * ds, 1: dr * ds if c == x else 0,
                           2: -srow.get(c, 0) * dr}) == 2:
                return None
    if ech.rank != 2:
        return None
    ech.rref()
    return tuple(-ech.pivots[c].get(2, ZERO) for c in (0, 1))


def nhacybe_shift_residual(r: Operator2, c, a, b) -> Operator3:
    """Residual of the shift law for rtilde = r + aI + bP.

    rtilde o rtilde - (c+2a) rtilde_13 + a(c+a) I - b(beta-c) P13
    - b(alpha+b) P23 P12, using r + r21 = alpha P + beta I.
    """
    a, b, c = rat(a), rat(b), rat(c)
    n = r.dim
    dec = sr_decomposition(r)
    if dec is None:
        raise InvalidInputError("r + r21 is not of the alpha P + beta I form")
    alpha, beta = dec
    p = permutation_P(n)
    rt = signed_products([(1, r), (a, Operator2.identity(n)), (b, p)])
    rt12, rt13, rt23 = place(rt, (1, 2), 3), place(rt, (1, 3), 3), place(rt, (2, 3), 3)
    return signed_products([(1, rt12, rt13), (1, rt13, rt23), (-1, rt23, rt12),
                            (-(c + 2 * a), rt13), (a * (c + a), Operator3.identity(n)),
                            (-b * (beta - c), place(p, (1, 3), 3)),
                            (-b * (alpha + b), place(p, (2, 3), 3), place(p, (1, 2), 3))])


def bez9_residual(r: Operator2, c) -> tuple[Operator3, Operator3]:
    """r13 (Sr)23 - (Sr)23 r12 - c(r13 - r12) and its mirror."""
    c = rat(c)
    s = r + r.reversed_legs()
    r12, r13, r23 = place(r, (1, 2), 3), place(r, (1, 3), 3), place(r, (2, 3), 3)
    s23, s12 = place(s, (2, 3), 3), place(s, (1, 2), 3)
    first = signed_products([(1, r13, s23), (-1, s23, r12), (-c, r13), (c, r12)])
    second = signed_products([(1, s12, r13), (-1, r23, s12), (-c, r13), (c, r23)])
    return first, second


def bez23_residual(r: Operator2, c) -> Operator3:
    """[r13, r23] - (r12 - cI) r13 P23, valid when rP = -r."""
    c = rat(c)
    r12, r13, r23 = place(r, (1, 2), 3), place(r, (1, 3), 3), place(r, (2, 3), 3)
    p23 = place(permutation_P(r.dim), (2, 3), 3)
    return signed_products([(1, r13, r23), (-1, r23, r13), (-1, r12, r13, p23), (c, r13, p23)])


def hecke_overlap_residuals(r: Operator2, beta, v) -> dict[str, Operator3]:
    """The three-generator algebra relations satisfied by r12, r13, r23."""
    beta, v = rat(beta), rat(v)
    r12, r13, r23 = place(r, (1, 2), 3), place(r, (1, 3), 3), place(r, (2, 3), 3)
    return {
        "mixed-1": signed_products([(1, r13, r23), (-1, r23, r12), (1, r12, r13), (-beta, r13)]),
        "mixed-2": signed_products([(1, r13, r12), (-1, r12, r23), (1, r23, r13), (-beta, r13)]),
        "braid-12-23": signed_products([(1, r23, r12, r23), (-1, r12, r23, r12)]),
        "square-12": signed_products([(1, r12, r12), (-beta, r12),
                                      (-v, Operator3.identity(r.dim))]),
    }


def linear_quantization_residuals(r: Operator2, lam) -> dict[str, Operator3]:
    """Both YBE forms for R = I + lambda r."""
    lam = rat(lam)
    n = r.dim
    big = Operator2.identity(n) + r.scale(lam)
    return {
        "numbered": ybe_numbered_residual(big),
        "braid": yb_residual(permutation_P(n) @ big),
    }


def derivative_matrix(n: int) -> Operator1:
    """d/dx on span{x^0 .. x^(n-1)}."""
    return Operator1._of(n, 1, {i - 1: {i: i} for i in range(1, n)})


def euler_matrix(n: int) -> Operator1:
    """x d/dx, diagonal with the power."""
    return Operator1.diag([Q(k) for k in range(n)])


def _shift_generator(kind: str, n: int) -> Operator1:
    """d/dx for "b0shift", x d/dx for "bshift"."""
    if kind == "b0shift":
        return derivative_matrix(n)
    if kind == "bshift":
        return euler_matrix(n)
    raise InvalidInputError(f"unknown shift kind {kind!r}")


def shifted_solution_residual(kind: str, base: Operator2, c) -> Operator3:
    """cYB residual of b0 + c(d_x - d_y) ("b0shift", base b0) or b + c(xd_x - yd_y)
    ("bshift", base b)."""
    c = rat(c)
    gen = _shift_generator(kind, base.dim)
    shifted = signed_products([(1, base), (c, place(gen, (1,), 2)), (-c, place(gen, (2,), 2))])
    return cybe_residual(shifted)


def shift_generator_commutator(kind: str, base: Operator2) -> Operator2:
    """[b0, d_1 + d_2] ("b0shift", base b0) or [b, (xd)_1 + (xd)_2] ("bshift", base b)."""
    return commutator_with_sum(base, _shift_generator(kind, base.dim))


# --- divided-difference recursion -------------------------------------------

def m_recursion_check(b0: Operator2) -> dict[str, Operator2]:
    """M(xf) = f + yM(f), M(yf) = -f + xM(f) and the seed M(1) = 0, as residuals of b0.

    With S the truncated shift e_a -> e_(a+1), X_1 = S (x) 1 and Y_2 = 1 (x) S
    multiply by x and y, and Pi_x = S^T S (x) 1, Pi_y = 1 (x) S^T S keep the
    monomials that x, y leave below n.  Each residual is one signed sum whose
    column (a, b) is the identity at f = x^a y^b.  The recursions fix every
    column from column (0, 0), so with the seed they determine M.
    """
    n = b0.dim
    s = Operator1._of(n, 1, {a + 1: {a: 1} for a in range(n - 1)})
    x1, y2 = place(s, (1,), 2), place(s, (2,), 2)
    proj = s.transpose() @ s
    pi_x, pi_y = place(proj, (1,), 2), place(proj, (2,), 2)
    e = Operator1.unit(n, 1, 1)
    return {"x-recursion": signed_products([(1, b0, x1), (-1, pi_x), (-1, y2, b0, pi_x)]),
            "y-recursion": signed_products([(1, b0, y2), (1, pi_y), (-1, x1, b0, pi_y)]),
            "seed": signed_products([(1, b0, kron11(e, e))])}


# --- coproducts ---------------------------------------------------------------

def coproduct(u: Operator1, r: Operator2, c, variant: str = "plain") -> Operator2:
    """delta0(u) = u1 r - r u2, with the -c u1 / +c u2 modifications."""
    c = rat(c)
    u1, u2 = place(u, (1,), 2), place(u, (2,), 2)
    return signed_products([(1, u1, r), (-1, r, u2), *_variant_terms(variant, c, u1, u2)])


def _variant_terms(variant: str, c, minus, plus) -> list:
    """The signed terms a coproduct variant adds: none, -c * minus, or +c * plus."""
    if variant == "plain":
        return []
    if variant == "delta":
        return [(-c, minus)]
    if variant == "delta-tilde":
        return [(c, plus)]
    raise InvalidInputError(f"unknown coproduct variant {variant!r}")


def coassociativity_residuals(r: Operator2, c, variant: str, us) -> Deferred:
    """(delta (x) id) delta(u) - (id (x) delta) delta(u) on V^3 for each u of ``us``, as a list.

    For every variant the difference expands to u1 N' - N' u3, where
    N' = r13 r12 + r23 r13 - r12 r23 - c r13 is ``nhacybe_residual(r, c, primed=True)``
    with c = 0 for 'plain' (the variant terms cancel but for -c r13; compare Aguiar,
    "On the associative analog of Lie bialgebras", 2001).  So N' is formed once and
    decides every residual, and the form makes each u one two-term sum.
    """
    if variant not in ("plain", "delta", "delta-tilde"):
        raise InvalidInputError(f"unknown coproduct variant {variant!r}")
    n_prime = nhacybe_residual(r, 0 if variant == "plain" else c, primed=True)
    return Deferred(n_prime.is_zero(), lambda: [
        signed_products([(1, place(u, (1,), 3), n_prime), (-1, n_prime, place(u, (3,), 3))])
        for u in us])


def derivation_residual(u: Operator1, v: Operator1, r: Operator2, c,
                        variant: str = "plain") -> Operator2:
    """delta(uv) - (u (x) 1) delta(v) - delta(u)(1 (x) v) -/+ c (u (x) v)."""
    c = rat(c)
    uv = kron11(u, v)
    return signed_products([(1, coproduct(u @ v, r, c, variant)),
                            (-1, place(u, (1,), 2), coproduct(v, r, c, variant)),
                            (-1, coproduct(u, r, c, variant), place(v, (2,), 2)),
                            *_variant_terms(variant, c, uv, uv)])


# --- Rota-Baxter operators -----------------------------------------------------

class RotaBaxterMap:
    """Linear map on Mat(V), stored as one n^2 x n^2 operator ``images``.

    Row d n + k of ``images`` is the image of the unit at cell (d, k), and
    column i n + j is the output cell (i, j); cells are 0-based (row, column)
    indices of the ``Operator1`` entries.  Storage, the integer form, QuadExt
    entries and equality are those of the sparse kernel.
    """

    def __init__(self, n: int, images: Operator1):
        self.n = n
        self.images = images

    def _cells(self, den: int | None, row: dict) -> Operator1:
        """The n x n operator whose cell (i, j) holds ``row[i n + j]`` over ``den``."""
        n = self.n
        out = {}
        for c, x in row.items():
            if x:
                out.setdefault(c // n, {})[c % n] = x
        return Operator1._reduced(n, den, out)

    def apply(self, a: Operator1) -> Operator1:
        """The image of ``a``: its entries as one row, times ``images``."""
        n = self.n
        da, arows, dm, mrows = a._operands(self.images)
        flat = {d * n + k: x for d, row in arows.items() for k, x in row.items()}
        return self._cells(None if da is None else da * dm, _row_product_into({}, flat, mrows))

    def unit_image(self, d: int, k: int) -> Operator1:
        """The image of the unit at cell (d, k): its stored row, with no apply."""
        den, rows = self.images._ints()
        return self._cells(den, rows.get(d * self.n + k, {}))

    def matrix(self) -> Operator1:
        """The n^2 x n^2 matrix: row = output cell, column = input cell, both row-major."""
        return self.images.transpose()

    def __eq__(self, other):
        return isinstance(other, RotaBaxterMap) and self.images == other.images


def rota_baxter(r: Operator2, side: str = "left") -> RotaBaxterMap:
    """r(A)_1 = Tr_2(r_12 A_2) for 'left', r'(A)_2 = Tr_1(r_12 A_1) for 'right'.

    The left map's matrix is the reshuffled matrix of r, and the right map of
    r is the left map of r_21.
    """
    if side == "right":
        r = r.reversed_legs()
    elif side != "left":
        raise InvalidInputError("side must be 'left' or 'right'")
    return RotaBaxterMap(r.dim, reshuffled_matrix(r).transpose())


def rb_closed_form(kind: str, n: int, phi=None) -> RotaBaxterMap:
    """Explicit summation formulas for the Rota-Baxter operators.

    Each formula is written as its unit images, straight into the rows of
    ``images``: row d n + k holds the image of the unit at cell (d, k), 0-based.
    """
    rows: dict[int, dict] = {}
    if kind in (B0, B):
        # the image of the unit at (d, k) lies on one diagonal: for k >= d it is +1 at
        # (d + s, k + 1 + s) (b0) or (d + 1 + s, k + 1 + s) (b) for every s that stays
        # inside the matrix; for d > k it is -1 at (d - 1 - s, k - s) (b0) or
        # (d - s, k - s) (b) for s = 0 .. k
        lead = 0 if kind == B0 else 1
        for d in range(n):
            for k in range(n):
                if k >= d:
                    rows[d * n + k] = {(d + lead + s) * n + k + 1 + s: 1 for s in range(n - 1 - k)}
                else:
                    rows[d * n + k] = {(d - 1 + lead - s) * n + k - s: -1 for s in range(k + 1)}
    elif kind == RS:
        # off-diagonal support is the lower triangle: the upper-triangle variant
        # is the right-handed operator Tr_1(r_12 A_1), not this one.  A diagonal
        # unit adds 1 to every later diagonal cell; a lower one is negated.
        for d in range(n):
            rows[d * n + d] = {i * n + i: 1 for i in range(d + 1, n)}
            for k in range(d):
                rows[d * n + k] = {d * n + k: -1}
    elif kind == "rime-phi":
        phi = ratvec(phi)
        require_distinct(phi, "phi")
        if len(phi) != n:
            raise InvalidInputError("phi length must equal n")
        # out(i, j) = c(i, j) (a(i, j) - a(j, j)) off the diagonal, and
        # out(i, i) = sum over s != i of c(s, i) (a(i, s) - a(s, s)), where
        # c(i, j) = phi_j / (phi_j - phi_i); each c is formed once
        c = {(i, j): phi[j] / (phi[j] - phi[i]) for i in range(n) for j in range(n) if i != j}
        for d in range(n):
            diag = rows[d * n + d] = {}
            for i in range(n):
                if i != d:
                    rows[d * n + i] = {d * n + i: c[(d, i)], d * n + d: c[(i, d)]}
                    diag[i * n + d] = -c[(i, d)]
                    diag[i * n + i] = -c[(d, i)]
    else:
        raise InvalidInputError(f"no closed form for kind {kind!r}")
    # an empty image, or a c(i, j) with phi_j = 0, stores nothing
    return RotaBaxterMap(n, Operator1._entries(n * n, rows))


def rb_weight_residual(rb: RotaBaxterMap, alpha, a: Operator1, b: Operator1) -> Operator1:
    """r(A)r(B) + alpha r(AB) - r(r(A)B + A r(B))."""
    alpha = rat(alpha)
    ra, rbm = rb.apply(a), rb.apply(b)
    return signed_products([(1, ra, rbm), (alpha, rb.apply(a @ b)),
                            (-1, rb.apply(signed_products([(1, ra, b), (1, a, rbm)])))])


def _sweep_units(n: int) -> list[tuple[tuple[int, int], Operator1]]:
    """(cell, unit) for the units Operator1.unit(n, i, j), i outer and j inner.

    Unit (i, j) sits at cell (j - 1, i - 1).  The product of the units at cells
    (p, q) and (s, t) is the unit at cell (p, t) when q == s, and zero otherwise.
    """
    return [((j - 1, i - 1), Operator1.unit(n, i, j))
            for i in range(1, n + 1) for j in range(1, n + 1)]


def rb_weight_operator(r: Operator2, alpha) -> Operator3:
    """X(r) = r12 r13 - r13 r32 - r23 r12 + alpha r13 P23, one signed sum of products.

    For every A and B, the weight residual r(A)r(B) + alpha r(AB) - r(r(A)B + A r(B))
    of ``rota_baxter(r)`` equals Tr_23(X(r) A_2 B_3).  At the units of cells (p, q)
    and (s, t) its cell (a, d) is the entry of X(r) at row (a, q, t), column
    (d, p, s), all 0-based, so the unit pairs read every entry once:
    X(r) = 0 iff the map has weight alpha.
    """
    r12, r13, r23 = place(r, (1, 2), 3), place(r, (1, 3), 3), place(r, (2, 3), 3)
    return signed_products([(1, r12, r13), (-1, r13, place(r, (3, 2), 3)), (-1, r23, r12),
                            (rat(alpha), r13, place(permutation_P(r.dim), (2, 3), 3))])


def rb_weight_residuals(r: Operator2, rb: RotaBaxterMap, alpha,
                        pairs) -> tuple[Operator3, Deferred]:
    """X(r), and the weight residuals of ``rb`` at each (A, B) of ``pairs`` as a list.

    ``rb`` is ``rota_baxter(r)``, which the caller already holds.  Each residual
    W_r(A, B) = r(A)r(B) + alpha r(AB) - r(r(A)B + A r(B)) equals
    Tr_23(X(r) A_2 B_3), so X(r) = 0 decides them all; the form makes each one
    ``rb_weight_residual``.
    """
    x = rb_weight_operator(r, alpha)
    return x, Deferred(x.is_zero(), lambda: [rb_weight_residual(rb, alpha, a, b)
                                             for a, b in pairs])


def star_product(a: Operator1, b: Operator1, rb: RotaBaxterMap, alpha) -> Operator1:
    """A*B = r(A)B + A r(B) - alpha AB (associative for a weight-alpha operator)."""
    alpha = rat(alpha)
    return signed_products([(1, rb.apply(a), b), (1, a, rb.apply(b)), (-alpha, a, b)])


def _left_multiplication(x: Operator1) -> Operator2:
    """L_X with vec(Y) L_X = vec(XY), where vec reads cell (i, j) of Mat(V) at pair i n + j.

    Row (k, j) of L_X holds column k of X on the pairs (i, j), so L_X = X^T (x) 1,
    relabelled from X's integer rows.
    """
    return place(x.transpose(), (1,), 2)


def star_tables(rb: RotaBaxterMap, rb_prime: RotaBaxterMap, alpha,
                c) -> tuple[list[Operator1], list[Operator2], list[Operator2]]:
    """Star products of unit pairs, and the associativity and star-tilde residuals as tables.

    Write vec for the row-major cells and read ``images`` (the matrix of R)
    as an operator on V (x) V.  Then vec(Y) U_X = vec(X * Y) for the left-star
    table U_X = L_R(X) + images L_X - alpha L_X, so over the units x_0 .. x_{m-1}
    of ``_sweep_units`` (m = n^2), for every Z,

        vec(Z) (U_{x_a * x_b} - U_{x_b} U_{x_a}) = vec((x_a * x_b) * Z - x_a * (x_b * Z)),

    and likewise vec(Y) (L_R(x_a) - images' L_{x_a} + c T_a - U_{x_a}) =
    vec(x_a *~ Y - x_a * Y), where images' is the matrix of ``rb_prime`` and
    T_a holds vec(x_a) in every row (d, d), since Tr Y = sum_d Y_dd.  Neither
    identity asks R for any property, so the first table is zero iff every
    associator at (a, b) is, and row (cell of x_c) is the one at (a, b, c).

    Returns the stars x_a * x_b at a m + b, each read off a row of U_{x_a}, the
    associator tables at a m + b, and the star-tilde tables at a.  Every
    table is one ``signed_products`` sum of relabelled integer rows.
    """
    alpha, c = rat(alpha), rat(c)
    n = rb.n
    images = Operator2._of(n, *rb.images._ints())
    primed = Operator2._of(n, *rb_prime.images._ints())
    # (cell, L_x, L_R(x)) of each unit x
    units = [(cell, _left_multiplication(x), _left_multiplication(rb.unit_image(*cell)))
             for cell, x in _sweep_units(n)]
    left = [signed_products([(1, lrx), (1, images, lx), (-alpha, lx)]) for _, lx, lrx in units]
    stars = []
    for table in left:
        den, rows = table._ints()
        stars += [rb._cells(den, rows.get(d * n + k, {})) for (d, k), _, _ in units]
    m = len(units)
    associators = []
    for a, ua in enumerate(left):
        for b, ub in enumerate(left):
            s = stars[a * m + b]
            ls = _left_multiplication(s)
            associators.append(signed_products([(1, _left_multiplication(rb.apply(s))),
                                                (1, images, ls), (-alpha, ls), (-1, ub, ua)]))
    tilde = []
    for ((p, q), lx, lrx), ua in zip(units, left):
        trace = Operator2._of(n, 1, {d * n + d: {p * n + q: 1} for d in range(n)})
        tilde.append(signed_products([(1, lrx), (-1, primed, lx), (c, trace), (-1, ua)]))
    return stars, associators, tilde


def star_associativity_residuals(rb: RotaBaxterMap, rb_prime: RotaBaxterMap, alpha,
                                 c) -> Deferred:
    """For each unit pair (a, b) in turn, x_a *~ x_b - x_a * x_b and then the associators
    (x_a * x_b) * x_c - x_a * (x_b * x_c) over c, with the units of ``_sweep_units``, as
    one list.

    Each family is decided on its table (``star_tables``), and the list is zero
    when every table is.  The form reads each table's entries off its rows, row
    (cell of y) for the entry at y.
    """
    n = rb.n
    _, associators, tilde = star_tables(rb, rb_prime, alpha, c)
    cells = [d * n + k for (d, k), _ in _sweep_units(n)]
    m = len(cells)

    def entries(table: Operator2) -> list[Operator1]:
        den, rows = table._ints()
        return [rb._cells(den, rows.get(x, {})) for x in cells]

    return Deferred(all(table.is_zero() for table in chain(tilde, associators)), lambda: [
        x for a, table in enumerate(tilde) for b, difference in enumerate(entries(table))
        for x in (difference, *entries(associators[a * m + b]))])


_GL3_SHAPE_B0 = ((1, 1, 1), (0, 0, 1), (0, 0, 0))
_GL3_SHAPE_B = ((1, 1, 1), (0, 1, 0), (0, 0, 0))


GL3_IMAGES_B0 = {
    (1, 1): Operator1([[0, 1, 0], [0, 0, 1], [0, 0, 0]]),
    (1, 2): Operator1([[-1, 0, 0], [0, 0, 0], [0, 0, 0]]),
    (2, 1): Operator1([[0, 0, 1], [0, 0, 0], [0, 0, 0]]),
    (2, 2): Operator1([[0, 0, 0], [0, 0, 1], [0, 0, 0]]),
}

GL3_IMAGES_B = {
    (1, 1): Operator1([[1, 0, 0], [0, 1, 0], [0, 0, 0]]),
    (1, 2): Operator1([[0, 0, 1], [0, 0, 0], [0, 0, 0]]),
    (2, 1): Operator1([[0, 1, 0], [0, 0, 0], [0, 0, 0]]),
    (2, 2): Operator1([[0, 0, 0], [0, 1, 0], [0, 0, 0]]),
}


def gl2_isomorphism_check(kind: str, rb: RotaBaxterMap) -> dict[str, object]:
    """The n=2 star algebras are 4-dim corners of 3x3 matrices; the maps' residuals.

    ``rb`` must be ``rota_baxter(bezout_operator(kind, 2))``, which the caller
    already holds; it is not checked against ``kind``, and another map gives
    nonzero residuals that say nothing about the kind's star algebra.
    """
    n = 2
    if kind == B0:
        images, alpha, shape = GL3_IMAGES_B0, ZERO, _GL3_SHAPE_B0
    elif kind == B:
        images, alpha, shape = GL3_IMAGES_B, -ONE, _GL3_SHAPE_B
    else:
        raise InvalidInputError("isomorphisms exist for kinds 'b0' and 'b'")
    units = {(i, j): Operator1.unit(n, i, j) for i in (1, 2) for j in (1, 2)}

    homomorphism = []
    for (iu, ju), u in units.items():
        for (iv, jv), v in units.items():
            star = star_product(u, v, rb, alpha)
            # express star in units: star = sum c_{ab} e^a_b with c_{ab} at slot (b-1, a-1)
            homomorphism.append(signed_products(
                [*((star._get(b_ - 1, a - 1), images[(a, b_)]) for a in (1, 2) for b_ in (1, 2)),
                 (-1, images[(iu, ju)], images[(iv, jv)])]))
    # each image restricted to the cells outside the corner shape must vanish
    outside = {f"{a},{b}": Operator1([[ZERO if shape[i][j] else m._get(i, j) for j in range(3)]
                                      for i in range(3)])
               for (a, b), m in images.items()}
    flat = [{3 * i + j: v for i, row in m.data.items() for j, v in row.items()}
            for m in images.values()]
    return {"homomorphism": homomorphism, "shape": outside,
            "independent": Echelon(flat).rank == 4}
