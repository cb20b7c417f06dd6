"""Bezout operators on truncated polynomial spaces and their Rota-Baxter shadows.

Operators here act on P_n = span{x^a y^b : 0 <= a,b < n} with the basis
labelled by increasing powers, e_i <-> x^(i-1).  In that picture the matrix
of the divided-difference operator is exactly the closed wedge form checked
at import time, and the n = 2 Rota-Baxter and star-multiplication tables come
out verbatim.  The classical module writes the same operators in the
decreasing-power basis with input-indexed rows; ``basis_flip`` is the exact
bridge between the two pictures.
"""

from __future__ import annotations

from fractions import Fraction

from .kernel import ONE, ZERO, InvalidInputError, rat, theta
from .tensor import (Operator1, Operator2, Operator3, cybe_residual, kron11,
                     lift, op1_on_leg2, permutation_P, wedge,
                     ybe_numbered_residual, yb_residual)

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
    out = Operator2(n)
    for a in range(n):
        for b in range(n):
            for (k, l), v in action(a, b).items():
                if k < n and l < n:
                    out.set(k + 1, l + 1, a + 1, b + 1, v)
    return out


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
        return bezout_operator(B, n) - Operator2.identity(n).scale(Fraction(1, 2))
    raise InvalidInputError(f"unknown bezout kind {kind!r}")


def closed_form_operator(kind: str, n: int) -> Operator2:
    """The same operators assembled from their wedge/unit closed forms."""
    u = Operator1.unit
    out = Operator2(n)
    if kind == B0:
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                for a in range(1, j - i + 1):
                    out = out + wedge(u(n, j, i + a - 1), u(n, i, j - a))
        return out
    if kind == B:
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                for a in range(1, j - i):
                    out = out + wedge(u(n, j, i + a), u(n, i, j - a))
                out = out + kron11(u(n, j, j), u(n, i, i)) - kron11(u(n, i, j), u(n, j, i))
        return out
    if kind == RS:
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                if a > b:
                    out = out + kron11(u(n, a, a), u(n, b, b))
                elif a < b:
                    out = out - kron11(u(n, a, b), u(n, b, a))
        return out
    if kind == BTILDE:
        return closed_form_operator(B, n) - Operator2.identity(n).scale(Fraction(1, 2))
    raise InvalidInputError(f"unknown bezout kind {kind!r}")


def basis_flip(op: Operator2) -> Operator2:
    """Transpose + basis reversal: the bridge to the decreasing-power picture."""
    n = op.dim
    out = Operator2(n)
    for i, j, k, l, v in op.four_index_items():
        out.set(n + 1 - k, n + 1 - l, n + 1 - i, n + 1 - j, v)
    return out


def _assert_basis_convention() -> None:
    for n in (2, 3):
        for kind in (B0, B, RS):
            if bezout_operator(kind, n) != closed_form_operator(kind, n):
                raise AssertionError(f"basis convention broken for {kind}, n={n}")


_assert_basis_convention()


# --- identity suite ----------------------------------------------------------

def bezout_identity_suite(n: int) -> dict[str, Operator2]:
    """Named residuals of the quadratic/P identities of the three operators."""
    p = permutation_P(n)
    ident = Operator2.identity(n)
    b0 = bezout_operator(B0, n)
    b = bezout_operator(B, n)
    rs = bezout_operator(RS, n)
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
    n = r.dim
    s = r + r.reversed_legs()
    if n < 2:
        return (ZERO, s.get(1, 1, 1, 1))
    alpha = s.get(1, 2, 2, 1)
    beta = s.get(1, 2, 1, 2)
    expect = permutation_P(n).scale(alpha) + Operator2.identity(n).scale(beta)
    return (alpha, beta) if s == expect else None


def quadratic_data(r: Operator2):
    """(u, v) with r^2 = u r + v I, or None; requires r independent of I."""
    n = r.dim
    sq = r @ r
    ident = Operator2.identity(n)
    # solve the 2-unknown linear system entrywise
    rows = []
    for rr in range(n * n):
        for cc in range(n * n):
            a = r._get(rr, cc)
            b = ONE if rr == cc else ZERO
            e = sq._get(rr, cc)
            rows.append((a, b, e))
    # eliminate: find two independent (a, b) rows
    pivot = next((row for row in rows if row[0]), None)
    if pivot is None:
        return None
    a0, b0_, e0 = pivot
    other = next((row for row in rows
                  if row[0] * b0_ - row[1] * a0), None)
    if other is None:
        return None
    a1, b1, e1 = other
    det = a0 * b1 - a1 * b0_
    u = (e0 * b1 - e1 * b0_) / det
    v = (a0 * e1 - a1 * e0) / det
    check = r.scale(u) + ident.scale(v)
    return (u, v) if sq == check else None


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
    rt = r + Operator2.identity(n).scale(a) + permutation_P(n).scale(b)
    rt12, rt13, rt23 = lift(rt, 12), lift(rt, 13), lift(rt, 23)
    circ = rt12 @ rt13 + rt13 @ rt23 - rt23 @ rt12
    p13 = lift(permutation_P(n), 13)
    p23 = lift(permutation_P(n), 23)
    p12 = lift(permutation_P(n), 12)
    expected = (rt13.scale(c + 2 * a)
                - Operator3.identity(n).scale(a * (c + a))
                + p13.scale(b * (beta - c))
                + (p23 @ p12).scale(b * (alpha + b)))
    return circ - expected


def bez9_residual(r: Operator2, c) -> tuple[Operator3, Operator3]:
    """r13 (Sr)23 - (Sr)23 r12 - c(r13 - r12) and its mirror."""
    c = rat(c)
    s = r + r.reversed_legs()
    r12, r13, r23 = lift(r, 12), lift(r, 13), lift(r, 23)
    s23, s12 = lift(s, 23), lift(s, 12)
    first = r13 @ s23 - s23 @ r12 - (r13 - r12).scale(c)
    second = s12 @ r13 - r23 @ s12 - (r13 - r23).scale(c)
    return first, second


def bez23_residual(r: Operator2, c) -> Operator3:
    """[r13, r23] - (r12 - cI) r13 P23, valid when rP = -r."""
    c = rat(c)
    n = r.dim
    r12, r13, r23 = lift(r, 12), lift(r, 13), lift(r, 23)
    p23 = lift(permutation_P(n), 23)
    lhs = r13 @ r23 - r23 @ r13
    rhs = (r12 - Operator3.identity(n).scale(c)) @ r13 @ p23
    return lhs - rhs


def hecke_overlap_residuals(r: Operator2, beta, v) -> dict[str, Operator3]:
    """The three-generator algebra relations satisfied by r12, r13, r23."""
    beta, v = rat(beta), rat(v)
    r12, r13, r23 = lift(r, 12), lift(r, 13), lift(r, 23)
    ident = Operator3.identity(r.dim)
    return {
        "mixed-1": r13 @ r23 - (r23 @ r12 - r12 @ r13 + r13.scale(beta)),
        "mixed-2": r13 @ r12 - (r12 @ r23 - r23 @ r13 + r13.scale(beta)),
        "braid-12-23": r23 @ r12 @ r23 - r12 @ r23 @ r12,
        "square-12": r12 @ r12 - r12.scale(beta) - ident.scale(v),
    }


def linear_quantization_residuals(kind: str, lam, n: int) -> dict[str, Operator3]:
    """Both YBE forms for R = I + lambda r."""
    lam = rat(lam)
    r = bezout_operator(kind, n)
    big = Operator2.identity(n) + r.scale(lam)
    return {
        "numbered": ybe_numbered_residual(big),
        "braid": yb_residual(permutation_P(n) @ big),
    }


def derivative_matrix(n: int) -> Operator1:
    """d/dx on span{x^0 .. x^(n-1)}."""
    m = Operator1.zero(n)
    for i in range(2, n + 1):
        m.rows[i - 2][i - 1] = Fraction(i - 1)
    return m


def euler_matrix(n: int) -> Operator1:
    """x d/dx, diagonal with the power."""
    return Operator1.diag([Fraction(k) for k in range(n)])


def shifted_solution_residual(kind: str, c, n: int) -> Operator3:
    """cYB residual of b0 + c(d_x - d_y) or b + c(xd_x - yd_y)."""
    c = rat(c)
    if kind == "b0shift":
        gen = derivative_matrix(n)
        base = bezout_operator(B0, n)
    elif kind == "bshift":
        gen = euler_matrix(n)
        base = bezout_operator(B, n)
    else:
        raise InvalidInputError(f"unknown shift kind {kind!r}")
    shifted = base + (op1_on_leg2(gen, 1) - op1_on_leg2(gen, 2)).scale(c)
    return cybe_residual(shifted)


def shift_generator_commutator(kind: str, n: int) -> Operator2:
    """[b0, d_1 + d_2] or [b, (xd)_1 + (xd)_2]."""
    if kind == "b0shift":
        gen, base = derivative_matrix(n), bezout_operator(B0, n)
    elif kind == "bshift":
        gen, base = euler_matrix(n), bezout_operator(B, n)
    else:
        raise InvalidInputError(f"unknown shift kind {kind!r}")
    s = op1_on_leg2(gen, 1) + op1_on_leg2(gen, 2)
    return base @ s - s @ base


# --- divided-difference recursion -------------------------------------------

def _poly_mul_x(poly: dict, n: int, slot: int) -> dict:
    out = {}
    for (a, b), v in poly.items():
        key = (a + 1, b) if slot == 0 else (a, b + 1)
        if key[0] < n and key[1] < n:
            out[key] = out.get(key, ZERO) + v
    return out


def m_recursion_check(n: int) -> dict[str, bool]:
    """Verify M(xf) = f + yM(f), M(yf) = -f + xM(f) and the uniqueness rebuild."""
    ok_x = True
    ok_y = True
    for a in range(n):
        for b in range(n):
            mf = b0_action(a, b)
            if a + 1 < n:
                lhs = b0_action(a + 1, b)
                rhs = {(a, b): ONE}
                for (u, v), w in _poly_mul_x(mf, n, 1).items():
                    rhs[(u, v)] = rhs.get((u, v), ZERO) + w
                if {k: v for k, v in lhs.items() if v} != {k: v for k, v in rhs.items() if v}:
                    ok_x = False
            if b + 1 < n:
                lhs = b0_action(a, b + 1)
                rhs = {(a, b): -ONE}
                for (u, v), w in _poly_mul_x(mf, n, 0).items():
                    rhs[(u, v)] = rhs.get((u, v), ZERO) + w
                if {k: v for k, v in lhs.items() if v} != {k: v for k, v in rhs.items() if v}:
                    ok_y = False
    # uniqueness: rebuild M from the recursion and the seed M(1) = 0
    rebuilt: dict[tuple[int, int], dict] = {(0, 0): {}}
    for deg in range(1, 2 * n - 1):
        for a in range(n):
            b = deg - a
            if not 0 <= b < n:
                continue
            if a >= 1:
                prev = rebuilt[(a - 1, b)]
                img = {(a - 1, b): ONE}
                for (u, v), w in _poly_mul_x(prev, n, 1).items():
                    img[(u, v)] = img.get((u, v), ZERO) + w
            else:
                prev = rebuilt[(a, b - 1)]
                img = {(a, b - 1): -ONE}
                for (u, v), w in _poly_mul_x(prev, n, 0).items():
                    img[(u, v)] = img.get((u, v), ZERO) + w
            rebuilt[(a, b)] = {k: v for k, v in img.items() if v}
    rebuilt_ok = all(rebuilt[(a, b)] == {k: v for k, v in b0_action(a, b).items() if v}
                     for a in range(n) for b in range(n))
    return {"x-recursion": ok_x, "y-recursion": ok_y, "rebuild-matches": rebuilt_ok}


# --- coproducts ---------------------------------------------------------------

def coproduct(u: Operator1, r: Operator2, c, variant: str = "plain") -> Operator2:
    """delta0(u) = u1 r - r u2, with the -c u1 / +c u2 modifications."""
    c = rat(c)
    u1 = op1_on_leg2(u, 1)
    u2 = op1_on_leg2(u, 2)
    out = u1 @ r - r @ u2
    if variant == "plain":
        return out
    if variant == "delta":
        return out - u1.scale(c)
    if variant == "delta-tilde":
        return out + u2.scale(c)
    raise InvalidInputError(f"unknown coproduct variant {variant!r}")


def coassociativity_residual(r: Operator2, c, variant: str, u: Operator1) -> Operator3:
    """(delta (x) id) delta(u) - (id (x) delta) delta(u) on V^3."""
    c = rat(c)
    big = coproduct(u, r, c, variant)
    u13, u23, u12 = lift(big, 13), lift(big, 23), lift(big, 12)
    r12, r23 = lift(r, 12), lift(r, 23)
    if variant == "plain":
        left = u13 @ r12 - r12 @ u23
        right = u12 @ r23 - r23 @ u13
    elif variant == "delta":
        left = u13 @ r12 - r12 @ u23 - u13.scale(c)
        right = u12 @ r23 - r23 @ u13 - u12.scale(c)
    elif variant == "delta-tilde":
        left = u13 @ r12 - r12 @ u23 + u23.scale(c)
        right = u12 @ r23 - r23 @ u13 + u13.scale(c)
    else:
        raise InvalidInputError(f"unknown coproduct variant {variant!r}")
    return left - right


def derivation_residual(u: Operator1, v: Operator1, r: Operator2, c,
                        variant: str = "plain") -> Operator2:
    """delta(uv) - (u (x) 1) delta(v) - delta(u)(1 (x) v) -/+ c (u (x) v)."""
    c = rat(c)
    duv = coproduct(u @ v, r, c, variant)
    comb = (op1_on_leg2(u, 1) @ coproduct(v, r, c, variant)
            + coproduct(u, r, c, variant) @ op1_on_leg2(v, 2))
    if variant == "plain":
        return duv - comb
    if variant == "delta":
        return duv - comb - kron11(u, v).scale(c)
    if variant == "delta-tilde":
        return duv - comb + kron11(u, v).scale(c)
    raise InvalidInputError(f"unknown coproduct variant {variant!r}")


# --- Rota-Baxter operators -----------------------------------------------------

class MatrixMap:
    """Linear map on Mat(V), stored as an n^2 x n^2 grid over vectorized matrices.

    vec(A)[(i-1)n + (j-1)] = A^i_j.
    """

    def __init__(self, n: int, grid: Operator1):
        self.n = n
        self.grid = grid

    @classmethod
    def from_function(cls, n: int, fn) -> "MatrixMap":
        cols = []
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                basis = Operator1.zero(n)
                basis.rows[i - 1][j - 1] = ONE
                cols.append(fn(basis))
        grid = Operator1.zero(n * n)
        for cidx, img in enumerate(cols):
            for a in range(n):
                for b in range(n):
                    grid.rows[a * n + b][cidx] = img.rows[a][b]
        return cls(n, grid)

    def apply(self, a: Operator1) -> Operator1:
        n = self.n
        vec = [a.rows[i][j] for i in range(n) for j in range(n)]
        img = [sum((self.grid.rows[r][c] * vec[c] for c in range(n * n)), ZERO)
               for r in range(n * n)]
        return Operator1([[img[i * n + j] for j in range(n)] for i in range(n)])

    def __eq__(self, other):
        return isinstance(other, MatrixMap) and self.n == other.n and self.grid == other.grid


def rota_baxter(r: Operator2, side: str = "left") -> MatrixMap:
    """r(A)_1 = Tr_2(r_12 A_2) for 'left', r'(A)_2 = Tr_1(r_12 A_1) for 'right'."""
    n = r.dim

    def left(a: Operator1) -> Operator1:
        out = Operator1.zero(n)
        for i, k, j, d, v in r.four_index_items():
            out.rows[i - 1][j - 1] += v * a.rows[d - 1][k - 1]
        return out

    def right(a: Operator1) -> Operator1:
        out = Operator1.zero(n)
        for i, b, d, l, v in r.four_index_items():
            # contributes r^{ab}_{dl} A^d_a to entry (b, l)
            out.rows[b - 1][l - 1] += v * a.rows[d - 1][i - 1]
        return out

    if side == "left":
        return MatrixMap.from_function(n, left)
    if side == "right":
        return MatrixMap.from_function(n, right)
    raise InvalidInputError("side must be 'left' or 'right'")


def rb_closed_form(kind: str, n: int, phi=None) -> MatrixMap:
    """Explicit summation formulas for the Rota-Baxter operators."""
    if kind == B0:
        def fn(a: Operator1) -> Operator1:
            out = Operator1.zero(n)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    tot = ZERO
                    if j > i:
                        s = 0
                        while i - s >= 1 and j - s - 1 >= 1:
                            tot += a.rows[i - s - 1][j - s - 2]
                            s += 1
                    if i >= j:
                        s = 0
                        while i + s + 1 <= n and j + s <= n:
                            tot -= a.rows[i + s][j + s - 1]
                            s += 1
                    out.rows[i - 1][j - 1] = tot
            return out
        return MatrixMap.from_function(n, fn)
    if kind == B:
        def fn(a: Operator1) -> Operator1:
            out = Operator1.zero(n)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    tot = ZERO
                    if j + 1 > i:
                        s = 0
                        while i - s - 1 >= 1 and j - s - 1 >= 1:
                            tot += a.rows[i - s - 2][j - s - 2]
                            s += 1
                    if i > j:
                        s = 0
                        while i + s <= n and j + s <= n:
                            tot -= a.rows[i + s - 1][j + s - 1]
                            s += 1
                    out.rows[i - 1][j - 1] = tot
            return out
        return MatrixMap.from_function(n, fn)
    if kind == RS:
        # off-diagonal support is the lower triangle: the upper-triangle variant
        # is the right-handed operator Tr_1(r_12 A_1), not this one
        def fn(a: Operator1) -> Operator1:
            out = Operator1.zero(n)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i == j:
                        out.rows[i - 1][i - 1] = sum((a.rows[s - 1][s - 1]
                                                      for s in range(1, i)), ZERO)
                    elif i > j:
                        out.rows[i - 1][j - 1] = -a.rows[i - 1][j - 1]
            return out
        return MatrixMap.from_function(n, fn)
    if kind == "rime-phi":
        from .kernel import ratvec, require_distinct
        phi = ratvec(phi)
        require_distinct(phi, "phi")
        if len(phi) != n:
            raise InvalidInputError("phi length must equal n")

        def fn(a: Operator1) -> Operator1:
            out = Operator1.zero(n)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i != j:
                        out.rows[i - 1][j - 1] = (phi[j - 1] / (phi[j - 1] - phi[i - 1])
                                                  * (a.rows[i - 1][j - 1] - a.rows[j - 1][j - 1]))
                    else:
                        tot = ZERO
                        for s in range(1, n + 1):
                            if s != i:
                                tot += (phi[i - 1] / (phi[i - 1] - phi[s - 1])
                                        * (a.rows[i - 1][s - 1] - a.rows[s - 1][s - 1]))
                        out.rows[i - 1][i - 1] = tot
            return out
        return MatrixMap.from_function(n, fn)
    raise InvalidInputError(f"no closed form for kind {kind!r}")


def rb_weight_residual(rb: MatrixMap, alpha, a: Operator1, b: Operator1) -> Operator1:
    """r(A)r(B) + alpha r(AB) - r(r(A)B + A r(B))."""
    alpha = rat(alpha)
    ra, rbm = rb.apply(a), rb.apply(b)
    return ra @ rbm + rb.apply(a @ b).scale(alpha) - rb.apply(ra @ b + a @ rbm)


def star_product(a: Operator1, b: Operator1, rb: MatrixMap, alpha) -> Operator1:
    """A*B = r(A)B + A r(B) - alpha AB (associative for a weight-alpha operator)."""
    alpha = rat(alpha)
    return rb.apply(a) @ b + a @ rb.apply(b) - (a @ b).scale(alpha)


def star_tilde_product(a: Operator1, b: Operator1, rb: MatrixMap, rb_prime: MatrixMap,
                       c) -> Operator1:
    """A *~ B = r(A)B - A r'(B) + c A Tr(B)."""
    c = rat(c)
    return rb.apply(a) @ b - a @ rb_prime.apply(b) + a.scale(c * b.trace())


_GL3_SHAPE_B0 = ((1, 1, 1), (0, 0, 1), (0, 0, 0))
_GL3_SHAPE_B = ((1, 1, 1), (0, 1, 0), (0, 0, 0))


def _gl3(rows) -> Operator1:
    return Operator1(rows)


GL3_IMAGES_B0 = {
    (1, 1): _gl3([[0, 1, 0], [0, 0, 1], [0, 0, 0]]),
    (1, 2): _gl3([[-1, 0, 0], [0, 0, 0], [0, 0, 0]]),
    (2, 1): _gl3([[0, 0, 1], [0, 0, 0], [0, 0, 0]]),
    (2, 2): _gl3([[0, 0, 0], [0, 0, 1], [0, 0, 0]]),
}

GL3_IMAGES_B = {
    (1, 1): _gl3([[1, 0, 0], [0, 1, 0], [0, 0, 0]]),
    (1, 2): _gl3([[0, 0, 1], [0, 0, 0], [0, 0, 0]]),
    (2, 1): _gl3([[0, 1, 0], [0, 0, 0], [0, 0, 0]]),
    (2, 2): _gl3([[0, 0, 0], [0, 1, 0], [0, 0, 0]]),
}


def gl2_isomorphism_check(kind: str) -> dict[str, bool]:
    """The n=2 star algebras are 4-dim corners of 3x3 matrices; check the maps."""
    n = 2
    if kind == B0:
        images, alpha, shape = GL3_IMAGES_B0, ZERO, _GL3_SHAPE_B0
    elif kind == B:
        images, alpha, shape = GL3_IMAGES_B, -ONE, _GL3_SHAPE_B
    else:
        raise InvalidInputError("isomorphisms exist for kinds 'b0' and 'b'")
    rb = rota_baxter(bezout_operator(kind, n))
    units = {(i, j): Operator1.unit(n, i, j) for i in (1, 2) for j in (1, 2)}

    hom = True
    for (iu, ju), u in units.items():
        for (iv, jv), v in units.items():
            star = star_product(u, v, rb, alpha)
            # express star in units: star = sum c_{ab} e^a_b with c_{ab} at slot (b-1, a-1)
            img = Operator1.zero(3)
            for a in (1, 2):
                for b_ in (1, 2):
                    c = star.rows[b_ - 1][a - 1]
                    if c:
                        img = img + images[(a, b_)].scale(c)
            if img != images[(iu, ju)] @ images[(iv, jv)]:
                hom = False
    shape_ok = all(images[k].rows[i][j] == 0
                   for k in images for i in range(3) for j in range(3) if not shape[i][j])
    vecs = [[images[k].rows[i][j] for i in range(3) for j in range(3)] for k in sorted(images)]
    from .tensor import rank_of_rows
    independent = rank_of_rows([list(v) for v in vecs]) == 4
    return {"homomorphism": hom, "shape": shape_ok, "independent": independent}
