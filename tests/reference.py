"""Slow, direct forms of checks that yibre computes a faster way.

Each function here computes an identity the plain way: pair by pair, row by
row or entry by entry.  No code under ``src`` calls them.  The tests compare
yibre's fast forms with them, on passing inputs and on bumped ones.
"""

from fractions import Fraction
from typing import Sequence

from yibre import classical
from yibre.bezout import B, B0, RS, RotaBaxterMap, _sweep_units
from yibre.kernel import (ONE, ZERO, InvalidInputError, NotSkewInvertibleError, elem_syms,
                          rat, ratvec, require_distinct)
from yibre.tensor import (Operator1, Operator2, Operator3, lift, reshuffled_matrix,
                          signed_products)


def dense_grid(op) -> list[list]:
    """Every entry of an operator as one full grid of scalars, zeros included."""
    grid = [[ZERO] * op.size for _ in range(op.size)]
    for r, c, v in op.nonzero_entries():
        grid[r][c] = v
    return grid


def dense_matmul(x, y) -> list[list]:
    """The product of two square grids, each entry summed over the whole middle index."""
    size = len(x)
    return [[sum((x[r][k] * y[k][c] for k in range(size)), ZERO) for c in range(size)]
            for r in range(size)]


def dense_signed_sum(terms) -> list[list]:
    """The grid of the sum of k * F1 @ ... @ Fm over terms (k, F1, ..., Fm),
    each product formed whole on dense grids and added entry by entry."""
    size = terms[0][1].size
    total = [[ZERO] * size for _ in range(size)]
    for k, *fs in terms:
        product = dense_grid(fs[0])
        for f in fs[1:]:
            product = dense_matmul(product, dense_grid(f))
        for r, row in enumerate(product):
            for c, v in enumerate(row):
                total[r][c] += k * v
    return total


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


def elem_sym(values: Sequence[Fraction], k: int) -> Fraction:
    """Elementary symmetric polynomial e_k of the given values (e_0 = 1)."""
    return elem_syms(values)[k] if 0 <= k <= len(values) else ZERO


def elem_sym_omit(values: Sequence[Fraction], k: int, omit: int) -> Fraction:
    """e_k of the vector with 1-based entry ``omit`` removed, from scratch."""
    n = len(values)
    if not 1 <= omit <= n:
        raise InvalidInputError(f"omit index {omit} out of range 1..{n}")
    return elem_sym(tuple(values[:omit - 1]) + tuple(values[omit:]), k)


def map_from_function(n: int, fn) -> RotaBaxterMap:
    """Tabulate a linear ``fn`` on Mat(V) from its images of the n^2 unit matrices."""
    images = Operator1.zero(n * n)
    for d in range(n):
        for k in range(n):
            basis = Operator1.zero(n)
            basis._set(d, k, ONE)
            for i, j, v in fn(basis).nonzero_entries():
                images._set(d * n + k, i * n + j, v)
    return RotaBaxterMap(n, images)


def rb_unit_weight_residuals(rb: RotaBaxterMap, alpha) -> list[Operator1]:
    """``rb_weight_residual`` over every ordered pair of units, in ``_sweep_units`` order.

    r(A), r(B) and r(AB) are stored unit images, so each pair applies the map
    once, to r(A)B + A r(B), and forms no product AB.
    """
    alpha = rat(alpha)
    units = _sweep_units(rb.n)
    images = {cell: rb.unit_image(*cell) for cell, _ in units}
    out = []
    for (p, q), a in units:
        ra = images[(p, q)]
        for (s, t), b in units:
            rbm = images[(s, t)]
            ab = [(alpha, images[(p, t)])] if q == s else []
            out.append(signed_products([(1, ra, rbm), *ab, (-1, rb.apply(
                signed_products([(1, ra, b), (1, a, rbm)])))]))
    return out


def full_cybe_residual(r: Operator2) -> Operator3:
    """[r12,r13] + [r12,r23] + [r13,r23] on every row, whatever the symmetry of r."""
    r12, r13, r23 = lift(r, 12), lift(r, 13), lift(r, 23)
    return signed_products([(1, r12, r13), (-1, r13, r12),
                            (1, r12, r23), (-1, r23, r12),
                            (1, r13, r23), (-1, r23, r13)])


def rb_closed_form_per_cell(kind: str, n: int, phi=None) -> RotaBaxterMap:
    """The closed Rota-Baxter formulas as functions on Mat(V), tabulated unit by unit."""
    if kind == B0:
        def fn(a: Operator1) -> Operator1:
            out = Operator1.zero(n)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    tot = ZERO
                    if j > i:
                        s = 0
                        while i - s >= 1 and j - s - 1 >= 1:
                            tot += a._get(i - s - 1, j - s - 2)
                            s += 1
                    if i >= j:
                        s = 0
                        while i + s + 1 <= n and j + s <= n:
                            tot -= a._get(i + s, j + s - 1)
                            s += 1
                    out._set(i - 1, j - 1, tot)
            return out
    elif kind == B:
        def fn(a: Operator1) -> Operator1:
            out = Operator1.zero(n)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    tot = ZERO
                    if j + 1 > i:
                        s = 0
                        while i - s - 1 >= 1 and j - s - 1 >= 1:
                            tot += a._get(i - s - 2, j - s - 2)
                            s += 1
                    if i > j:
                        s = 0
                        while i + s <= n and j + s <= n:
                            tot -= a._get(i + s - 1, j + s - 1)
                            s += 1
                    out._set(i - 1, j - 1, tot)
            return out
    elif kind == RS:
        def fn(a: Operator1) -> Operator1:
            out = Operator1.zero(n)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i == j:
                        out._set(i - 1, i - 1, sum((a._get(s - 1, s - 1)
                                                    for s in range(1, i)), ZERO))
                    elif i > j:
                        out._set(i - 1, j - 1, -a._get(i - 1, j - 1))
            return out
    elif kind == "rime-phi":
        phi = ratvec(phi)
        require_distinct(phi, "phi")

        def fn(a: Operator1) -> Operator1:
            out = Operator1.zero(n)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i != j:
                        out._set(i - 1, j - 1, phi[j - 1] / (phi[j - 1] - phi[i - 1])
                                 * (a._get(i - 1, j - 1) - a._get(j - 1, j - 1)))
                    else:
                        tot = ZERO
                        for s in range(1, n + 1):
                            if s != i:
                                tot += (phi[i - 1] / (phi[i - 1] - phi[s - 1])
                                        * (a._get(i - 1, s - 1) - a._get(s - 1, s - 1)))
                        out._set(i - 1, i - 1, tot)
            return out
    else:
        raise ValueError(f"no closed form for kind {kind!r}")
    return map_from_function(n, fn)


def carrier_coboundary_per_pair(mu) -> dict[str, list]:
    """``carrier_algebra_check``'s coboundary and disjoint-bracket lists, one bracket per
    ordered pair, with the carrier read through ``classical.carrier_Z`` at call time."""
    mu = ratvec(mu)
    n = len(mu)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    z = {p: classical.carrier_Z(n, *p) for p in pairs}
    other_brackets, coboundary = [], []
    for p in pairs:
        for t in pairs:
            zpt = signed_products([(1, z[p], z[t]), (-1, z[t], z[p])])
            if not set(p) & set(t):
                other_brackets.append(zpt)
            # omega(Z^i_j, Z^k_l) = -(mu_i - mu_j) d^l_i d^j_k
            omega = -(mu[p[0] - 1] - mu[p[1] - 1]) if t == (p[1], p[0]) else ZERO
            coboundary.append(classical._lambda_on_carrier(zpt, mu) - omega or ZERO)
    return {"omega-is-coboundary": coboundary, "other-brackets": other_brackets}


def generating_function_per_entry(phi) -> list[list[Fraction]]:
    """e_j(phi) - e_j^ihat - phi_i e_{j-1}^ihat, each e computed afresh for each (i, j)."""
    phi = ratvec(phi)
    n = len(phi)
    return [[elem_sym(phi, j) - elem_sym_omit(phi, j, i) - phi[i - 1] * elem_sym_omit(phi, j - 1, i)
             for j in range(1, n + 1)] for i in range(1, n + 1)]
