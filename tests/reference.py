"""Slow, direct forms of checks that yibre computes a faster way.

Each function here computes an identity the plain way: pair by pair, row by
row or entry by entry.  No code under ``src`` calls them.  The tests compare
yibre's fast forms with them, on passing inputs and on bumped ones.
"""

from fractions import Fraction
from itertools import permutations
from typing import Sequence

from yibre import bezout, blocks, cg, classical, rime
from yibre.bezout import B, B0, RS, RotaBaxterMap, _sweep_units
from yibre.kernel import (ONE, ZERO, Deferred, InvalidInputError, NotSkewInvertibleError,
                          elem_syms, elem_syms_omitting, rat, ratvec, require_distinct,
                          sparse_minus, theta)
from yibre.rational import Q
from yibre.poisson import QuadraticBracket, linear_bracket
from yibre.tensor import (Echelon, Operator1, Operator2, Operator3, _clear, conjugate2, kron11,
                          place, reshuffled_matrix, row_space, signed_products, wedge)


def add_entry(entries: dict, r: int, c: int, v) -> None:
    """Add v to entry (r, c) of a plain ``{row: {col: value}}`` dict of flat indices."""
    row = entries.setdefault(r, {})
    row[c] = row.get(c, 0) + v


def formed(obj):
    """``obj`` with every ``Deferred`` in it replaced by its form, at any depth of dicts,
    lists and tuples, so that it compares with a reference's whole residual."""
    if isinstance(obj, Deferred):
        return formed(obj.form())
    if isinstance(obj, dict):
        return {k: formed(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(map(formed, obj))
    return obj


def bumped(op, *entry):
    """A copy of ``op`` with v added at one entry: ``bumped(op, r, c, v)`` at a flat (row,
    col), or ``bumped(r2, i, j, k, l, v)`` at R^{ij}_{kl} of a two-leg operator (1-based)."""
    *index, v = entry
    if len(index) == 4:
        n = op.dim
        i, j, k, l = index
        index = [(i - 1) * n + j - 1, (k - 1) * n + l - 1]
    r, c = index
    return op + type(op)._entries(op.dim, {r: {c: rat(v)}})


# --- relation spaces, eigenvectors and products that only the tests form ------------

def quantum_space_relations(r: Operator2, eigenvalue, side: str) -> Operator2:
    """Degree-2 relation space of a quantum (super)plane: the span of ``quantum_space_rows``."""
    return row_space(r.dim, rime.quantum_space_rows(r, eigenvalue, side))


def rime_plane_relations(data) -> Operator2:
    """The row space of ``rime_plane_rows``."""
    return row_space(data.dim, rime.rime_plane_rows(data))


def classical_commutator_relations(n: int) -> Operator2:
    """The row space of ``classical_commutator_rows``."""
    return row_space(n, rime.classical_commutator_rows(n))


def odd_classical_relations(n: int) -> Operator2:
    """The row space of ``odd_classical_rows``."""
    return row_space(n, rime.odd_classical_rows(n))


def left_odd_rime_relations(data, beta) -> Operator2:
    """The row space of ``left_odd_rime_rows``."""
    return row_space(data.dim, rime.left_odd_rime_rows(data, beta))


def cg_plane_relations(n: int, qsq_inv) -> Operator2:
    """The row space of ``cg_plane_rows``."""
    return row_space(n, cg.cg_plane_rows(n, qsq_inv))


def eigenvector_w(params, a: int) -> tuple[Fraction, ...]:
    """w_a with components (w_a)^j = e_a^jhat of the parameter vector (zero unless 0 <= a < n)."""
    params = ratvec(params)
    if not 0 <= a < len(params):
        return tuple(ZERO for _ in params)
    return tuple(row[a] for row in elem_syms_omitting(params))


def star_tilde_product(a: Operator1, b: Operator1, rb: RotaBaxterMap, rb_prime: RotaBaxterMap,
                       c) -> Operator1:
    """A *~ B = r(A)B - A r'(B) + c A Tr(B)."""
    c = rat(c)
    return signed_products([(1, rb.apply(a), b), (-1, a, rb_prime.apply(b)),
                            (c * b.trace(), a)])


def conjugation_residual(pair: str, params) -> Deferred:
    """``classical.conjugation_residual_of`` with every object built afresh from ``params``."""
    params = ratvec(params)
    n = len(params)
    if pair not in classical.CONJUGATION_PAIRS:
        raise InvalidInputError(f"unknown conjugation pair {pair!r}")
    builders = {classical.RIME_NONSKEW: lambda: classical.rime_nonskew_r(params),
                classical.RIME_SKEW: lambda: classical.rime_skew_r(params),
                classical.RIME_SKEW_SL: lambda: classical.rime_skew_sl_r(params),
                classical.R_CG: lambda: classical.rcg_r(n),
                classical.B_SKEW: lambda: classical.b_skew_r(n),
                classical.B_CG: lambda: classical.b_cg_r(n),
                classical.RIME_SKEW_SL + ":xi": lambda: classical.rime_skew_sl_xi(params),
                classical.B_CG + ":xi": lambda: -classical.b_cg_eta(n)}
    return classical.conjugation_residual_of(pair, lambda name: builders[name](),
                                             cg.x_change_of_basis(params))


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
    out = {}
    for i, j, k, l, v in op.four_index_items():
        if leg == 2 and j == l:
            add_entry(out, i - 1, k - 1, v)
        elif leg == 1 and i == k:
            add_entry(out, j - 1, l - 1, v)
    return Operator1._entries(n, out)


def skew_inverse(r: Operator2) -> Operator2:
    """Solve Tr_2( R_12 Psi_23 ) = P_13 for Psi exactly.

    The defining relation flattens to M[(a,d),(g,b)] * Psi'[(g,b),(c,f)] = P'
    with M the reshuffled matrix and Psi'[(g,b),(c,f)] = Psi^{gc}_{bf};
    a singular M means R is not skew invertible.
    """
    n = r.dim
    # P_13 entry at row (a,d), col (c,f): delta(a,f) delta(c,d)
    rhs = Operator1._entries(n * n, {a * n + d: {d * n + a: ONE}
                                     for a in range(n) for d in range(n)})
    try:
        minv = reshuffled_matrix(r).inverse()
    except InvalidInputError as exc:
        raise NotSkewInvertibleError("reshuffled matrix is singular") from exc
    psi = {}
    for row, col, v in (minv @ rhs).nonzero_entries():
        (g, b), (c, f) = divmod(row, n), divmod(col, n)
        psi.setdefault(g * n + c, {})[b * n + f] = v
    return Operator2._entries(n, psi)


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
    images = {}
    for d in range(n):
        for k in range(n):
            basis = Operator1._entries(n, {d: {k: ONE}})
            images[d * n + k] = {i * n + j: v for i, j, v in fn(basis).nonzero_entries()}
    return RotaBaxterMap(n, Operator1._entries(n * n, images))


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


def star_associators(rb: RotaBaxterMap, alpha) -> tuple[list[Operator1], list[Operator1]]:
    """The star products of unit pairs and the associators of unit triples, one sum each.

    Over the units of ``_sweep_units``, x_0 .. x_{m-1} with m = n^2, the first
    list holds x_a * x_b at position a m + b and the second holds
    (x_a * x_b) * x_c - x_a * (x_b * x_c) at position (a m + b) m + c.  Each pair
    product and its image are formed once; each associator is one signed sum.
    """
    alpha = rat(alpha)
    units = [(x, rb.unit_image(*cell)) for cell, x in _sweep_units(rb.n)]
    stars = [signed_products([(1, rx, y), (1, x, ry), (-alpha, x, y)])
             for x, rx in units for y, ry in units]
    star_images = [rb.apply(st) for st in stars]
    m = len(units)
    associators = []
    for a, (x, rx) in enumerate(units):
        for b in range(m):
            sxy, rxy = stars[a * m + b], star_images[a * m + b]
            for c, (z, rz) in enumerate(units):
                syz, ryz = stars[b * m + c], star_images[b * m + c]
                associators.append(signed_products([
                    (1, rxy, z), (1, sxy, rz), (-alpha, sxy, z),
                    (-1, rx, syz), (-1, x, ryz), (alpha, x, syz)]))
    return stars, associators


def star_associativity_per_triple(rb: RotaBaxterMap, rb_prime: RotaBaxterMap, alpha,
                                  c) -> list[Operator1]:
    """``bezout.star_associativity_residuals`` with every entry formed: for each unit pair,
    its star-tilde difference, then its associators over the third unit."""
    units = [x for _, x in _sweep_units(rb.n)]
    stars, associators = star_associators(rb, alpha)
    m = len(units)
    out = []
    for a, x in enumerate(units):
        for b, y in enumerate(units):
            ab = a * m + b
            out.append(star_tilde_product(x, y, rb, rb_prime, c) - stars[ab])
            out += associators[ab * m:(ab + 1) * m]
    return out


def coassociativity_residual_per_unit(r: Operator2, c, variant: str, u: Operator1) -> Operator3:
    """(delta (x) id) delta(u) - (id (x) delta) delta(u) for one u, placing r for it alone."""
    c = rat(c)
    big = bezout.coproduct(u, r, c, variant)
    u13, u23, u12 = place(big, (1, 3), 3), place(big, (2, 3), 3), place(big, (1, 2), 3)
    r12, r23 = place(r, (1, 2), 3), place(r, (2, 3), 3)
    return signed_products([(1, u13, r12), (-1, r12, u23),
                            *bezout._variant_terms(variant, c, u13, u23),
                            (-1, u12, r23), (1, r23, u13),
                            *bezout._variant_terms(variant, -c, u12, u13)])


def full_cybe_residual(r: Operator2) -> Operator3:
    """[r12,r13] + [r12,r23] + [r13,r23] on every row, whatever the symmetry of r."""
    r12, r13, r23 = place(r, (1, 2), 3), place(r, (1, 3), 3), place(r, (2, 3), 3)
    return signed_products([(1, r12, r13), (-1, r13, r12),
                            (1, r12, r23), (-1, r23, r12),
                            (1, r13, r23), (-1, r23, r13)])


def braid_yb_residual(r: Operator2) -> Operator3:
    """(R(x)1)(1(x)R)(R(x)1) - (1(x)R)(R(x)1)(1(x)R) as the two-term signed sum aba - bab
    of the stored placements, so each term forms its own middle product."""
    a, b = place(r, (1, 2), 3), place(r, (2, 3), 3)
    return signed_products([(1, a, b, a), (-1, b, a, b)])


def poincare_series_full_space(n: int, relation_rows, max_degree: int) -> tuple[int, ...]:
    """dim of each degree-m component as n^m less the rank of the whole ideal
    I_m = I_{m-1} (x) V + V^(m-2) (x) R, eliminated in all n^m words."""
    if max_degree > 6:
        raise InvalidInputError("degree capped at 6")
    rel = [_clear(row)[1] for row in relation_rows]
    dims = [1]
    if max_degree >= 1:
        dims.append(n)
    ideal = Echelon(rel)
    if max_degree >= 2:
        dims.append(n * n - ideal.rank)
    for m in range(3, max_degree + 1):
        # I_{m-1} (x) V: column c and index k go to c*n + k, which keeps every lead first
        nxt = Echelon()
        for lead, row in ideal._pivots.items():
            for k in range(n):
                nxt._pivots[lead * n + k] = {c * n + k: x for c, x in row.items()}
        for prefix in range(n ** (m - 2)):
            base = prefix * n * n
            for row in rel:
                nxt.insert({base + c: v for c, v in row.items()})
        ideal = nxt
        dims.append(n ** m - ideal.rank)
    return tuple(dims[:max_degree + 1])


def nonrime_entries_by_conjugation(t: Operator1, h1, h2) -> tuple:
    """The four non-rime entries of (T x T) R^J (T x T)^-1, closed form divided through,
    checked against ``conjugate2`` with T inverted by elimination."""
    h1, h2 = rat(h1), rat(h2)
    det = t.det()
    if not det:
        raise InvalidInputError("T must be invertible")
    t11, t21 = t.get(1, 1), t.get(2, 1)
    minus, plus = det - h2 * t11 * t21, det + h2 * t11 * t21
    d2 = det * det
    vals = (h1 * t11 * t11 * minus / d2, -h1 * t11 * t11 * plus / d2,
            h1 * t21 * t21 * minus / d2, -h1 * t21 * t21 * plus / d2)
    a = conjugate2(blocks.block_matrix(blocks.JORDANIAN, h1, h2), t)
    direct = (a.get(1, 1, 1, 2), a.get(1, 1, 2, 1), a.get(2, 2, 1, 2), a.get(2, 2, 2, 1))
    if vals != direct:
        raise InvalidInputError("closed-form non-rime entries disagree with conjugation")
    return vals


# --- residuals formed whole, with no cheaper decision first ----------------------

def conjugated_difference(lhs: Operator2, rhs: Operator2, t: Operator1) -> Operator2:
    """lhs - (T (x) T) rhs (T (x) T)^-1, with T inverted by elimination."""
    tinv = t.inverse()
    return lhs - signed_products([(1, place(t, (1,), 2), place(t, (2,), 2), rhs,
                                   place(tinv, (1,), 2), place(tinv, (2,), 2))])


def two_chain_conjugation_defect(lhs: Operator2, rhs: Operator2, t: Operator1) -> Operator2:
    """lhs T_1 T_2 - T_1 T_2 rhs as one signed sum of two chains, so each row of T_2 rhs is
    formed again for every entry of T_1 that reads it."""
    t1, t2 = place(t, (1,), 2), place(t, (2,), 2)
    return signed_products([(1, lhs, t1, t2), (-1, t1, t2, rhs)])


def quantum_trace_differences(r: Operator2, q: Operator1,
                              qt: Operator1) -> tuple[Operator1, Operator1]:
    """(q - Q, qt - Qtilde) from both solves of ``rime.quantum_traces``."""
    qs, qts = rime.quantum_traces(r)
    return q - qs, qt - qts


def row_space_difference(n: int, rows, canonical) -> Operator2:
    """row_space(n, rows) - row_space(n, canonical), both spans reduced in full."""
    return row_space(n, list(rows)) - row_space(n, list(canonical))


def rb_closed_form_per_cell(kind: str, n: int, phi=None) -> RotaBaxterMap:
    """The closed Rota-Baxter formulas as functions on Mat(V), tabulated unit by unit."""
    if kind == B0:
        def fn(a: Operator1) -> Operator1:
            out = {}
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
                    out.setdefault(i - 1, {})[j - 1] = tot
            return Operator1._entries(n, out)
    elif kind == B:
        def fn(a: Operator1) -> Operator1:
            out = {}
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
                    out.setdefault(i - 1, {})[j - 1] = tot
            return Operator1._entries(n, out)
    elif kind == RS:
        def fn(a: Operator1) -> Operator1:
            out = {}
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i == j:
                        out.setdefault(i - 1, {})[i - 1] = sum(
                            (a._get(s - 1, s - 1) for s in range(1, i)), ZERO)
                    elif i > j:
                        out.setdefault(i - 1, {})[j - 1] = -a._get(i - 1, j - 1)
            return Operator1._entries(n, out)
    elif kind == "rime-phi":
        phi = ratvec(phi)
        require_distinct(phi, "phi")

        def fn(a: Operator1) -> Operator1:
            out = {}
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i != j:
                        out.setdefault(i - 1, {})[j - 1] = (
                            phi[j - 1] / (phi[j - 1] - phi[i - 1])
                            * (a._get(i - 1, j - 1) - a._get(j - 1, j - 1)))
                    else:
                        tot = ZERO
                        for s in range(1, n + 1):
                            if s != i:
                                tot += (phi[i - 1] / (phi[i - 1] - phi[s - 1])
                                        * (a._get(i - 1, s - 1) - a._get(s - 1, s - 1)))
                        out.setdefault(i - 1, {})[i - 1] = tot
            return Operator1._entries(n, out)
    else:
        raise ValueError(f"no closed form for kind {kind!r}")
    return map_from_function(n, fn)


def carrier_lambda(mat: Operator1, mu) -> Fraction:
    """lambda_n = -sum mu_i z^i_j on one carrier element: an off-diagonal entry at row r
    (the slot of e^i_j is row j, col i) counts -mu_r."""
    return -sum((v * mu[r] for r, row in mat.data.items() for c, v in row.items() if r != c),
                ZERO)


def carrier_algebra_per_pair(mu) -> dict[str, object]:
    """``classical.carrier_algebra_check`` pair by pair: one signed sum for each product and
    each bracket of each ordered pair of pairs, and lambda on each bracket, with the
    carrier read through ``classical.carrier_Z`` at call time."""
    mu = ratvec(mu)
    n = len(mu)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    z = {p: classical.carrier_Z(n, *p) for p in pairs}
    zero = Operator1.zero(n)
    kept = lambda op: zero if op.is_zero() else op
    bracket = lambda x, y, *more: kept(signed_products([(1, x, y), (-1, y, x), *more]))
    # Z^j_i Z^k_l = (d^j_l - d^i_l)(Z^k_i - Z^l_i), with Z^i_i = 0
    product_rule = [kept(signed_products([(1, z[(j, i)], z[(k, l)]),
                                          (-c, z.get((k, i), zero)), (c, z.get((l, i), zero))]))
                    for (j, i) in pairs for (k, l) in pairs for c in [(j == l) - (i == l)]]
    brackets = []
    for (i, j) in pairs:
        brackets.append(bracket(z[(i, j)], z[(j, i)], (-1, z[(j, i)]), (1, z[(i, j)])))
        for k in range(1, n + 1):
            if k not in (i, j):
                brackets.append(bracket(z[(j, i)], z[(k, i)], (-1, z[(j, i)]), (1, z[(k, i)])))
                brackets.append(bracket(z[(i, j)], z[(j, k)], (-1, z[(j, k)]), (1, z[(i, k)])))
    other_brackets, coboundary = [], []
    for p in pairs:
        for t in pairs:
            zpt = bracket(z[p], z[t])
            if not set(p) & set(t):
                other_brackets.append(zpt)
            # omega(Z^i_j, Z^k_l) = -(mu_i - mu_j) d^l_i d^j_k
            omega = -(mu[p[0] - 1] - mu[p[1] - 1]) if t == (p[1], p[0]) else ZERO
            coboundary.append(carrier_lambda(zpt, mu) - omega or ZERO)
    idx = {p: a for a, p in enumerate(pairs)}
    m = len(pairs)
    rcoef = Operator1._entries(m, {idx[(i, j)]: {idx[(j, i)]: 1 / (mu[i - 1] - mu[j - 1])}
                                   for (i, j) in pairs})
    omega = Operator1._entries(m, {idx[(i, j)]: {idx[(j, i)]: -(mu[i - 1] - mu[j - 1])}
                                   for (i, j) in pairs})
    shift = Operator1.identity(n).scale(Fraction(1, n))
    zt = {p: z[p] + shift for p in pairs}
    ones = tuple([ONE] * n)
    return {"product-rule": product_rule, "brackets": brackets,
            "other-brackets": other_brackets, "omega-is-inverse": rcoef.inverse() - omega,
            "omega-is-coboundary": coboundary,
            "sl-fixes-ones": [[x - ONE / n for x in zt[p].apply(ones)] for p in pairs],
            "sl-brackets": [bracket(zt[(i, j)], zt[(j, i)], (-1, zt[(j, i)]), (1, zt[(i, j)]))
                            for (i, j) in pairs]}


def generating_function_per_entry(phi) -> list[list[Fraction]]:
    """e_j(phi) - e_j^ihat - phi_i e_{j-1}^ihat, each e computed afresh for each (i, j)."""
    phi = ratvec(phi)
    n = len(phi)
    return [[elem_sym(phi, j) - elem_sym_omit(phi, j, i) - phi[i - 1] * elem_sym_omit(phi, j - 1, i)
             for j in range(1, n + 1)] for i in range(1, n + 1)]


def conjugate2_dense(r, t):
    """``conjugate2`` with T (x) T and its inverse formed as dense Kronecker products."""
    tinv = t.inverse()
    return signed_products([(1, kron11(t, t), r, kron11(tinv, tinv))])


def equivalence_dense(lhs, rhs, t):
    """``equivalence_residual`` through the dense T (x) T."""
    tt = kron11(t, t)
    return signed_products([(1, lhs, tt), (-1, tt, rhs)])


def lambda_bcg_gram_brackets(n):
    """``lambda_bcg_gram`` with each pair's bracket formed whole, then lambda read off it."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    shift = Operator1.identity(n).scale(Fraction(1, n))
    zt = [classical.carrier_Z(n, i, j) + shift for (i, j) in pairs]
    m = len(pairs)
    g = {}
    for a in range(m):
        for b in range(a + 1, m):
            bracket = signed_products([(1, zt[a], zt[b]), (-1, zt[b], zt[a])])
            v = sum((bracket._get(i, i + 1) for i in range(n - 1)), ZERO)
            g.setdefault(a, {})[b] = v
            g.setdefault(b, {})[a] = -v
    return Operator1._entries(m, g)


# --- the one-pass constructors as their repeated-+ sums -------------------------
# Each builds its operator one Kronecker or wedge term at a time with ``+``.

def summed_rime_nonskew_r(phi):
    n, u = len(phi), Operator1.unit
    r = Operator2(n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                c = phi[i - 1] / (phi[i - 1] - phi[j - 1])
                term = (kron11(u(n, i, j), u(n, j, i)) - kron11(u(n, i, i), u(n, j, j))
                        + wedge(u(n, i, i), u(n, i, j)))
                r = r + term.scale(c)
    return r


def summed_rcg_r(n, shifted=lambda u: u):
    u = Operator1.unit
    r = Operator2(n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for s in range(1, j - i + 1):
                r = r + kron11(shifted(u(n, i + s - 1, j)), shifted(u(n, j - s + 1, i)))
                r = r - kron11(shifted(u(n, i + s - 1, i)), shifted(u(n, j - s + 1, j)))
    return r


def summed_rcg_prime_r(n):
    u = Operator1.unit
    r = Operator2(n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for s in range(1, j - i + 1):
                r = r + kron11(u(n, i, j - s + 1), u(n, j, i + s - 1))
                r = r - kron11(u(n, j, j - s + 1), u(n, i, i + s - 1))
    return r


def summed_b_skew_r(n, shifted=lambda u: u):
    u = Operator1.unit
    r = Operator2(n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(1, j - i + 1):
                r = r + wedge(shifted(u(n, i + k, i)), shifted(u(n, j - k + 1, j)))
    return r


def summed_b_cg_r(n):
    r, ident = summed_b_skew_r(n), Operator1.identity(n)
    for j in range(1, n):
        r = r + wedge(ident, Operator1.unit(n, j + 1, j)).scale(1 - Fraction(j, n))
    return r


def summed_rime_skew_r(mu, shift=None):
    n = len(mu)
    r = Operator2(n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            a, b = classical.carrier_Z(n, i, j), classical.carrier_Z(n, j, i)
            if shift is not None:
                a, b = a + shift, b + shift
            r = r + wedge(a, b).scale(1 / (mu[i - 1] - mu[j - 1]))
    return r


def summed_invariance_eta0_b(n):
    eta = Operator1.zero(n)
    for j in range(1, n):
        eta = eta + Operator1.unit(n, j + 1, j).scale(n - j)
    return eta


def summed_representation_change_residual(n, c, kind):
    ident = Operator1.identity(n)
    shifted = lambda u: classical._shifted(u, c)
    if kind == classical.R_CG:
        eta = classical.invariance_eta_cg(n)
        expected = (summed_rcg_r(n) + (kron11(eta, ident) - kron11(ident, eta)
                                       - Operator2.identity(n).scale(n - 1)).scale(c)
                    - Operator2.identity(n).scale(c * c * Fraction(n * (n - 1), 2)))
        return summed_rcg_r(n, shifted) - expected
    expected = summed_b_skew_r(n) + wedge(summed_invariance_eta0_b(n), ident).scale(c)
    return summed_b_skew_r(n, shifted) - expected


def summed_tilde_difference_residual(mu):
    n = len(mu)
    x, _ = cg.x_change_of_basis(mu)
    lhs_factor = Operator1.zero(n)
    for j in range(1, n):
        lhs_factor = lhs_factor + Operator1.unit(n, j + 1, j).scale(1 - Fraction(j, n))
    rhs_factor = Operator1.zero(n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                rhs_factor = rhs_factor + classical.carrier_Z(n, j, i).scale(
                    1 / (mu[i - 1] - mu[j - 1]))
    return x @ lhs_factor - rhs_factor.scale(Fraction(1, n)) @ x


def summed_closed_form_operator(kind, n):
    u = Operator1.unit
    out = Operator2(n)
    if kind == bezout.BTILDE:
        return (summed_closed_form_operator(bezout.B, n)
                - Operator2.identity(n).scale(Fraction(1, 2)))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if kind == bezout.B0 and j > i:
                for a in range(1, j - i + 1):
                    out = out + wedge(u(n, j, i + a - 1), u(n, i, j - a))
            elif kind == bezout.B and j > i:
                for a in range(1, j - i):
                    out = out + wedge(u(n, j, i + a), u(n, i, j - a))
                out = out + kron11(u(n, j, j), u(n, i, i)) - kron11(u(n, i, j), u(n, j, i))
            elif kind == bezout.RS and i > j:
                out = out + kron11(u(n, i, i), u(n, j, j))
            elif kind == bezout.RS and i < j:
                out = out - kron11(u(n, i, j), u(n, j, i))
    return out

def summed_gl2_homomorphism(kind: str) -> list[Operator1]:
    """``gl2_isomorphism_check(kind)["homomorphism"]``: each image of a star product summed
    entry by entry with ``+``, over every ordered pair of units of Mat(2)."""
    images, alpha = {bezout.B0: (bezout.GL3_IMAGES_B0, 0),
                     bezout.B: (bezout.GL3_IMAGES_B, -1)}[kind]
    rb = bezout.rota_baxter(bezout.bezout_operator(kind, 2))
    units = {(i, j): Operator1.unit(2, i, j) for i in (1, 2) for j in (1, 2)}
    out = []
    for (iu, ju), u in units.items():
        for (iv, jv), w in units.items():
            star = bezout.star_product(u, w, rb, alpha)
            img = Operator1.zero(3)
            for a in (1, 2):
                for b in (1, 2):
                    img = img + images[(a, b)].scale(star._get(b - 1, a - 1))
            out.append(img - images[(iu, ju)] @ images[(iv, jv)])
    return out


# --- the phi-family scalar layer with one O(n) product per entry ---------------

def invariance_Y_loops(phi, u, v):
    """``invariance_Y`` with every entry as its own product over l."""
    n = len(phi)
    y = {}
    for j in range(1, n + 1):
        diag = ONE
        for l in range(1, n + 1):
            if l != j:
                diag *= (u * phi[j - 1] - v * phi[l - 1]) / (phi[j - 1] - phi[l - 1])
        y.setdefault(j - 1, {})[j - 1] = diag
        for i in range(1, n + 1):
            if i != j:
                val = (u - v) * phi[j - 1] / (phi[j - 1] - phi[i - 1])
                for l in range(1, n + 1):
                    if l != i and l != j:
                        val *= (u * phi[j - 1] - v * phi[l - 1]) / (phi[j - 1] - phi[l - 1])
                y.setdefault(i - 1, {})[j - 1] = val
    return Operator1._entries(n, y)


def invariance_Y0_loops(mu, a):
    """``invariance_Y0`` with every entry as its own product over l."""
    n = len(mu)
    y = {}
    for j in range(1, n + 1):
        diag = ONE
        for l in range(1, n + 1):
            if l != j:
                diag *= ONE + a / (mu[j - 1] - mu[l - 1])
        y.setdefault(j - 1, {})[j - 1] = diag
        for i in range(1, n + 1):
            if i != j:
                val = a / (mu[j - 1] - mu[i - 1])
                for l in range(1, n + 1):
                    if l != i and l != j:
                        val *= ONE + a / (mu[j - 1] - mu[l - 1])
                y.setdefault(i - 1, {})[j - 1] = val
    return Operator1._entries(n, y)


def x_inverse_per_entry(phi) -> Operator1:
    """Lagrange's X(phi)^-1, every entry with its own denominator and power of phi_i."""
    phi = ratvec(phi)
    n = len(phi)
    rows = []
    for j in range(1, n + 1):
        row = []
        for i in range(1, n + 1):
            denom = ONE
            for k in range(1, n + 1):
                if k != i:
                    denom *= phi[i - 1] - phi[k - 1]
            row.append((-ONE) ** (j - 1) * phi[i - 1] ** (n - j) / denom)
        rows.append(row)
    return Operator1(rows)


def phi_transition_per_entry(phi, phi_prime) -> Operator1:
    """X(phi') X(phi)^-1, every entry's numerator and denominator as its own product."""
    phi, phi_prime = ratvec(phi), ratvec(phi_prime)
    n = len(phi)
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            num = ONE
            for k in range(1, n + 1):
                if k != i:
                    num *= phi[j - 1] - phi_prime[k - 1]
            den = ONE
            for l in range(1, n + 1):
                if l != j:
                    den *= phi[j - 1] - phi[l - 1]
            row.append(num / den)
        rows.append(row)
    return Operator1(rows)


def quantum_trace_closed_forms_per_entry(data) -> tuple[Operator1, Operator1]:
    """The closed-form quantum traces, every entry as its own product over l."""
    n = data.dim
    q, qt = {}, {}
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            if k == j:
                pq = ONE
                pqt = ONE
                for l in range(1, n + 1):
                    pq *= ONE - data.b(j, l)
                    pqt *= ONE - data.b(l, j)
            else:
                pq = -data.b(j, k)
                pqt = data.b(j, k)
                for l in range(1, n + 1):
                    if l != k:
                        pq *= ONE - data.b(j, l)
                        pqt *= ONE - data.b(l, j)
            q.setdefault(k - 1, {})[j - 1] = pq
            qt.setdefault(k - 1, {})[j - 1] = pqt
    return Operator1._entries(n, q), Operator1._entries(n, qt)


def cg_matrix_per_entry(params) -> Operator2:
    """R_CG with every power of q^-2 and p taken afresh for its entry."""
    n, qi, p = params.dim, params.qsq_inv, params.p
    r = {}
    one_minus = ONE - qi
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            row = (i - 1) * n + j - 1
            add_entry(r, row, (j - 1) * n + i - 1, (qi ** theta(i, j)) * p ** (i - j))
            for s in range(i, j):
                l = i + j - s
                if 1 <= l <= n:
                    add_entry(r, row, (s - 1) * n + l - 1, one_minus * p ** (i - s))
            for s in range(j + 1, i):
                l = i + j - s
                if 1 <= l <= n:
                    add_entry(r, row, (s - 1) * n + l - 1, -one_minus * p ** (i - s))
    return Operator2._entries(n, r)


def eigenvector_residuals_per_call(phi, beta, q: Operator1) -> dict[str, list]:
    """Q w_a - (1 - beta)^(n-1-a) w_a, each w_a from its own ``eigenvector_w`` call."""
    n = len(phi)
    out = {}
    for a in range(n):
        w = eigenvector_w(phi, a)
        lam = (ONE - beta) ** (n - 1 - a)
        out[f"w{a}"] = [x - lam * y for x, y in zip(q.apply(w), w)]
    return out


def jordan_action_residuals_per_call(mu, q: Operator1) -> dict[str, list]:
    """Q w_i - sum_s binom(n-1-s, i-s) w_s, each w_s from its own ``eigenvector_w`` call."""
    n = len(mu)
    out = {}
    ws = [eigenvector_w(mu, s) for s in range(n)]
    for i in range(n):
        coeffs = rime.jordan_action_coefficients(n, i)
        rhs = [sum((coeffs[s] * ws[s][j] for s in range(n)), ZERO) for j in range(n)]
        out[f"w{i}"] = [x - y for x, y in zip(q.apply(ws[i]), rhs)]
    return out


# The rime YBE equation system of appendix A through the RimeData accessors.

PAIR_EQUATIONS_BY_ACCESSOR = {
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

TRIPLE_EQUATIONS_BY_ACCESSOR = {
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


def appendix_A_per_accessor(data) -> dict[str, Fraction]:
    """Max |residual| of every family and its involution image, on the Fractions directly,
    one accessor call per coefficient read."""
    n = data.dim
    out = {}
    for suffix, d in {"": data, "~iota": data.iota()}.items():
        for arity, eqs in ((2, PAIR_EQUATIONS_BY_ACCESSOR), (3, TRIPLE_EQUATIONS_BY_ACCESSOR)):
            for name, eq in eqs.items():
                out[name + suffix] = max((abs(eq(d, *idx))
                                          for idx in permutations(range(1, n + 1), arity)),
                                         default=ZERO)
    return out


def xty_mapped_all_rows(r: Operator2, x: Operator1) -> Operator2:
    """The row space of (R - 1)(X (x) X), every one of its n^2 rows eliminated."""
    n = r.dim
    shifted = signed_products([(1, r.scalar_shift(-1), place(x, (1,), 2), place(x, (2,), 2))])
    return row_space(n, shifted.data.values())


def jacobi_residual_per_call(br) -> dict:
    """``poisson.jacobi_residual`` with ``br.pair`` read afresh for every monomial."""
    n = br.dim

    def with_monomial(i, mono):
        k, l = mono
        out = {}
        for poly, var in ((br.pair(i, k), l), (br.pair(i, l), k)):
            for (a, b), v in poly.items():
                key = tuple(sorted((a, b, var)))
                out[key] = out.get(key, ZERO) + v
        return out

    res = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                total: dict = {}
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    for mono, v in br.pair(b, c).items():
                        for key, w in with_monomial(a, mono).items():
                            total[key] = total.get(key, ZERO) + v * w
                total = {m: v for m, v in total.items() if v}
                if total:
                    res[(i, j, k)] = total
    return res


def lie_derivative_leibniz(br: QuadraticBracket, a_mat: Operator1) -> QuadraticBracket:
    """``poisson.lie_derivative`` by the Leibniz rule, pair by pair:
    delta f^{ij} = A^i_k {x^k,x^j} + A^j_k {x^i,x^k} - x^l A^k_l d_k {x^i,x^j}."""
    n = br.dim
    pairs = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            total = pairs[(i, j)] = {}

            def add(poly, scale=ONE):
                for m, v in poly.items():
                    key = (min(m), max(m))
                    total[key] = total.get(key, ZERO) + scale * v

            for k in range(1, n + 1):
                if a_mat._get(i - 1, k - 1):
                    add(br.pair(k, j), a_mat._get(i - 1, k - 1))
                if a_mat._get(j - 1, k - 1):
                    add(br.pair(i, k), a_mat._get(j - 1, k - 1))
            # transport term: - x^l A^k_l d_k (c_{ab} x^a x^b)
            for (aa, bb), v in br.pair(i, j).items():
                for l in range(1, n + 1):
                    w = a_mat._get(aa - 1, l - 1)
                    if w:
                        add({(l, bb): -v * w})
                    w2 = a_mat._get(bb - 1, l - 1)
                    if w2:
                        add({(aa, l): -v * w2})
    return QuadraticBracket(n, pairs)


def quadratic_data_two_rows(r: Operator2):
    """``bezout.quadratic_data`` by Cramer's rule on two independent entries of r^2 = u r + v I,
    found by a search over all n^4 entries, then checked against the whole of r^2."""
    n = r.dim
    sq = r @ r
    ident = Operator2.identity(n)
    rows = []
    for rr in range(n * n):
        for cc in range(n * n):
            rows.append((r._get(rr, cc), ONE if rr == cc else ZERO, sq._get(rr, cc)))
    pivot = next((row for row in rows if row[0]), None)
    if pivot is None:
        return None
    a0, b0_, e0 = pivot
    other = next((row for row in rows if row[0] * b0_ - row[1] * a0), None)
    if other is None:
        return None
    a1, b1, e1 = other
    det = a0 * b1 - a1 * b0_
    u = (e0 * b1 - e1 * b0_) / det
    v = (a0 * e1 - a1 * e0) / det
    return (u, v) if sq == r.scale(u) + ident.scale(v) else None


def _poly_mul_x(poly: dict, n: int, slot: int) -> dict:
    """x (slot 0) or y (slot 1) times a polynomial dict, truncated to the powers below n."""
    out = {}
    for (a, b), v in poly.items():
        key = (a + 1, b) if slot == 0 else (a, b + 1)
        if key[0] < n and key[1] < n:
            out[key] = out.get(key, ZERO) + v
    return out


def _recursion_image(f: tuple[int, int], mf: dict, n: int, var: str) -> dict:
    """The recursion's value of M(x f) = f + y M(f) (var "x") or M(y f) = -f + x M(f) (var "y")."""
    img = {f: ONE if var == "x" else -ONE}
    for key, w in _poly_mul_x(mf, n, 1 if var == "x" else 0).items():
        img[key] = img.get(key, ZERO) + w
    return img


def m_recursion_dicts(op: Operator2) -> dict[str, dict]:
    """``bezout.m_recursion_check`` on polynomial dicts, with M(x^a y^b) read off column
    (a, b) of ``op``: both recursions monomial by monomial, and M rebuilt degree by degree
    from the recursions and the seed M(1) = 0, against every column.

    Each residual is keyed by the monomial x^a y^b as "a,b" and holds the
    coefficient differences over the monomials (u, v).
    """
    n = op.dim
    columns: dict[tuple[int, int], dict] = {(a, b): {} for a in range(n) for b in range(n)}
    for row, entries in op.data.items():
        for col, v in entries.items():
            columns[divmod(col, n)][divmod(row, n)] = v
    x_rec, y_rec = {}, {}
    for (a, b), mf in columns.items():
        if a + 1 < n:
            x_rec[f"{a},{b}"] = sparse_minus(columns[(a + 1, b)],
                                             _recursion_image((a, b), mf, n, "x"))
        if b + 1 < n:
            y_rec[f"{a},{b}"] = sparse_minus(columns[(a, b + 1)],
                                             _recursion_image((a, b), mf, n, "y"))
    rebuilt: dict[tuple[int, int], dict] = {(0, 0): {}}
    for deg in range(1, 2 * n - 1):
        for a in range(n):
            b = deg - a
            if not 0 <= b < n:
                continue
            if a >= 1:
                rebuilt[(a, b)] = _recursion_image((a - 1, b), rebuilt[(a - 1, b)], n, "x")
            else:
                rebuilt[(a, b)] = _recursion_image((a, b - 1), rebuilt[(a, b - 1)], n, "y")
    return {"x-recursion": x_rec, "y-recursion": y_rec,
            "rebuild-matches": {f"{a},{b}": sparse_minus(rebuilt[(a, b)], columns[(a, b)])
                                for a in range(n) for b in range(n)}}


def first_nonzero_witness_sorted(op) -> tuple[str, Fraction] | None:
    """``tensor.first_nonzero_witness`` by a sorted scan of every ``Q`` entry of ``data``."""
    n = op.dim
    for r, c, v in op.nonzero_entries():
        if op.legs == 1:
            key = f"{r + 1}|{c + 1}"
        elif op.legs == 2:
            key = f"{r // n + 1},{r % n + 1}|{c // n + 1},{c % n + 1}"
        else:
            key = (f"{r // (n * n) + 1},{(r // n) % n + 1},{r % n + 1}"
                   f"|{c // (n * n) + 1},{(c // n) % n + 1},{c % n + 1}")
        return key, v
    return None


# --- builders written entry by entry ---------------------------------------------
# yibre's builders hand their entries to the operator whole, or relabel another
# operator's integer rows; these write the same entries into a plain
# ``{row: {col: value}}`` dict one at a time, and hand it to ``_entries``.

def from_dense_per_entry(n: int, grid) -> Operator2:
    """``Operator2.from_dense``: every nonzero grid entry written on its own."""
    out = {}
    for r in range(n * n):
        for c in range(n * n):
            v = rat(grid[r][c])
            if v:
                out.setdefault(r, {})[c] = v
    return Operator2._entries(n, out)


def permutation_P_per_entry(n: int) -> Operator2:
    out = {}
    for i in range(n):
        for j in range(n):
            out.setdefault(i * n + j, {})[j * n + i] = ONE
    return Operator2._entries(n, out)


def reshuffled_matrix_per_entry(r: Operator2) -> Operator1:
    """M[(a,d),(g,b)] = R^{ab}_{dg}, read off R's four-index entries."""
    n = r.dim
    m = {}
    for a, b, d, g, v in r.four_index_items():
        m.setdefault((a - 1) * n + d - 1, {})[(g - 1) * n + b - 1] = v
    return Operator1._entries(n * n, m)


def assemble_rime_per_entry(data) -> Operator2:
    n = data.dim
    r = {}
    for i in range(1, n + 1):
        ii = (i - 1) * (n + 1)
        add_entry(r, ii, ii, data.alpha[i - 1])
        for j in range(1, n + 1):
            if i == j:
                continue
            ij, ji, jj = (i - 1) * n + j - 1, (j - 1) * n + i - 1, (j - 1) * (n + 1)
            add_entry(r, ij, ji, data.a(i, j))
            add_entry(r, ij, ij, data.b(i, j))
            add_entry(r, ij, ii, data.g(i, j))
            add_entry(r, ij, jj, data.gp(i, j))
    return Operator2._entries(n, r)


def invariance_generator_per_entry(kind: str, params) -> Operator1:
    """``rime.invariance_generator`` with each diagonal entry summed in its own loop."""
    params = ratvec(params)
    n = len(params)
    eta = {}
    if kind == "nonunitary":
        for j in range(1, n + 1):
            diag = -Q(n - 1, 2)
            for l in range(1, n + 1):
                if l != j:
                    diag += params[j - 1] / (params[j - 1] - params[l - 1])
            eta.setdefault(j - 1, {})[j - 1] = diag
            for i in range(1, n + 1):
                if i != j:
                    eta.setdefault(i - 1, {})[j - 1] = (params[j - 1]
                                                        / (params[j - 1] - params[i - 1]))
    else:
        for j in range(1, n + 1):
            eta.setdefault(j - 1, {})[j - 1] = sum((ONE / (params[j - 1] - params[l - 1])
                                                    for l in range(1, n + 1) if l != j), ZERO)
            for i in range(1, n + 1):
                if i != j:
                    eta.setdefault(i - 1, {})[j - 1] = ONE / (params[j - 1] - params[i - 1])
    return Operator1._entries(n, eta)


def varpi_per_entry(y: Operator1) -> Operator1:
    return Operator1._entries(y.dim, {r: {c: -v if c == r else v for c, v in row.items()}
                                      for r, row in y.data.items()})


def bezout_matrix_per_entry(action, n: int) -> Operator2:
    """The matrix of a polynomial action, column (a, b) the image of x^a y^b."""
    out = {}
    for a in range(n):
        for b in range(n):
            for (k, l), v in action(a, b).items():
                if k < n and l < n:
                    out.setdefault(k * n + l, {})[a * n + b] = rat(v)
    return Operator2._entries(n, out)


def bd_fork_R_per_entry(q, p, r, s) -> Operator2:
    """The 16x16 fork solution, one entry per exchange-relation coefficient."""
    q, p, r, s = rat(q), rat(p), rat(r), rat(s)
    m = {}
    lam = ONE - 1 / q ** 2
    for i in range(4):
        m[i * 5] = {i * 5: ONE}
    for (i, j, k, l), v in {
            (1, 2, 2, 1): p / q, (1, 3, 3, 1): r / q ** 2,
            (1, 4, 4, 1): p * r / q, (1, 4, 3, 2): -r * s / q,
            (2, 1, 1, 2): 1 / (p * q), (2, 1, 2, 1): lam, (2, 3, 3, 2): s / (p * q),
            (2, 4, 4, 2): s / q ** 2, (3, 1, 1, 3): 1 / r, (3, 1, 3, 1): lam,
            (3, 2, 2, 3): p / (q * s), (3, 2, 3, 2): lam, (3, 4, 4, 3): p * r / (q * s),
            (4, 1, 1, 4): 1 / (p * q * r), (4, 1, 4, 1): lam, (4, 1, 2, 3): 1 / q,
            (4, 2, 2, 4): 1 / s, (4, 2, 4, 2): lam,
            (4, 3, 3, 4): s / (p * q * r), (4, 3, 4, 3): lam}.items():
        m.setdefault((i - 1) * 4 + j - 1, {})[(k - 1) * 4 + l - 1] = v
    return Operator2._entries(4, m)


def differences_commute_full(a) -> list[dict]:
    """{x^i - x^j, x^k - x^l} for every i != j and k != l, each bracket formed."""
    n = len(a)
    return [linear_bracket(a, {i: ONE, j: -ONE}, {k: ONE, l: -ONE})
            for i in range(n) for j in range(n) if i != j
            for k in range(n) for l in range(n) if k != l]


def linear_jacobi_nested(a) -> dict[tuple[int, int, int], dict[int, Fraction]]:
    """``poisson.linear_jacobi_residual`` by nested brackets: per triple i < j < k, the sum of
    {x^u, {x^v, x^w}} over its cyclic rotations, each bracket by ``linear_bracket``."""
    n = len(a)
    a = [[rat(x) for x in row] for row in a]
    res = {}
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                tot: dict[int, Fraction] = {}
                for (x, y, z) in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = linear_bracket(a, {y: ONE}, {z: ONE})
                    for var, v in linear_bracket(a, {x: ONE}, inner).items():
                        tot[var] = tot.get(var, ZERO) + v
                tot = {m: v for m, v in tot.items() if v}
                if tot:
                    res[(i + 1, j + 1, k + 1)] = tot
    return res


def almost_trivial_full(a) -> list[dict]:
    """{x^i, x^k - x^l} + x^k - x^l for every i and k != l, each bracket formed."""
    n = len(a)
    return [sparse_minus(linear_bracket(a, {i: ONE}, {k: ONE, l: -ONE}), {k: -ONE, l: ONE})
            for i in range(n) for k in range(n) for l in range(n) if k != l]


def jsla_ordered_triples(a) -> dict[tuple[int, int, int], Fraction]:
    """``poisson.jsla_residuals`` evaluated at every ordered triple of distinct indices."""
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


def lagrange_basis_by_products(psi) -> Operator1:
    """``poisson.lagrange_basis_matrix`` with each l_i(t) = prod_{s != i} (t - psi_s) multiplied
    out one linear factor at a time."""
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
