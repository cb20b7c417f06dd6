"""Classical r-matrices: rime families, Cremmer-Gervais and boundary solutions.

All wedge/tensor expressions are generated from the single matrix-unit rule
e^i_j : e_i -> e_j (Operator1.unit), which pins every sign in this module.
"""

from __future__ import annotations

from .kernel import (ONE, ZERO, Deferred, InvalidInputError, cleared, rat, ratvec,
                     require_distinct)
from .rational import Q
from .rime import strict_rime_R
from .tensor import (Operator1, Operator2, Operator3, commutator_with_sum, conjugate2_residual,
                     cybe_residual, kron_sum, permutation_P, place,
                     shifted_conjugate2_residual, signed_products)

RIME_NONSKEW = "rime-nonskew"
RIME_SKEW = "rime-skew"
RIME_SKEW_SL = "rime-skew-sl"
R_CG = "r-cg"
R_CG_PRIME = "r-cg-prime"
B_SKEW = "b-skew"
B_CG = "b-cg"

CLASSICAL_KINDS = (RIME_NONSKEW, RIME_SKEW, RIME_SKEW_SL, R_CG, R_CG_PRIME, B_SKEW, B_CG)
PARAMETRIC_KINDS = (RIME_NONSKEW, RIME_SKEW, RIME_SKEW_SL)


def _kron_sum(n: int, terms: list) -> Operator2:
    """``kron_sum`` of the terms; the zero operator when n = 1 leaves no term."""
    return kron_sum(terms) if terms else Operator2.zero(n)


def rime_nonskew_r(phi) -> Operator2:
    """r = sum_{i!=j} phi_i/(phi_i-phi_j) (e^i_j (x) e^j_i - e^i_i (x) e^j_j + e^i_i ^ e^i_j)."""
    phi = ratvec(phi)
    require_distinct(phi, "phi")
    n = len(phi)
    u = Operator1.unit
    terms = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            c = phi[i - 1] / (phi[i - 1] - phi[j - 1])
            uii, uij = u(n, i, i), u(n, i, j)
            terms += [(c, uij, u(n, j, i)), (-c, uii, u(n, j, j)), (c, uii, uij), (-c, uij, uii)]
    return _kron_sum(n, terms)


def _rcg_terms(n: int) -> list:
    """The terms (k, a, b) of the parameter-free Cremmer-Gervais r as a sum of k a (x) b."""
    u = Operator1.unit
    return [term for i in range(1, n + 1) for j in range(i + 1, n + 1)
            for s in range(1, j - i + 1)
            for term in ((1, u(n, i + s - 1, j), u(n, j - s + 1, i)),
                         (-1, u(n, i + s - 1, i), u(n, j - s + 1, j)))]


def rcg_r(n: int) -> Operator2:
    """Parameter-free Cremmer-Gervais cYB solution."""
    return _kron_sum(n, _rcg_terms(n))


def rcg_prime_r(n: int) -> Operator2:
    """The mirror solution with r P = -r."""
    u = Operator1.unit
    return _kron_sum(n, [term for i in range(1, n + 1) for j in range(i + 1, n + 1)
                         for s in range(1, j - i + 1)
                         for term in ((1, u(n, i, j - s + 1), u(n, j, i + s - 1)),
                                      (-1, u(n, j, j - s + 1), u(n, i, i + s - 1)))])


def _b_skew_wedges(n: int) -> list:
    """The terms (1, a, b) of b = sum a ^ b."""
    u = Operator1.unit
    return [(1, u(n, i + k, i), u(n, j - k + 1, j)) for i in range(1, n + 1)
            for j in range(i + 1, n + 1) for k in range(1, j - i + 1)]


def _wedges(terms) -> list:
    """The Kronecker terms (k, a, b) and (-k, b, a) of sum k a ^ b over terms (k, a, b)."""
    return [term for k, a, b in terms for term in ((k, a, b), (-k, b, a))]


def b_skew_r(n: int) -> Operator2:
    """b = sum_{i<j} sum_k e_i^{i+k} ^ e_j^{j-k+1}."""
    return _kron_sum(n, _wedges(_b_skew_wedges(n)))


def invariance_eta_cg(n: int) -> Operator1:
    """Traceless generator of the invariance group of the parameter-free solution.

    sum_j j e^j_j - (n+1)/2; the shift makes it traceless (the displayed
    multiple of the identity does not).
    """
    eta = Operator1.diag([Q(j) - Q(n + 1, 2) for j in range(1, n + 1)])
    return eta


def invariance_eta0_b(n: int) -> Operator1:
    """eta0 = sum_j (n-j) e^{j+1}_j, the translation generator for the skew solution."""
    if n < 2:
        return Operator1.zero(n)
    return signed_products([(n - j, Operator1.unit(n, j + 1, j)) for j in range(1, n)])


def b_cg_r(n: int) -> Operator2:
    """Boundary solution: b plus the Cartan completion sum (1 - j/n) e^i_i ^ e^{j+1}_j."""
    ident = Operator1.identity(n)
    return _kron_sum(n, _wedges([*_b_skew_wedges(n),
                                 *((ONE - Q(j, n), ident, Operator1.unit(n, j + 1, j))
                                   for j in range(1, n))]))


def carrier_Z(n: int, i: int, j: int) -> Operator1:
    """Z^i_j = e^i_j - e^j_j (zero when i = j)."""
    if i == j:
        return Operator1.zero(n)
    return Operator1.unit(n, i, j) - Operator1.unit(n, j, j)


def rime_skew_r(mu) -> Operator2:
    """Skew-symmetric r = sum_{i<j} Z^i_j ^ Z^j_i / (mu_i - mu_j)."""
    mu = ratvec(mu)
    require_distinct(mu, "mu")
    n = len(mu)
    return _kron_sum(n, _wedges((ONE / (mu[i - 1] - mu[j - 1]), carrier_Z(n, i, j),
                                 carrier_Z(n, j, i))
                                for i in range(1, n + 1) for j in range(i + 1, n + 1)))


def rime_skew_sl_r(mu) -> Operator2:
    """The traceless variant built from Ztilde^i_j = Z^i_j + I/n."""
    mu = ratvec(mu)
    require_distinct(mu, "mu")
    n = len(mu)
    shift = Operator1.identity(n).scale(Q(1, n))
    return _kron_sum(n, _wedges((ONE / (mu[i - 1] - mu[j - 1]), carrier_Z(n, i, j) + shift,
                                 carrier_Z(n, j, i) + shift)
                                for i in range(1, n + 1) for j in range(i + 1, n + 1)))


def rime_skew_sl_xi(mu) -> Operator1:
    """xi = (1/n) sum_{i!=j} Z^i_j/(mu_i - mu_j), the identity shift r_sl = r_skew + xi ^ 1.

    Expanding (Z^i_j + I/n) ^ (Z^j_i + I/n) leaves Z^i_j ^ Z^j_i + (Z^i_j - Z^j_i) ^ I/n.
    """
    mu = ratvec(mu)
    require_distinct(mu, "mu")
    n = len(mu)
    if n < 2:
        return Operator1.zero(n)
    return signed_products([(ONE / (n * (mu[i - 1] - mu[j - 1])), carrier_Z(n, i, j))
                            for i in range(1, n + 1) for j in range(1, n + 1) if i != j])


def b_cg_eta(n: int) -> Operator1:
    """eta = sum_j (1 - j/n) e^{j+1}_j = eta0/n, the Cartan completion b_cg = b_skew + 1 ^ eta."""
    return invariance_eta0_b(n).scale(Q(1, n))


def build_classical(kind: str, n: int | None = None, params=None) -> Operator2:
    if kind not in CLASSICAL_KINDS:
        raise InvalidInputError(f"unknown classical kind {kind!r}")
    if kind in PARAMETRIC_KINDS:
        if params is None:
            raise InvalidInputError(f"{kind} needs a parameter vector")
        return {RIME_NONSKEW: rime_nonskew_r,
                RIME_SKEW: rime_skew_r,
                RIME_SKEW_SL: rime_skew_sl_r}[kind](params)
    if n is None or n < 2:
        raise InvalidInputError(f"{kind} needs a dimension n >= 2")
    return {R_CG: rcg_r, R_CG_PRIME: rcg_prime_r, B_SKEW: b_skew_r, B_CG: b_cg_r}[kind](n)


def classical_limit_residual(phi, beta) -> Operator2:
    """P R(phi,beta) - identity - beta * r(phi): exactly zero, not asymptotically."""
    phi = ratvec(phi)
    beta = rat(beta)
    r_quantum = strict_rime_R(phi, beta)
    n = len(phi)
    p = permutation_P(n)
    return (p @ r_quantum) - Operator2.identity(n) - rime_nonskew_r(phi).scale(beta)


# the stated equivalences lhs = (X (x) X) rhs (X (x) X)^-1: pair -> (lhs kind, rhs kind)
CONJUGATION_PAIRS = {"nonskew-to-rcg": (RIME_NONSKEW, R_CG),
                     "skew-to-b": (RIME_SKEW, B_SKEW),
                     "skew-sl-to-bcg": (RIME_SKEW_SL, B_CG)}
# the identity shifts r = a + xi ^ 1 of a skew a: kind of r -> kind of a; xi is named
# kind + ":xi"
SHIFT_BASES = {RIME_SKEW_SL: RIME_SKEW, B_CG: B_SKEW}


def conjugation_residual_of(pair: str, get, x: tuple) -> Deferred:
    """lhs - (X x X) rhs (X^-1 x X^-1) for one of the three stated equivalences, from objects
    already built: ``get(name)`` reads the r of a classical kind, or the xi of an identity
    shift by kind + ":xi", and x is (X, X^-1).

    X^-1 is the closed form that ``x_change_of_basis`` checks against X, so the
    residual is decided by its inverse-free defect (``conjugate2_residual``).
    The traceless pair is r_skew + xi ^ 1 against b_skew - eta ^ 1, so its
    defect is decided through those parts (``shifted_conjugate2_residual``):
    the skew pair's defect and the n x n D = xi X + X eta.
    """
    lhs, rhs = CONJUGATION_PAIRS[pair]
    x, xinv = x
    if lhs in SHIFT_BASES:
        return shifted_conjugate2_residual(
            get(lhs), get(rhs), x, xinv, (get(SHIFT_BASES[lhs]), get(lhs + ":xi")),
            (get(SHIFT_BASES[rhs]), get(rhs + ":xi")))
    return conjugate2_residual(get(lhs), get(rhs), x, xinv)


def carrier_algebra_check(mu) -> dict[str, object]:
    """Structure of the Frobenius carrier spanned by Z^i_j, as residuals by identity.

    The generating element Zc = sum_{i!=j} Z^i_j (x) e^j_i (one ``kron_sum``)
    carries the pair p = (i, j) on its second leg, at row i and column j of a
    matrix unit.  So the product table Zc_12 Zc_13 = sum_{p,t} Z_p Z_t (x) e_p (x) e_t
    and the bracket table [Zc_12, Zc_13] are one ``signed_products`` call each,
    and each block of legs 2 and 3 holds the product or bracket of the pair of
    pairs it names.  Each family is read off a table against an expected table
    written straight into integer rows, and is decided on its residual table;
    the form cuts its per-pair list (the ordered pairs of pairs) out of that
    table.  The Ztilde = Z + I/n families read Zc itself: Ztilde_p 1 - 1/n is
    Z_p 1, and I/n is central, so the bracket table is the same.
    """
    mu = ratvec(mu)
    require_distinct(mu, "mu")
    n = len(mu)
    nn = n * n
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    z = {(i, j): carrier_Z(n, i, j) for (i, j) in pairs}
    # Z^i_i, and every block a residual table leaves empty
    zero = Operator1.zero(n)
    terms = [(1, z[(i, j)], Operator1.unit(n, j, i)) for (i, j) in pairs]
    gen = _kron_sum(n, terms)
    den, rows = gen._ints()
    # the entries (a, c, v) of each Z_p as ints over the generating element's denominator,
    # read back off it, with a and c already placed on leg 1 of a table
    zents = {p: [] for p in pairs}
    # the integer row sums of each Z_p over the same denominator, Z_p times the ones vector
    ones = {p: [0] * n for p in pairs}
    for x, row in rows.items():
        a, i = divmod(x, n)
        for y, v in row.items():
            c, j = divmod(y, n)
            zents[(i + 1, j + 1)].append((a * nn, c * nn, v))
            ones[(i + 1, j + 1)][a] += v
    block = lambda p, t: ((p[0] - 1) * n + t[0] - 1, (p[1] - 1) * n + t[1] - 1)

    def expected(blocks) -> Operator3:
        """sum of M (x) e_p (x) e_t over blocks (p, t, [(k, q), ...]), M = sum k Z_q."""
        out = {}
        for p, t, terms in blocks:
            rk, ck = block(p, t)
            for k, q in terms:
                for a, c, v in zents.get(q, ()):
                    row = out.setdefault(a + rk, {})
                    row[c + ck] = row.get(c + ck, 0) + k * v
        return Operator3._reduced(n, den, {x: nz for x, row in out.items()
                                           if (nz := {y: v for y, v in row.items() if v})})

    def cut(table: Operator3, positions) -> Deferred:
        """The blocks of a residual table at ``positions()``, in order, decided on the table."""
        def form() -> list[Operator1]:
            tden, trows = table._ints()
            blocks = {}
            for x, row in trows.items():
                a, rk = divmod(x, nn)
                for y, v in row.items():
                    c, ck = divmod(y, nn)
                    blocks.setdefault((rk, ck), {}).setdefault(a, {})[c] = v
            return [Operator1._reduced(n, tden, b) if (b := blocks.get(block(p, t))) else zero
                    for p, t in positions()]
        return Deferred(table.is_zero(), form)

    # (a) associative product rule Z^j_i Z^k_l = (d^j_l - d^i_l)(Z^k_i - Z^l_i): the
    # coefficient is nonzero only for l = j or l = i
    m = len(pairs)
    z12, z13 = place(gen, (1, 2), 3), place(gen, (1, 3), 3)
    product = signed_products([(1, z12, z13)])
    want = expected(((j, i), (k, l), [(1 if l == j else -1, (k, i)), (-1 if l == j else 1, (l, i))])
                    for (j, i) in pairs for l in (i, j) for k in range(1, n + 1) if k != l)
    product_rule = cut(product - want, lambda: ((p, t) for p in pairs for t in pairs))

    # the bracket table, split into (b)'s displayed brackets, the brackets of disjoint
    # pairs, which vanish, and lambda on every bracket, one contraction of leg 1
    bracket = signed_products([(1, z12, z13), (-1, z13, z12)])
    bden, brows = bracket._ints()
    shown, disjoint = {}, {}
    for x, row in brows.items():
        u2, u3 = divmod(x % nn, n)
        for y, v in row.items():
            v2, v3 = divmod(y % nn, n)
            if v2 == u3 or (v2 == v3 and u2 != u3):
                shown.setdefault(x, {})[y] = v
            elif u2 != u3 and u2 != v3 and v2 != v3:
                disjoint.setdefault(x, {})[y] = v

    # (b) the three displayed bracket families; the vanishing of the others is in (d)
    def shown_blocks():
        for (i, j) in pairs:
            yield (i, j), (j, i), [(1, (j, i)), (-1, (i, j))]
            for k in range(1, n + 1):
                if k not in (i, j):
                    yield (j, i), (k, i), [(1, (j, i)), (-1, (k, i))]
                    yield (i, j), (j, k), [(1, (j, k)), (-1, (i, k))]

    shown_residual = Operator3._reduced(n, bden, shown) - expected(shown_blocks())
    brackets = cut(shown_residual, lambda: ((p, t) for p, t, _ in shown_blocks()))
    other_brackets = cut(Operator3._reduced(n, bden, disjoint),
                         lambda: ((p, t) for p in pairs for t in pairs if not set(p) & set(t)))

    # (c) omega(Z^i_j, Z^k_l) = -(mu_i - mu_j) d^l_i d^j_k inverts the r-coefficients
    idx = {p: a for a, p in enumerate(pairs)}
    rcoef = Operator1._entries(m, {idx[(i, j)]: {idx[(j, i)]: ONE / (mu[i - 1] - mu[j - 1])}
                                   for (i, j) in pairs})
    omega = Operator1._entries(m, {idx[(i, j)]: {idx[(j, i)]: -(mu[i - 1] - mu[j - 1])}
                                   for (i, j) in pairs})

    # (d) omega = d(lambda_n) with lambda_n(Z^k_l) = -mu_l, read off every ordered bracket;
    # omega's value at ((i, j), (j, i)) sits at block row (i, j) and block column (j, i)
    defect = _lambda_on_carrier(bracket, mu) - Operator2._entries(
        n, {(i - 1) * n + j - 1: {(j - 1) * n + i - 1: -(mu[i - 1] - mu[j - 1])}
            for (i, j) in pairs})
    coboundary = Deferred(defect.is_zero(),
                          lambda: [defect._get(*block(p, t)) for p in pairs for t in pairs])

    # (e) Ztilde = Z + I/n, so Ztilde_p 1 - 1/n = Z_p 1: Ztilde_p fixes the all-ones vector
    # up to 1/n iff Z_p sends it to zero.  I/n is central, so the bracket table of the
    # Ztilde is that of Zc above, and [Zt_ij, Zt_ji] - Zt_ji + Zt_ij = [Z_ij, Z_ji] - Z_ji + Z_ij
    # is (b)'s residual block ((i, j), (j, i))
    sl_ones = Deferred(not any(map(any, ones.values())),
                       lambda: [[Q(s, den) for s in ones[p]] for p in pairs])
    sl_brackets = cut(shown_residual, lambda: (((i, j), (j, i)) for (i, j) in pairs))
    return {"product-rule": product_rule, "brackets": brackets,
            "other-brackets": other_brackets, "omega-is-inverse": rcoef.inverse() - omega,
            "omega-is-coboundary": coboundary, "sl-fixes-ones": sl_ones,
            "sl-brackets": sl_brackets}


def _lambda_on_carrier(table: Operator3, mu) -> Operator2:
    """Evaluate lambda_n = -sum mu_i z^i_j on leg 1 of a table of carrier elements.

    A carrier element sum c_{ij} Z^i_j has off-diagonal entries c_{ij} at the
    matrix slot of e^i_j (row j, col i with our unit convention), and
    lambda_n picks -sum_{i != j} c_{ij} mu_j: each off-diagonal entry at row r
    counts -mu_r.  The result holds lambda of the block at (p, t) where the
    table holds that block, on legs 2 and 3.
    """
    n = table.dim
    nn = n * n
    den, rows = table._ints()
    mden, mus = cleared(mu)
    out = {}
    for x, row in rows.items():
        a, rk = divmod(x, nn)
        acc = out.setdefault(rk, {})
        for y, v in row.items():
            c, ck = divmod(y, nn)
            if a != c:
                acc[ck] = acc.get(ck, 0) - v * mus[a]
    return Operator2._reduced(n, den * mden, {rk: nz for rk, acc in out.items()
                                              if (nz := {c: v for c, v in acc.items() if v})})


def invariance_shift_residual(r: Operator2, eta: Operator1, c) -> Operator3:
    """cYB residual of r + c(eta_1 - eta_2); the invariance bracket is a precondition."""
    if not commutator_with_sum(r, eta).is_zero():
        raise InvalidInputError("[r, eta_1 + eta_2] != 0")
    c = rat(c)
    shifted = signed_products([(1, r), (c, place(eta, (1,), 2)), (-c, place(eta, (2,), 2))])
    return cybe_residual(shifted)


def representation_change_residual(n: int, c, kind: str = R_CG) -> Operator2:
    """Effect of e^i_j -> e^i_j + c d^i_j on the wedge expansion, minus the closed form.

    For the Cremmer-Gervais solution the closed form carries an extra
    -c^2 n(n-1)/2 identity term on top of the displayed shift (multiples of
    the identity do not disturb the cYBe); for the skew solution the change
    is exactly c eta0 ^ identity.
    """
    c = rat(c)
    ident = Operator1.identity(n)
    if kind == R_CG:
        units = _rcg_terms(n)
        eta = invariance_eta_cg(n)
        change = [(c, eta, ident), (-c, ident, eta),
                  (-c * (n - 1) - c * c * Q(n * (n - 1), 2), ident, ident)]
    elif kind == B_SKEW:
        units = _wedges(_b_skew_wedges(n))
        change = _wedges([(c, invariance_eta0_b(n), ident)])
    else:
        raise InvalidInputError(f"no representation change for kind {kind!r}")
    # the expansion with every unit shifted, minus the unshifted expansion and its change
    return kron_sum([*((k, _shifted(a, c), _shifted(b, c)) for k, a, b in units),
                     *((-k, a, b) for k, a, b in units + change)])


def _shifted(u: Operator1, c) -> Operator1:
    """e^i_j + c d^i_j: the shift hits exactly the diagonal units."""
    if u.trace():
        return u + Operator1.identity(u.dim).scale(c)
    return u


def bd_symmetry_check(kind: str, n: int) -> dict[str, object]:
    """One-sided P symmetries and Cartan parts of the two parameter-free solutions."""
    p = permutation_P(n)
    r = rcg_r(n) if kind == R_CG else rcg_prime_r(n)
    out = {}
    if kind == R_CG:
        out["p-left"] = p @ r + r
    else:
        out["p-right"] = r @ p + r
    out["sum-rule"] = (r + r.reversed_legs()) - (p - Operator2.identity(n))
    # the Cartan part r^{ij}_{ij} is -1 above (R_CG) or below (R_CG_PRIME) the diagonal
    def cartan(i, j):
        return -ONE if (i < j if kind == R_CG else i > j) else ZERO

    out["cartan"] = Operator1([[r.get(i, j, i, j) - cartan(i, j) for j in range(1, n + 1)]
                               for i in range(1, n + 1)])
    return out


def bd_fork_R(q, p, r, s) -> Operator2:
    """16x16 solution of the minimal non-rimeable fork diagram, read off its exchange relations."""
    q, p, r, s = rat(q), rat(p), rat(r), rat(s)
    if q in (0, 1, -1) or not p or not r or not s:
        raise InvalidInputError("needs q not in {0,1,-1} and p, r, s nonzero")
    lam = ONE - 1 / q ** 2
    entries = {
        (1, 2): [((2, 1), p / q)],
        (1, 3): [((3, 1), r / q ** 2)],
        (1, 4): [((4, 1), p * r / q), ((3, 2), -r * s / q)],
        (2, 1): [((1, 2), 1 / (p * q)), ((2, 1), lam)],
        (2, 3): [((3, 2), s / (p * q))],
        (2, 4): [((4, 2), s / q ** 2)],
        (3, 1): [((1, 3), 1 / r), ((3, 1), lam)],
        (3, 2): [((2, 3), p / (q * s)), ((3, 2), lam)],
        (3, 4): [((4, 3), p * r / (q * s))],
        (4, 1): [((1, 4), 1 / (p * q * r)), ((4, 1), lam), ((2, 3), 1 / q)],
        (4, 2): [((2, 4), 1 / s), ((4, 2), lam)],
        (4, 3): [((3, 4), s / (p * q * r)), ((4, 3), lam)],
    }
    rows = {5 * i: {5 * i: ONE} for i in range(4)}
    for (i, j), terms in entries.items():
        rows[(i - 1) * 4 + j - 1] = {(k - 1) * 4 + l - 1: v for (k, l), v in terms}
    return Operator2._entries(4, rows)


def lambda_bcg_gram(n: int) -> Operator1:
    """Gram matrix of lambda([. , .]) with lambda = sum (e^i_{i+1})* on the Ztilde basis.

    lambda(A) is the sum of A's entries (i, i+1), i.e. tr(L A) with L the
    matrix of ones at (i+1, i), so lambda([x, y]) = tr([L, x] y): one bracket
    per basis element, then a sparse trace of a product per pair.
    """
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    shift = Operator1.identity(n).scale(Q(1, n))
    zt = [carrier_Z(n, i, j) + shift for (i, j) in pairs]
    ell = Operator1([[ONE if r == c + 1 else ZERO for c in range(n)] for r in range(n)])
    brackets = [signed_products([(1, ell, z), (-1, z, ell)])._ints() for z in zt]
    # y's columns as the rows of its transpose: tr(c y) pairs row r of c with row r of y^T
    columns = [z.transpose()._ints() for z in zt]
    m = len(pairs)
    g = {}
    # lambda([x, y]) = -lambda([y, x]), so each unordered pair is evaluated once
    for a in range(m):
        dc, crows = brackets[a]
        for b in range(a + 1, m):
            dy, yrows = columns[b]
            v = Q(sum(w * yrow[c] for r, crow in crows.items() if (yrow := yrows.get(r))
                      for c, w in crow.items() if c in yrow), dc * dy)
            g.setdefault(a, {})[b] = v
            g.setdefault(b, {})[a] = -v
    return Operator1._entries(m, g)


def tilde_difference_residual(x: Operator1, xi: Operator1, zeta: Operator1) -> Operator1:
    """X_mu sum_j (1 - j/n) e^{j+1}_j - (1/n) sum_{i!=j} Z^j_i/(mu_i-mu_j) X_mu, that is
    X eta + xi X, as xi X - X zeta.

    ``x`` is X(mu), ``xi`` the identity-shift generator of r_sl
    (``rime_skew_sl_xi(mu)``) and ``zeta`` = -eta that of b_cg (``-b_cg_eta(n)``),
    as the classical suite's block holds them.
    """
    return signed_products([(1, xi, x), (-1, x, zeta)])
