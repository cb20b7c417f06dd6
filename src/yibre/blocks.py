"""Catalog of 4x4 solutions, their properties and the stated basis-change equivalences.

Entries involving sqrt(-1) are handled exactly over the Gaussian rationals
(``QuadExt`` with d = -1); a tau with irrational square is reported as
"skipped-needs-extension" unless the caller picks a point where
(q-1)/(q+1) is a perfect square.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .kernel import ONE, ZERO, InvalidInputError, QuadExt, rat
from .rime import classify, extract_rime_data
from .tensor import (Operator1, Operator2, hecke_residual, kron11,
                     yb_residual)

RBL1 = "rbl1"
RBL2 = "rbl2"
RBL3 = "rbl3"
RBL4 = "rbl4"
GL2_STD = "gl2-std"
GL11_STD = "gl11-std"
EIGHT_VERTEX = "eight-vertex"
R_II = "r-ii"
JORDANIAN = "jordanian"
PERM_LIKE = "perm-like"
R_PRIME = "r-prime"
R_DOUBLE_PRIME = "r-double-prime"
R_TRIPLE_PRIME = "r-triple-prime"

BLOCK_KINDS = (RBL1, RBL2, RBL3, RBL4, GL2_STD, GL11_STD, EIGHT_VERTEX, R_II,
               JORDANIAN, PERM_LIKE, R_PRIME, R_DOUBLE_PRIME, R_TRIPLE_PRIME)

BLOCK_SIGNATURES = {
    RBL1: "(q, gamma)",
    RBL2: "(q, gamma)",
    RBL3: "(q, gamma)",
    RBL4: "(q, omega, gamma), omega in {q^2, 1, q^-2}",
    GL2_STD: "(q, p)",
    GL11_STD: "(q, p)",
    EIGHT_VERTEX: "(q,)",
    R_II: "(q, eps), eps in {+1, -1}",
    JORDANIAN: "(h1, h2)",
    PERM_LIKE: "(a, b, c)",
    R_PRIME: "(a,)",
    R_DOUBLE_PRIME: "(h1, h2, h3)",
    R_TRIPLE_PRIME: "()",
}


def _mat(rows) -> Operator2:
    return Operator2.from_dense(2, [[rat(x) for x in row] for row in rows])


def block_matrix(kind: str, *params) -> Operator2:
    """The literal 4x4 matrix of a catalog member (rows/cols 11, 12, 21, 22)."""
    if kind == RBL1:
        q, g = (rat(x) for x in params)
        _needq(q)
        return _mat([[q, 0, 0, 0], [g, 0, 1 / q, 0], [-g, q, q - 1 / q, 0], [0, 0, 0, q]])
    if kind == RBL2:
        q, g = (rat(x) for x in params)
        _needq(q)
        return _mat([[q, 0, 0, 0], [q * g, 0, -q, 0],
                     [g / q, -1 / q, q - 1 / q, 0], [0, 0, 0, -1 / q]])
    if kind == RBL3:
        q, g = (rat(x) for x in params)
        _needq(q)
        if not g:
            raise InvalidInputError("gamma must be nonzero")
        return _mat([[q, 0, 0, 0], [g, -1 / q, 0, 1 / g],
                     [-g, q + 1 / q, q, -1 / g], [0, 0, 0, q]])
    if kind == RBL4:
        q, omega, g = (rat(x) for x in params)
        _needq(q)
        if omega not in (q * q, ONE, 1 / (q * q)):
            raise InvalidInputError("omega must be one of q^2, 1, q^-2")
        if not g:
            raise InvalidInputError("gamma must be nonzero")
        return _mat([[q, 0, 0, 0], [g, -1 / q, 0, 1 / g],
                     [g / omega, 0, -1 / q, omega / g], [0, 0, 0, q]])
    if kind in (GL2_STD, GL11_STD):
        q, p = (rat(x) for x in params)
        _needq(q)
        if not p:
            raise InvalidInputError("p must be nonzero")
        corner = q if kind == GL2_STD else -1 / q
        return _mat([[q, 0, 0, 0], [0, 0, p, 0], [0, 1 / p, q - 1 / q, 0],
                     [0, 0, 0, corner]])
    if kind == EIGHT_VERTEX:
        q, = (rat(x) for x in params)
        _needq(q)
        lam = (q - 1 / q) / 2
        mu = (q + 1 / q) / 2
        return _mat([[lam + 1, 0, 0, lam], [0, lam, mu, 0],
                     [0, mu, lam, 0], [lam, 0, 0, lam - 1]])
    if kind == R_II:
        q, eps = (rat(x) for x in params)
        _needq(q)
        if eps not in (1, -1):
            raise InvalidInputError("eps must be +1 or -1")
        return _mat([[q, 0, 0, q + 1 / q], [0, 0, eps / q, 0],
                     [0, eps * q, q - 1 / q, 0], [0, 0, 0, -1 / q]])
    if kind == JORDANIAN:
        h1, h2 = (rat(x) for x in params)
        return _mat([[1, h1, -h1, h1 * h2], [0, 0, 1, -h2], [0, 1, 0, h2], [0, 0, 0, 1]])
    if kind == PERM_LIKE:
        a, b, c = (rat(x) for x in params)
        return _mat([[1, 0, 0, 0], [0, 0, a, 0], [0, b, 0, 0], [0, 0, 0, c]])
    if kind == R_PRIME:
        a, = (rat(x) for x in params)
        return _mat([[0, 0, 0, a], [0, 1, 0, 0], [0, 0, 1, 0], [a, 0, 0, 0]])
    if kind == R_DOUBLE_PRIME:
        h1, h2, h3 = (rat(x) for x in params)
        return _mat([[1, h1, h2, h3], [0, 0, 1, h1], [0, 1, 0, h2], [0, 0, 0, 1]])
    if kind == R_TRIPLE_PRIME:
        return _mat([[1, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [0, 0, 0, 1]])
    raise InvalidInputError(f"unknown block kind {kind!r}")


def _needq(q: Fraction) -> None:
    if not q:
        raise InvalidInputError("q must be nonzero")


def reshuffled_matrix(r: Operator2) -> Operator1:
    """M[(a,d),(g,b)] = R^{ab}_{dg}; invertibility <=> skew invertibility."""
    n = r.dim
    m = [[ZERO] * (n * n) for _ in range(n * n)]
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            for d in range(1, n + 1):
                for g in range(1, n + 1):
                    m[(a - 1) * n + (d - 1)][(g - 1) * n + (b - 1)] = r.get(a, b, d, g)
    return Operator1(m)


def is_skew_invertible(r: Operator2) -> bool:
    return reshuffled_matrix(r).det() != 0


@dataclass
class BlockReport:
    kind: str
    ybe_ok: bool
    hecke_scale: Fraction | None
    hecke_beta: Fraction | None
    skew_invertible: bool
    spectrum_type: str
    rime_class: str


def block_properties(kind: str, *params) -> BlockReport:
    """YBE, Hecke normalization, skew invertibility and GL-type of a member."""
    r = block_matrix(kind, *params)
    ybe_ok = yb_residual(r).is_zero()
    scale = beta = None
    spectrum = "none"
    # try the q-normalization (eigenvalues q and -1/q) and the unitary one
    cands = []
    if kind in (RBL1, RBL2, RBL3, RBL4, GL2_STD, GL11_STD, EIGHT_VERTEX, R_II):
        q = rat(params[0])
        cands.append(q)
    cands.append(ONE)
    for s in cands:
        scaled = r.scale(1 / s)
        # Hecke with eigenvalues 1 and beta - 1 = -1/q^2 (for s = q) or -1 (unitary)
        bval = ONE - 1 / (s * s)
        if hecke_residual(scaled, bval).is_zero():
            scale, beta = s, bval
            ident = Operator2.identity(2)
            m_one = 4 - (scaled - ident).rank()
            if beta == 0 and m_one == 4:
                spectrum = "identity"
            elif beta == 0:
                jordan = not (scaled - ident).is_zero() and m_one == 4
                spectrum = {3: "gl2", 2: "gl11"}.get(m_one, "unitary")
                if kind == JORDANIAN:
                    spectrum = "gl2"
            else:
                spectrum = {3: "gl2", 2: "gl11"}.get(m_one, "other")
            break
    if kind == JORDANIAN and scale is not None:
        spectrum = "gl2"
    report = BlockReport(kind, ybe_ok, scale, beta, is_skew_invertible(r),
                         spectrum, classify(r).value)
    return report


def equivalence_residual(lhs: Operator2, rhs: Operator2, t: Operator1) -> Operator2:
    """lhs (T x T) - (T x T) rhs."""
    if t.det() == 0:
        raise InvalidInputError("T must be invertible")
    tt = kron11(t, t)
    return lhs @ tt - tt @ rhs


def perfect_square_root(x: Fraction):
    from math import isqrt
    if x < 0:
        return None
    rn, rd = isqrt(x.numerator), isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


def stated_equivalences(q, gamma) -> list[dict]:
    """The basis changes of the riming subsection, at the given rational point."""
    q, gamma = rat(q), rat(gamma)
    out = []
    out.append({
        "name": "rbl1-to-rbl3",
        "residual": equivalence_residual(
            block_matrix(RBL1, q, gamma), block_matrix(RBL3, q, gamma),
            Operator1([[q, -1 / gamma], [gamma, ZERO]])),
        "status": "checked",
    })
    out.append({
        "name": "rbl1-to-gl2std",
        "residual": equivalence_residual(
            block_matrix(RBL1, q, gamma), block_matrix(GL2_STD, q, 1 / q),
            Operator1([[q - 1 / q, ZERO], [gamma, gamma]])),
        "status": "checked",
    })
    out.append({
        "name": "rbl2-to-rbl4",
        "residual": equivalence_residual(
            block_matrix(RBL2, q, gamma), block_matrix(RBL4, -1 / q, q * q, 1),
            Operator1([[ONE, q], [ZERO, gamma * q]])),
        "status": "checked",
    })
    tau = perfect_square_root((q - 1) / (q + 1)) if q != -1 else None
    if tau is not None:
        out.append({
            "name": "rbl4-omega1-to-eight-vertex",
            "residual": equivalence_residual(
                block_matrix(RBL4, q, 1, gamma), block_matrix(EIGHT_VERTEX, q),
                Operator1([[ONE, tau], [gamma, -gamma * tau]])),
            "status": "checked",
        })
    else:
        out.append({"name": "rbl4-omega1-to-eight-vertex", "residual": None,
                    "status": "skipped-needs-extension"})
    out.append({
        "name": "rbl4-omega-qsq-to-rii",
        "residual": equivalence_residual(
            block_matrix(RBL4, q, q * q, gamma), block_matrix(R_II, q, 1),
            Operator1([[ONE, ONE], [gamma / q, -gamma / q]])),
        "status": "checked",
    })
    out.append({
        "name": "rbl4-omega-qinvsq-to-rii21",
        "residual": equivalence_residual(
            block_matrix(RBL4, q, 1 / (q * q), gamma),
            block_matrix(R_II, q, 1).reversed_legs(),
            Operator1([[ONE, ONE], [gamma * q, -gamma * q]])),
        "status": "checked",
    })
    return out


# D = diag(1, i) and the twisted flip [[0, 1], [i, 0]]: the basis changes over
# the Gaussian rationals behind the eight-vertex inverse and R_II transpose
SQRT_M1 = QuadExt(0, 1, -1)
GAUSS_DIAG = Operator1.diag([1, SQRT_M1])
GAUSS_FLIP = Operator1([[0, 1], [SQRT_M1, 0]])


def symmetry_relations(kind: str, *params) -> dict[str, str]:
    """Transpose / reversal / inverse relations of the Hecke members of the catalog."""
    out: dict[str, str] = {}

    def verdict(res) -> str:
        return "pass" if res else "fail"

    if kind == GL2_STD:
        q, p = (rat(x) for x in params)
        r = block_matrix(GL2_STD, q, p)
        out["transpose"] = verdict(r.transpose() == block_matrix(GL2_STD, q, 1 / p))
        pi = Operator1([[ZERO, ONE], [ONE, ZERO]])
        out["reversal"] = verdict(
            r.reversed_legs() == kron11(pi, pi) @ r @ kron11(pi, pi))
        out["inverse"] = verdict(
            r.inverse() == block_matrix(GL2_STD, 1 / q, 1 / p).reversed_legs())
        return out
    if kind == GL11_STD:
        q, p = (rat(x) for x in params)
        r = block_matrix(GL11_STD, q, p)
        out["transpose"] = verdict(r.transpose() == block_matrix(GL11_STD, q, 1 / p))
        pi = Operator1([[ZERO, ONE], [ONE, ZERO]])
        out["reversal"] = verdict(
            r.reversed_legs() == kron11(pi, pi) @ block_matrix(GL11_STD, -1 / q, p)
            @ kron11(pi, pi))
        out["inverse"] = verdict(
            r.inverse() == block_matrix(GL11_STD, 1 / q, 1 / p).reversed_legs())
        return out
    if kind == EIGHT_VERTEX:
        q, = (rat(x) for x in params)
        r = block_matrix(EIGHT_VERTEX, q)
        out["transpose"] = verdict(r.transpose() == r)
        out["reversal"] = verdict(r.reversed_legs() == r)
        dd = kron11(GAUSS_DIAG, GAUSS_DIAG)
        out["inverse-via-gaussians"] = verdict(
            r.inverse() == dd @ block_matrix(EIGHT_VERTEX, 1 / q) @ dd.inverse())
        return out
    if kind == R_II:
        q, eps = (rat(x) for x in params)
        r = block_matrix(R_II, q, eps)
        out["inverse"] = verdict(
            r.inverse() == block_matrix(R_II, 1 / q, eps).reversed_legs())
        ff = kron11(GAUSS_FLIP, GAUSS_FLIP)
        out["transpose-via-gaussians"] = verdict(
            r.transpose() == ff @ block_matrix(R_II, -1 / q, -eps).reversed_legs() @ ff.inverse())
        return out
    if kind == JORDANIAN:
        h1, h2 = (rat(x) for x in params)
        r = block_matrix(JORDANIAN, h1, h2)
        pi = Operator1([[ZERO, ONE], [ONE, ZERO]])
        out["transpose"] = verdict(
            r.transpose() == kron11(pi, pi) @ block_matrix(JORDANIAN, h2, h1) @ kron11(pi, pi))
        out["reversal"] = verdict(r.reversed_legs() == block_matrix(JORDANIAN, -h1, -h2))
        out["self-inverse"] = verdict(r.inverse() == r)
        return out
    raise InvalidInputError(f"no symmetry relations recorded for {kind!r}")


def nonrime_entries(t: Operator1, h1, h2) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Closed form of the four non-rime entries of (T x T) R^J (T x T)^{-1}.

    det(T)^2 A^{11}_{12} = h1 (T^1_1)^2 (det T - h2 T^1_1 T^2_1) and its three
    companions; cross-validated against the direct conjugation.
    """
    h1, h2 = rat(h1), rat(h2)
    det = t.det()
    if not det:
        raise InvalidInputError("T must be invertible")
    t11 = t.rows[0][0]
    t21 = t.rows[1][0]
    minus = det - h2 * t11 * t21
    plus = det + h2 * t11 * t21
    d2 = det * det
    vals = (h1 * t11 * t11 * minus / d2,
            -h1 * t11 * t11 * plus / d2,
            h1 * t21 * t21 * minus / d2,
            -h1 * t21 * t21 * plus / d2)
    a = kron11(t, t) @ block_matrix(JORDANIAN, h1, h2) @ kron11(t.inverse(), t.inverse())
    direct = (a.get(1, 1, 1, 2), a.get(1, 1, 2, 1), a.get(2, 2, 1, 2), a.get(2, 2, 2, 1))
    if vals != direct:
        raise InvalidInputError("closed-form non-rime entries disagree with conjugation")
    return vals


def skinv_implications(r: Operator2) -> bool:
    """alpha_ij = 0 => gamma_ij gamma'_ij != 0 and gamma gamma' = 0 => alpha != 0."""
    data = extract_rime_data(r)
    if data is None:
        raise InvalidInputError("matrix is not rime")
    n = r.dim
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            gg = data.g(i, j) * data.gp(i, j)
            if data.a(i, j) == 0 and gg == 0:
                return False
    return True


def catalog_listing() -> list[dict]:
    """Stable description of every block kind, for the catalog command."""
    return [{"kind": k, "dim": 2, "parameters": BLOCK_SIGNATURES[k]}
            for k in sorted(BLOCK_KINDS)]
