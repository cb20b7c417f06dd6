from fractions import Fraction as F

import pytest

from yibre.blocks import (BLOCK_KINDS, EIGHT_VERTEX, GL2_STD, GL11_STD,
                          JORDANIAN, PERM_LIKE, R_DOUBLE_PRIME, R_II, R_PRIME,
                          R_TRIPLE_PRIME, RBL1, RBL2, RBL3, RBL4, block_matrix,
                          block_properties, catalog_listing, is_skew_invertible,
                          nonrime_entries,
                          reshuffled_matrix, skinv_implications,
                          stated_equivalences, symmetry_relations)
from yibre import blocks
from yibre.kernel import InvalidInputError, RationalDraw, perfect_square_root
from yibre.rime import RimeClass, classify
from yibre.suites import _is_zero
from yibre.tensor import Operator1, Operator2, equivalence_residual, yb_residual

from reference import nonrime_entries_by_conjugation

MEMBERS = [
    (RBL1, (2, 1)), (RBL2, (2, 1)), (RBL3, (2, F(3, 2))),
    (RBL4, (3, 1, 1)), (RBL4, (3, 9, 1)), (RBL4, (3, F(1, 9), 2)),
    (GL2_STD, (2, 3)), (GL11_STD, (2, 3)), (EIGHT_VERTEX, (2,)),
    (R_II, (2, 1)), (R_II, (2, -1)), (JORDANIAN, (1, 2)), (JORDANIAN, (0, 3)),
    (PERM_LIKE, (2, 3, 5)), (R_PRIME, (7,)), (R_DOUBLE_PRIME, (1, 2, 3)),
    (R_TRIPLE_PRIME, ()),
]


@pytest.mark.parametrize("kind,params", MEMBERS)
def test_catalog_solves_ybe(kind, params):
    assert yb_residual(block_matrix(kind, *params)).is_zero()


def test_rbl1_frozen_entries():
    r = block_matrix(RBL1, 2, 1)
    assert r.get(1, 1, 1, 1) == 2
    assert r.get(2, 1, 2, 1) == F(3, 2)   # q - 1/q at q = 2
    assert r.get(1, 2, 2, 1) == F(1, 2)
    assert r.get(1, 2, 1, 1) == 1


def test_rbl4_frozen_entries():
    r = block_matrix(RBL4, 3, 1, 1)
    assert r.get(1, 2, 1, 2) == F(-1, 3)
    assert r.get(2, 1, 2, 2) == 1
    assert r.get(2, 1, 1, 1) == 1


def test_parameter_guards():
    with pytest.raises(InvalidInputError):
        block_matrix(RBL4, 3, 5, 1)       # omega outside the enumeration
    with pytest.raises(InvalidInputError):
        block_matrix(R_II, 2, 2)          # eps outside {1,-1}
    with pytest.raises(InvalidInputError):
        block_matrix(RBL1, 0, 1)


def test_spectrum_types():
    assert block_properties(RBL1, 2, 1).spectrum_type == "gl2"
    assert block_properties(RBL2, 2, 1).spectrum_type == "gl11"
    assert block_properties(RBL3, 2, 1).spectrum_type == "gl2"
    assert block_properties(RBL4, 3, 9, 1).spectrum_type == "gl11"
    assert block_properties(GL2_STD, 2, 3).spectrum_type == "gl2"
    assert block_properties(GL11_STD, 2, 3).spectrum_type == "gl11"
    assert block_properties(EIGHT_VERTEX, 2).spectrum_type == "gl11"
    assert block_properties(R_II, 2, 1).spectrum_type == "gl11"


# (ybe_ok, hecke_scale, hecke_beta, skew_invertible, spectrum_type, rime_class) of each
# member of MEMBERS, in order, as block_properties reported them before its spectrum
# branches were merged
RECORDED_PROPERTIES = [
    (True, 2, F(3, 4), True, "gl2", "rime-non-strict"),
    (True, 2, F(3, 4), True, "gl11", "rime-non-strict"),
    (True, 2, F(3, 4), True, "gl2", "rime-non-strict"),
    (True, 3, F(8, 9), True, "gl11", "rime-non-strict"),
    (True, 3, F(8, 9), True, "gl11", "rime-non-strict"),
    (True, 3, F(8, 9), True, "gl11", "rime-non-strict"),
    (True, 2, F(3, 4), True, "gl2", "ice"),
    (True, 2, F(3, 4), True, "gl11", "ice"),
    (True, 2, F(3, 4), True, "gl11", "not-rime"),
    (True, 2, F(3, 4), True, "gl11", "not-rime"),
    (True, 2, F(3, 4), True, "gl11", "not-rime"),
    (True, 1, 0, True, "gl2", "not-rime"),
    (True, 1, 0, True, "gl2", "rime-non-strict"),
    (True, None, None, True, "none", "ice"),
    (True, None, None, True, "none", "not-rime"),
    (True, None, None, True, "none", "not-rime"),
    (True, None, None, True, "none", "not-rime"),
]


@pytest.mark.parametrize("member,want", zip(MEMBERS, RECORDED_PROPERTIES))
def test_block_properties_match_the_recorded_reports(member, want):
    kind, params = member
    rep = block_properties(kind, *params)
    assert rep.kind == kind
    assert (rep.ybe_ok, rep.hecke_scale, rep.hecke_beta, rep.skew_invertible,
            rep.spectrum_type, rep.rime_class) == want


def test_hecke_normalizations():
    rep = block_properties(RBL1, 2, 1)
    assert (rep.hecke_scale, rep.hecke_beta) == (2, F(3, 4))
    repj = block_properties(JORDANIAN, 1, 2)
    assert (repj.hecke_scale, repj.hecke_beta) == (1, 0)
    # perm-like is Hecke exactly when ab = 1 and c = +-1
    assert block_properties(PERM_LIKE, 2, F(1, 2), 1).hecke_beta == 0
    assert block_properties(PERM_LIKE, 2, 3, 5).hecke_beta is None
    assert block_properties(R_PRIME, 1).hecke_beta == 0
    assert block_properties(R_PRIME, 7).hecke_beta is None


def test_skew_invertibility():
    assert not is_skew_invertible(Operator2.identity(2))
    for kind, ps in MEMBERS:
        assert is_skew_invertible(block_matrix(kind, *ps)), kind
    # the n = 2 reshuffle determinant matches the displayed closed form up to
    # the sign of the row arrangement
    from yibre.rime import extract_rime_data
    for kind, ps in ((RBL1, (2, 1)), (RBL3, (2, F(3, 2))), (GL2_STD, (2, 3))):
        r = block_matrix(kind, *ps)
        d = extract_rime_data(r)
        det = (d.a(1, 2) * d.b(1, 2) - d.g(1, 2) * d.gp(1, 2)) \
            * (d.a(2, 1) * d.b(2, 1) - d.g(2, 1) * d.gp(2, 1)) \
            - d.alpha[0] * d.alpha[1] * d.a(1, 2) * d.a(2, 1)
        assert abs(reshuffled_matrix(r).det()) == abs(det), kind


def test_equivalences_at_tau_rational_point():
    q = F(5, 3)
    assert perfect_square_root((q - 1) / (q + 1)) == F(1, 2)
    eqs = stated_equivalences(q, F(2, 7))
    assert len(eqs) == 6 and "rbl4-omega1-to-eight-vertex" in eqs
    assert _is_zero(eqs) == (True, None)


def test_equivalences_generic_q_skips_tau():
    eqs = stated_equivalences(2, 1)
    assert len(eqs) == 5 and "rbl4-omega1-to-eight-vertex" not in eqs
    assert _is_zero(eqs) == (True, None)


def test_equivalence_fault_names_its_basis_change(monkeypatch):
    # a GL2_STD target scaled by 2 breaks exactly the change that lands on it
    build = blocks.block_matrix
    monkeypatch.setattr(blocks, "block_matrix", lambda kind, *ps: build(kind, *ps).scale(2)
                        if kind == GL2_STD else build(kind, *ps))
    eqs = stated_equivalences(F(5, 3), F(2, 7))
    ok, witness = _is_zero(eqs)
    assert not ok and witness["index"].startswith("rbl1-to-gl2std:")
    assert [name for name, res in eqs.items() if not _is_zero(res)[0]] == ["rbl1-to-gl2std"]


def test_equivalence_residual_guards_singular_t():
    with pytest.raises(InvalidInputError):
        equivalence_residual(block_matrix(RBL1, 2, 1), block_matrix(RBL3, 2, 1),
                             Operator1([[1, 1], [1, 1]]))


@pytest.mark.parametrize("kind,params", [
    (GL2_STD, (2, 3)), (GL11_STD, (2, 3)), (EIGHT_VERTEX, (2,)),
    (R_II, (2, 1)), (R_II, (3, -1)), (JORDANIAN, (1, 2)),
])
def test_symmetry_relations(kind, params):
    rep = symmetry_relations(kind, *params)
    assert rep and _is_zero(rep) == (True, None)


@pytest.mark.parametrize("name,kind,params,real_stand_in", [
    ("GAUSS_DIAG", EIGHT_VERTEX, (2,), Operator1.identity(2)),
    ("GAUSS_FLIP", R_II, (2, 1), Operator1([[0, 1], [1, 0]])),
])
def test_gaussian_symmetry_checks_fail_without_sqrt_minus_one(monkeypatch, name, kind,
                                                              params, real_stand_in):
    # negative control: with a rational basis change in place of the sqrt(-1)
    # one, the Gaussian relation must not hold
    monkeypatch.setattr(blocks, name, real_stand_in)
    rep = symmetry_relations(kind, *params)
    gauss = next(k for k in rep if k.endswith("via-gaussians"))
    assert _is_zero(rep) == (False, {"index": f"{gauss}:-", "value": "false"})
    assert [k for k, v in rep.items() if not _is_zero(v)[0]] == [gauss]


def test_nonrime_entries():
    assert nonrime_entries(Operator1.identity(2), 1, 0) == (1, -1, 0, 0)
    assert nonrime_entries(Operator1.identity(2), 0, 5) == (0, 0, 0, 0)
    rd = RationalDraw(77)
    checked = 0
    while checked < 50:
        t = Operator1([[rd.rational(), rd.rational()],
                       [rd.rational(), rd.rational()]])
        if t.det() == 0:
            continue
        vals = nonrime_entries(t, rd.rational(), rd.rational(nonzero=False))
        assert any(vals)
        checked += 1


def test_nonrime_entries_match_the_conjugation():
    # rows 11 and 22 of (T x T) R^J (adj T x adj T) against conjugate2 with T^-1
    rd = RationalDraw(78)
    checked = 0
    while checked < 30:
        t = Operator1([[rd.rational(), rd.rational()], [rd.rational(), rd.rational()]])
        if t.det() == 0:
            continue
        args = (t, rd.rational(), rd.rational(nonzero=False))
        assert nonrime_entries(*args) == nonrime_entries_by_conjugation(*args)
        checked += 1
    with pytest.raises(InvalidInputError):
        nonrime_entries(Operator1([[1, 2], [2, 4]]), 1, 1)


@pytest.mark.parametrize("row,col", [(0, 1), (0, 2), (3, 1), (3, 2), (1, 3), (2, 0)])
def test_nonrime_entries_refuse_a_perturbed_jordanian(monkeypatch, row, col):
    # the closed form is checked against the conjugation of the R^J that block_matrix gives
    t = Operator1([[F(2), F(1, 3)], [F(-1, 2), F(5)]])
    build = blocks.block_matrix

    def perturbed(kind, *params):
        r = build(kind, *params)
        return r + Operator2._entries(2, {row: {col: F(1, 7)}}) if kind == JORDANIAN else r

    monkeypatch.setattr(blocks, "block_matrix", perturbed)
    for fn in (nonrime_entries, nonrime_entries_by_conjugation):
        with pytest.raises(InvalidInputError):
            fn(t, F(3, 2), F(-2))


def test_jordanian_riming():
    assert classify(block_matrix(JORDANIAN, 0, 3)) == RimeClass.RIME_NON_STRICT
    assert classify(block_matrix(JORDANIAN, 2, 3)) == RimeClass.NOT_RIME


def test_skinv_implications_across_catalog():
    for kind, ps in MEMBERS:
        r = block_matrix(kind, *ps)
        if classify(r) != RimeClass.NOT_RIME and is_skew_invertible(r):
            assert skinv_implications(r), (kind, ps)


def test_catalog_listing_stable():
    listing = catalog_listing()
    assert [e["kind"] for e in listing] == sorted(BLOCK_KINDS)
    assert all(e["dim"] == 2 for e in listing)
