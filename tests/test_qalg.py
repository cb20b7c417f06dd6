from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yibre import cg, tensor
from yibre.kernel import RationalDraw
from yibre.poisson import jacobi_residual
from yibre.qalg import (CASE_I, CASE_II, NON_STRICT, NOT_CONFLUENT_STRICT,
                        OrderedPresentation, binomial_series,
                        classical_limit_bracket, classical_limit_bracket_dual,
                        classify_orderable, commutative_relation_rows,
                        gl11_relation_rows, gl11_window_test, normal_order,
                        ordered_form_left, overlap_residuals,
                        overlap_residuals_semantic, poincare_series)
from yibre.suites import run_suite

from reference import bumped, poincare_series_full_space, quantum_space_relations

nonzero_rationals = st.fractions(min_value=-8, max_value=8, max_denominator=5).filter(bool)


def test_normal_order_basics():
    p = OrderedPresentation.case_i(3, lambda j, k: F(5) if (j, k) == (1, 2) else F(2))
    assert normal_order((2, 1), p) == {(2, 1): 1}
    assert normal_order((1, 2), p) == {(2, 1): -1, (2, 2): 5}
    assert normal_order((3, 3, 1), p) == {(3, 3, 1): 1}


def test_normal_order_matches_ordered_form():
    p16 = OrderedPresentation.case_ii(3, 2)
    left = ordered_form_left(p16, 1, 2, 3)
    manual = {(3, 2, 1): left["xlkj"], (3, 3, 1): left["xllj"],
              (3, 2, 2): left["xlkk"], (3, 3, 2): left["xllk"],
              (3, 3, 3): left["xlll"]}
    assert normal_order((1, 2, 3), p16) == {k: v for k, v in manual.items() if v}


@given(st.lists(nonzero_rationals, min_size=4, max_size=8))
@settings(max_examples=30, deadline=None)
def test_normal_order_always_weakly_decreasing(coeffs):
    gs = {}
    it = iter(coeffs * 3)
    for j in range(1, 4):
        for k in range(j + 1, 4):
            gs[(j, k)] = next(it)
    pres = OrderedPresentation.case_i(3, lambda j, k: gs[(j, k)])
    for word in ((1, 2, 3), (1, 3, 2), (2, 1, 3), (1, 1, 2)):
        for w in normal_order(word, pres):
            assert all(w[i] >= w[i + 1] for i in range(len(w) - 1))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_confluent_families(n):
    rd = RationalDraw(n)
    gs = {(j, k): rd.rational() for j in range(1, n + 1) for k in range(j + 1, n + 1)}
    p1 = OrderedPresentation.case_i(n, lambda j, k: gs[(j, k)])
    assert not overlap_residuals(p1)
    assert not overlap_residuals_semantic(p1)
    p2 = OrderedPresentation.case_ii(n, rd.rational())
    assert not overlap_residuals(p2)
    assert not overlap_residuals_semantic(p2)


def test_overlap_mutation_detected():
    bad = OrderedPresentation.build(3, lambda j, k: F(2) if (j, k) != (1, 3) else F(3),
                                    lambda j, k: F(-1))
    closed = overlap_residuals(bad)
    assert closed and overlap_residuals_semantic(bad)
    # a non-constant f violates the x^l x^l x^j coefficient equation
    assert any("xllj" in d for d in closed.values())


def test_closed_and_semantic_overlaps_agree():
    rd = RationalDraw(321)
    for _ in range(10):
        fs = {(j, k): rd.rational() for j in range(1, 4) for k in range(j + 1, 4)}
        gs = {(j, k): rd.rational() for j in range(1, 4) for k in range(j + 1, 4)}
        pres = OrderedPresentation.build(3, lambda j, k: fs[(j, k)],
                                         lambda j, k: gs[(j, k)])
        assert bool(overlap_residuals(pres)) == bool(overlap_residuals_semantic(pres))


def test_classify():
    assert classify_orderable(
        OrderedPresentation.case_i(4, lambda j, k: F(j + k, 2))).label == CASE_I
    d = [F(1), F(2), F(3), F(5)]
    f = F(3)
    pres2 = OrderedPresentation.build(4, lambda j, k: f,
                                      lambda j, k: (1 - f) * d[k - 1] / d[j - 1])
    cl = classify_orderable(pres2)
    assert cl.label == CASE_II and cl.f == 3
    norm = pres2.rescaled([1 / x for x in cl.rescaling])
    assert norm.g == OrderedPresentation.case_ii(4, f).g
    bad = OrderedPresentation.build(3, lambda j, k: F(2) if (j, k) != (1, 3) else F(3),
                                    lambda j, k: F(-1))
    assert classify_orderable(bad).label == NOT_CONFLUENT_STRICT
    ns = OrderedPresentation.build(3, lambda j, k: F(0) if (j, k) == (1, 2) else F(1),
                                   lambda j, k: F(1))
    assert classify_orderable(ns).label == NON_STRICT


def test_twenty_strict_mutations():
    rd = RationalDraw(55)
    for _ in range(20):
        fs = {}
        gs = {}
        for j in range(1, 4):
            for k in range(j + 1, 4):
                fs[(j, k)] = rd.rational()
                gs[(j, k)] = rd.rational()
        pres = OrderedPresentation.build(3, lambda j, k: fs[(j, k)],
                                         lambda j, k: gs[(j, k)])
        confluent = not overlap_residuals(pres)
        label = classify_orderable(pres).label
        assert confluent == (label in (CASE_I, CASE_II))


def test_poincare_commutative():
    assert poincare_series(3, commutative_relation_rows(3), 3) == (1, 3, 6, 10)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_poincare_confluent_binomials(n):
    rd = RationalDraw(n * 7)
    gs = {(j, k): rd.rational() for j in range(1, n + 1) for k in range(j + 1, n + 1)}
    p1 = OrderedPresentation.case_i(n, lambda j, k: gs[(j, k)])
    assert poincare_series(n, p1.relation_rows(), 5) == binomial_series(n, 5)
    p2 = OrderedPresentation.case_ii(n, 2)
    assert poincare_series(n, p2.relation_rows(), 5) == binomial_series(n, 5)


def _poincare_inputs(n: int, rd: RationalDraw) -> list:
    """Relation rows of case-i and case-ii presentations and of random non-confluent ones."""
    gs = {(j, k): rd.rational() for j in range(1, n + 1) for k in range(j + 1, n + 1)}
    return [OrderedPresentation.case_i(n, lambda j, k: gs[(j, k)]).relation_rows(),
            OrderedPresentation.case_ii(n, rd.rational()).relation_rows(),
            *(OrderedPresentation.build(n, lambda j, k: rd.rational(),
                                        lambda j, k: rd.rational()).relation_rows()
              for _ in range(2)),
            commutative_relation_rows(n)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_poincare_matches_the_full_space_ideal(n):
    # the quotient by the previous degree's normal words against the whole ideal in n^m words
    rd = RationalDraw(90 + n)
    for rows in _poincare_inputs(n, rd):
        for deg in range(6):
            assert poincare_series(n, rows, deg) == poincare_series_full_space(n, rows, deg)


def test_poincare_matches_the_full_space_ideal_at_the_degree_cap():
    rows = _poincare_inputs(4, RationalDraw(7))[0]
    got = poincare_series(4, rows, 6)
    assert got == poincare_series_full_space(4, rows, 6) == binomial_series(4, 6)


def test_poincare_gl11_matches_the_full_space_ideal():
    # passing (1, 2, 2, ...) and failing omega values of the two-parameter block
    series = set()
    for q, om in ((F(2), F(1, 4)), (F(2), F(1)), (F(2), F(4)), (F(3), F(2, 5)), (F(-5, 2), F(-1))):
        rows = gl11_relation_rows(q, om)
        got = poincare_series(2, rows, 6)
        assert got == poincare_series_full_space(2, rows, 6)
        series.add(got == (1, 2, 2, 2, 2, 2, 2))
    assert series == {True, False}


def test_poincare_degree_cap():
    with pytest.raises(Exception):
        poincare_series(2, commutative_relation_rows(2), 7)


def test_gl11_window():
    q = F(2)
    for om in (F(1, 4), F(1), F(4)):
        rep = gl11_window_test(q, om, 4)
        assert rep["gl11_type"] and rep["series"] == (1, 2, 2, 2, 2)
    for om in (F(3), F(2), F(5, 7), F(-1), F(9, 2)):
        assert not gl11_window_test(q, om, 4)["gl11_type"]


def test_gl11_relations_from_matrix():
    """The hand-coded relation rows agree with the rows of (R - q) for the block."""
    from yibre.blocks import RBL4, block_matrix
    from yibre.tensor import row_space
    q = F(2)
    for om in (F(1, 4), F(1), F(4)):
        r = block_matrix(RBL4, q, om, 1)
        kernel_space = quantum_space_relations(r, q, "right")
        assert kernel_space == row_space(2, gl11_relation_rows(q, om))


def test_classical_limit_bracket():
    for n in (2, 3):
        br = classical_limit_bracket(n)
        assert br == classical_limit_bracket_dual(n)
        assert not jacobi_residual(br)
    assert classical_limit_bracket(2).pair(1, 2) == {(1, 2): 1, (2, 2): -1}


def test_case_ii_is_rstcl_quantum_space():
    from yibre.cg import standard_riming
    from yibre.tensor import conjugate2, row_space
    qi = F(1, 4)
    for m in (2, 3):
        rc, xt, conj, residual = standard_riming(m, qi)
        assert residual.is_zero()
        assert conj == conjugate2(rc, xt)
        right = quantum_space_relations(conj, 1, "right")
        rows = OrderedPresentation.case_ii(m, qi).relation_rows()
        perm = [m - 1 - i for i in range(m)]
        relabeled = []
        for row in rows:
            new = {}
            for idx, v in row.items():
                i, j = divmod(idx, m)
                new[perm[i] * m + perm[j]] = v
            relabeled.append(new)
        assert right == row_space(m, relabeled)


def test_case_ii_plane_fault_names_its_entry(monkeypatch):
    # the check returns the riming residual and a difference of row spaces, so a
    # bumped conjugated R^{12}_{12} fails in the plane, at the relation led by x^1 x^1
    # (the riming residual fails too, and "plane" sorts first).  The conjugated matrix
    # is the one ``cg.standard_riming`` forms, so the bump goes there
    conjugate = tensor.conjugate2
    monkeypatch.setattr(cg, "conjugate2", lambda r, t: bumped(conjugate(r, t), 1, 2, 1, 2, 1))
    [got] = [c for c in run_suite("qalg", 3, 0, 1).checks
             if c.name == "case-ii-is-rstcl-plane"]
    assert got.status == "fail"
    assert got.residual_witness == {"index": "plane:1,1|1,3", "value": "-1/3"}
