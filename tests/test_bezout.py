from fractions import Fraction as F

import pytest

from yibre import bezout, tensor
from yibre.bezout import (B, B0, BEZOUT_KINDS, BTILDE, RS, b0_action, b_action,
                          basis_flip, bez9_residual, bez23_residual,
                          bezout_identity_suite, bezout_operator,
                          closed_form_operator, coassociativity_residuals,
                          coproduct, derivation_residual, gl2_isomorphism_check,
                          hecke_overlap_residuals, linear_quantization_residuals,
                          m_recursion_check, nhacybe_shift_residual,
                          quadratic_data, rb_closed_form, rb_weight_operator,
                          rb_weight_residual, rb_weight_residuals, RotaBaxterMap,
                          rota_baxter, rs_action,
                          shift_generator_commutator, shifted_solution_residual,
                          sr_decomposition, star_associativity_residuals, star_product,
                          star_tables)
from yibre.classical import b_skew_r, rcg_r, rime_nonskew_r
from yibre.kernel import InvalidInputError, QuadExt, RationalDraw
from yibre.rational import Q
from yibre.suites import _is_zero, run_suite
from yibre.tensor import (Operator1, Operator2, Operator3, kron11, nhacybe_residual,
                          permutation_P, place, reshuffled_matrix)

from reference import (add_entry, bumped, m_recursion_dicts, map_from_function, partial_trace,
                       quadratic_data_two_rows, rb_closed_form_per_cell, rb_unit_weight_residuals,
                       star_associativity_per_triple, star_associators, star_tilde_product,
                       coassociativity_residual_per_unit)


def rand_mat(rd, n):
    return Operator1([[rd.rational(nonzero=False) for _ in range(n)] for _ in range(n)])


def test_actions_on_monomials():
    assert b0_action(1, 0) == {(0, 0): 1}
    assert b0_action(0, 1) == {(0, 0): -1}
    assert b0_action(2, 2) == {}
    assert b0_action(3, 1) == {(1, 2): 1, (2, 1): 1}
    assert b_action(1, 0) == {(1, 0): 1}
    assert b_action(0, 2) == {(1, 1): -1, (2, 0): -1}
    assert rs_action(2, 1) == {(2, 1): 1}
    assert rs_action(1, 2) == {(2, 1): -1}


@pytest.mark.parametrize("kind", [B0, B, RS])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_closed_forms_match_actions(kind, n):
    assert bezout_operator(kind, n) == closed_form_operator(kind, n)


def test_n2_unit_expressions():
    u = Operator1.unit
    assert bezout_operator(B0, 2) == kron11(u(2, 2, 1), u(2, 1, 1)) \
        - kron11(u(2, 1, 1), u(2, 2, 1))
    assert bezout_operator(B, 2) == kron11(u(2, 2, 2), u(2, 1, 1)) \
        - kron11(u(2, 1, 2), u(2, 2, 1))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_basis_bridge_to_classical(n):
    # the polynomial picture and the wedge picture differ by transpose + reversal;
    # for b the bridge lands on P r_CG = -r_CG
    assert basis_flip(bezout_operator(B0, n)) == b_skew_r(n)
    assert basis_flip(bezout_operator(B, n)) == (permutation_P(n) @ rcg_r(n))


@pytest.mark.parametrize("n", [2, 4, 6])
def test_identity_suite(n):
    suite = bezout_identity_suite(*(bezout_operator(kind, n) for kind in (B0, B, RS)))
    assert set(suite) == {"b0-square", "b0-right-p", "b0-left-p", "b0-sum",
                          "b-idempotent", "b-right-p", "b-sum",
                          "rs-idempotent", "rs-right-p", "rs-sum"}
    assert all(v.is_zero() for v in suite.values())


@pytest.mark.parametrize("n", [2, 3, 4])
def test_nhacybe(n):
    assert nhacybe_residual(bezout_operator(B0, n), 0).is_zero()
    assert nhacybe_residual(bezout_operator(B, n), 1).is_zero()
    assert nhacybe_residual(bezout_operator(RS, n), 1).is_zero()
    # primed form follows when r + r21 = alpha P + beta I
    assert nhacybe_residual(bezout_operator(B, n), 1, primed=True).is_zero()
    assert nhacybe_residual(bezout_operator(RS, n), 1, primed=True).is_zero()
    assert nhacybe_residual(bezout_operator(B0, n), 0, primed=True).is_zero()


def test_nhacybe_wrong_constant_fails():
    assert not nhacybe_residual(bezout_operator(B, 3), 0).is_zero()


@pytest.mark.parametrize("n", [2, 3])
def test_btilde_relations(n):
    bt = bezout_operator(BTILDE, n)
    assert bt == bezout_operator(B, n) - Operator2.identity(n).scale(F(1, 2))
    r12, r13, r23 = place(bt, (1, 2), 3), place(bt, (1, 3), 3), place(bt, (2, 3), 3)
    assert (r12 @ r13 + r13 @ r23 - r23 @ r12) == Operator3.identity(n).scale(F(1, 4))
    assert (bt + bt.reversed_legs()) == permutation_P(n).scale(-1)
    assert (bt @ bt) == Operator2.identity(n).scale(F(1, 4))


def test_shift_law():
    rd = RationalDraw(3)
    for n in (2, 3):
        for kind, c in ((B, 1), (B0, 0)):
            assert nhacybe_shift_residual(bezout_operator(kind, n), c,
                                          rd.rational(), rd.rational()).is_zero()


def test_bez9_and_bez23():
    for n in (2, 3):
        for kind in (B, RS):
            f1, f2 = bez9_residual(bezout_operator(kind, n), 1)
            assert f1.is_zero() and f2.is_zero()
        assert bez23_residual(bezout_operator(B, n), 1).is_zero()


@pytest.mark.parametrize("n", [2, 3])
def test_three_leg_identities_are_their_chained_forms(n):
    """Each Bezout three-leg residual is one signed sum over placed factors; on an r that
    satisfies none of the identities it equals the identity chained with @, + and -."""
    rd = RationalDraw(60 + n)
    dense = Operator2.from_dense(n, [[rd.rational() for _ in range(n * n)]
                                     for _ in range(n * n)])
    p, one2, one3 = permutation_P(n), Operator2.identity(n), Operator3.identity(n)
    # r + r_21 = 3 P - (2/3) 1, so the shift law applies with alpha = 3, beta = -2/3
    r = dense - dense.reversed_legs() + p.scale(F(3, 2)) + one2.scale(F(-1, 3))
    alpha, beta = F(3), F(-2, 3)
    assert sr_decomposition(r) == (alpha, beta)
    c, a, b, w, v = F(2, 3), F(2, 7), F(-3, 5), F(2, 5), F(-1, 7)

    def triple(x):
        return tuple(place(x, legs, 3) for legs in ((1, 2), (1, 3), (2, 3)))

    r12, r13, r23 = triple(r)
    p12, p13, p23 = triple(p)
    s = r + r.reversed_legs()
    s12, s23 = place(s, (1, 2), 3), place(s, (2, 3), 3)
    rt12, rt13, rt23 = triple(r + one2.scale(a) + p.scale(b))
    chained = {
        "bez9": (r13 @ s23 - s23 @ r12 - (r13 - r12).scale(c),
                 s12 @ r13 - r23 @ s12 - (r13 - r23).scale(c)),
        "bez23": (r13 @ r23 - r23 @ r13) - (r12 - one3.scale(c)) @ r13 @ p23,
        "hecke": {"mixed-1": r13 @ r23 - (r23 @ r12 - r12 @ r13 + r13.scale(w)),
                  "mixed-2": r13 @ r12 - (r12 @ r23 - r23 @ r13 + r13.scale(w)),
                  "braid-12-23": r23 @ r12 @ r23 - r12 @ r23 @ r12,
                  "square-12": r12 @ r12 - r12.scale(w) - one3.scale(v)},
        "shift": (rt12 @ rt13 + rt13 @ rt23 - rt23 @ rt12)
                 - (rt13.scale(c + 2 * a) - one3.scale(a * (c + a)) + p13.scale(b * (beta - c))
                    + (p23 @ p12).scale(b * (alpha + b))),
    }
    got = {"bez9": bez9_residual(r, c), "bez23": bez23_residual(r, c),
           "hecke": hecke_overlap_residuals(r, w, v),
           "shift": nhacybe_shift_residual(r, c, a, b)}
    assert got == chained
    assert not any(x.is_zero() for x in (*got["bez9"], got["bez23"], *got["hecke"].values(),
                                         got["shift"]))


def test_quadratic_data_and_sum_rule():
    for kind, sr, quad in ((B0, (0, 0), (0, 0)), (B, (-1, 1), (1, 0)),
                           (RS, (-1, 1), (1, 0))):
        op = bezout_operator(kind, 3)
        assert sr_decomposition(op) == sr
        assert quadratic_data(op) == quad
        assert quad[0] == sr[1]          # u = beta
    assert sr_decomposition(permutation_P(3)) == (2, 0)
    # one echelon of the (r, I, -r^2) rows gives Cramer's rule on two searched entries
    for n in range(2, 6):
        ident = Operator2.identity(n)
        ops = [bezout_operator(kind, n) for kind in BEZOUT_KINDS]
        for op in ops:
            assert quadratic_data(op) == quadratic_data_two_rows(op) is not None
        # r = 0 and r = k I leave (u, v) undetermined; a bumped entry breaks r^2 = u r + v I
        for op in (Operator2.zero(n), ident, ident.scale(3), bumped(ops[1], 1, 2, 1, 1, 1)):
            assert quadratic_data(op) is quadratic_data_two_rows(op) is None
        # (b0 + I)^2 = 2 (b0 + I) - I, since b0^2 = 0
        b0_shift = ops[0] + ident
        assert quadratic_data(b0_shift) == quadratic_data_two_rows(b0_shift) == (2, -1)
        assert all(type(x) is Q for x in quadratic_data(b0_shift))


def test_hecke_overlap_relations():
    for n in (2, 3):
        for kind in (B, RS):
            res = hecke_overlap_residuals(bezout_operator(kind, n), 1, 0)
            assert all(v.is_zero() for v in res.values())


@pytest.mark.parametrize("kind,lam,n", [(B, F(3), 3), (RS, F(-2), 4),
                                        (B0, F(7, 5), 3), (B, F(0), 2)])
def test_linear_quantization(kind, lam, n):
    res = linear_quantization_residuals(bezout_operator(kind, n), lam)
    assert res["numbered"].is_zero() and res["braid"].is_zero()


def test_shifted_solutions():
    for kind, base in (("b0shift", B0), ("bshift", B)):
        assert shifted_solution_residual(kind, bezout_operator(base, 3), 0).is_zero()
        assert shifted_solution_residual(kind, bezout_operator(base, 3), 1).is_zero()
        assert shifted_solution_residual(kind, bezout_operator(base, 3), F(-2, 5)).is_zero()
        assert shift_generator_commutator(kind, bezout_operator(base, 4)).is_zero()
    with pytest.raises(InvalidInputError, match="shift kind"):
        shift_generator_commutator("bogus", bezout_operator(B, 3))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_m_recursion(n):
    rep = m_recursion_check(bezout_operator(B0, n))
    assert set(rep) == {"x-recursion", "y-recursion", "seed"}
    assert all(isinstance(op, Operator2) and op.dim == n for op in rep.values())
    assert _is_zero(rep) == (True, None)


def test_m_recursion_fault_names_its_identity():
    # M(xy) one too large at the monomial 1 breaks M(x y) = y + y M(y): the residual's row
    # 1,1 (the monomial 1) and column 1,2 (f = y), both 1-based
    op = bumped(bezout_operator(B0, 3), 0, 1 * 3 + 1, 1)
    ok, witness = _is_zero(m_recursion_check(op))
    assert not ok and witness == {"index": "x-recursion:1,1|1,2", "value": "1"}
    # the seed alone fails on a nonzero M(1)
    rep = m_recursion_check(bumped(bezout_operator(B0, 3), 2, 0, F(-2, 3)))
    assert rep["seed"] == Operator2._entries(3, {2: {0: F(-2, 3)}})


@pytest.mark.parametrize("n", [2, 3, 4])
def test_m_recursion_verdict_matches_the_dict_form(n):
    # the recursions fix column (a, b) from (a - 1, b) and (0, b) from (0, b - 1), so once
    # they hold the rebuild from M(1) = 0 matches iff the seed holds: the operator
    # residuals and the dict form with its rebuild pass or fail together
    def verdicts(op):
        return _is_zero(m_recursion_check(op))[0], _is_zero(m_recursion_dicts(op))[0]

    for kind in BEZOUT_KINDS:
        want = kind == B0
        assert verdicts(bezout_operator(kind, n)) == (want, want), kind
    b0 = bezout_operator(B0, n)
    for r in range(n * n):
        for c in range(n * n):
            for v in (1, -2):
                got, want = verdicts(bumped(b0, r, c, v))
                assert got == want, (r, c, v)


def test_quadratic_data_fault_names_its_coefficient(monkeypatch):
    # the check returns coefficient differences, so a bumped u fails at b-quadratic:0
    quad = bezout.quadratic_data
    monkeypatch.setattr(bezout, "quadratic_data", lambda op: (quad(op)[0] + 1, quad(op)[1]))
    [got] = [c for c in run_suite("bezout", 2, 0, 1).checks if c.name == "quadratic-data"]
    assert got.status == "fail"
    assert got.residual_witness == {"index": "b-quadratic:0:-", "value": "1"}


def test_coproducts_and_coassociativity():
    for n in (2, 3):
        r0 = bezout_operator(B0, n)
        rb = bezout_operator(B, n)
        assert coproduct(Operator1.identity(n), r0, 0, "plain").is_zero()
        units = [Operator1.unit(n, i, j) for i in range(1, n + 1)
                 for j in range(1, n + 1)]
        for r, c, variant in ((r0, 0, "plain"), (rb, 1, "delta"), (rb, 1, "delta-tilde")):
            got = coassociativity_residuals(r, c, variant, units)
            assert got.zero
            got = got.form()
            assert len(got) == len(units) and all(x.is_zero() for x in got)


def test_coassociativity_needs_right_constant():
    rb = bezout_operator(B, 2)
    u = Operator1.unit(2, 2, 1)
    got = coassociativity_residuals(rb, 0, "delta", [u])
    assert not got.zero and not got.form()[0].is_zero()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_coassociativity_residuals_match_per_unit(n):
    """u1 N' - N' u3 on one N' = nhacybe_residual(r, c, primed=True) gives each unit the
    residual of its own coproduct, on the Bezout operators, a bumped one and a dense r."""
    ops = [bezout_operator(B0, n), bezout_operator(B, n), bezout_operator(RS, n)]
    ops.append(ops[1] + (kron11(Operator1.unit(n, 1, 2), Operator1.unit(n, 2, 1)) if n > 1
                         else Operator2.identity(1)))
    rd = RationalDraw(70 + n)
    dense = Operator2._entries(n, {a: {b: rd.rational() for b in range(n * n)}
                                   for a in range(n * n)})
    assert not nhacybe_residual(dense, F(2, 3), primed=True).is_zero()
    units = sweep_units(n)
    nonzero = 0
    for r in (*ops, dense):
        for c in (0, 1, F(2, 3)):
            for variant in ("plain", "delta", "delta-tilde"):
                deferred = coassociativity_residuals(r, c, variant, units)
                got = deferred.form()
                assert got == [coassociativity_residual_per_unit(r, c, variant, u)
                               for u in units]
                formed_zero = all(x.is_zero() for x in got)
                # N' = 0 proves every residual zero; N' != 0 need not, as at n = 1
                assert formed_zero or not deferred.zero
                nonzero += not formed_zero
    # at n = 1 every operator is a scalar, so u1 N' = N' u3
    assert bool(nonzero) == (n > 1)


def test_coassociativity_refuses_an_unknown_variant():
    r = bezout_operator(B, 2)
    with pytest.raises(InvalidInputError):
        coassociativity_residuals(r, 1, "delta-hat", sweep_units(2))
    with pytest.raises(InvalidInputError):
        coassociativity_residuals(r, 1, "delta-hat", [])


def test_derivation_laws():
    rd = RationalDraw(9)
    for n in (2, 3):
        r0, rb = bezout_operator(B0, n), bezout_operator(B, n)
        for _ in range(3):
            u, v = rand_mat(rd, n), rand_mat(rd, n)
            assert derivation_residual(u, v, r0, 0, "plain").is_zero()
            assert derivation_residual(u, v, rb, 1, "delta").is_zero()
            assert derivation_residual(u, v, rb, 1, "delta-tilde").is_zero()


def test_rb_tables_frozen():
    a = Operator1([[F(5), F(7)], [F(11), F(13)]])
    assert rota_baxter(bezout_operator(B0, 2)).apply(a) == Operator1([[-11, 5], [0, 0]])
    assert rota_baxter(bezout_operator(B, 2)).apply(a) == Operator1([[0, 0], [-11, 5]])


@pytest.mark.parametrize("kind", [B0, B, RS])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_rb_closed_forms(kind, n):
    assert rb_closed_form(kind, n) == rota_baxter(bezout_operator(kind, n))


@pytest.mark.parametrize("phi", [[1, 2], [1, 2, 4], [2, 5, -1, 3]])
def test_rb_rime_closed_form(phi):
    assert rb_closed_form("rime-phi", len(phi), phi) \
        == rota_baxter(rime_nonskew_r(phi))


def test_rb_rs_diagonal_action():
    img = rb_closed_form(RS, 3).apply(Operator1.identity(3))
    assert img == Operator1.diag([0, 1, 2])


def rand_op2(rd, n, entries=12):
    """A seeded Operator2 with random entries at random positions, no Bezout structure."""
    out = {}
    for _ in range(entries):
        i, j, k, l = (rd.int_in(1, n) for _ in range(4))
        add_entry(out, (i - 1) * n + j - 1, (k - 1) * n + l - 1, rd.rational())
    return Operator2._entries(n, out)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_rota_baxter_matches_partial_trace(n):
    """Both sides against Tr_2(r_12 A_2) and Tr_1(r_12 A_1) on a generic r."""
    rd = RationalDraw(40 + n)
    for _ in range(3):
        r = rand_op2(rd, n)
        left, right = rota_baxter(r), rota_baxter(r, "right")
        for _ in range(3):
            a = rand_mat(rd, n)
            assert left.apply(a) == partial_trace(r @ place(a, (2,), 2), 2)
            assert right.apply(a) == partial_trace(r @ place(a, (1,), 2), 1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_left_map_is_the_reshuffled_matrix(n):
    """The left map's matrix is reshuffled_matrix(r); the right map of r is the left map of r_21."""
    rd = RationalDraw(70 + n)
    for _ in range(3):
        r = rand_op2(rd, n)
        assert rota_baxter(r).matrix() == reshuffled_matrix(r)
        assert rota_baxter(r, "right") == rota_baxter(r.reversed_legs())
    # negative control: r + I has another reshuffled matrix
    assert rota_baxter(r + Operator2.identity(n)).matrix() != reshuffled_matrix(r)
    with pytest.raises(InvalidInputError):
        rota_baxter(r, "middle")


def test_rota_baxter_equality_is_exact():
    faulty = bumped(bezout_operator(B, 3), 2, 1, 3, 3, 1)
    closed = rb_closed_form(B, 3)
    assert rota_baxter(faulty) != closed
    assert not (rota_baxter(faulty).matrix() - closed.matrix()).is_zero()
    assert rota_baxter(bezout_operator(B, 3)) == closed
    # the dense partial trace returns explicit zeros; the table must drop them
    rd = RationalDraw(12)
    for n in (2, 3):
        r = rand_op2(rd, n)
        dense = map_from_function(n, lambda a: partial_trace(r @ place(a, (2,), 2), 2))
        assert dense == rota_baxter(r)
        assert all(row and all(row.values()) for row in dense.images.data.values())


def test_rb_matrix_layout():
    """Row = output cell, column = input cell, both row-major over the (row, column) cells."""
    rb = rb_closed_form(RS, 3)
    grid = rb.matrix()
    for d in range(3):
        for k in range(3):
            unit = Operator1._entries(3, {d: {k: F(1)}})
            img = rb.apply(unit)
            assert [grid._get(i * 3 + j, d * 3 + k) for i in range(3) for j in range(3)] \
                == [img._get(i, j) for i in range(3) for j in range(3)]


def test_rb_weights():
    rd = RationalDraw(5)
    for kind, w in ((B0, 0), (B, -1), (RS, -1)):
        for n in (2, 3):
            rb = rota_baxter(bezout_operator(kind, n))
            for _ in range(4):
                assert rb_weight_residual(rb, w, rand_mat(rd, n), rand_mat(rd, n)).is_zero()
    for phi in ([1, 2], [1, 2, 4]):
        rbp = rota_baxter(rime_nonskew_r(phi))
        for _ in range(4):
            n = len(phi)
            assert rb_weight_residual(rbp, 1, rand_mat(rd, n), rand_mat(rd, n)).is_zero()


RB_PHI = {2: [1, 2], 3: [1, 2, 4], 4: [2, 5, -1, 3], 5: [2, 5, -1, 3, 7]}


def sweep_units(n):
    """The matrix units in the order the unit sweeps use: i outer, j inner."""
    return [Operator1.unit(n, i, j) for i in range(1, n + 1) for j in range(1, n + 1)]


def rb_operators(n):
    """(r, weight) for the B0, B and RS Bezout operators and the non-skew rime r."""
    bezout_ops = [(bezout_operator(kind, n), w) for kind, w in ((B0, 0), (B, -1), (RS, -1))]
    return bezout_ops + [(rime_nonskew_r(RB_PHI[n]), 1)]


def rb_maps(n):
    """(map, weight) for the B0, B and RS Bezout maps and the non-skew rime map."""
    return [(rota_baxter(r), w) for r, w in rb_operators(n)]


def bump_one_column(rb):
    """The same map with one stored coefficient of ``images`` raised by 1."""
    images = rb.images
    cell = sorted(images.data)[len(images.data) // 2]
    return RotaBaxterMap(rb.n, bumped(images, cell, min(images.data[cell]), F(1)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_unit_weight_residuals_match_per_pair(n):
    units = sweep_units(n)
    for rb, w in rb_maps(n):
        for m in (rb, bump_one_column(rb)):
            swept = rb_unit_weight_residuals(m, w)
            per_pair = [rb_weight_residual(m, w, x, y) for x in units for y in units]
            assert len(swept) == n ** 4 and swept == per_pair
        assert all(res.is_zero() for res in rb_unit_weight_residuals(rb, w))
        # the bumped map is no longer of weight w, and both forms see it at the same pairs
        assert not all(res.is_zero() for res in rb_unit_weight_residuals(bump_one_column(rb), w))


def weight_entries_by_pair(x, n):
    """X(r) read as the unit sweep's list: cell (a, d) of pair (p, q), (s, t) is
    X(r) at row (a, q, t), column (d, p, s), over ``_sweep_units`` order."""
    cells = [cell for cell, _ in bezout._sweep_units(n)]
    flat = lambda a, b, c: (a * n + b) * n + c
    return [Operator1([[x._get(flat(a, q, t), flat(d, p, s)) for d in range(n)]
                       for a in range(n)])
            for p, q in cells for s, t in cells]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_weight_operator_matches_the_unit_sweep(n):
    rd = RationalDraw(40 + n)
    random_r = rand_op2(rd, n)
    for r, w in [*rb_operators(n), (random_r, -1)]:
        x = rb_weight_operator(r, w)
        swept = rb_unit_weight_residuals(rota_baxter(r), w)
        assert weight_entries_by_pair(x, n) == swept
        assert x.is_zero() == (r is not random_r)
    # an r one entry off a weight-(-1) map: both forms see the same nonzero entries
    r = bumped(bezout_operator(B, n), 2, 1, 1, 2, 1)
    x = rb_weight_operator(r, -1)
    swept = rb_unit_weight_residuals(rota_baxter(r), -1)
    assert not x.is_zero()
    assert weight_entries_by_pair(x, n) == swept
    # the sweep reads every entry of X(r) once
    assert sum(len(row) for row in x.data.values()) == sum(
        len(row) for m in swept for row in m.data.values())


def random_pairs(n, seed, count=4):
    rd = RationalDraw(seed)
    return [(rand_mat(rd, n), rand_mat(rd, n)) for _ in range(count)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_weight_decision_forms_every_pair_when_x_is_nonzero(n):
    """An r one entry off a weight-(-1) map: X(r) and the per-pair residuals as formed."""
    pairs = random_pairs(n, 80 + n)
    r = bumped(bezout_operator(B, n), 2, 1, 1, 2, 1)
    rb = rota_baxter(r)
    x, got = rb_weight_residuals(r, rb, -1, pairs)
    assert x == rb_weight_operator(r, -1) and not x.is_zero() and not got.zero
    got = got.form()
    assert got == [rb_weight_residual(rb, -1, a, b) for a, b in pairs]
    assert not all(res.is_zero() for res in got)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_weight_pairs_vanish_where_x_does(n):
    """Where X(r) = 0, the per-pair residuals the decision leaves unformed are zero."""
    pairs = random_pairs(n, 90 + n)
    for r, w in rb_operators(n):
        rb = rota_baxter(r)
        x, got = rb_weight_residuals(r, rb, w, pairs)
        assert x.is_zero() and got.zero
        assert got.form() == [Operator1.zero(n)] * len(pairs)
        assert all(rb_weight_residual(rb, w, a, b).is_zero() for a, b in pairs)


@pytest.mark.parametrize("n", range(1, 7))
def test_closed_forms_match_their_per_cell_tables(n):
    phi = RationalDraw(60 + n).vector(n, distinct=True)
    for kind in (B0, B, RS, "rime-phi"):
        assert rb_closed_form(kind, n, phi) == rb_closed_form_per_cell(kind, n, phi), kind
    # a zero phi_j zeroes a coefficient, which the table stores as no entry
    if n >= 2:
        phi = [0, *range(1, n)]
        fast = rb_closed_form("rime-phi", n, phi)
        assert fast == rb_closed_form_per_cell("rime-phi", n, phi)
        assert all(row and all(row.values()) for row in fast.images.data.values())


def test_unit_image_is_the_applied_unit():
    maps = [rb for n in (2, 3) for rb, _ in rb_maps(n)]
    # a map over Q(i) has no integer form, so its images are read from the scalars
    i = QuadExt(0, 1, -1)
    maps.append(RotaBaxterMap(2, Operator1([[0, 0, 0, 0], [i, 0, F(1, 3), 0],
                                            [0, 0, 0, 0], [0, i * 2, 0, 0]])))
    assert maps[-1].images._ints()[0] is None
    for rb in maps:
        n = rb.n
        for d in range(n):
            for k in range(n):
                unit = Operator1._entries(n, {d: {k: F(1)}})
                assert rb.unit_image(d, k) == rb.apply(unit)
    # RS sends every strictly upper-triangular unit to zero, so its table stores no such row
    rs = rota_baxter(bezout_operator(RS, 3))
    assert 0 * 3 + 1 not in rs.images.data and rs.unit_image(0, 1).is_zero()
    assert 1 * 2 + 0 not in maps[-1].images.data and maps[-1].unit_image(1, 0).is_zero()


def test_skew_rb_weight_is_zero_not_minus_one():
    """The skew operator has r + r21 = 0, so its trace operator has weight 0."""
    rd = RationalDraw(6)
    rb = rota_baxter(bezout_operator(B0, 3))
    failures = 0
    for _ in range(5):
        a, b = rand_mat(rd, 3), rand_mat(rd, 3)
        assert rb_weight_residual(rb, 0, a, b).is_zero()
        if not rb_weight_residual(rb, -1, a, b).is_zero():
            failures += 1
    assert failures > 0


def test_rb_sum_rule():
    rd = RationalDraw(8)
    for kind, (alpha, beta) in ((B0, (0, 0)), (B, (-1, 1)), (RS, (-1, 1))):
        for n in (2, 3):
            op = bezout_operator(kind, n)
            a = rand_mat(rd, n)
            lhs = rota_baxter(op).apply(a) + rota_baxter(op, "right").apply(a)
            assert lhs == a.scale(alpha) + Operator1.identity(n).scale(F(beta) * a.trace())


def test_star_tables_frozen():
    rb0 = rota_baxter(bezout_operator(B0, 2))
    rb = rota_baxter(bezout_operator(B, 2))
    ar = [[F(2), F(3)], [F(5), F(7)]]
    tr = [[F(1), F(-2)], [F(4), F(6)]]
    a, t = Operator1(ar), Operator1(tr)
    assert star_product(a, t, rb0, 0) == Operator1([
        [-ar[1][0] * tr[0][0], -ar[1][0] * tr[0][1] + ar[0][0] * (tr[0][0] + tr[1][1])],
        [-ar[1][0] * tr[1][0], ar[1][0] * tr[0][0]]])
    assert star_product(a, t, rb, -1) == Operator1([
        [ar[0][0] * tr[0][0], ar[0][0] * tr[0][1] + ar[0][1] * (tr[0][0] + tr[1][1])],
        [ar[0][0] * tr[1][0], ar[0][0] * tr[1][1] + ar[1][1] * (tr[0][0] + tr[1][1])]])


def test_star_associativity_exhaustive():
    for n in (2, 3):
        units = [Operator1.unit(n, i, j) for i in range(1, n + 1)
                 for j in range(1, n + 1)]
        for kind, w, c in ((B0, 0, 0), (B, -1, 1)):
            rb = rota_baxter(bezout_operator(kind, n))
            rbp = rota_baxter(bezout_operator(kind, n), "right")
            for x in units:
                for y in units:
                    assert star_tilde_product(x, y, rb, rbp, c) \
                        == star_product(x, y, rb, w)
                    for z in units:
                        assert star_product(star_product(x, y, rb, w), z, rb, w) \
                            == star_product(x, star_product(y, z, rb, w), rb, w)


@pytest.mark.parametrize("n", [2, 3])
def test_star_associators_match_star_product_chain(n):
    units = sweep_units(n)
    for kind, w in ((B0, 0), (B, -1)):
        rb = rota_baxter(bezout_operator(kind, n))
        for m in (rb, bump_one_column(rb)):
            stars, associators = star_associators(m, w)
            assert stars == [star_product(x, y, m, w) for x in units for y in units]
            assert associators == [star_product(star_product(x, y, m, w), z, m, w)
                                   - star_product(x, star_product(y, z, m, w), m, w)
                                   for x in units for y in units for z in units]
        assert all(a.is_zero() for a in star_associators(rb, w)[1])
        assert not all(a.is_zero() for a in star_associators(bump_one_column(rb), w)[1])


def table_row(table, n, cell):
    """Row (d, k) of a table on V (x) V, read as the n x n operator of its cells."""
    d, k = cell
    rows = {}
    for col, v in table.data.get(d * n + k, {}).items():
        rows.setdefault(col // n, {})[col % n] = v
    return Operator1._entries(n, rows)


def star_cases(n):
    """(map, right map, weight, c): B0, B and RS at their weights and at a wrong weight,
    each also with one coefficient of the left map bumped."""
    for kind, w, c in ((B0, 0, 0), (B, -1, 1), (RS, -1, 1), (B0, 1, 0), (B, 0, 1)):
        rb = rota_baxter(bezout_operator(kind, n))
        rbp = rota_baxter(bezout_operator(kind, n), "right")
        for m in (rb, bump_one_column(rb)):
            yield m, rbp, w, c


@pytest.mark.parametrize("n", [2, 3])
def test_star_tables_match_the_per_triple_reference(n):
    """Row (cell of x_c) of the table at (a, b) is the associator at (a, b, c), and row
    (cell of y) of the star-tilde table at a is x_a *~ y - x_a * y, zero or not."""
    cells = [cell for cell, _ in bezout._sweep_units(n)]
    units = sweep_units(n)
    m = len(units)
    nonzero = 0
    for rb, rbp, w, c in star_cases(n):
        stars, associators, tilde = star_tables(rb, rbp, w, c)
        want_stars, want = star_associators(rb, w)
        assert stars == want_stars
        assert len(associators) == m * m and len(tilde) == m
        for ab, table in enumerate(associators):
            assert [table_row(table, n, cell) for cell in cells] == want[ab * m:(ab + 1) * m]
            nonzero += not table.is_zero()
        for a, table in enumerate(tilde):
            assert [table_row(table, n, cell) for cell in cells] == [
                star_tilde_product(units[a], y, rb, rbp, c) - want_stars[a * m + b]
                for b, y in enumerate(units)]
            nonzero += not table.is_zero()
    assert nonzero


@pytest.mark.parametrize("n", [2, 3])
def test_star_associativity_residuals_match_per_triple(n):
    """Zero tables stand for zero entries, and a nonzero table's entries are the
    reference's, element for element, with the same first witness."""
    failing = 0
    for rb, rbp, w, c in star_cases(n):
        got = star_associativity_residuals(rb, rbp, w, c)
        want = star_associativity_per_triple(rb, rbp, w, c)
        assert got.zero == _is_zero(want)[0]
        assert got.form() == want and _is_zero(got) == _is_zero(want)
        failing += not _is_zero(got)[0]
    # every case fails but the three unbumped maps at their own weights
    assert failing == 7
    for kind, w, c in ((B0, 0, 0), (B, -1, 1), (RS, -1, 1)):
        rb = rota_baxter(bezout_operator(kind, n))
        rbp = rota_baxter(bezout_operator(kind, n), "right")
        assert _is_zero(star_associativity_residuals(rb, rbp, w, c)) == (True, None)


def test_star_associativity_sums_per_map(monkeypatch):
    """At n = 3 each map takes one signed sum per left-star table, per pair table and per
    star-tilde table: 9 + 81 + 9, against 9 + 729 + 2 * 81 per triple."""
    calls = []
    for module in (bezout, tensor):
        original = module.signed_products
        monkeypatch.setattr(module, "signed_products",
                            lambda terms, original=original: calls.append(1) or original(terms))
    for kind, w, c in ((B0, 0, 0), (B, -1, 1)):
        rb = rota_baxter(bezout_operator(kind, 3))
        rbp = rota_baxter(bezout_operator(kind, 3), "right")
        calls.clear()
        assert _is_zero(star_associativity_residuals(rb, rbp, w, c)) == (True, None)
        assert len(calls) == 9 + 81 + 9


@pytest.mark.parametrize("kind", [B0, B])
def test_gl3_isomorphisms(kind):
    rep = gl2_isomorphism_check(kind, rota_baxter(bezout_operator(kind, 2)))
    assert set(rep) == {"homomorphism", "shape", "independent"}
    assert len(rep["homomorphism"]) == 16 and rep["independent"] is True
    assert _is_zero(rep) == (True, None)


def test_gl3_isomorphism_fault_names_its_identity(monkeypatch):
    # an image of e^2_2 that leaves the corner breaks the homomorphism and the shape
    images = dict(bezout.GL3_IMAGES_B0)
    images[(2, 2)] = Operator1([[0, 0, 0], [0, 0, 1], [0, 0, 1]])
    monkeypatch.setattr(bezout, "GL3_IMAGES_B0", images)
    rep = gl2_isomorphism_check(B0, rota_baxter(bezout_operator(B0, 2)))
    ok, witness = _is_zero(rep)
    assert not ok and witness["index"].startswith("homomorphism:")
    assert _is_zero(rep["shape"]) == (False, {"index": "2,2:3|3", "value": "1"})


@pytest.mark.parametrize("n", range(2, 7))
def test_bezout_matrices_match_their_per_entry_forms(n):
    from reference import bezout_matrix_per_entry
    for kind, action in ((B0, b0_action), (B, b_action), (RS, bezout.rs_action)):
        got, want = bezout.bezout_operator(kind, n), bezout_matrix_per_entry(action, n)
        assert got == want and got._ints() == want._ints()
        # x^0 y^0 has no image under any of the three; give it one
        bumped = lambda k, l: {(0, 0): 1} if (k, l) == (0, 0) else action(k, l)
        assert got != bezout_matrix_per_entry(bumped, n)
