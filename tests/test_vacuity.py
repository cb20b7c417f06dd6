"""Vacuity audit of the checks whose build is an operator, or a tuple led by one.

At n = 3, seed 0 and one draw, each such check's residual is run on its build with +1
added at each single entry of that operator, and on a random dense operator of the same
type and dim in its place.  A residual that raises ``ValueError`` (``InvalidInputError``,
``NotSkewInvertibleError``) refuses its input, which counts as detection.  Every random
replacement must fail or be refused, and so must every bump except those declared below:
a bump there lands on another object the check rightly accepts.
"""

import pytest

from yibre.kernel import RationalDraw
from yibre.suites import SUITE_BUILDERS, Params, _is_zero
from yibre.tensor import Operator1, Operator2, Operator3

N, SEED, DRAWS = 3, 0, 1

_YBE = "the bumped block solves the YBE too"
# check -> (why the bumps pass, the flat (row, col) positions whose bump passes)
BLIND = {
    "bezout:nhacybe-rs": ("RS with the bump solves the nhacYBE at c = 1 too", {(0, 0), (3, 1)}),
    "blocks:ybe:rbl2-2-1": (_YBE, {(3, 0)}),
    "blocks:ybe:r-ii-2-1": (_YBE, {(0, 3)}),
    "blocks:ybe:r-ii-2--1": (_YBE, {(0, 3)}),
    "blocks:ybe:perm-like-2-3-5": (_YBE, {(0, 0), (1, 2), (2, 1), (3, 3)}),
    "blocks:ybe:r-prime-7": (_YBE, {(0, 3), (3, 0)}),
    "blocks:ybe:r-double-prime-1-2-3": (_YBE, {(0, 3)}),
    "blocks:ybe:r-triple-prime": (_YBE, {(0, 3)}),
    "blocks:jordanian-h1-zero-is-rime": (
        "the check reads the rime class only, and a bump at any rime position {k, l} in "
        "{i, j} but gamma_12 (row 1,2, column 1,1) leaves the block non-strict rime",
        {(0, 0), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1), (2, 2), (2, 3), (3, 3)}),
    "cg:d-twist-commutes": (
        "a weight-conserving bump, at i + j = k + l, commutes with D(p) x D(p) too",
        {(r, c) for r in range(N * N) for c in range(N * N)
         if sum(divmod(r, N)) == sum(divmod(c, N))}),
}


def _verdict(check, obj) -> str:
    try:
        ok, _ = _is_zero(check.residual(obj))
    except ValueError:
        return "refused"
    return "pass" if ok else "fail"


@pytest.fixture(scope="module")
def audit() -> dict:
    """suite:check -> (led by a tuple, verdict on the build, the bumps that pass, verdict
    on a random dense operator), for every check whose build is an operator or a tuple led
    by one, in the order the suites run them."""
    out = {}
    dense_draw = RationalDraw(1)
    for suite, builder in sorted(SUITE_BUILDERS.items()):
        for check in builder(N, RationalDraw(SEED), DRAWS):
            own = {name: domain.draw(check.block.draw) for name, domain in check.spec.items()}
            obj = check.build(Params(check.block, own))
            led = type(obj) is tuple and bool(obj)
            op = obj[0] if led else obj
            if not isinstance(op, (Operator1, Operator2, Operator3)):
                continue
            put = (lambda x: (x, *obj[1:])) if led else (lambda x: x)
            # the build itself first, so that any later draw follows the suite's order
            base = _verdict(check, obj)
            size, kind = op.size, type(op)
            passing = {(r, c) for r in range(size) for c in range(size)
                       if _verdict(check, put(op + kind._of(op.dim, 1, {r: {c: 1}}))) == "pass"}
            dense = kind._entries(op.dim, {r: {c: dense_draw.rational() for c in range(size)}
                                           for r in range(size)})
            out[f"{suite}:{check.name}"] = (led, base, passing, _verdict(check, put(dense)))
    return out


def test_the_audit_reaches_every_operator_build(audit):
    assert len(audit) == 49
    assert sum(led for led, *_ in audit.values()) == 8
    assert {name for name, (_, base, *_) in audit.items() if base != "pass"} == set()


def test_a_random_dense_operator_fails_or_is_refused(audit):
    assert {name for name, (*_, dense) in audit.items() if dense == "pass"} == set()


def test_single_entry_bumps_fail_except_where_declared(audit):
    assert {name: passing for name, (_, _, passing, _) in audit.items() if passing} == {
        name: positions for name, (_, positions) in BLIND.items()}
