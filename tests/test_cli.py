import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import yibre
from yibre.cli import main
from yibre import bezout, rime
from yibre.kernel import DRAW_POOL_NONZERO, Deferred, QuadExt, RationalDraw
from yibre.poisson import QuadraticBracket
from yibre.rational import Q
from yibre.suites import (SUITE_BUILDERS, SUITE_NAMES, Block, Check, _all_zero, _first_failure,
                          _is_zero, _mutate, run_all, run_suite)
from yibre.tensor import Operator1, Operator2, Operator3



@pytest.fixture
def runner():
    return CliRunner()


def test_construct_strict_rime(runner):
    res = runner.invoke(main, ["construct", "strict-rime", "--phi", "1,2", "--beta", "1"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["dim"] == 2
    assert data["entries"]["1,2|2,2"] == "2"
    assert data["entries"]["2,1|1,1"] == "-1"
    assert "1,1|2,2" not in data["entries"]


def test_construct_cg(runner):
    res = runner.invoke(main, ["construct", "cg", "--n", "3", "--qsq-inv", "1/4",
                               "--p", "1"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["entries"]["1,2|1,2"] == "3/4"
    assert data["entries"]["2,1|1,2"] == "1/4"


def test_construct_block(runner):
    res = runner.invoke(main, ["construct", "block", "--kind", "rbl4", "--q", "3",
                               "--omega", "1", "--gamma", "1"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["entries"]["1,2|1,2"] == "-1/3"
    assert data["entries"]["2,1|2,2"] == "1"


def test_construct_classical_and_bezout(runner):
    res = runner.invoke(main, ["construct", "classical", "--kind", "b-skew", "--n", "2"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["entries"] == {"1,2|2,2": "1", "2,1|2,2": "-1"}
    res2 = runner.invoke(main, ["construct", "bezout", "--kind", "b0", "--n", "2"])
    assert json.loads(res2.output)["entries"] == {"1,1|2,1": "1", "1,1|1,2": "-1"}


def test_construct_pencil(runner):
    res = runner.invoke(main, ["construct", "pencil", "--psi", "0,1", "--rho", "0,0,3"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["kind"] == "quadratic-bracket"
    assert data["entries"]["1,2|1,1"] == "-3"
    # {x^1, x^2} = -3 (x^1)^2 + 6 x^1 x^2 - 3 (x^2)^2 at psi = (0, 1), rho = 3
    assert data == {"kind": "quadratic-bracket", "dim": 2,
                    "entries": {"1,2|1,1": "-3", "1,2|1,2": "6", "1,2|2,2": "-3"}}
    res = runner.invoke(main, ["construct", "pencil", "--psi", "0,1,3", "--rho", "1,2,3"])
    assert json.loads(res.output)["entries"] == {
        "1,2|1,1": "-6", "1,2|1,2": "8", "1,2|2,2": "-3",
        "1,3|1,1": "-6", "1,3|1,3": "4", "1,3|3,3": "-1",
        "2,3|2,2": "-9", "2,3|2,3": "10", "2,3|3,3": "-3"}


def test_construct_errors_are_usage_errors(runner):
    assert runner.invoke(main, ["construct", "strict-rime", "--phi", "1,1",
                                "--beta", "1"]).exit_code == 2
    assert runner.invoke(main, ["construct", "nonsense"]).exit_code == 2
    assert runner.invoke(main, ["construct", "strict-rime", "--phi", "1,x",
                                "--beta", "1"]).exit_code == 2
    assert runner.invoke(main, ["construct", "block", "--kind", "rbl4", "--q", "3",
                                "--omega", "7", "--gamma", "1"]).exit_code == 2
    # --n is a dimension: below 1 it is refused, and a constructor that needs it names it
    for n in ("-3", "0"):
        assert runner.invoke(main, ["construct", "cg", "--n", n,
                                    "--qsq-inv", "1/4"]).exit_code == 2
        assert runner.invoke(main, ["construct", "bezout", "--kind", "b0",
                                    "--n", n]).exit_code == 2
    for args in (["cg", "--qsq-inv", "1/4"], ["classical", "--kind", "b-cg"],
                 ["bezout", "--kind", "b0"]):
        res = runner.invoke(main, ["construct", *args])
        assert res.exit_code == 2 and "--n" in res.output
    # a missing option is named, never read as a rational or split as a vector
    for args, option in ((["strict-rime", "--beta", "1"], "--phi"),
                         (["strict-rime", "--phi", "1,2"], "--beta"),
                         (["unitary-rime"], "--mu"),
                         (["pencil", "--rho", "1,2,3"], "--psi"),
                         (["pencil", "--psi", "1,2,3"], "--rho"),
                         (["cg", "--n", "3"], "--qsq-inv"),
                         (["classical", "--kind", "bogus"], "--kind"),
                         (["classical", "--kind", "bogus", "--n", "3"], "--kind")):
        res = runner.invoke(main, ["construct", *args])
        assert res.exit_code == 2 and isinstance(res.exception, SystemExit), args
        assert option in res.output and "None" not in res.output, args


def test_n_that_conflicts_with_the_parameters_is_refused(runner):
    for args in (["strict-rime", "--phi", "1,2", "--beta", "1/2"],
                 ["unitary-rime", "--mu", "0,1,3"],
                 ["classical", "--kind", "rime-nonskew", "--phi", "1,2"],
                 ["pencil", "--psi", "0,1", "--rho", "1,2,3"],
                 ["block", "--kind", "rbl4", "--q", "3", "--omega", "9", "--gamma", "1"]):
        res = runner.invoke(main, ["construct", *args])
        assert res.exit_code == 0, (args, res.output)
        dim = json.loads(res.output)["dim"]
        assert runner.invoke(main, ["construct", *args, "--n", str(dim)]).exit_code == 0, args
        res = runner.invoke(main, ["construct", *args, "--n", "200"])
        assert res.exit_code == 2 and isinstance(res.exception, SystemExit), args
        assert "--n 200" in res.output and f"dimension {dim}" in res.output, args
        assert '"entries"' not in res.output, args


def test_conflicting_n_is_refused_before_anything_is_built(runner, monkeypatch):
    def not_built(*args, **kwargs):
        raise AssertionError("built before --n was checked")
    for target in ("yibre.rime.assemble_rime", "yibre.classical.build_classical",
                   "yibre.poisson.pencil_bracket"):
        monkeypatch.setattr(target, not_built)
    mu = ",".join(map(str, range(60)))
    for args in (["strict-rime", "--phi", mu, "--beta", "1/2"], ["unitary-rime", "--mu", mu],
                 ["classical", "--kind", "rime-skew-sl", "--mu", mu],
                 ["pencil", "--psi", mu, "--rho", "1,2,3"]):
        res = runner.invoke(main, ["construct", *args, "--n", "2"])
        assert res.exit_code == 2 and "dimension 60" in res.output, (args, res.output)


def test_construct_out_of_memory_is_a_usage_error(runner, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr("yibre.classical.build_classical", exhausted)
    res = runner.invoke(main, ["construct", "classical", "--kind", "r-cg", "--n", "200"])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert "not enough memory" in res.output and "--n 200" in res.output
    assert "Traceback" not in res.output


def test_repeated_parameters_are_refused_by_their_values(runner):
    # the message lists the values as rationals, with no Python repr in it
    for args, message in ((["strict-rime", "--phi", "1,1,3", "--beta", "1/2"],
                           "phi must be pairwise distinct: 1, 1, 3"),
                          (["unitary-rime", "--mu", "1/2,2/4"],
                           "mu must be pairwise distinct: 1/2, 1/2")):
        res = runner.invoke(main, ["construct", *args])
        assert res.exit_code == 2 and message in res.output, res.output
        assert "Fraction(" not in res.output and "Q(" not in res.output


def test_output_paths_are_checked_before_any_work(runner, tmp_path):
    missing = tmp_path / "no-such-dir" / "out.json"
    for args, option in ((["construct", "unitary-rime", "--mu", "0,1", "--out", str(missing)],
                          "--out"),
                         (["verify", "--suite", "rime", "--n", "2", "--draws", "1",
                           "--report", str(missing)], "--report"),
                         (["verify", "--suite", "rime", "--n", "2", "--draws", "1",
                           "--report", str(tmp_path)], "--report")):
        res = runner.invoke(main, args)
        assert res.exit_code == 2 and isinstance(res.exception, SystemExit), args
        assert option in res.output and "checks passed" not in res.output, args
    assert not missing.parent.exists()


def test_malformed_seed_from_the_environment_is_a_usage_error(runner, monkeypatch):
    monkeypatch.setenv("YIBRE_SEED", "abc")
    res = runner.invoke(main, ["verify", "--suite", "blocks", "--n", "2", "--draws", "1"])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert "YIBRE_SEED" in res.output and "checks passed" not in res.output
    # an explicit --seed is read before the environment
    res = runner.invoke(main, ["verify", "--suite", "blocks", "--n", "2", "--draws", "1",
                               "--seed", "3"])
    assert res.exit_code == 0


def test_construct_out_file(runner, tmp_path):
    out = tmp_path / "r.json"
    res = runner.invoke(main, ["construct", "unitary-rime", "--mu", "0,1",
                               "--out", str(out)])
    assert res.exit_code == 0
    assert json.loads(out.read_text())["entries"]["1,2|1,1"] == "1"


def test_verify_pass_and_report(runner, tmp_path):
    report = tmp_path / "rep.json"
    res = runner.invoke(main, ["verify", "--suite", "rime", "--n", "2", "--seed",
                               "42", "--draws", "2", "--report", str(report)])
    assert res.exit_code == 0
    payload = json.loads(report.read_text())
    assert payload["reports"][0]["suite"] == "rime"
    names = [c["name"] for c in payload["reports"][0]["checks"]]
    assert names == sorted(names)
    assert all(c["status"] == "pass" for c in payload["reports"][0]["checks"])
    assert all("anchor" in c for c in payload["reports"][0]["checks"])


def test_verify_mutate_flips_exactly_one(runner):
    res = runner.invoke(main, ["verify", "--suite", "cg", "--n", "3", "--seed", "11",
                               "--draws", "2", "--mutate", "one-entry"])
    assert res.exit_code == 1
    fail_lines = [l for l in res.output.splitlines() if l.startswith("FAIL")]
    assert len(fail_lines) == 1
    assert "witness=" in fail_lines[0]


@pytest.mark.parametrize("suite,seed", [("qalg", 0), ("all", 0), ("all", 2)])
def test_verify_mutate_that_flips_nothing_is_refused(runner, tmp_path, suite, seed):
    # qalg declares no check that fault injection may perturb, and seeds 0 and 2 draw it
    path = tmp_path / "report.json"
    res = runner.invoke(main, ["verify", "--suite", suite, "--n", "2", "--seed", str(seed),
                               "--draws", "1", "--mutate", "one-entry",
                               "--report", str(path)])
    assert res.exit_code == 2
    assert "suite qalg" in res.output and "flipped no check" in res.output
    assert "checks passed" not in res.output
    assert not path.exists()


def test_verify_env_seed(runner, monkeypatch, tmp_path):
    monkeypatch.setenv("YIBRE_SEED", "9")
    r1 = tmp_path / "a.json"
    res = runner.invoke(main, ["verify", "--suite", "kernel"] )
    assert res.exit_code == 2   # unknown suite -> usage error
    res = runner.invoke(main, ["verify", "--suite", "blocks", "--n", "2",
                               "--draws", "1", "--report", str(r1)])
    assert res.exit_code == 0
    assert json.loads(r1.read_text())["reports"][0]["seed"] == 9


@pytest.mark.parametrize("option,value", [
    ("--n", "-1"), ("--n", "1"), ("--n", "0"), ("--n", "127"), ("--n", "200"),
    ("--draws", "0"), ("--draws", "-3"),
])
def test_verify_refuses_out_of_domain_sizes(runner, option, value):
    res = runner.invoke(main, ["verify", "--suite", "rime", option, value])
    assert res.exit_code == 2
    assert "Traceback" not in res.output
    assert "checks passed" not in res.output


def test_construct_has_one_kind_option(runner):
    assert runner.invoke(main, ["construct", "classical", "--kind-name", "b-skew",
                                "--n", "2"]).exit_code == 2
    assert "--kind " in runner.invoke(main, ["construct", "--help"]).output


def test_report_determinism():
    r1 = run_suite("rime", 3, 42, 2).to_dict()
    r2 = run_suite("rime", 3, 42, 2).to_dict()
    r1.pop("wall_time_ms")
    r2.pop("wall_time_ms")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_run_all_covers_every_suite():
    reports = run_all(2, 3, 1)
    assert [r.suite for r in reports] == sorted(SUITE_BUILDERS)
    assert all(r.all_pass for r in reports)


def test_mutated_all_run_flips_exactly_one_check():
    reports = run_all(2, 3, 1, mutate="one-entry")
    failures = [(r.suite, c.name) for r in reports for c in r.checks
                if c.status == "fail"]
    assert len(failures) == 1


@pytest.mark.parametrize("make,bump", [
    (lambda: Operator1.unit(3, 1, 2), lambda: Operator1.unit(3, 1, 1)),
    (lambda: Operator2.identity(2), lambda: Operator2._entries(2, {0: {0: 1}})),
    (lambda: Operator3.zero(2), lambda: Operator3._entries(2, {0: {0: 1}})),
    (lambda: Operator1._entries(2, {0: {0: QuadExt(1, 2, -1)}, 1: {0: Q(1, 3)}}),
     lambda: Operator1.unit(2, 1, 1)),
    (lambda: QuadraticBracket(3, {(1, 2): {(1, 2): Q(2)}, (2, 3): {(3, 3): Q(-1)}}),
     lambda: QuadraticBracket(3, {(1, 2): {(1, 1): 1}})),
])
def test_mutate_returns_a_bumped_copy_and_leaves_the_shared_object(make, bump):
    # a check whose residual is its block's shared object hands that very object to _mutate
    block = Block(RationalDraw(1), shared=lambda params: make())
    check, other = block.declare(Check("bumped", "-", build=lambda params: params.shared),
                                 Check("after", "-", build=lambda params: params.shared))
    shared = check.fn()
    assert shared is block.get("shared")
    got = _mutate(shared)
    assert got is not shared and type(got) is type(shared)
    assert got - shared == bump() and got != shared
    # the object the block keeps, and so the next check's, is what it was
    assert block.get("shared") is shared and shared == make()
    assert other.fn() is shared


def test_raising_check_is_recorded_and_the_run_continues(runner, monkeypatch, tmp_path):
    clean = {(r.suite, c.name): c.status for r in run_all(2, 3, 1) for c in r.checks}
    builder = SUITE_BUILDERS["bezout"]

    def with_raising_check(n, draw, draws):
        raising = Check("injected-raise", "-", residual=lambda params: 1 / 0)
        return Block(draw).declare(raising) + builder(n, draw, draws)

    monkeypatch.setitem(SUITE_BUILDERS, "bezout", with_raising_check)
    path = tmp_path / "report.json"
    res = runner.invoke(main, ["verify", "--suite", "all", "--n", "2", "--seed", "3",
                               "--draws", "1", "--report", str(path)])
    assert res.exit_code == 1
    assert "ERROR bezout:injected-raise raised ZeroDivisionError" in res.output
    assert "Traceback (most recent call last)" in res.output   # stderr, mixed in
    reports = json.loads(path.read_text())["reports"]
    assert [r["suite"] for r in reports] == sorted(SUITE_BUILDERS)
    got = {(r["suite"], c["name"]): c for r in reports for c in r["checks"]}
    assert got.pop(("bezout", "injected-raise")) == {
        "name": "injected-raise", "anchor": "-", "status": "error",
        "residual_witness": {"index": "-", "value": "ZeroDivisionError"}}
    assert {key: c["status"] for key, c in got.items()} == clean


# rime checks that read the strict data R(phi, beta) or build from strict_rime_data
STRICT_DATA_CHECKS = {
    "yb-strict", "hecke-strict", "eigen-multiplicities", "classify-strict",
    "quantum-traces", "quantum-trace-eigenvectors", "invariance-Y",
    "invariance-generators", "reversed-leg-conjugation", "appendix-system-strict",
    "appendix-mutation-detected", "gamma-pairing", "quantum-spaces",
}


def test_failing_shared_build_errors_only_its_checks(runner, monkeypatch, tmp_path):
    clean = {c.name: c.status for c in run_suite("rime", 3, 5, 2).checks}
    calls = []

    def broken(phi, beta):
        calls.append(phi)
        raise ArithmeticError("injected")

    monkeypatch.setattr(rime, "strict_rime_data", broken)
    path = tmp_path / "report.json"
    res = runner.invoke(main, ["verify", "--suite", "rime", "--n", "3", "--seed", "5",
                               "--draws", "2", "--report", str(path)])
    assert res.exit_code == 1
    assert "Traceback (most recent call last)" in res.output
    checks = json.loads(path.read_text())["reports"][0]["checks"]
    expected_errors = {f"{name}[{d}]" for name in STRICT_DATA_CHECKS for d in (0, 1)}
    # unitary-limit-first-order builds strict_rime_R(mu', beta'), which calls it too
    expected_errors.add("unitary-limit-first-order")
    assert {c["name"] for c in checks} == set(clean)
    for c in checks:
        if c["name"] in expected_errors:
            assert c["status"] == "error", c
            assert c["residual_witness"] == {"index": "-", "value": "ArithmeticError"}
            assert f"ERROR rime:{c['name']} raised ArithmeticError" in res.output
        else:
            assert c["status"] == clean[c["name"]] == "pass", c
    # the shared data is built once per draw block, and once per strict_rime_R call
    # of reversed-leg-conjugation and unitary-limit-first-order; its error is kept
    assert len(calls) == 2 + 2 + 1


def test_shared_objects_are_built_once_per_block(monkeypatch):
    calls = []
    original = rime.strict_rime_data

    def counted(phi, beta):
        calls.append(phi)
        return original(phi, beta)

    monkeypatch.setattr(rime, "strict_rime_data", counted)
    assert run_suite("rime", 3, 5, 2).all_pass
    # once per draw block (every check reading data, r or q shares it), once in each
    # block's reversed-leg-conjugation for R(1/phi, beta), twice in unitary-limit-first-order
    assert len(calls) == 2 + 2 + 2


def test_bezout_operators_are_built_once_per_verify_call(monkeypatch):
    calls = []
    original = bezout.bezout_operator

    def counted(kind, n):
        calls.append((kind, n))
        return original(kind, n)

    monkeypatch.setattr(bezout, "bezout_operator", counted)
    assert run_suite("bezout", 3, 5, 5).all_pass
    # six operators, and the b that btilde = b - I/2 builds inside its own call
    assert Counter(calls) == {**{(kind, m): 1 for kind in (bezout.B0, bezout.B)
                                 for m in (2, 3)}, (bezout.RS, 3): 1, (bezout.BTILDE, 3): 1,
                              (bezout.B, 3): 2}
    calls.clear()
    assert run_suite("rota", 4, 5, 1).all_pass
    assert Counter(calls) == {(kind, m): 1 for kind in (bezout.B0, bezout.B, bezout.RS)
                              for m in (2, 3, 4) if kind != bezout.RS or m == 4}


def _outcome(fn, obj):
    try:
        return fn(obj)
    except TypeError as exc:
        return "TypeError", str(exc)


def test_is_zero_matches_the_search_in_order():
    i = QuadExt(0, 1, d=-1)
    bumped = Operator1._entries(2, {1: {0: Q(-2, 3)}})
    cases = [
        {"b": [Q(0), 0, True], "a": {"x": Operator1.zero(2), "y": (Operator3.zero(2),)}},
        {"b": False, "a": [0, Q(1, 3)]},
        {"b": False, "a": [i]},
        {"a": [Q(0), False, i], "b": {"c": i}},
        [Q(0), {"k": [True, Q(5, 2)]}, i],
        [i * 0],
        [F(0), F(1, 2)],
        {(1, 2): Q(2), (1, 1): 0},
        {"z": [Operator2.zero(2), Operator1.diag([1, i])], "y": [bumped]},
        [Operator1.zero(2)] * 5 + [bumped],
        {"p": [], "q": {}, "r": ()},
        [None],
        False,
        Q(0),
    ]
    for obj in cases:
        assert _outcome(_is_zero, obj) == _outcome(_first_failure, obj), obj
    assert _is_zero(cases[0]) == (True, None)
    assert _is_zero(cases[1]) == (False, {"index": "a:1:-", "value": "1/3"})
    assert _outcome(_is_zero, cases[2])[0] == "TypeError"
    assert _is_zero(cases[3]) == (False, {"index": "a:1:-", "value": "false"})
    assert _is_zero(cases[9]) == (False, {"index": "5:2|1", "value": "-2/3"})


def _never_formed():
    raise AssertionError("a Deferred decided zero was formed")


def test_deferred_is_formed_only_when_its_decision_fails():
    # decided zero: it passes wherever it stands, and is never formed
    zero = Deferred(True, _never_formed)
    for obj in (zero, [zero], (Q(0), zero), {"a": {"b": [zero, (zero,)]}, "c": 0}):
        assert _all_zero(obj)
        assert _is_zero(obj) == _first_failure(obj) == (True, None)
    # not decided, but zero when formed: it passes
    for form in (lambda: Operator2.zero(2), lambda: [Q(0), {"k": Operator1.zero(2)}], dict):
        assert not _all_zero(Deferred(False, form))
        assert _is_zero({"x": Deferred(False, form)}) == (True, None)
    # not decided and nonzero: the witness of its form put in its place, at the same depth
    bumped = Operator1._entries(2, {1: {0: Q(-2, 3)}})
    for form in (lambda: bumped, lambda: [Operator1.zero(2), bumped], lambda: {"q": Q(1, 3)}):
        for place in (lambda x: x, lambda x: [Q(0), x], lambda x: {"a": (zero, x)}):
            got = _is_zero(place(Deferred(False, form)))
            assert not got[0] and got == _is_zero(place(form()))
    # fault injection bumps the form, decided zero or not
    for d in (Deferred(True, lambda: [Operator1.zero(2)] * 3),
              Deferred(False, lambda: [Operator1.zero(2), bumped]),
              Deferred(True, lambda: {"b": Operator2.zero(2), "a": Q(0)})):
        for place in (lambda x: x, lambda x: {"first": x, "second": [bumped]}):
            got = _is_zero(_mutate(place(d)))
            assert not got[0] and got == _is_zero(_mutate(place(d.form())))
    # two deferred lists concatenate as one, decided zero only when both are
    halves = Deferred(True, lambda: [Q(0)]), Deferred(False, lambda: [Q(0), Q(5)])
    assert (halves[0] + halves[0]).zero and not (halves[0] + halves[1]).zero
    assert _is_zero(halves[0] + halves[1]) == (False, {"index": "2:-", "value": "5"})


CATALOG_OUTPUT = """\
block eight-vertex     dim 2  parameters (q,)
block gl11-std         dim 2  parameters (q, p)
block gl2-std          dim 2  parameters (q, p)
block jordanian        dim 2  parameters (h1, h2)
block perm-like        dim 2  parameters (a, b, c)
block r-double-prime   dim 2  parameters (h1, h2, h3)
block r-ii             dim 2  parameters (q, eps), eps in {+1, -1}
block r-prime          dim 2  parameters (a,)
block r-triple-prime   dim 2  parameters ()
block rbl1             dim 2  parameters (q, gamma)
block rbl2             dim 2  parameters (q, gamma)
block rbl3             dim 2  parameters (q, gamma)
block rbl4             dim 2  parameters (q, omega, gamma), omega in {q^2, 1, q^-2}
classical b-cg             parameters (n)
classical b-skew           parameters (n)
classical r-cg             parameters (n)
classical r-cg-prime       parameters (n)
classical rime-nonskew     parameters (phi)
classical rime-skew        parameters (mu)
classical rime-skew-sl     parameters (mu)
bezout b0               parameters (n)
bezout b                parameters (n)
bezout rs               parameters (n)
bezout btilde           parameters (n)
"""


def test_catalog_stable(runner):
    out1 = runner.invoke(main, ["catalog"]).output
    out2 = runner.invoke(main, ["catalog"]).output
    assert out1 == out2
    assert "rbl4" in out1 and "b-cg" in out1 and "btilde" in out1
    assert "omega in {q^2, 1, q^-2}" in out1
    # recorded before the block parameter names moved into one table
    assert out1 == CATALOG_OUTPUT


@settings(max_examples=10, derandomize=True, deadline=None, database=None)
@given(suite=st.sampled_from(SUITE_NAMES), n=st.sampled_from([-1, 1, 2, 3, 4, 5, 127]),
       draws=st.sampled_from([-1, 0, 1, 2]))
def test_verify_exit_codes_over_the_input_domain(suite, n, draws):
    # the console entry point in a fresh process: exit 0 in range, 2 outside, never a traceback
    src = str(Path(yibre.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    res = subprocess.run([sys.executable, "-m", "yibre.cli", "verify", "--suite", suite,
                          "--n", str(n), "--draws", str(draws)],
                         capture_output=True, text=True, env=env, timeout=120)
    in_range = 2 <= n <= DRAW_POOL_NONZERO and draws >= 1
    assert res.returncode == (0 if in_range else 2), res.stdout + res.stderr
    assert "Traceback" not in res.stderr
