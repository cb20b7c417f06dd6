import json

import pytest
from click.testing import CliRunner

from yibre.cli import main
from yibre.suites import SUITE_BUILDERS, run_all, run_suite


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


def test_construct_errors_are_usage_errors(runner):
    assert runner.invoke(main, ["construct", "strict-rime", "--phi", "1,1",
                                "--beta", "1"]).exit_code == 2
    assert runner.invoke(main, ["construct", "nonsense"]).exit_code == 2
    assert runner.invoke(main, ["construct", "strict-rime", "--phi", "1,x",
                                "--beta", "1"]).exit_code == 2
    assert runner.invoke(main, ["construct", "block", "--kind", "rbl4", "--q", "3",
                                "--omega", "7", "--gamma", "1"]).exit_code == 2


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
    ("--n", "-1"), ("--n", "1"), ("--n", "0"), ("--draws", "0"), ("--draws", "-3"),
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


def test_catalog_stable(runner):
    out1 = runner.invoke(main, ["catalog"]).output
    out2 = runner.invoke(main, ["catalog"]).output
    assert out1 == out2
    assert "rbl4" in out1 and "b-cg" in out1 and "btilde" in out1
    assert "omega in {q^2, 1, q^-2}" in out1
