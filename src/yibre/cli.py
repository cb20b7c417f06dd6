"""Command-line front end: construct objects, run verification suites, list the catalog.

Exit codes: 0 all checks pass, 1 any check fails, 2 usage error.
"""

from __future__ import annotations

import json
import os
import sys

import click

from . import bezout, blocks, cg, classical, poisson, rime
from .kernel import InvalidInputError, format_rat, rat
from .suites import SUITE_NAMES, run_all, run_suite
from .tensor import Operator1, Operator2


def _rational(value: str):
    try:
        return rat(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise click.UsageError(f"malformed rational {value!r}: {exc}")


def _vector(value: str):
    return tuple(_rational(x) for x in value.split(","))


def operator_to_json(obj) -> dict:
    if isinstance(obj, Operator2):
        return {"kind": "operator2", "dim": obj.dim,
                "entries": {f"{i},{j}|{k},{l}": format_rat(v)
                            for i, j, k, l, v in obj.four_index_items()}}
    if isinstance(obj, Operator1):
        return {"kind": "operator1", "dim": obj.dim,
                "entries": {f"{i}|{j}": format_rat(v) for i, j, v in obj.entries()}}
    if isinstance(obj, poisson.QuadraticBracket):
        entries = {}
        for (i, j), poly in sorted(obj.pairs.items()):
            for (k, l), v in sorted(poly.items()):
                entries[f"{i},{j}|{k},{l}"] = format_rat(v)
        return {"kind": "quadratic-bracket", "dim": obj.dim, "entries": entries}
    raise InvalidInputError(f"cannot serialize {type(obj).__name__}")


@click.group()
def main():
    """Exact constructors and identity suites for rime-type Yang-Baxter solutions."""


@main.command()
@click.argument("kind")
@click.option("--phi", help="comma-separated rationals")
@click.option("--mu", help="comma-separated rationals")
@click.option("--psi", help="comma-separated rationals")
@click.option("--beta", help="rational")
@click.option("--n", type=int, default=None)
@click.option("--qsq-inv", help="the value q^-2")
@click.option("--p", default="1")
@click.option("--q")
@click.option("--gamma", default="1")
@click.option("--omega")
@click.option("--eps", default="1")
@click.option("--h1", default="0")
@click.option("--h2", default="0")
@click.option("--h3", default="0")
@click.option("--a", default="1")
@click.option("--b", default="1")
@click.option("--c", default="1")
@click.option("--rho", help="a,b,c of the pencil polynomial")
@click.option("--kind", "block_kind", help="catalog member for 'block'/'classical'/'bezout'")
@click.option("--out", type=click.Path(), help="write JSON here instead of stdout")
def construct(kind, phi, mu, psi, beta, n, qsq_inv, p, q, gamma, omega, eps,
              h1, h2, h3, a, b, c, rho, block_kind, out):
    """Build a named object and print it as JSON with rational entries."""
    try:
        obj = _construct(kind, block_kind, phi=phi, mu=mu, psi=psi, beta=beta, n=n,
                         qsq_inv=qsq_inv, p=p, q=q, gamma=gamma, omega=omega,
                         eps=eps, h1=h1, h2=h2, h3=h3, a=a, b=b, c=c, rho=rho)
    except (ValueError, KeyError, TypeError) as exc:
        # precondition violations surface with the originating module's message
        raise click.UsageError(str(exc))
    payload = json.dumps(operator_to_json(obj), indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(payload + "\n")
    else:
        click.echo(payload)


def _construct(kind, sub, **kw):
    if kind == "strict-rime":
        return rime.strict_rime_R(_vector(kw["phi"]), _rational(kw["beta"]))
    if kind == "unitary-rime":
        return rime.unitary_rime_R(_vector(kw["mu"]))
    if kind == "cg":
        return cg.cg_matrix(cg.CGParams(kw["n"], _rational(kw["qsq_inv"]),
                                        _rational(kw["p"])))
    if kind == "block":
        bk = sub
        if bk is None:
            raise InvalidInputError("block needs --kind")
        params = {
            blocks.RBL1: ("q", "gamma"), blocks.RBL2: ("q", "gamma"),
            blocks.RBL3: ("q", "gamma"), blocks.RBL4: ("q", "omega", "gamma"),
            blocks.GL2_STD: ("q", "p"), blocks.GL11_STD: ("q", "p"),
            blocks.EIGHT_VERTEX: ("q",), blocks.R_II: ("q", "eps"),
            blocks.JORDANIAN: ("h1", "h2"), blocks.PERM_LIKE: ("a", "b", "c"),
            blocks.R_PRIME: ("a",), blocks.R_DOUBLE_PRIME: ("h1", "h2", "h3"),
            blocks.R_TRIPLE_PRIME: (),
        }
        if bk not in params:
            raise InvalidInputError(f"unknown block kind {bk!r}")
        args = []
        for name in params[bk]:
            val = kw.get(name)
            if val is None:
                raise InvalidInputError(f"block {bk} needs --{name}")
            args.append(_rational(val))
        return blocks.block_matrix(bk, *args)
    if kind == "classical":
        ck = sub
        if ck is None:
            raise InvalidInputError("classical needs --kind")
        if ck in classical.PARAMETRIC_KINDS:
            vec = kw.get("phi") or kw.get("mu")
            if vec is None:
                raise InvalidInputError(f"{ck} needs --phi or --mu")
            return classical.build_classical(ck, params=_vector(vec))
        return classical.build_classical(ck, n=kw["n"])
    if kind == "bezout":
        bk = sub
        if bk not in bezout.BEZOUT_KINDS:
            raise InvalidInputError(f"unknown bezout kind {bk!r}")
        if kw["n"] is None:
            raise InvalidInputError("bezout needs --n")
        return bezout.bezout_operator(bk, kw["n"])
    if kind == "pencil":
        abc = _vector(kw["rho"])
        if len(abc) != 3:
            raise InvalidInputError("--rho takes exactly a,b,c")
        return poisson.pencil_bracket(poisson.PencilParams(_vector(kw["psi"]), *abc))
    raise InvalidInputError(f"unknown constructor {kind!r}")


@main.command()
@click.option("--suite", type=click.Choice(SUITE_NAMES), required=True)
@click.option("--n", type=click.IntRange(min=2), default=3, show_default=True)
@click.option("--seed", type=int, default=None,
              help="defaults to $YIBRE_SEED or 0")
@click.option("--draws", type=click.IntRange(min=1), default=5, show_default=True)
@click.option("--report", "report_path", type=click.Path(), default=None)
@click.option("--mutate", type=click.Choice(["one-entry"]), default=None,
              help="fault injection: flip exactly one check")
def verify(suite, n, seed, draws, report_path, mutate):
    """Run a named verification suite; exit 0 iff every check passes."""
    if seed is None:
        seed = int(os.environ.get("YIBRE_SEED", "0"))
    if suite == "all":
        reports = run_all(n, seed, draws, mutate=mutate)
    else:
        reports = [run_suite(suite, n, seed, draws, mutate=mutate)]
    payload = {"reports": [r.to_dict() for r in reports]}
    text = json.dumps(payload, indent=2, sort_keys=True)
    if report_path:
        with open(report_path, "w") as fh:
            fh.write(text + "\n")
    failed = 0
    total = 0
    for rep in reports:
        for chk in rep.checks:
            total += 1
            if chk.status == "fail":
                failed += 1
                click.echo(f"FAIL {rep.suite}:{chk.name} witness={chk.residual_witness}")
    click.echo(f"{total - failed}/{total} checks passed"
               + (f", report written to {report_path}" if report_path else ""))
    sys.exit(0 if failed == 0 else 1)


@main.command()
def catalog():
    """List every catalog block kind and classical r-matrix constructor."""
    for entry in blocks.catalog_listing():
        click.echo(f"block {entry['kind']:16s} dim {entry['dim']}  parameters {entry['parameters']}")
    for kind in sorted(classical.CLASSICAL_KINDS):
        sig = "(phi)" if kind == classical.RIME_NONSKEW else \
            "(mu)" if kind in (classical.RIME_SKEW, classical.RIME_SKEW_SL) else "(n)"
        click.echo(f"classical {kind:16s} parameters {sig}")
    for kind in bezout.BEZOUT_KINDS:
        click.echo(f"bezout {kind:16s} parameters (n)")


if __name__ == "__main__":
    main()
