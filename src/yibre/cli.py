"""Command-line front end: construct objects, run verification suites, list the catalog.

Exit codes: 0 all checks pass, 1 any check fails, 2 usage error.
"""

from __future__ import annotations

import json
import os
import sys

import click

from . import bezout, blocks, cg, classical, poisson, rime
from .kernel import DRAW_POOL_NONZERO, InvalidInputError, format_rat, rat
from .suites import SUITE_NAMES, mutated_suite, run_all, run_suite
from .tensor import Operator2


def _rational(value: str):
    try:
        return rat(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise click.UsageError(f"malformed rational {value!r}: {exc}")


def _vector(value: str):
    return tuple(_rational(x) for x in value.split(","))


def _output_path(ctx, param, value):
    """Refuse a path whose directory does not exist before any work runs."""
    if value is not None and not os.path.isdir(os.path.dirname(os.path.abspath(value))):
        raise click.BadParameter(f"the directory of {value!r} does not exist")
    return value


def operator_to_json(obj) -> dict:
    if isinstance(obj, Operator2):
        kind = "quadratic-bracket" if isinstance(obj, poisson.QuadraticBracket) else "operator2"
        return {"kind": kind, "dim": obj.dim,
                "entries": {f"{i},{j}|{k},{l}": format_rat(v)
                            for i, j, k, l, v in obj.four_index_items()}}
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
@click.option("--n", type=click.IntRange(min=1), default=None)
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
@click.option("--out", type=click.Path(dir_okay=False), callback=_output_path,
              help="write JSON here instead of stdout")
def construct(kind, phi, mu, psi, beta, n, qsq_inv, p, q, gamma, omega, eps,
              h1, h2, h3, a, b, c, rho, block_kind, out):
    """Build a named object and print it as JSON with rational entries."""
    try:
        obj = _construct(kind, block_kind, phi=phi, mu=mu, psi=psi, beta=beta, n=n,
                         qsq_inv=qsq_inv, p=p, q=q, gamma=gamma, omega=omega,
                         eps=eps, h1=h1, h2=h2, h3=h3, a=a, b=b, c=c, rho=rho)
        payload = json.dumps(operator_to_json(obj), indent=2, sort_keys=True)
    except (ValueError, KeyError, TypeError) as exc:
        # precondition violations surface with the originating module's message
        raise click.UsageError(str(exc))
    except MemoryError:
        raise click.UsageError(f"not enough memory to construct {kind}"
                               + (f" at --n {n}" if n is not None else ""))
    if out:
        with open(out, "w") as fh:
            fh.write(payload + "\n")
    else:
        click.echo(payload)


def _option(kind, kw, name):
    """The value of option --name, refused when the constructor ``kind`` lacks it."""
    value = kw[name]
    if value is None:
        raise InvalidInputError(f"{kind} needs --{name.replace('_', '-')}")
    return value


def _sized(kw, dim: int) -> None:
    """Refuse an --n that conflicts with the dimension ``dim`` the parameters give,
    before anything is built."""
    if kw["n"] is not None and kw["n"] != dim:
        raise InvalidInputError(f"--n {kw['n']} conflicts with the parameters, "
                                f"which give dimension {dim}")


def _sized_vector(kind, kw, name):
    """The vector option --name, whose length is the dimension; see ``_sized``."""
    vec = _vector(_option(kind, kw, name))
    _sized(kw, len(vec))
    return vec


def _construct(kind, sub, **kw):
    if kind == "strict-rime":
        return rime.strict_rime_R(_sized_vector(kind, kw, "phi"),
                                  _rational(_option(kind, kw, "beta")))
    if kind == "unitary-rime":
        return rime.unitary_rime_R(_sized_vector(kind, kw, "mu"))
    if kind == "cg":
        return cg.cg_matrix(cg.CGParams(_option(kind, kw, "n"),
                                        _rational(_option(kind, kw, "qsq_inv")),
                                        _rational(kw["p"])))
    if kind == "block":
        bk = sub
        if bk is None:
            raise InvalidInputError("block needs --kind")
        if bk not in blocks.BLOCK_PARAMETERS:
            raise InvalidInputError(f"unknown block kind {bk!r}")
        _sized(kw, 2)
        args = [_rational(_option(f"block {bk}", kw, name))
                for name in blocks.BLOCK_PARAMETERS[bk]]
        return blocks.block_matrix(bk, *args)
    if kind == "classical":
        ck = sub
        if ck is None:
            raise InvalidInputError("classical needs --kind")
        if ck not in classical.CLASSICAL_KINDS:
            raise InvalidInputError(f"unknown classical --kind {ck!r}")
        if ck in classical.PARAMETRIC_KINDS:
            if not (kw["phi"] or kw["mu"]):
                raise InvalidInputError(f"{ck} needs --phi or --mu")
            return classical.build_classical(
                ck, params=_sized_vector(ck, kw, "phi" if kw["phi"] else "mu"))
        return classical.build_classical(ck, n=_option(ck, kw, "n"))
    if kind == "bezout":
        bk = sub
        if bk not in bezout.BEZOUT_KINDS:
            raise InvalidInputError(f"unknown bezout kind {bk!r}")
        return bezout.bezout_operator(bk, _option(kind, kw, "n"))
    if kind == "pencil":
        abc = _vector(_option(kind, kw, "rho"))
        if len(abc) != 3:
            raise InvalidInputError("--rho takes exactly a,b,c")
        return poisson.pencil_bracket(poisson.PencilParams(_sized_vector(kind, kw, "psi"),
                                                           *abc))
    raise InvalidInputError(f"unknown constructor {kind!r}")


@main.command()
@click.option("--suite", type=click.Choice(SUITE_NAMES), required=True)
# every suite can draw n distinct values, nonzero or not, up to DRAW_POOL_NONZERO
@click.option("--n", type=click.IntRange(min=2, max=DRAW_POOL_NONZERO), default=3,
              show_default=True)
@click.option("--seed", type=int, default=0, envvar="YIBRE_SEED", show_default=True,
              show_envvar=True)
@click.option("--draws", type=click.IntRange(min=1), default=5, show_default=True)
@click.option("--report", "report_path", type=click.Path(dir_okay=False),
              callback=_output_path, default=None)
@click.option("--mutate", type=click.Choice(["one-entry"]), default=None,
              help="fault injection: flip exactly one check")
def verify(suite, n, seed, draws, report_path, mutate):
    """Run a named verification suite; exit 0 iff every check passes."""
    if suite == "all":
        reports = run_all(n, seed, draws, mutate=mutate)
    else:
        reports = [run_suite(suite, n, seed, draws, mutate=mutate)]
    if mutate and not any(r.mutated for r in reports):
        target = mutated_suite(seed) if suite == "all" else suite
        raise click.UsageError(f"--mutate {mutate} flipped no check: suite {target} "
                               "declares no check that fault injection may perturb")
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
            elif chk.status == "error":
                failed += 1
                click.echo(f"ERROR {rep.suite}:{chk.name} raised {chk.residual_witness['value']}")
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
