"""The rime-shaped builders: pair formulas through ``rime.rime_data`` and
``poisson.rime_bracket``, pinned to exact objects and checked for pair locality."""

import hashlib
from itertools import combinations

import pytest

from yibre import cg, poisson, qalg, rime
from yibre.kernel import ONE, ZERO, RationalDraw
from yibre.poisson import PencilParams
from yibre.rational import Q
from yibre.rime import RimeData

from reference import lagrange_basis_by_products


def _fingerprint_item(obj) -> tuple:
    """A builder's result as plain data: an operator's type and sorted (den, rows), or a
    RimeData's grids with each entry's type, numerator and denominator."""
    if isinstance(obj, RimeData):
        entry = lambda v: (type(v).__name__, v.numerator, v.denominator)
        grids = (obj.alpha_ij, obj.beta_ij, obj.gamma_ij, obj.gamma_prime_ij)
        return ("RimeData", obj.dim, tuple(map(entry, obj.alpha)),
                tuple(tuple(tuple(map(entry, row)) for row in grid) for grid in grids))
    den, rows = obj._ints()
    return (type(obj).__name__, obj.dim, den,
            tuple((r, tuple(sorted(row.items()))) for r, row in sorted(rows.items())))


def _draws(n: int) -> dict:
    """Fixed parameters at n, drawn in this order from seed 100 + n."""
    draw = RationalDraw(100 + n)
    phi = draw.vector(n, nonzero=True)
    mu = draw.vector(n)
    psi = draw.vector(n)
    beta, qi = draw.rational(), draw.rational()
    a, b, c = draw.rational(), draw.rational(nonzero=False), draw.rational()
    nu = draw.vector(n, distinct=False)
    dpsi = draw.vector(n, distinct=False)
    return dict(phi=phi, mu=mu, psi=psi, beta=beta, qi=qi,
                params=PencilParams(psi, a, b, c), nu=nu, dpsi=dpsi)


BUILDERS = {
    "strict_rime_data": lambda n, d: rime.strict_rime_data(d["phi"], d["beta"]),
    "strict_rime_R": lambda n, d: rime.strict_rime_R(d["phi"], d["beta"]),
    "unitary_rime_data": lambda n, d: rime.unitary_rime_data(d["mu"]),
    "unitary_rime_R": lambda n, d: rime.unitary_rime_R(d["mu"]),
    "standard_rc_matrix": lambda n, d: cg.standard_rc_matrix(n, d["qi"]),
    "riming_target_matrix": lambda n, d: cg.riming_target_matrix(n, d["qi"]),
    "pencil_bracket": lambda n, d: poisson.pencil_bracket(d["params"]),
    "pencil_bracket_uv_form": lambda n, d: poisson.pencil_bracket_uv_form(d["params"]),
    "delta1_variation": lambda n, d: poisson.delta1_variation(d["params"], d["nu"]),
    "psi_variation": lambda n, d: poisson.psi_variation(d["params"], d["dpsi"]),
    "psi_variation_dual": lambda n, d: poisson.psi_variation_dual(d["params"], d["dpsi"]),
    "bracket_from_quantum_nonunitary":
        lambda n, d: poisson.bracket_from_quantum(d["psi"], d["beta"]),
    "bracket_from_quantum_unitary": lambda n, d: poisson.bracket_from_quantum(d["mu"]),
    "classical_limit_bracket": lambda n, d: qalg.classical_limit_bracket(n),
    "classical_limit_bracket_dual": lambda n, d: qalg.classical_limit_bracket_dual(n),
    "lagrange_basis_matrix": lambda n, d: poisson.lagrange_basis_matrix(d["psi"]),
}

# sha256 over repr([_fingerprint_item(builder(n)) for n in 2..6]), recorded before the
# builders were routed through the pair constructors
FINGERPRINTS = {
    "bracket_from_quantum_nonunitary":
        "68866a30e05058c1a8e1b9ef07cdec110ffc0b0a7e197e2573d9d09270f3d626",
    "bracket_from_quantum_unitary":
        "4c83a1f7c4870b24bd925c05c6facb8adf4b7ba0073b7751b3ef30cf9177b904",
    "classical_limit_bracket":
        "f75a1ed8106a7d2d08c1ce318ef387816813fee1eb8bb446f93f531f9edc4fb5",
    "classical_limit_bracket_dual":
        "f75a1ed8106a7d2d08c1ce318ef387816813fee1eb8bb446f93f531f9edc4fb5",
    "delta1_variation":
        "c93e1fb3597227e5fdb69bc96f41aa9c3b52a722af92e3db191f91d6f6b27a0a",
    "lagrange_basis_matrix":
        "a7e21f45cbb00e9e94dab20f335888ca21fa3e97290d60f7fb4b6e2a5ad85568",
    "pencil_bracket":
        "fe44f7ac14d3580087265918f17e04e1eaa13909fd68df97bdba25c512a0c32c",
    "pencil_bracket_uv_form":
        "fe44f7ac14d3580087265918f17e04e1eaa13909fd68df97bdba25c512a0c32c",
    "psi_variation":
        "3b2df338aac6eb2fee153996e46dd6c67f9f846c26f2572cfea6d26d6651e066",
    "psi_variation_dual":
        "3b2df338aac6eb2fee153996e46dd6c67f9f846c26f2572cfea6d26d6651e066",
    "riming_target_matrix":
        "6dff1502618b9d237db7945712855e6740640fcc311ef7fe69605f0fcc036ddf",
    "standard_rc_matrix":
        "0d82c4848459d3fb107a47ead0e69986f1709c446bf0450690f50a16b544ddd9",
    "strict_rime_R":
        "abc70504455cde262039be8ba087c9decd45bdeaaefcb13d603506b7e7255755",
    "strict_rime_data":
        "65fd02fff79c7dadd7a5a3e38f5bccfe1e069ddfd3ab51903b869e63f6337d00",
    "unitary_rime_R":
        "ad8851e61360e4d10a1f65d4ef346c338fec6e0b57a7b45ee283913420103311",
    "unitary_rime_data":
        "24649087bfb1f51754ec5c8d259042626ae85e3232f3d68cc25ba23404fd92af",
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_builders_return_the_recorded_objects(name):
    items = [_fingerprint_item(BUILDERS[name](n, _draws(n))) for n in range(2, 7)]
    assert hashlib.sha256(repr(items).encode()).hexdigest() == FINGERPRINTS[name]


def test_rime_data_places_each_pair_formula():
    n = 4
    data = rime.rime_data(n, lambda i, j: (Q(i), Q(j), Q(i * n + j), Q(-i - j)))
    assert data.alpha == (1,) * n
    for i in range(n):
        for j in range(n):
            want = (0, 0, 0, 0) if i == j else (i, j, i * n + j, -i - j)
            got = (data.alpha_ij[i][j], data.beta_ij[i][j], data.gamma_ij[i][j],
                   data.gamma_prime_ij[i][j])
            assert got == want
    # extract_rime_data reads the assembled shape back
    assert rime.extract_rime_data(rime.assemble_rime(data)) == data


def test_rime_bracket_is_the_shape_rime_fit_reads_back():
    n = 4
    br = poisson.rime_bracket(n, lambda i, j: (Q(i + 1), Q(j + 1, 3), Q(2 * i - j)))
    for i in range(n):
        for j in range(i + 1, n):
            want = {(i + 1, i + 1): i + 1, (j + 1, j + 1): Q(j + 1, 3), (i + 1, j + 1): 2 * i - j}
            assert br.pair(i + 1, j + 1) == {k: v for k, v in want.items() if v}
    a, nu = poisson.rime_fit(br)
    for i in range(n):
        for j in range(i + 1, n):
            assert (a[i][j], a[j][i], nu[i][j]) == (i + 1, -Q(j + 1, 3), Q(2 * i - j, 2))


def _restricted(op, s):
    """``op``'s rows whose indices all lie in ``s``, relabelled 0..len(s)-1 in order; None
    when a kept row has an entry outside ``s``."""
    n, m = op.dim, len(s)
    pos = {x: a for a, x in enumerate(s)}
    rows = {}
    for r, row in op.data.items():
        i, j = divmod(r, n)
        if i in pos and j in pos:
            out = rows[pos[i] * m + pos[j]] = {}
            for c, v in row.items():
                k, l = divmod(c, n)
                if k not in pos or l not in pos:
                    return None
                out[pos[k] * m + pos[l]] = v
    return type(op)._entries(m, rows)


def _locality_failures(build, params: dict, n: int = 5) -> list:
    """The 3-subsets s of range(n) on which ``build`` fails pair locality: the object
    restricted to s is not the object built from the parameters restricted to s.  A tuple
    parameter is a vector indexed like the object; any other is kept as it is."""
    whole = build(**params)
    failures = []
    for s in combinations(range(n), 3):
        sub = {k: tuple(v[i] for i in s) if type(v) is tuple else v for k, v in params.items()}
        if _restricted(whole, s) != build(**sub):
            failures.append(s)
    return failures


LOCAL_BUILDS = {
    "strict_rime_R": lambda phi, beta, **_: rime.strict_rime_R(phi, beta),
    "unitary_rime_R": lambda mu, **_: rime.unitary_rime_R(mu),
    "standard_rc_matrix": lambda mu, qi, **_: cg.standard_rc_matrix(len(mu), qi),
    "riming_target_matrix": lambda mu, qi, **_: cg.riming_target_matrix(len(mu), qi),
    "pencil_bracket": lambda psi, a, b, c, **_: poisson.pencil_bracket(PencilParams(psi, a, b, c)),
    "pencil_bracket_uv_form":
        lambda psi, a, b, c, **_: poisson.pencil_bracket_uv_form(PencilParams(psi, a, b, c)),
    "delta1_variation":
        lambda psi, a, b, c, nu, **_: poisson.delta1_variation(PencilParams(psi, a, b, c), nu),
    "psi_variation":
        lambda psi, a, b, c, dpsi, **_: poisson.psi_variation(PencilParams(psi, a, b, c), dpsi),
    "psi_variation_dual": lambda psi, a, b, c, dpsi, **_:
        poisson.psi_variation_dual(PencilParams(psi, a, b, c), dpsi),
    "bracket_from_quantum_nonunitary":
        lambda psi, beta, **_: poisson.bracket_from_quantum(psi, beta),
    "bracket_from_quantum_unitary": lambda mu, **_: poisson.bracket_from_quantum(mu),
    "classical_limit_bracket": lambda mu, **_: qalg.classical_limit_bracket(len(mu)),
    "classical_limit_bracket_dual": lambda mu, **_: qalg.classical_limit_bracket_dual(len(mu)),
}


def _local_params(n: int = 5) -> dict:
    draw = RationalDraw(5)
    return {"phi": draw.vector(n, nonzero=True), "mu": draw.vector(n), "psi": draw.vector(n),
            "nu": draw.vector(n, distinct=False), "dpsi": draw.vector(n, distinct=False),
            "beta": draw.rational(), "qi": draw.rational(), "a": draw.rational(),
            "b": draw.rational(), "c": draw.rational()}


@pytest.mark.parametrize("name", sorted(LOCAL_BUILDS))
def test_pair_builders_are_local(name):
    """Each builder's object at n = 5, restricted to any 3 indices, is the object built
    from the parameters at those indices: the pair-formula hypothesis, checked numerically."""
    assert _locality_failures(LOCAL_BUILDS[name], _local_params()) == []


def test_cg_matrix_is_refused_as_non_local():
    """Its staircase leaves the pair's indices, and its entries depend on index differences,
    so only the three runs of consecutive indices restrict to the matrix at n = 3."""
    params = _local_params()
    build = lambda mu, qi, **_: cg.cg_matrix(cg.CGParams(len(mu), qi, Q(-3, 2)))
    assert _restricted(build(**params), (0, 2, 4)) is None
    assert _locality_failures(build, params) == [
        s for s in combinations(range(5), 3) if s not in ((0, 1, 2), (1, 2, 3), (2, 3, 4))]


def test_a_non_local_entry_fails_the_restriction():
    """R^{12}_{33} added to a strict rime R names index 3 in the row of the pair (1, 2)."""
    def build(phi, beta, **_):
        r = rime.strict_rime_R(phi, beta)
        return r + type(r)._entries(r.dim, {1: {2 * r.dim + 2: Q(1)}})
    params = _local_params()
    assert _restricted(build(**params), (0, 1, 3)) is None
    assert (0, 1, 3) in _locality_failures(build, params)


def test_a_pair_formula_that_reads_n_fails_the_restriction():
    build = lambda mu, **_: rime.assemble_rime(
        rime.rime_data(len(mu), lambda i, j: (ONE, Q(len(mu)), ZERO, ZERO)))
    assert len(_locality_failures(build, _local_params())) == 10


@pytest.mark.parametrize("n", range(1, 9))
def test_lagrange_basis_matches_the_products(n):
    draw = RationalDraw(n)
    rest = draw.vector(n - 1, nonzero=True)
    for psi in (draw.vector(n), (*rest[:n // 2], ZERO, *rest[n // 2:])):
        assert poisson.lagrange_basis_matrix(psi) == lagrange_basis_by_products(psi)
