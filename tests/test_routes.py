"""The route table: every closed form that ``cauchy`` and ``minmat`` export,
each held against oracle routes of at least two different families on a
seeded corpus.

The families are elimination (``det_fast``, the Gauss-Jordan ``inverse``),
the characteristic polynomial (``det_berkowitz``, the Cayley-Hamilton
``adjugate``, ``adjugate_entry_sum``) and cofactor expansion
(``det_cofactor``, small n only). A route reads only the matrix, which is
built here from the parameters with the ring's own division, so no route
runs a line of the closed forms' kernel. A route gives None where it does
not apply (a size cap, or a form that needs an invertible matrix), and a
closed form or route that finds the matrix singular gives ``SINGULAR``.

The corpus covers both rings: invertible and singular Cauchy specs, and
integer-valued rational ones; min specs dealt pair by pair from sorted
distinct values, so that most are nonsingular, plus some drawn freely, most
of which are singular. The file also shows that no ``verify`` oracle reads a closed form.
"""

import inspect
import random

import pytest

from cauchykit import cauchy, minmat, verify
from cauchykit.densela import Matrix, border_with_ones
from cauchykit.ring import NotInvertibleError, PrimeField, RationalRing

Q, F101 = RationalRing(), PrimeField(101)
SINGULAR = "singular"


# ---------------------------------------------------------------------------
# The corpus


def cauchy_corpus(ctx):
    """(spec, matrix) pairs over ``ctx``, n = 1..7: one invertible spec per n,
    a singular one per n = 2..6 and, over Q, an integer-valued one per n."""
    rng = random.Random(23 if ctx == Q else 29)
    specs = []
    for n in range(1, 8):
        spec = verify.random_cauchy_spec(rng, ctx, n)
        specs.append(spec)
        if 2 <= n <= 6:
            specs.append(verify.force_repeated_value(rng, spec))
        while ctx == Q:
            vals = rng.sample(range(-40, 41), 2 * n)
            if not set(vals[:n]) & {-y for y in vals[n:]}:
                specs.append(cauchy.CauchySpec(vals[:n], vals[n:], ctx))
                break
    return [(s, Matrix(s.n, s.n, [ctx.one / (x + y) for x in s.xs for y in s.ys], ctx))
            for s in specs]


def min_corpus(sort):
    """(spec, matrix) pairs of min specs, n = 1..7, normalized when ``sort``:
    per n two specs dealt from 2n sorted distinct values, then shuffled, and
    one drawn freely. The k-th pair of sorted values gives one value to each
    vector, the smaller to either, so the intervals [x_(k-1), x_k] and
    [y_(k-1), y_k] overlap and every factor past f[0][0] is nonzero."""
    rng = random.Random(31)
    specs = []
    for n in range(1, 8):
        for _ in range(2):
            vals = set()
            while len(vals) < 2 * n:
                vals.add(verify.random_scalar(rng, Q))
            vals = sorted(vals)
            pairs = [(vals[k], vals[k + 1]) if rng.random() < 0.5 else (vals[k + 1], vals[k])
                     for k in range(0, 2 * n, 2)]
            xs, ys = (list(vec) for vec in zip(*pairs))
            rng.shuffle(xs)
            rng.shuffle(ys)
            specs.append(minmat.MinSpec(xs, ys))
        specs.append(verify.random_min_spec(rng, n))
    if sort:
        specs = [minmat.normalize(s) for s in specs]
    return [(s, Matrix(s.n, s.n, [min(x, y) for x in s.xs for y in s.ys], Q)) for s in specs]


CORPUS = {
    "cauchy": cauchy_corpus(Q) + cauchy_corpus(F101),
    "min": min_corpus(sort=False),
    "sorted min": min_corpus(sort=True),
}


def test_corpus_holds_singular_and_invertible_specs():
    for kind, pairs in CORPUS.items():
        dets = [m.det_fast() for _, m in pairs]
        assert sum(d == 0 for d in dets) >= 5 and sum(d != 0 for d in dets) >= 10, kind
    assert any(s.ctx == Q and all(v.denominator == 1 for v in s.xs + s.ys)
               for s, _ in CORPUS["cauchy"])


# ---------------------------------------------------------------------------
# Routes: functions of the matrix alone


def capped(limit, route):
    """``route`` on matrices of side at most ``limit``, else None."""
    return lambda m: route(m) if m.rows <= limit else None


def then(route, f):
    """f of ``route``'s value, None where the route does not apply."""
    def run(m):
        v = route(m)
        return None if v is None else f(v)
    return run


def invertible_only(route):
    """``route`` on invertible matrices (by elimination), else None."""
    return lambda m: route(m) if m.det_fast() != 0 else None


def adj_over_det(m):
    """The inverse as adj(A) / det(A), both from the characteristic polynomial."""
    det = m.det_berkowitz()
    if det == 0:
        raise NotInvertibleError(det)
    return Matrix(m.rows, m.cols, [e / det for e in m.adjugate().entries], m.ctx)


def cofactor_adjugate_sum(m):
    """1^T adj(A) 1, every cofactor of A by its own minor's cofactor expansion."""
    n, rows, total = m.rows, m.to_rows(), m.ctx.zero
    if n == 1:
        return m.ctx.one
    for i in range(n):
        for j in range(n):
            minor = Matrix(n - 1, n - 1, [e for r, row in enumerate(rows) if r != i
                                          for c, e in enumerate(row) if c != j], m.ctx)
            d = minor.det_cofactor()
            total = total + d if (i + j) % 2 == 0 else total - d
    return total


def column_sums(inv):
    return tuple(inv.column_sum(j) for j in range(inv.cols))


# the determinant's three routes, and the zero test on each
DET = {
    "elimination": lambda m: m.det_fast(),
    "charpoly": lambda m: m.det_berkowitz(),
    "cofactor": capped(6, lambda m: m.det_cofactor()),
}
IS_ZERO = {family: then(route, lambda d: d == 0) for family, route in DET.items()}
INVERSE = {"elimination": lambda m: m.inverse(), "charpoly": adj_over_det}


def entries_closed(s):
    return Matrix(s.n, s.n, [cauchy.inverse_entry_closed(s, i, j)
                             for i in range(s.n) for j in range(s.n)], s.ctx)


# closed form -> (corpus kind, closed form of the spec, {family: route of the matrix})
ROUTES = {
    "cauchy.det_closed": ("cauchy", cauchy.det_closed, DET),
    "cauchy.bordered_det_closed": ("cauchy", cauchy.bordered_det_closed, {
        "elimination": lambda m: border_with_ones(m).det_fast(),
        "charpoly": lambda m: border_with_ones(m).det_berkowitz(),
        "cofactor": capped(6, lambda m: border_with_ones(m).det_cofactor()),
    }),
    "cauchy.inverse_closed": ("cauchy", cauchy.inverse_closed, INVERSE),
    "cauchy.inverse_entry_closed": ("cauchy", entries_closed, INVERSE),
    "cauchy.adjugate_entry_sum_closed": ("cauchy", cauchy.adjugate_entry_sum_closed, {
        "charpoly": lambda m: m.adjugate_entry_sum(),
        "elimination": invertible_only(lambda m: m.det_fast() * m.inverse().entry_sum()),
        "cofactor": capped(6, cofactor_adjugate_sum),
    }),
    "cauchy.inverse_entry_sum": ("cauchy", cauchy.inverse_entry_sum, {
        "elimination": lambda m: m.inverse().entry_sum(),
        "charpoly": lambda m: adj_over_det(m).entry_sum(),
    }),
    "cauchy.is_invertible_spec": ("cauchy", lambda s: cauchy.is_invertible_spec(s).invertible, {
        family: then(route, lambda d: d != 0) for family, route in DET.items()
    }),
    "minmat.det_closed": ("sorted min", minmat.det_closed, DET),
    "minmat.det_zero_predicate": ("sorted min", minmat.det_zero_predicate, IS_ZERO),
    "minmat.inverse_entry_sum": ("min", minmat.inverse_entry_sum, {
        "elimination": lambda m: m.inverse().entry_sum(),
        "charpoly": lambda m: adj_over_det(m).entry_sum(),
    }),
    "minmat.inverse_column_sums": ("sorted min", minmat.inverse_column_sums, {
        "elimination": lambda m: column_sums(m.inverse()),
        "charpoly": lambda m: column_sums(adj_over_det(m)),
    }),
}


def outcome(f, arg):
    """f(arg), or SINGULAR where it raises NotInvertibleError."""
    try:
        return f(arg)
    except NotInvertibleError:
        return SINGULAR


@pytest.mark.parametrize("name", ROUTES)
def test_closed_form_agrees_with_two_route_families(name):
    kind, closed, routes = ROUTES[name]
    for spec, m in CORPUS[kind]:
        want = outcome(closed, spec)
        ran = set()
        for family, route in routes.items():
            got = outcome(route, m)
            if got is not None:
                assert got == want, f"{name} against {family} on {spec!r}"
                ran.add(family)
        assert len(ran) >= 2, f"{name} ran only {ran} on {spec!r}"


def public_functions(module):
    return {name for name, f in vars(module).items() if inspect.isfunction(f)
            and f.__module__ == module.__name__ and not name.startswith("_")}


def test_every_exported_closed_form_has_a_row():
    # build and normalize make the matrix and the sorted spec; they are not closed forms
    exported = {f"{module.__name__.rsplit('.', 1)[1]}.{name}" for module in (cauchy, minmat)
                for name in public_functions(module) - {"build", "normalize"}}
    assert exported == set(ROUTES)


# ---------------------------------------------------------------------------
# The verify oracles read no closed form


def identity_cases():
    """(identity, spec) per row of verify.IDENTITIES: each Cauchy row in both
    rings, on a singular spec where the closed form allows one."""
    rng = random.Random(37)
    dealt = minmat.MinSpec([4, -3, 1], [2, 5, -1])  # unsorted; sorted, its values interleave
    cases = []
    for identity in verify.IDENTITIES:
        if identity.startswith("min_"):
            cases.append((identity, dealt if identity == "min_inverse_entry_sum"
                          else minmat.normalize(dealt)))
            continue
        for ctx in (Q, F101):
            spec = verify.random_cauchy_spec(rng, ctx, 4)
            if identity in ("adjugate_entry_sum", "invertibility_criterion"):
                spec = verify.force_repeated_value(rng, spec)
            cases.append((identity, spec))
    return cases


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"a verify oracle called {name}")
    return refuse


@pytest.mark.parametrize("identity, spec", identity_cases())
def test_oracles_call_no_closed_form(identity, spec, monkeypatch):
    _, oracle, render = verify.IDENTITIES[identity]
    plain, patched = verify.build_matrix(spec), verify.build_matrix(spec)
    want = render(oracle(plain))
    for module in (cauchy, minmat):
        for name in public_functions(module):
            monkeypatch.setattr(module, name, _refuse(f"{module.__name__}.{name}"))
    assert render(oracle(patched)) == want


@pytest.mark.parametrize("ctx", (Q, F101), ids=("Q", "F101"))
def test_invertibility_criterion_on_a_degraded_spec(ctx):
    rng = random.Random(41)
    spec = verify.force_repeated_value(rng, verify.random_cauchy_spec(rng, ctx, 5))
    report = verify.check_identity("invertibility_criterion", spec)
    assert report.lhs == report.rhs == "false" and report.passed
