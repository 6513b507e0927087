"""Independent checks of the program's outputs (stdlib only).

Nothing here imports ``cauchykit``. Each check tests a property the
method must have, computed from the inputs with this module's own
arithmetic: Gaussian elimination, Gauss-Jordan inversion, cofactors and
Freivalds products over the rationals or modulo a prime. A check returns
a list of problems; an empty list means the output passed.

Rationals are ``fractions.Fraction``; prime-field values are plain ints.
Rational Cauchy outputs are also mapped into F_M with the Mersenne prime
M = 2^61 - 1, which keeps the O(n^2) and O(n^3) checks on machine-size
integers. The inputs the benchmark generates have small numerators and
denominators, so none of their pair sums or differences vanishes mod M.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

M61 = 2**61 - 1


# ---------------------------------------------------------------------------
# Arithmetic over Q (p is None) or F_p


def to_mod(v, p: int) -> int:
    """Image of a rational or an int in F_p."""
    if isinstance(v, Fraction):
        den = v.denominator % p
        if den == 0:
            raise ValueError(f"denominator of {v} vanishes mod {p}")
        return v.numerator * pow(den, -1, p) % p
    return v % p


def _inv(a, p):
    return 1 / Fraction(a) if p is None else pow(a, -1, p)


def _reduce(a, p):
    return a if p is None else a % p


def det(rows, p: int | None = None):
    """Determinant by Gaussian elimination with a nonzero pivot search."""
    m = [[_reduce(a, p) for a in r] for r in rows]
    n = len(m)
    d = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            d = -d
        d = _reduce(d * m[k][k], p)
        inv = _inv(m[k][k], p)
        rk = m[k]
        for i in range(k + 1, n):
            f = _reduce(m[i][k] * inv, p)
            if f == 0:
                continue
            if p is None:
                m[i] = [a - f * b for a, b in zip(m[i], rk)]
            else:
                m[i] = [(a - f * b) % p for a, b in zip(m[i], rk)]
    return _reduce(d, p)


def inverse(rows, p: int | None = None):
    """Gauss-Jordan inverse, or None for a singular matrix."""
    n = len(rows)
    one = 1 if p is not None else Fraction(1)
    m = [
        [_reduce(a, p) for a in r] + [one if i == j else 0 * one for j in range(n)]
        for i, r in enumerate(rows)
    ]
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k] != 0), None)
        if piv is None:
            return None
        m[k], m[piv] = m[piv], m[k]
        inv = _inv(m[k][k], p)
        m[k] = [_reduce(a * inv, p) for a in m[k]]
        for i in range(n):
            f = m[i][k]
            if i != k and f != 0:
                m[i] = [_reduce(a - f * b, p) for a, b in zip(m[i], m[k])]
    return [r[n:] for r in m]


def adjugate_sum(rows, p: int | None = None):
    """Entry sum of the adjugate, 1^T adj(A) 1, by the matrix determinant
    lemma det(A + 1 1^T) = det(A) + 1^T adj(A) 1, which holds for singular A
    too."""
    plus_ones = [[a + 1 for a in r] for r in rows]
    return _reduce(det(plus_ones, p) - det(rows, p), p)


def bordered(rows, one=1):
    """The matrix extended by a ones row, a ones column and a zero corner."""
    return [list(r) + [one] for r in rows] + [[one] * len(rows) + [0]]


def cauchy_rows(xs, ys, p: int | None = None):
    return [[_inv(_reduce(x + y, p), p) for y in ys] for x in xs]


# ---------------------------------------------------------------------------
# Closed-form battery on one Cauchy spec


class CauchyCase:
    """Reference values for one Cauchy spec: its determinant by elimination
    mod M (or mod p), the weight sum(x) + sum(y) and a Freivalds vector. They
    depend on the input only, so they are computed once and reused for every
    round. The matrix itself is not kept; ``c_rows`` rebuilds it row by row."""

    def __init__(self, xs, ys, p: int | None):
        self.xs, self.ys, self.p = tuple(xs), tuple(ys), p
        self.mod = M61 if p is None else p
        self.det_mod = det(list(self.c_rows()), self.mod)
        weight = sum(xs) + sum(ys)
        self.weight = weight if p is None else weight % p
        rng = random.Random(len(xs))
        self.v = [rng.randrange(self.mod) for _ in xs]

    def c_rows(self):
        """The rows of C mod ``mod``, built from x_i + y_j directly."""
        mod = self.mod
        ys = [to_mod(y, mod) for y in self.ys]
        for x in self.xs:
            xm = to_mod(x, mod)
            yield [pow((xm + y) % mod, -1, mod) for y in ys]


def check_cauchy(case: CauchyCase, out: dict) -> list[str]:
    """``out`` holds plain values: ``build`` and ``inverse`` as row lists,
    ``det``, ``inverse_entry_sum``, ``adjugate_entry_sum``, ``bordered_det``
    and ``invertible`` (bool)."""
    p, mod, xs, ys = case.p, case.mod, case.xs, case.ys
    n = len(xs)
    errs = []

    def same(a, b):
        return a == b if p is None else (a - b) % p == 0

    built = out["build"]
    if len(built) != n or any(len(r) != n for r in built):
        errs.append("build: wrong shape")
    elif any(
        not same(built[i][j] * (xs[i] + ys[j]), 1) for i in range(n) for j in range(n)
    ):
        errs.append("build: some entry is not 1/(x_i + y_j)")

    d = out["det"]
    if to_mod(d, mod) != case.det_mod:
        errs.append("det_closed differs from elimination")

    inv = out["inverse"]
    if len(inv) != n or any(len(r) != n for r in inv):
        errs.append("inverse_closed: wrong shape")
    else:
        inv_mod = [[to_mod(a, mod) for a in r] for r in inv]
        w = [sum(a * b for a, b in zip(r, case.v)) % mod for r in inv_mod]
        cw = [sum(a * b for a, b in zip(r, w)) % mod for r in case.c_rows()]
        if cw != case.v:
            errs.append("inverse_closed: C * (inverse * v) != v")
        if sum(map(sum, inv_mod)) % mod != to_mod(case.weight, mod):
            errs.append("inverse_closed: entry sum != sum(x) + sum(y)")

    if not same(out["inverse_entry_sum"], case.weight):
        errs.append("inverse_entry_sum != sum(x) + sum(y)")
    if not same(out["adjugate_entry_sum"], case.weight * d):
        errs.append("adjugate_entry_sum != weight * det")
    if not same(out["bordered_det"], -case.weight * d):
        errs.append("bordered_det != -weight * det")
    if out["invertible"] != (case.det_mod != 0):
        errs.append("is_invertible_spec disagrees with det != 0")
    return errs


# ---------------------------------------------------------------------------
# Min-matrix battery on one spec


class MinCase:
    """Reference values for one min spec: its normalized form and the exact
    determinant of the normalized min matrix by elimination over Q."""

    def __init__(self, xs, ys):
        sx, sy = sorted(xs), sorted(ys)
        self.swapped = sx[0] > sy[0]
        if self.swapped:
            sx, sy = sy, sx
        self.sorted = (tuple(sx), tuple(sy))
        self.det = det([[min(x, y) for y in sy] for x in sx])


NOT_INVERTIBLE = "NotInvertibleError"


def check_min(case: MinCase, out: dict) -> list[str]:
    """``out``: ``normalized`` as (xs, ys, swapped), ``det``, ``det_zero``,
    and ``inverse_entry_sum`` / ``column_sums`` either as values or as the
    name of the exception raised."""
    errs = []
    nx, ny, swapped = out["normalized"]
    if (tuple(nx), tuple(ny)) != case.sorted or swapped != case.swapped:
        errs.append("normalize: not the sorted, role-ordered spec")
    if out["det"] != case.det:
        errs.append("min det_closed differs from elimination")
    if out["det_zero"] != (case.det == 0):
        errs.append("det_zero_predicate disagrees with det == 0")
    sx, sy = case.sorted
    if case.det == 0:
        want_sum = want_cols = NOT_INVERTIBLE
    else:
        want_sum = 1 / min(sx[0], sy[0])
        want_cols = (1 / sx[0],) + (0,) * (len(sx) - 1)
    if out["inverse_entry_sum"] != want_sum:
        errs.append("min inverse_entry_sum != 1/min(all)")
    if out["column_sums"] != want_cols:
        errs.append("min inverse_column_sums != (1/x0, 0, ...)")
    return errs


# ---------------------------------------------------------------------------
# `cauchykit verify` and `cauchykit canary` output


def _ring(obj):
    if obj == "rational":
        return None
    return int(obj["prime"])


def _val(text: str, p):
    return Fraction(text) if p is None else int(text) % p


def _matrix(obj, p):
    return [[_val(s, p) for s in r] for r in obj["entries"]]


def _fmt_list(values, p):
    return [str(v) for v in values] if p is None else [str(v % p) for v in values]


def _rederive(identity: str, echo: dict):
    """The value both sides of a report must equal, from spec_echo alone,
    as (kind, value) with kind "scalar", "bool", "matrix" or "list"."""
    p = _ring(echo["ring"])
    one = Fraction(1) if p is None else 1
    if identity == "border_adjugate_sum":
        a = _matrix(echo["matrix"], p)
        return [("scalar", _reduce(-adjugate_sum(a, p), p)), ("scalar", det(bordered(a, one), p))]
    if identity == "weighted_trace_ab":
        a, b = _matrix(echo["A"], p), _matrix(echo["B"], p)
        xs = [_val(s, p) for s in echo["xs"]]
        ys = [_val(s, p) for s in echo["ys"]]
        n, m = len(a), len(b)
        lhs = sum((xs[i] + ys[j]) * a[i][j] * b[j][i] for i in range(n) for j in range(m))
        rhs = sum(xs[i] * sum(a[i][k] * b[k][i] for k in range(m)) for i in range(n))
        rhs += sum(ys[j] * sum(b[j][k] * a[k][j] for k in range(n)) for j in range(m))
        return [("scalar", _reduce(lhs, p)), ("scalar", _reduce(rhs, p))]
    xs = [_val(s, p) for s in echo["xs"]]
    ys = [_val(s, p) for s in echo["ys"]]
    if echo.get("kind") == "min":
        f = [[min(x, y) for y in ys] for x in xs]
        if identity == "min_det":
            value = ("scalar", det(f))
        elif identity == "min_inverse_entry_sum":
            value = ("scalar", sum(map(sum, inverse(f))))
        elif identity == "min_inverse_column_sums":
            inv = inverse(f)
            value = ("list", [sum(r[j] for r in inv) for j in range(len(f))])
        else:
            raise KeyError(identity)
        return [value, value]
    c = cauchy_rows(xs, ys, p)
    if identity == "cauchy_det":
        value = ("scalar", det(c, p))
    elif identity == "inverse_entry_sum":
        value = ("scalar", _reduce(sum(map(sum, inverse(c, p))), p))
    elif identity == "inverse_entrywise":
        value = ("matrix", inverse(c, p))
    elif identity == "bordered_det":
        value = ("scalar", det(bordered(c, one), p))
    elif identity == "adjugate_entry_sum":
        value = ("scalar", adjugate_sum(c, p))
    elif identity == "invertibility_criterion":
        value = ("bool", det(c, p) != 0)
    else:
        raise KeyError(identity)
    return [value, value]


def _side_matches(text: str, expected, p) -> bool:
    kind, value = expected
    if kind == "bool":
        return json.loads(text) is value
    if kind == "scalar":
        return _val(text, p) == _reduce(value, p)
    if kind == "list":
        return json.loads(text) == _fmt_list(value, p)
    return json.loads(text) == [_fmt_list(r, p) for r in value]


def check_verify(rc: int, text: str, seed: int, trials: int, n_max: int) -> list[str]:
    """Exit code 0, a self-consistent envelope, and every report's two sides
    equal to the value re-derived from its spec_echo."""
    errs = []
    if rc != 0:
        errs.append(f"verify exited {rc}")
    try:
        env = json.loads(text)
    except json.JSONDecodeError as exc:
        return errs + [f"verify output is not JSON: {exc}"]
    reports = env.get("reports", [])
    if (env.get("seed"), env.get("trials"), env.get("n_max")) != (seed, trials, n_max):
        errs.append("verify envelope does not echo its arguments")
    if not reports or env.get("passed") != len(reports) or env.get("failed") != 0:
        errs.append("verify: passed != len(reports)")
    for r in reports:
        try:
            expected = _rederive(r["identity"], r["spec_echo"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            errs.append(f"report {r.get('identity')!r}: cannot re-derive ({exc})")
            continue
        p = _ring(r["spec_echo"]["ring"])
        if not r["pass"] or not (
            _side_matches(r["lhs"], expected[0], p) and _side_matches(r["rhs"], expected[1], p)
        ):
            errs.append(f"report {r['identity']}: sides differ from re-derived value")
    return errs


CANARY_LADDER = [3, 3, 6, 6, 9, 9, 12, 12]


def check_canary(rc: int, text: str) -> list[str]:
    """Default canary JSON: the 3, 6, 9, 12 ladder, both methods per size,
    finite non-negative residuals."""
    errs = [] if rc == 0 else [f"canary exited {rc}"]
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as exc:
        return errs + [f"canary output is not JSON: {exc}"]
    if [r["n"] for r in rows] != CANARY_LADDER:
        errs.append("canary: n ladder is not 3, 6, 9, 12")
    if [r["method"] for r in rows] != ["closed_form", "gauss_pp"] * 4:
        errs.append("canary: methods are not closed_form, gauss_pp per size")
    for r in rows:
        vals = (r["entry_sum_residual"], r["identity_residual"])
        if not all(math.isfinite(v) and v >= 0 for v in vals):
            errs.append(f"canary: non-finite or negative residual at n={r['n']}")
    return errs
