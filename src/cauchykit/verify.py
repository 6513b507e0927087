"""Verification reports, spec interchange JSON, and seeded random checks.

Every identity check produces a :class:`VerificationReport` carrying both
the closed-form and oracle values as canonical rendered strings, so a
reader can recompute the pass flag from the report alone. All randomness
is driven by an explicit ``random.Random`` instance; given the same seed,
every generator and the whole suite are bit-reproducible.

Every identity of :data:`IDENTITIES` is checked by one function,
:func:`check_identity`, which :func:`run_suite` and the CLI both call; the
two matrix identities have :func:`check_border_general` and
:func:`check_lemma_ab`. Each ``check_*`` function makes one report and
calls no other ``check_*`` function, so a tracer that wraps them all (as
the benchmark's ``verify.check`` layer does) sees one outermost span per
report and none nested. Every report value renders with ``str``.

The seeded suite (:func:`run_suite`) builds and eliminates each matrix at
most once, and builds a min spec's unsorted matrix only when the spec is
invertible, the one case in which a report reads it.
"""

from __future__ import annotations

import json
import random
import re
import reprlib
from fractions import Fraction
from itertools import accumulate

from . import cauchy, minmat
from .densela import Matrix, WeightVectors, border_with_ones, lemma_ab_check, matrix_to_json
from .ring import (
    CauchyKitError,
    NotInvertibleError,
    PrimeField,
    RationalRing,
    RingContext,
    _Record,
)


class SpecFormatError(CauchyKitError):
    """The JSON spec is malformed or inconsistent."""


# Scalar text is bounded before it is parsed: "1e999999999" would make
# Fraction build 10**999999999, and int() of a long digit string is quadratic.
_MAX_SCALAR_TEXT = 4300  # characters, and the size of a decimal exponent
# A spec file or stdin is read up to this many characters: an unbounded read
# of /dev/zero or an endless pipe exhausts memory before JSON parsing starts.
# 2**24 holds a spec of 1000 + 1000 scalars of the full 4300 characters each.
# (An inline spec is an argv string, which the OS already bounds.)
_MAX_SPEC_TEXT = 2**24
# Spec text nests at most this deep, counted before json parses it: json's own
# limit is its recursion, which differs between Python versions. A valid spec
# nests 2 deep.
_MAX_SPEC_DEPTH = 64
# Spec text opens at most this many arrays and objects, counted before json
# parses it: json builds every one it reads, so 400,000 "[1]" take about 40 MiB
# before a check can refuse the first. A valid spec opens at most 4.
_MAX_SPEC_CONTAINERS = 1024
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")
# What the bracket scan skips: all of a text that opens with neither an array
# nor an object, which json reads as one scalar before whatever follows it,
# and every string, closed or not.
_SKIPPED = re.compile(r'\A(?![ \t\n\r]*[\[{]).*|"[^"\\]*(?:\\.[^"\\]*)*"?', re.DOTALL)
_STEP = {ord("["): 1, ord("{"): 1, ord("]"): -1, ord("}"): -1}  # a bracket's byte -> its depth change


def _bounded_scalar_text(text: str) -> str:
    if len(text) > _MAX_SCALAR_TEXT:
        raise SpecFormatError(f"scalar text longer than {_MAX_SCALAR_TEXT} characters")
    m = _EXPONENT.search(text)
    if m and abs(int(m.group(1))) > _MAX_SCALAR_TEXT:
        raise SpecFormatError(f"decimal exponent beyond +-{_MAX_SCALAR_TEXT} in {reprlib.repr(text)}")
    return text


def _bounded_nesting(text: str) -> str:
    """``text``, unless its brackets outside strings nest deeper than
    _MAX_SPEC_DEPTH, found by one running sum with no recursion, or else open
    more than _MAX_SPEC_CONTAINERS arrays and objects, counted on the same
    brackets. The brackets are kept as one byte each, so a text of a million
    containers costs a few MiB here and none in json."""
    brackets = bytes(filter(_STEP.__contains__, _SKIPPED.sub("", text).encode("ascii", "ignore")))
    if brackets and max(accumulate(map(_STEP.__getitem__, brackets))) > _MAX_SPEC_DEPTH:
        raise SpecFormatError(f"spec nests deeper than {_MAX_SPEC_DEPTH} levels")
    if brackets.count(b"[") + brackets.count(b"{") > _MAX_SPEC_CONTAINERS:
        raise SpecFormatError(f"spec opens more than {_MAX_SPEC_CONTAINERS} arrays and objects")
    return text


class VerificationReport(_Record):
    __match_args__ = ("identity", "lhs", "rhs", "passed", "spec_echo", "seed")

    def __init__(self, identity: str, lhs: str, rhs: str, passed: bool, spec_echo: dict,
                 seed: int | None = None):
        self.identity = identity
        self.lhs = lhs  # closed form
        self.rhs = rhs  # oracle
        self.passed = passed
        self.spec_echo = spec_echo
        self.seed = seed

    def to_json_dict(self) -> dict:
        """The fields as a JSON object, with ``passed`` under the key ``pass``."""
        return {"pass" if k == "passed" else k: v for k, v in vars(self).items()}


def _report(identity: str, lhs: str, rhs: str, spec_echo: dict, seed=None) -> VerificationReport:
    return VerificationReport(identity, lhs, rhs, lhs == rhs, spec_echo, seed)


# ---------------------------------------------------------------------------
# Spec interchange JSON


def ring_to_json(ctx: RingContext):
    if isinstance(ctx, RationalRing):
        return "rational"
    return {"prime": ctx.p}


def ring_from_json(obj) -> RingContext:
    if obj == "rational":
        return RationalRing()
    if isinstance(obj, dict) and set(obj) == {"prime"}:
        p = obj["prime"]
        if not isinstance(p, int) or isinstance(p, bool):
            raise SpecFormatError(f"prime must be a JSON integer, got {reprlib.repr(p)}")
        try:
            return PrimeField(p)
        except ValueError as exc:
            raise SpecFormatError(str(exc)) from exc
    raise SpecFormatError(f'ring must be "rational" or {{"prime": p}}, got {reprlib.repr(obj)}')


def spec_to_json(spec: cauchy.CauchySpec | minmat.MinSpec) -> dict:
    """The interchange JSON of a Cauchy or a min spec. Each scalar renders
    with str, which is what ``ctx.render`` gives for a ring scalar."""
    is_min = isinstance(spec, minmat.MinSpec)
    out = {
        "kind": "min" if is_min else "cauchy",
        "ring": "rational" if is_min else ring_to_json(spec.ctx),
        "xs": [str(x) for x in spec.xs],
        "ys": [str(y) for y in spec.ys],
    }
    if isinstance(spec, minmat.SortedMinSpec):
        out["swapped"] = spec.swapped
    return out


def spec_from_json(obj: dict, default_ring: RingContext | None = None, negate_ys: bool = False):
    """Parse {"kind", "ring", "xs", "ys"} into a CauchySpec or MinSpec.

    ``kind`` defaults to "cauchy"; ``ring`` defaults to ``default_ring`` or
    rationals. ``negate_ys`` flips the sign of every y on ingestion, for
    inputs written in the 1/(x - y) convention (Cauchy only).
    """
    if not isinstance(obj, dict):
        raise SpecFormatError(f"spec must be a JSON object, got {type(obj).__name__}")
    try:
        xs, ys = obj["xs"], obj["ys"]
    except KeyError as exc:
        raise SpecFormatError(f"spec is missing {exc}") from exc
    if not (isinstance(xs, list) and isinstance(ys, list)) or any(isinstance(v, bool) for v in xs + ys):
        raise SpecFormatError("xs and ys must be JSON arrays of numbers or strings")
    for v in xs + ys:
        if isinstance(v, str):
            _bounded_scalar_text(v)
    kind = obj.get("kind", "cauchy")
    if "ring" in obj:
        ctx = ring_from_json(obj["ring"])
    else:
        ctx = default_ring or RationalRing()
    if kind == "min":
        if not isinstance(ctx, RationalRing):
            raise SpecFormatError("min specs are rational-only")
        if negate_ys:
            raise SpecFormatError("the minus convention applies to cauchy specs only")
    elif kind != "cauchy":
        raise SpecFormatError(f'kind must be "cauchy" or "min", got {reprlib.repr(kind)}')
    # bad scalar text, "1/0", empty or mismatched vectors
    try:
        if kind == "min":
            return minmat.MinSpec(xs, ys)
        xs = [ctx.coerce(x) for x in xs]
        ys = [ctx.coerce(y) for y in ys]
        if negate_ys:
            ys = [-y for y in ys]
        return cauchy.CauchySpec(xs, ys, ctx)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise SpecFormatError(f"unusable spec: {exc}") from exc


# ---------------------------------------------------------------------------
# Seeded random generators


# Fraction(a, b) for a in -9..9 (rows) and b in 1..9 (columns), the rationals
# random_scalar draws: randint(a, b) is a + randrange(b - a + 1), so an index
# pair takes the same two draws from the stream as the two randint calls.
_SMALL = [[Fraction(a, b) for b in range(1, 10)] for a in range(-9, 10)]


def random_scalar(rng: random.Random, ctx: RingContext):
    """Small random scalar: numerator in [-9, 9] over denominator in [1, 9]
    for rationals, a uniform residue for a prime field."""
    if isinstance(ctx, RationalRing):
        return _SMALL[rng.randrange(19)][rng.randrange(9)]
    return ctx.coerce(rng.randrange(ctx.p))


def random_cauchy_spec(
    rng: random.Random,
    ctx: RingContext,
    n: int,
    strongly_distinct: bool = True,
) -> cauchy.CauchySpec:
    """Rejection-sample a valid spec (all pairwise sums invertible). With
    ``strongly_distinct`` (the default) the spec is also invertible; without
    it, repeated values may occur, which only the adjugate identity accepts.

    Tiny prime fields can make the constraints unsatisfiable (there are
    only p residues to go around), so sampling gives up after a bounded
    number of attempts instead of spinning forever.
    """
    for _ in range(5000):
        xs = [random_scalar(rng, ctx) for _ in range(n)]
        ys = [random_scalar(rng, ctx) for _ in range(n)]
        try:
            spec = cauchy.CauchySpec(xs, ys, ctx)
        except cauchy.NonInvertiblePairSumError:
            continue
        if strongly_distinct and not cauchy.is_invertible_spec(spec).invertible:
            continue
        return spec
    raise CauchyKitError(
        f"could not sample a valid spec with n={n} over this ring; "
        "the constraints look unsatisfiable"
    )


def force_repeated_value(rng: random.Random, spec: cauchy.CauchySpec) -> cauchy.CauchySpec:
    """Copy one parameter over a neighbor so the matrix is singular while
    all pair sums stay valid. Specs with n = 1 are returned unchanged."""
    if spec.n < 2:
        return spec
    xs, ys = list(spec.xs), list(spec.ys)
    i = rng.randrange(spec.n - 1)
    if rng.random() < 0.5:
        xs[i + 1] = xs[i]
    else:
        ys[i + 1] = ys[i]
    return cauchy.CauchySpec(xs, ys, spec.ctx)


def random_min_spec(rng: random.Random, n: int) -> minmat.MinSpec:
    ctx = RationalRing()
    return minmat.MinSpec(
        [random_scalar(rng, ctx) for _ in range(n)],
        [random_scalar(rng, ctx) for _ in range(n)],
    )


def random_matrix(rng: random.Random, ctx: RingContext, rows: int, cols: int) -> Matrix:
    return Matrix._of(rows, cols, [random_scalar(rng, ctx) for _ in range(rows * cols)], ctx)


def random_weights(rng: random.Random, ctx: RingContext, n: int, m: int) -> WeightVectors:
    return WeightVectors(
        tuple(random_scalar(rng, ctx) for _ in range(n)),
        tuple(random_scalar(rng, ctx) for _ in range(m)),
    )


# ---------------------------------------------------------------------------
# Identity checks (closed form on the left, oracle on the right)


def build_matrix(spec) -> Matrix:
    """The matrix of a Cauchy or a min spec."""
    return (minmat.build if isinstance(spec, minmat.MinSpec) else cauchy.build)(spec)


def render_matrix(m: Matrix) -> str:
    return json.dumps(matrix_to_json(m)["entries"], separators=(",", ":"))


def _gauss_jordan(m: Matrix) -> Matrix:
    """``m`` after its one Gauss-Jordan run (:meth:`Matrix.inverse`), which leaves
    the determinant, and the inverse if there is one, on it for the oracles."""
    try:
        m.inverse()
    except NotInvertibleError:
        pass
    return m


# identity -> (closed form, oracle, render). An oracle reads only the matrix,
# so it shares no code with the closed form it checks. Ring scalars render
# with str, which is what ctx.render gives for them. The lambdas look module
# functions up at call time, so a module attribute replaced later (say, by a
# tracing wrapper) is the one that runs.
IDENTITIES = {
    "cauchy_det": (lambda s: cauchy.det_closed(s), lambda m: m.det_fast(), str),
    "inverse_entry_sum": (
        lambda s: cauchy.inverse_entry_sum(s), lambda m: m.inverse().entry_sum(), str
    ),
    "inverse_entrywise": (lambda s: cauchy.inverse_closed(s), lambda m: m.inverse(), render_matrix),
    "adjugate_entry_sum": (
        lambda s: cauchy.adjugate_entry_sum_closed(s), lambda m: m.adjugate_entry_sum(), str
    ),
    "bordered_det": (
        lambda s: cauchy.bordered_det_closed(s), lambda m: border_with_ones(m).det_fast(), str
    ),
    "invertibility_criterion": (
        lambda s: cauchy.is_invertible_spec(s).invertible,
        lambda m: m.ctx.is_invertible(m.det_fast()),
        json.dumps,
    ),
    "min_det": (lambda s: minmat.det_closed(s), lambda m: m.det_fast(), str),
    "min_inverse_entry_sum": (
        lambda s: minmat.inverse_entry_sum(s), lambda m: m.inverse().entry_sum(), str
    ),
    "min_inverse_column_sums": (
        lambda s: minmat.inverse_column_sums(s),
        lambda m: tuple(map(m.inverse().column_sum, range(m.cols))),
        lambda vs: json.dumps([str(v) for v in vs], separators=(",", ":")),
    ),
}


def check_identity(identity: str, spec, seed=None, matrix=None, echo=None) -> VerificationReport:
    """Check one identity of :data:`IDENTITIES` on a Cauchy or min spec: the
    closed form is evaluated first, so its precondition errors come first.
    The oracle reads only the spec's matrix: ``matrix``, or one built here.
    ``echo`` is the spec's ``spec_to_json(spec)`` if the caller has made it,
    so that :func:`run_suite` makes one per spec."""
    closed, oracle, render = IDENTITIES[identity]
    lhs = render(closed(spec))
    if matrix is None:
        matrix = build_matrix(spec)
    return _report(identity, lhs, render(oracle(matrix)), echo or spec_to_json(spec), seed)


def check_border_general(a: Matrix, seed=None) -> VerificationReport:
    return _report(
        "border_adjugate_sum",
        str(-a.adjugate_entry_sum()),
        str(border_with_ones(a).det_fast()),
        {"matrix": matrix_to_json(a), "ring": ring_to_json(a.ctx)},
        seed,
    )


def check_lemma_ab(a: Matrix, b: Matrix, w: WeightVectors, seed=None) -> VerificationReport:
    """The weighted trace identity on ``a``, ``b`` and ``w``, whose weights
    are scalars of the matrices' ring, as :func:`random_weights` makes them,
    so that the echo renders them with ``str``."""
    lhs, rhs = lemma_ab_check(a, b, w)
    return _report(
        "weighted_trace_ab",
        str(lhs),
        str(rhs),
        {
            "A": matrix_to_json(a),
            "B": matrix_to_json(b),
            "xs": [str(x) for x in w.xs],
            "ys": [str(y) for y in w.ys],
            "ring": ring_to_json(a.ctx),
        },
        seed,
    )


def random_lemma_ab(rng: random.Random, ctx: RingContext, n_max: int,
                    seed=None) -> VerificationReport:
    """The weighted trace identity on random n x m A, m x n B and weights, n, m in 1..n_max."""
    n, m = rng.randint(1, n_max), rng.randint(1, n_max)
    a, b = random_matrix(rng, ctx, n, m), random_matrix(rng, ctx, m, n)
    return check_lemma_ab(a, b, random_weights(rng, ctx, n, m), seed)


# ---------------------------------------------------------------------------
# The seeded suite


def run_suite(seed: int, trials: int, n_max: int) -> list[VerificationReport]:
    """Run every identity check ``trials`` times on seeded random inputs,
    alternating ring contexts where both apply. Deterministic in ``seed``.
    Each spec's matrix is built once, with at most one Gauss-Jordan run, and
    its echo is rendered once: the reports of one spec share one
    ``spec_to_json`` dict. A min spec's unsorted matrix is built only when
    the sorted one is invertible, the one case in which a report reads it."""
    rng = random.Random(seed)
    rings = (RationalRing(), PrimeField(101))
    reports: list[VerificationReport] = []
    for t in range(trials):
        ctx = rings[t % 2]
        n = rng.randint(1, n_max)

        spec = random_cauchy_spec(rng, ctx, n)
        c, echo = _gauss_jordan(cauchy.build(spec)), spec_to_json(spec)
        for identity in ("cauchy_det", "inverse_entry_sum", "inverse_entrywise", "bordered_det"):
            reports.append(check_identity(identity, spec, seed, c, echo))

        # every other trial, degrade the spec so the adjugate identity and
        # the invertibility criterion see the singular branch too
        probe = force_repeated_value(rng, spec) if t % 2 == 0 else spec
        pc, pecho = (c, echo) if probe is spec else (cauchy.build(probe), spec_to_json(probe))
        reports.append(check_identity("adjugate_entry_sum", probe, seed, pc, pecho))
        reports.append(check_identity("invertibility_criterion", probe, seed, pc, pecho))

        side = rng.randint(1, min(n_max, 5))
        reports.append(check_border_general(random_matrix(rng, ctx, side, side), seed))

        reports.append(random_lemma_ab(rng, ctx, n_max, seed))

        # min_det's determinant and the column sums' inverse in one run on the
        # sorted matrix; sorting permutes rows and columns and the swap
        # transposes, so its determinant vanishes with the unsorted one's
        mspec = random_min_spec(rng, n)
        sorted_spec = minmat.normalize(mspec)
        ms, secho = _gauss_jordan(minmat.build(sorted_spec)), spec_to_json(sorted_spec)
        reports.append(check_identity("min_det", sorted_spec, seed, ms, secho))
        if ms.det_fast() != 0:
            reports.append(check_identity("min_inverse_entry_sum", mspec, seed))
            reports.append(check_identity("min_inverse_column_sums", sorted_spec, seed, ms, secho))
    return reports
