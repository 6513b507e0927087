"""Rational closed forms checked at large n through reduction mod p.

The map phi_p(a/q) = a * q^-1 mod p is a ring homomorphism from the
rationals whose denominators p does not divide onto F_p. Every Cauchy
closed form is a fraction of sums and products of the parameters, so
phi_p(closed_Q(s)) = closed_Fp(phi_p(s)) whenever phi_p(s) is still a
valid spec. Over Q the oracles are too slow to reach n = 64; over F_p
they are fast. So this file holds the rational forms, at sizes where no
rational oracle runs, against the F_p forms and the F_p oracles of the
reduced spec. A wrong rational value survives only if its error is
divisible by p.

A spec that phi_p breaks is counted by the reason: p divides a
denominator, a pair sum of the reduced spec is 0, or two parameters of
one vector meet mod p (the reduced matrix is singular, so only the
inverse loses its image).
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction as Q

import pytest

from cauchykit.cauchy import (
    CauchySpec,
    NonInvertiblePairSumError,
    adjugate_entry_sum_closed,
    bordered_det_closed,
    build,
    det_closed,
    inverse_closed,
    is_invertible_spec,
)
from cauchykit.ring import FpElement, PrimeField, RationalRing

RING = RationalRing()
P61 = 2**61 - 1
SMALL_DENS = (1, 2, 3, 4, 6, 12)


def primes(count: int) -> list[int]:
    out, k = [], 2
    while len(out) < count:
        if all(k % d for d in out):
            out.append(k)
        k += 1
    return out


def rational_spec(rng: random.Random, n: int, family: str, pool=None) -> CauchySpec:
    """2n distinct rationals, none the negative of another, with numerators
    in [-500, 500]: each denominator drawn from SMALL_DENS ("shared"), or a
    prime of its own from ``pool`` ("coprime")."""
    dens = rng.sample(pool, 2 * n) if family == "coprime" else None
    vals: list[Q] = []
    while len(vals) < 2 * n:
        q = dens[len(vals)] if dens else rng.choice(SMALL_DENS)
        v = Q(rng.randint(-500, 500), q)
        if v not in vals and -v not in vals:
            vals.append(v)
    return CauchySpec(vals[:n], vals[n:], RING)


def phi(v: Q, p: int) -> FpElement:
    """The image of v mod p; ValueError when p divides its denominator."""
    return FpElement(v.numerator * pow(v.denominator, -1, p), p)


def reduce_spec(spec: CauchySpec, field: PrimeField):
    """(phi_p(spec), None), or (None, why) when phi_p breaks the spec. A
    reduced spec whose matrix is singular comes back with why "singular"."""
    p = field.p
    if any(v.denominator % p == 0 for v in spec.xs + spec.ys):
        return None, "denominator"
    try:
        fs = CauchySpec([phi(x, p) for x in spec.xs], [phi(y, p) for y in spec.ys], field)
    except NonInvertiblePairSumError:
        return None, "pair sum"
    return fs, None if is_invertible_spec(fs).invertible else "singular"


def closed(spec: CauchySpec, invert: bool, hold: bool = False) -> dict:
    """Every closed form of ``spec``; over F_p with ``hold``, as the closed-form
    battery calls them, with the build matrix alive."""
    held = build(spec) if hold else None
    out = {"det": det_closed(spec), "weight": spec.weight_sum(),
           "adjugate": adjugate_entry_sum_closed(spec), "bordered": bordered_det_closed(spec)}
    if invert:
        out["inverse"] = inverse_closed(spec).to_rows()
    del held
    return out


def phi_all(forms: dict, p: int) -> dict:
    out = {k: phi(v, p) for k, v in forms.items() if k != "inverse"}
    if "inverse" in forms:
        out["inverse"] = [[phi(v, p) for v in row] for row in forms["inverse"]]
    return out


def corpus(seed: int, sizes) -> list[tuple[str, CauchySpec]]:
    rng = random.Random(seed)
    pool = primes(2 * max(sizes))
    return [(family, rational_spec(rng, n, family, pool))
            for n in sizes for family in ("shared", "coprime")]


SIZES = (1, 2, 3, 5, 8, 13, 21, 34, 64)


def test_rational_forms_reduce_to_the_prime_field_forms():
    field, breaks, checked = PrimeField(P61), Counter(), Counter()
    for k, (family, spec) in enumerate(corpus(71, SIZES)):
        fs, why = reduce_spec(spec, field)
        if why:
            breaks[why] += 1
            continue
        want = phi_all(closed(spec, invert=True), P61)
        assert closed(fs, invert=True, hold=k % 2 == 0) == want, (family, spec.n)
        checked[family] += 1
    assert not breaks, f"phi_p broke {dict(breaks)}"
    assert checked == {"shared": len(SIZES), "coprime": len(SIZES)}


@pytest.mark.parametrize("n, family", ((8, "coprime"), (32, "coprime"), (96, "shared")))
def test_rational_forms_reduce_to_the_prime_field_oracles(n, family):
    field = PrimeField(P61)
    spec = rational_spec(random.Random(73 + n), n, family, primes(2 * n))
    fs, why = reduce_spec(spec, field)
    assert why is None
    want = phi_all(closed(spec, invert=True), P61)
    m = build(fs)
    assert m.det_fast() == want["det"]
    assert m.inverse().to_rows() == want["inverse"]


def test_breaks_are_counted_and_the_rest_still_agree():
    """Over F_97 phi_p breaks many small specs; each break is a real one, and
    every spec it does not break agrees with the rational forms. A singular
    reduction keeps every form but the inverse: the rational determinant
    has p in its numerator."""
    field, p = PrimeField(97), 97
    rng, pool = random.Random(79), primes(30)
    breaks = Counter()
    for k in range(60):
        spec = rational_spec(rng, 1 + k % 6, ("shared", "coprime")[k % 2], pool)
        fs, why = reduce_spec(spec, field)
        breaks[why] += 1
        if why == "denominator":
            assert any(v.denominator == p for v in spec.xs + spec.ys)
        elif why == "pair sum":
            assert any((x + y).numerator % p == 0 for x in spec.xs for y in spec.ys)
        else:
            invert = why is None
            assert closed(fs, invert, hold=k % 3 == 0) == phi_all(closed(spec, invert), p)
            if not invert:
                assert det_closed(fs) == 0
    assert breaks == {None: 44, "pair sum": 7, "singular": 5, "denominator": 4}
