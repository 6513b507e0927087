import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cauchykit.ring import (
    ContextMismatchError,
    FpElement,
    NotInvertibleError,
    PrimeField,
    RationalRing,
    UnorderedRingError,
    _inv_all_mod,
    _inv_rows_mod,
    _is_prime,
)

RING = RationalRing()
F101 = PrimeField(101)


def assert_names_zero(err, p):
    # every F_p inversion raises NotInvertibleError on the zero residue itself
    assert isinstance(err.value, FpElement) and err.value == FpElement(0, p)
    assert str(err) == f"not invertible: FpElement(0, p={p})"


def egcd(a, b):
    # independent oracle for modular inverses
    if b == 0:
        return a, 1, 0
    g, x, y = egcd(b, a % b)
    return g, y, x - (a // b) * y


class TestRational:
    def test_exact_addition(self):
        assert Q(1, 2) + Q(1, 3) == Q(5, 6)

    def test_canonical_on_construction(self):
        assert Q(-2, 4) == Q(-1, 2)
        assert Q(-2, 4).denominator == 2

    def test_inv(self):
        assert RING.inv(Q(3, 7)) == Q(7, 3)

    def test_inv_zero_rejected(self):
        with pytest.raises(NotInvertibleError):
            RING.inv(Q(0))

    def test_is_invertible(self):
        assert not RING.is_invertible(Q(0))
        assert RING.is_invertible(Q(-5, 9))

    def test_cmp(self):
        assert RING.cmp(Q(1, 3), Q(1, 2)) == -1
        assert RING.cmp(Q(-1), Q(-2)) == 1
        assert RING.cmp(Q(2, 4), Q(1, 2)) == 0

    def test_parse_render_examples(self):
        assert RING.parse("3/7") == Q(3, 7)
        assert RING.parse("-5") == Q(-5)
        assert RING.render(Q(-1, 2)) == "-1/2"
        assert RING.render(Q(4)) == "4"

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            RING.parse("three sevenths")

    def test_coerce_rejects_float(self):
        with pytest.raises(TypeError):
            RING.coerce(0.5)

    def test_coerce_rejects_prime_field(self):
        with pytest.raises(ContextMismatchError):
            RING.coerce(FpElement(3, 101))


class TestPrimeField:
    def test_modular_reduction(self):
        assert F101.coerce(100) + F101.coerce(2) == F101.coerce(1)

    def test_inv_two_is_51(self):
        assert F101.inv(2) == FpElement(51, 101)
        assert F101.coerce(2) * F101.inv(2) == F101.one

    def test_inv_matches_extended_euclid(self):
        for v in range(1, 101):
            g, x, _ = egcd(v, 101)
            assert g == 1
            assert F101.inv(v) == FpElement(x, 101)

    def test_inv_zero_rejected(self):
        with pytest.raises(NotInvertibleError) as exc:
            F101.inv(0)
        assert_names_zero(exc.value, 101)

    def test_p_reduces_to_zero(self):
        assert not F101.is_invertible(101)
        assert F101.coerce(101) == F101.zero

    def test_cmp_raises(self):
        with pytest.raises(UnorderedRingError):
            F101.cmp(1, 2)

    def test_sorting_residues_raises(self):
        with pytest.raises(UnorderedRingError):
            sorted([FpElement(3, 101), FpElement(1, 101)])

    def test_nonprime_modulus_rejected(self):
        with pytest.raises(ValueError):
            PrimeField(100)

    @pytest.mark.parametrize("p", [7.0, "7"], ids=("float", "str"))
    def test_non_integer_modulus_rejected(self, p):
        with pytest.raises(ValueError, match="prime field modulus"):
            PrimeField(p)

    def test_large_prime_modulus_is_prompt(self):
        assert PrimeField(2**61 - 1).inv(2) * 2 == 1

    @pytest.mark.parametrize(
        "n",
        [
            561,  # Carmichael number
            3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
            318665857834031151167461,  # strong pseudoprime to bases 2..37
            3317044064679887385961981,  # the bound itself (a pseudoprime to bases 2..41)
            2**89 - 1,  # a prime above the bound
        ],
    )
    def test_pseudoprimes_and_oversized_moduli_rejected(self, n):
        with pytest.raises(ValueError):
            PrimeField(n)

    def test_primality_agrees_with_trial_division(self):
        def by_trial_division(n):
            return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))

        assert [n for n in range(1 << 16) if _is_prime(n)] == [
            n for n in range(1 << 16) if by_trial_division(n)
        ]

    def test_default_modulus(self):
        assert PrimeField().p == 101

    def test_parse_render(self):
        assert F101.parse("103") == FpElement(2, 101)
        assert F101.render(FpElement(2, 101)) == "2"

    def test_pow_matches_repeated_product_and_inverse(self):
        for v in (1, 2, 7, 100):
            a = FpElement(v, 101)
            assert a**0 == F101.one
            product = F101.one
            for k in range(1, 6):
                product = product * a
                assert a**k == product
                assert a**-k == F101.inv(product)
                assert a**-k * a**k == F101.one

    def test_pow_of_zero(self):
        zero = FpElement(0, 101)
        assert zero**0 == F101.one
        assert zero**3 == F101.zero
        with pytest.raises(NotInvertibleError) as exc:
            zero**-1
        assert_names_zero(exc.value, 101)

    def test_division(self):
        a = FpElement(7, 101)
        assert (a / FpElement(2, 101)) * FpElement(2, 101) == a
        for zero_division in (lambda: a / FpElement(0, 101), lambda: a / 0, lambda: a / 202,
                              lambda: 1 / FpElement(0, 101), lambda: 7 / FpElement(101, 101)):
            with pytest.raises(NotInvertibleError) as exc:
                zero_division()
            assert_names_zero(exc.value, 101)


class TestInvAll:
    @pytest.mark.parametrize("ctx", (RING, F101), ids=("rational", "f101"))
    def test_equals_inv_one_by_one(self, ctx):
        rng = random.Random(5)
        for size in (1, 2, 7, 40):
            values = [ctx.coerce(rng.randint(1, 100)) * (-1) ** rng.randint(0, 1) for _ in range(size)]
            if ctx is RING:
                values = [v / rng.randint(1, 9) for v in values]
            assert ctx.inv_all(values) == [ctx.inv(v) for v in values]

    def test_large_prime(self):
        field = PrimeField(2**31 - 1)
        values = list(range(2**31 - 40, 2**31 - 1)) + [1, 2, 3]
        assert field.inv_all(values) == [field.inv(v) for v in values]

    @pytest.mark.parametrize("ctx", (RING, F101), ids=("rational", "f101"))
    @pytest.mark.parametrize("position", (0, 2, 4))
    def test_zero_anywhere_raises(self, ctx, position):
        values = [ctx.coerce(v) for v in (3, 5, 7, 11, 13)]
        values[position] = ctx.zero
        with pytest.raises(NotInvertibleError) as exc:
            ctx.inv_all(values)
        if ctx is F101:
            assert_names_zero(exc.value, 101)

    def test_multiple_of_p_is_zero(self):
        with pytest.raises(NotInvertibleError) as exc:
            F101.inv_all([1, 202, 3])
        assert_names_zero(exc.value, 101)

    @pytest.mark.parametrize("ctx", (RING, F101), ids=("rational", "f101"))
    def test_empty(self, ctx):
        assert ctx.inv_all([]) == []

    def test_residue_routine_takes_unreduced_integers(self):
        values = [3, 101 + 5, 2 * 101 - 1, -7]
        assert _inv_all_mod(list(values), 101) == [pow(v, -1, 101) for v in values]
        with pytest.raises(NotInvertibleError) as exc:
            _inv_all_mod([1, 2 * 101, 3], 101)
        assert_names_zero(exc.value, 101)


PRIMES = (2, 3, 101, 2**31 - 1, 2**61 - 1)


class TestInvRows:
    """The grouped sweep: every inverse against pow(v, -1, p), every row
    product against math.prod(row) % p."""

    @staticmethod
    def check(rows, p):
        inv, prods = _inv_rows_mod([list(row) for row in rows], p)
        assert inv == [pow(v, -1, p) for row in rows for v in row]
        assert prods == [math.prod(row) % p for row in rows]
        assert all(0 <= v < p for v in inv + prods)

    @pytest.mark.parametrize("p", PRIMES)
    def test_rows_of_unequal_length(self, p):
        rng = random.Random(p)
        for lengths in ((1,), (1, 1, 1), (3, 1, 4, 1, 5), (7, 2), (1, 9, 1)):
            # unreduced and negative integers prime to p, as the pair sums are
            rows = [[rng.randrange(1, p) + p * rng.randint(-2, 2) for _ in range(k)]
                    for k in lengths]
            self.check(rows, p)

    @pytest.mark.parametrize("p", PRIMES)
    def test_square_rows(self, p):
        rng = random.Random(p + 1)
        for n in (1, 2, 8, 24):
            self.check([[rng.randrange(1, p) for _ in range(n)] for _ in range(n)], p)

    @pytest.mark.parametrize("p", PRIMES)
    def test_empty(self, p):
        assert _inv_rows_mod([], p) == ([], [])
        assert _inv_rows_mod([[]], p) == ([], [1])
        self.check([[], [p - 1], []], p)

    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("where", ((0, 0), (1, 0), (1, 2), (3, 0)))
    def test_multiple_of_p_in_any_row_raises(self, p, where):
        rows = [[1], [1, 1, 1], [1, 1], [1]]
        rows[where[0]][where[1]] = 3 * p
        with pytest.raises(NotInvertibleError) as exc:
            _inv_rows_mod(rows, p)
        assert_names_zero(exc.value, p)

    @pytest.mark.parametrize("p", PRIMES)
    def test_flat_helper_is_the_one_row_case(self, p):
        vs = [random.Random(p + 2).randrange(1, p) for _ in range(6)]
        assert _inv_all_mod(list(vs), p) == _inv_rows_mod([list(vs)], p)[0]


class TestContextMixing:
    def test_mixed_primes(self):
        with pytest.raises(ContextMismatchError):
            FpElement(1, 101) + FpElement(1, 5)
        with pytest.raises(ContextMismatchError, match="residue mod 5 used in F_7 context"):
            PrimeField(7).coerce(FpElement(1, 5))

    def test_fraction_plus_residue(self):
        with pytest.raises(ContextMismatchError):
            Q(1, 2) + FpElement(1, 101)

    def test_residue_plus_fraction(self):
        with pytest.raises(ContextMismatchError):
            FpElement(1, 101) + Q(1, 2)

    def test_prime_field_coerce_rejects_fraction(self):
        with pytest.raises(ContextMismatchError):
            F101.coerce(Q(1, 2))

    def test_int_lifts_fine(self):
        assert FpElement(100, 101) + 2 == FpElement(1, 101)
        assert 2 * FpElement(51, 101) == FpElement(1, 101)


class TestOperands:
    def test_each_operator_with_an_int_on_either_side(self):
        a = FpElement(7, 101)
        assert a + 100 == 100 + a == FpElement(6, 101)
        assert (a - 10, 10 - a) == (FpElement(98, 101), FpElement(3, 101))
        assert a * 30 == 30 * a == FpElement(210, 101)
        assert (a / 2, 2 / a) == (FpElement(7 * 51, 101), FpElement(2 * pow(7, -1, 101), 101))

    def test_foreign_operand_gets_its_reflected_method(self):
        # a non-scalar operand makes FpElement return NotImplemented, so
        # Python calls the operand's reflected method
        class Foreign:
            def __radd__(self, other):
                return "radd", other

            def __rsub__(self, other):
                return "rsub", other

            def __rmul__(self, other):
                return "rmul", other

            def __rtruediv__(self, other):
                return "rtruediv", other

        a, f = FpElement(3, 101), Foreign()
        assert [a + f, a - f, a * f, a / f] == [("radd", a), ("rsub", a), ("rmul", a), ("rtruediv", a)]

    @pytest.mark.parametrize("other", ["3", None, [3]], ids=("str", "none", "list"))
    def test_other_non_scalars_raise_type_error(self, other):
        a = FpElement(3, 101)
        for op in (lambda: a + other, lambda: other + a, lambda: a - other, lambda: other - a,
                   lambda: a * other, lambda: a / other, lambda: other / a):
            with pytest.raises(TypeError):
                op()
        assert (a == other, other == a, a != other) == (False, False, True)

    @pytest.mark.parametrize("other", [Q(1, 2), 0.5, 1j], ids=("fraction", "float", "complex"))
    def test_fraction_float_and_complex_are_a_context_mismatch(self, other):
        a = FpElement(3, 101)
        for op in (lambda: a + other, lambda: other - a, lambda: a * other, lambda: other / a):
            with pytest.raises(ContextMismatchError):
                op()


rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4)
residues = st.integers(min_value=0, max_value=100).map(lambda v: FpElement(v, 101))


@given(rationals, rationals, rationals)
def test_rational_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    if a != 0:
        assert a * RING.inv(a) == Q(1)


@given(residues, residues, residues)
def test_prime_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    if a != F101.zero:
        assert a * F101.inv(a) == F101.one


@given(
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=-20, max_value=20).filter(lambda k: k != 0),
)
def test_common_factors_cancel(n, d, k):
    assert Q(k * n, k * d) == Q(n, d)


@given(rationals)
def test_rational_round_trip(a):
    assert RING.parse(RING.render(a)) == a


@given(residues)
def test_prime_field_round_trip(a):
    assert F101.parse(F101.render(a)) == a


def test_round_trip_random_sample():
    rng = random.Random(20240817)
    for _ in range(200):
        a = Q(rng.randint(-999, 999), rng.randint(1, 999))
        assert RING.parse(RING.render(a)) == a
        b = FpElement(rng.randrange(101), 101)
        assert F101.parse(F101.render(b)) == b
