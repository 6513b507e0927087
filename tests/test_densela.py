import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchykit import densela
from cauchykit.densela import (
    Matrix,
    ShapeError,
    SizeLimitError,
    WeightVectors,
    border_with_ones,
    lemma_ab_check,
    matrix_to_json,
)
from cauchykit.ring import (
    ContextMismatchError,
    FpElement,
    NotInvertibleError,
    PrimeField,
    RationalRing,
)

RING = RationalRing()
F101 = PrimeField(101)
RINGS = (RING, F101)


def rand_scalar(rng, ctx):
    if ctx is RING:
        return Q(rng.randint(-9, 9), rng.randint(1, 9))
    return ctx.coerce(rng.randrange(ctx.p))


def rand_matrix(rng, ctx, rows, cols):
    return Matrix(rows, cols, [rand_scalar(rng, ctx) for _ in range(rows * cols)], ctx)


class TestConstruction:
    def test_entry_count_checked(self):
        with pytest.raises(ShapeError):
            Matrix(2, 2, [1, 2, 3], RING)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ShapeError):
            Matrix.from_rows([[1, 2], [3]], RING)

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            Matrix(0, 3, [], RING)
        with pytest.raises(ShapeError, match="at least one row"):
            Matrix.from_rows([], RING)

    def test_entry_out_of_range(self):
        m = Matrix.from_rows([[1, 2], [3, 4]], RING)
        assert m.entry(1, 0) == 3
        for i, j in ((0, 2), (2, 0), (-1, 0), (0, -1)):
            with pytest.raises(IndexError, match="out of range for 2x2"):
                m.entry(i, j)

    def test_entries_coerced(self):
        m = Matrix.from_rows([[1, "1/2"]], RING)
        assert m.entry(0, 1) == Q(1, 2)

    def test_transpose(self):
        m = Matrix.from_rows([[1, 2, 3], [4, 5, 6]], RING)
        assert m.transpose().to_rows() == [[1, 4], [2, 5], [3, 6]]

    def test_repr(self):
        assert repr(Matrix.from_rows([[1, "-1/2"], [3, 4]], RING)) == "Matrix(2x2: 1 -1/2; 3 4)"
        assert repr(Matrix.from_rows([[100, 102]], F101)) == "Matrix(1x2: 100 1)"


class TestMatMul:
    def test_hand_product(self):
        a = Matrix.from_rows([[1, 2], [3, 4]], RING)
        b = Matrix.from_rows([[5, 6], [7, 8]], RING)
        assert (a * b).to_rows() == [[19, 22], [43, 50]]
        assert (b * a).to_rows() == [[23, 34], [31, 46]]

    def test_identity_is_neutral(self):
        rng = random.Random(3)
        a = rand_matrix(rng, RING, 3, 3)
        assert a * Matrix.identity(3, RING) == a
        assert Matrix.identity(3, RING) * a == a

    def test_dot_product_shape(self):
        row = Matrix.from_rows([[2, 3]], RING)
        col = Matrix.from_rows([[4], [5]], RING)
        assert (row * col).to_rows() == [[23]]

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            Matrix.identity(2, RING) * Matrix.identity(3, RING)

    def test_non_matrix_operand(self):
        # Matrix returns NotImplemented, so Python raises for * and falls back to identity for ==
        m = Matrix.identity(2, RING)
        for other in (2, Q(1, 2), [[1, 0], [0, 1]]):
            with pytest.raises(TypeError):
                m * other
            assert (m == other, other == m, m != other) == (False, False, True)

    def test_context_mismatch(self):
        with pytest.raises(ContextMismatchError):
            Matrix.identity(2, RING) * Matrix.identity(2, F101)


class TestDeterminants:
    def test_one_by_one(self):
        assert Matrix.from_rows([[Q(5, 3)]], RING).det_cofactor() == Q(5, 3)

    def test_two_by_two(self):
        m = Matrix.from_rows([[1, 1], [2, 3]], RING)
        assert m.det_cofactor() == 1
        assert m.det_fast() == 1

    def test_equal_rows_vanish(self):
        m = Matrix.from_rows([[1, 2, 3], [4, 5, 6], [1, 2, 3]], RING)
        assert m.det_cofactor() == 0
        assert m.det_fast() == 0

    def test_non_square_rejected(self):
        m = Matrix.from_rows([[1, 2, 3], [4, 5, 6]], RING)
        with pytest.raises(ShapeError):
            m.det_cofactor()
        with pytest.raises(ShapeError):
            m.det_fast()

    def test_cofactor_size_guard(self):
        big = Matrix.identity(9, RING)
        with pytest.raises(SizeLimitError):
            big.det_cofactor()

    def test_prime_field_diagonal(self):
        m = Matrix.from_rows([[2, 0], [0, 3]], F101)
        assert m.det_fast() == F101.coerce(6)

    @pytest.mark.parametrize("ctx", RINGS, ids=("rational", "f101"))
    def test_routes_agree(self, ctx):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(1, 6)
            m = rand_matrix(rng, ctx, n, n)
            assert m.det_fast() == m.det_cofactor()

    def test_fast_handles_zero_pivot(self):
        m = Matrix.from_rows([[0, 1], [1, 0]], RING)
        assert m.det_fast() == -1

    @pytest.mark.parametrize("ctx", RINGS, ids=("rational", "f101"))
    def test_multiplicative(self, ctx):
        rng = random.Random(17)
        for _ in range(20):
            n = rng.randint(1, 5)
            a, b = rand_matrix(rng, ctx, n, n), rand_matrix(rng, ctx, n, n)
            assert (a * b).det_fast() == a.det_fast() * b.det_fast()

    def test_bareiss_keeps_integer_work_integral(self):
        rng = random.Random(23)
        m = Matrix.from_rows([[rng.randint(-9, 9) for _ in range(5)] for _ in range(5)], RING)
        d = m.det_fast()
        assert d.denominator == 1
        assert d == m.det_cofactor()


class TestAdjugate:
    def test_one_by_one_is_identity(self):
        assert Matrix.from_rows([[Q(7)]], RING).adjugate().to_rows() == [[1]]

    def test_two_by_two_swap_negate(self):
        m = Matrix.from_rows([[1, 1], [2, 3]], RING)
        assert m.adjugate().to_rows() == [[3, -1], [-2, 1]]

    @pytest.mark.parametrize("ctx", RINGS, ids=("rational", "f101"))
    def test_fundamental_identity(self, ctx):
        rng = random.Random(31)
        for _ in range(15):
            n = rng.randint(1, 4)
            a = rand_matrix(rng, ctx, n, n)
            adj = a.adjugate()
            det_i = Matrix(
                n, n,
                [a.det_fast() if i == j else ctx.zero for i in range(n) for j in range(n)],
                ctx,
            )
            assert a * adj == det_i
            assert adj * a == det_i

    def test_reduced_horner_over_a_large_prime(self):
        p, n = 2**61 - 1, 24
        ctx, rng = PrimeField(p), random.Random(67)
        a = Matrix(n, n, [rng.randrange(p) for _ in range(n * n)], ctx)
        adj = a.adjugate()
        det = a.det_fast()
        assert a * adj == Matrix(n, n, [det if i == j else 0 for i in range(n) for j in range(n)], ctx)
        # the unreduced route: the same residues as integers over Q, reduced at the end
        unreduced = Matrix(n, n, [e.value for e in a.entries], RING).adjugate()
        assert all(e.denominator == 1 for e in unreduced.entries)
        assert adj.entries == tuple(FpElement(e.numerator, p) for e in unreduced.entries)


def minors_adjugate(a):
    """Adjugate entry by entry: (-1)^(i+j) times the cofactor determinant of
    A with row j and column i removed; [[1]] for n = 1."""
    n, rows = a.rows, a.to_rows()
    if n == 1:
        return Matrix(1, 1, [1], a.ctx)
    out = []
    for i in range(n):
        for j in range(n):
            minor = [[e for c, e in enumerate(row) if c != i] for r, row in enumerate(rows) if r != j]
            d = Matrix.from_rows(minor, a.ctx).det_cofactor()
            out.append(d if (i + j) % 2 == 0 else -d)
    return Matrix(n, n, out, a.ctx)


def rand_square(rng, ctx, n, singular):
    """A random n x n matrix; with ``singular``, its last row repeats the first."""
    a = rand_matrix(rng, ctx, n, n)
    if not singular or n == 1:
        return a
    rows = a.to_rows()
    rows[-1] = list(rows[0])
    return Matrix.from_rows(rows, ctx)


class TestBerkowitz:
    def test_hand_charpoly(self):
        # det(tI - [[1, 2], [3, 4]]) = t^2 - 5t - 2
        assert Matrix.from_rows([[1, 2], [3, 4]], RING).charpoly() == [1, -5, -2]
        assert Matrix.from_rows([[Q(1, 2)]], RING).charpoly() == [1, Q(-1, 2)]

    @pytest.mark.parametrize("ctx", RINGS, ids=("rational", "f101"))
    def test_three_determinant_routes_agree(self, ctx):
        rng = random.Random(59)
        singular = 0
        for k in range(60):
            a = rand_square(rng, ctx, rng.randint(1, 6), k % 3 == 0)
            det = a.det_fast()
            singular += det == 0
            assert a.det_berkowitz() == det == a.det_cofactor()
        assert singular >= 15

    @pytest.mark.parametrize("ctx", RINGS, ids=("rational", "f101"))
    def test_adjugate_equals_minors(self, ctx):
        rng = random.Random(61)
        for k in range(40):
            a = rand_square(rng, ctx, rng.randint(1, 5), k % 3 == 0)
            adj = a.adjugate()
            assert adj == minors_adjugate(a)
            assert a.adjugate_entry_sum() == adj.entry_sum()

    def test_large_prime_field_at_n32(self):
        # the residues are reduced mod p at each dot product; the result must not move
        field = PrimeField(2**61 - 1)
        rng = random.Random(67)
        a = Matrix(32, 32, [field.coerce(rng.randrange(field.p)) for _ in range(32 * 32)], field)
        det = a.det_fast()
        assert det != 0 and a.det_berkowitz() == det
        assert a.charpoly()[-1] == det and a.charpoly()[1] == -a.trace()
        assert a.adjugate_entry_sum() == det * a.inverse().entry_sum()

    def test_large_entries_keep_their_scale(self):
        # distinct large denominators: the integer lift's scale is their lcm
        a = Matrix.from_rows([["1/1000003", "2/7"], ["-5/999983", "3/11"]], RING)
        assert a.det_berkowitz() == a.det_fast() == a.det_cofactor()
        assert a.adjugate() == minors_adjugate(a)


class TestInverse:
    def test_cauchy_two_by_two(self):
        m = Matrix.from_rows([["1/4", "1/6"], ["1/5", "1/7"]], RING)
        assert m.inverse().to_rows() == [[60, -70], [-84, 105]]

    def test_identity(self):
        i3 = Matrix.identity(3, RING)
        assert i3.inverse() == i3

    def test_singular_raises_with_det(self):
        m = Matrix.from_rows([[1, 1], [1, 1]], RING)
        with pytest.raises(NotInvertibleError) as exc_info:
            m.inverse()
        assert exc_info.value.value == 0

    @pytest.mark.parametrize("ctx", RINGS, ids=("rational", "f101"))
    def test_left_and_right_inverse(self, ctx):
        rng = random.Random(37)
        done = 0
        while done < 12:
            n = rng.randint(1, 5)
            a = rand_matrix(rng, ctx, n, n)
            if not ctx.is_invertible(a.det_fast()):
                continue
            inv = a.inverse()
            assert a * inv == Matrix.identity(n, ctx)
            assert inv * a == Matrix.identity(n, ctx)
            done += 1

    @pytest.mark.parametrize("ctx", RINGS, ids=("rational", "f101"))
    def test_elimination_agrees_with_adjugate_route(self, ctx):
        rng = random.Random(41)
        done = 0
        while done < 12:
            n = rng.randint(1, 5)
            a = rand_matrix(rng, ctx, n, n)
            det = a.det_cofactor()
            if not ctx.is_invertible(det):
                continue
            scale = ctx.inv(det)
            assert a.inverse().entries == tuple(scale * e for e in a.adjugate().entries)
            done += 1


F61 = PrimeField(2**61 - 1)
KERNEL_RINGS = (RING, F101, F61)
# distinct primes just above 10^6: each rational entry its own large coprime denominator
BIG_PRIMES = [q for q in range(10**6, 10**6 + 1400) if all(q % d for d in range(2, 1001))]


def kernel_matrix(rng, ctx, n, kind):
    """A random n x n matrix for the elimination kernel. Over Q the entries
    are signed with distinct large prime denominators. ``kind`` is "full",
    "swaps" (column 0 zero above the last row and about half the other
    entries zero, so pivots are found by row swaps) or "deficient" (the last
    row a combination of the others, a zero matrix at n = 1)."""
    if ctx is RING:
        dens = rng.sample(BIG_PRIMES, n * n)
        rows = [[Q(rng.randint(-10**6, 10**6), dens[i * n + j]) for j in range(n)]
                for i in range(n)]
    else:
        rows = [[ctx.coerce(rng.randrange(ctx.p)) for _ in range(n)] for _ in range(n)]
    if kind == "swaps":
        rows = [[e if rng.random() < 0.5 else 0 * e for e in row] for row in rows]
        for row in rows[:-1]:
            row[0] = 0 * row[0]
    elif kind == "deficient":
        coef = [ctx.coerce(rng.randint(-3, 3)) for _ in range(n - 1)]
        rows[-1] = [sum((c * row[j] for c, row in zip(coef, rows)), 0 * rows[0][0])
                    for j in range(n)]
    return Matrix.from_rows(rows, ctx)


class TestKeptResults:
    """A matrix keeps its determinant and inverse: one elimination serves both."""

    def count_eliminations(self, monkeypatch):
        calls = []
        eliminate = densela._eliminate

        def counting(a, jordan=False):
            calls.append(jordan)
            return eliminate(a, jordan)

        monkeypatch.setattr(densela, "_eliminate", counting)
        return calls

    @pytest.mark.parametrize("ctx", RINGS, ids=("rational", "f101"))
    def test_inverse_then_det(self, monkeypatch, ctx):
        calls = self.count_eliminations(monkeypatch)
        m = rand_matrix(random.Random(41), ctx, 5, 5)
        fresh = Matrix(5, 5, m.entries, ctx)
        inv = m.inverse()
        assert m.inverse() is inv and m.det_fast() == fresh.det_fast()
        assert calls == [True, False]  # one run each for m and fresh

    def test_det_then_inverse(self, monkeypatch):
        calls = self.count_eliminations(monkeypatch)
        m = Matrix.from_rows([[1, 2], [3, 4]], RING)
        assert m.det_fast() == -2 and m.det_fast() == -2
        assert m.inverse().to_rows() == [[-2, 1], [Q(3, 2), Q(-1, 2)]]
        assert calls == [False, True]

    @pytest.mark.parametrize("first", ("inverse", "det_fast"))
    def test_singular_raises_on_every_call(self, monkeypatch, first):
        calls = self.count_eliminations(monkeypatch)
        m = Matrix.from_rows([[1, 2], [2, 4]], RING)
        if first == "det_fast":
            assert m.det_fast() == 0
        for _ in range(3):
            with pytest.raises(NotInvertibleError, match="det = 0") as info:
                m.inverse()
            assert info.value.value == 0
        assert m.det_fast() == 0
        assert len(calls) == 1

    def test_equality_ignores_kept_results(self):
        m = Matrix.from_rows([[1, 2], [3, 5]], RING)
        other = Matrix.from_rows([[1, 2], [3, 5]], RING)
        m.inverse()
        assert m == other and hash(m) == hash(other)


ORACLE_CALLS = {  # densela function -> the Matrix method call that runs it
    "det_cofactor": lambda m: m.det_cofactor(),
    "det_fast": lambda m: m.det_fast(),
    "charpoly": lambda m: m.charpoly(),
    "det_berkowitz": lambda m: m.det_berkowitz(),
    "adjugate": lambda m: m.adjugate(),
    "adjugate_entry_sum": lambda m: m.adjugate_entry_sum(),
    "inverse": lambda m: m.inverse(),
    "matmul": lambda m: m * m,
}


@pytest.mark.parametrize("name", ORACLE_CALLS)
def test_each_oracle_method_runs_the_densela_function(monkeypatch, name):
    """A routine replaced in densela is the one the Matrix method runs."""
    seen = []
    monkeypatch.setattr(densela, name, lambda *args: seen.append(args) or "replaced")
    m = Matrix.from_rows([[1, 2], [3, 5]], RING)
    assert ORACLE_CALLS[name](m) == "replaced"
    assert seen == [(m, m) if name == "matmul" else (m,)]
    assert m._det is None and m._inv is None


class TestEliminationKernel:
    """det_fast and inverse run on raw integers; hold them against the
    division-free and cofactor routes and the product with A."""

    @pytest.mark.parametrize("ctx", KERNEL_RINGS, ids=("rational", "f101", "f2^61-1"))
    def test_against_other_routes(self, ctx):
        rng = random.Random(71)
        scalar = Q if ctx is RING else FpElement
        swaps = singular = 0
        for n in range(1, 10):
            for kind in ("full", "swaps", "deficient"):
                a = kernel_matrix(rng, ctx, n, kind)
                det = a.det_fast()
                assert isinstance(det, scalar) and ctx.coerce(det) is det
                assert det == a.det_berkowitz()
                if n <= 8:
                    assert det == a.det_cofactor()
                swaps += a.entry(0, 0) == 0 and n > 1
                if det == 0:
                    singular += 1
                    with pytest.raises(NotInvertibleError, match=r"singular: det = 0\Z") as exc:
                        a.inverse()
                    assert exc.value.value == ctx.zero
                    assert isinstance(exc.value.value, scalar)
                    continue
                inv = a.inverse()
                assert all(isinstance(e, scalar) and ctx.coerce(e) is e for e in inv.entries)
                assert a * inv == Matrix.identity(n, ctx) == inv * a
        assert swaps >= 8 and singular >= 9

    def test_permutation_signs(self):
        # a pivot is found by a swap at every step; the sign follows the swaps
        for ctx in KERNEL_RINGS:
            m = Matrix.from_rows([[0, 0, 0, 2], [0, 0, 3, 0], [0, 5, 0, 0], [7, 0, 0, 0]], ctx)
            assert m.det_fast() == ctx.coerce(210) == m.det_cofactor()
            assert m.inverse() * m == Matrix.identity(4, ctx)

    def test_no_ring_inversion(self, monkeypatch):
        calls = []
        for cls in (RationalRing, PrimeField):
            inv = cls.inv

            def counting(self, a, inv=inv):
                calls.append(a)
                return inv(self, a)

            monkeypatch.setattr(cls, "inv", counting)
        rng = random.Random(73)
        for ctx in KERNEL_RINGS:
            for n in (1, 4, 8):
                a = kernel_matrix(rng, ctx, n, "full")
                assert a.inverse() * a == Matrix.identity(n, ctx)
                assert a.det_fast() != 0
                with pytest.raises(NotInvertibleError):
                    kernel_matrix(rng, ctx, n, "deficient").inverse()
        assert calls == []


class TestSums:
    def test_entry_sum(self):
        m = Matrix.from_rows([[60, -70], [-84, 105]], RING)
        assert m.entry_sum() == 11

    def test_zero_matrix(self):
        assert Matrix(2, 3, [0] * 6, RING).entry_sum() == 0

    def test_column_sum(self):
        m = Matrix.from_rows([[3, -1], [-2, 1]], RING)
        assert m.column_sum(0) == 1
        assert m.column_sum(1) == 0

    def test_column_out_of_range(self):
        with pytest.raises(IndexError):
            Matrix.identity(2, RING).column_sum(2)

    def test_row_out_of_range(self):
        m = Matrix.from_rows([[1, 2], [3, 4]], RING)
        assert m.row(1) == (3, 4)
        for i in (2, 5, -1, -2):
            with pytest.raises(IndexError):
                m.row(i)

    def test_trace(self):
        m = Matrix.from_rows([[1, 2], [3, 4]], RING)
        assert m.trace() == 5
        with pytest.raises(ShapeError):
            Matrix.from_rows([[1, 2, 3]], RING).trace()


M61 = 2**61 - 1  # a Mersenne prime


def sum_cases():
    """Matrices with zeros, negative entries and coprime denominators up to 2**61 - 1, in both rings."""
    rng = random.Random(2)
    dens = [1, 2, 3, 5, 7, 2**31 - 1, M61]  # 1 and primes: pairwise coprime
    q = [Matrix(3, 4, [Q(rng.choice([0, 0, 1, -1]) * rng.randint(0, 2**64), rng.choice(dens))
                       for _ in range(12)], RING) for _ in range(20)]
    fp = [Matrix(3, 4, [rng.choice([0, 1, M61 - 1, rng.randrange(M61)]) for _ in range(12)], PrimeField(M61))
          for _ in range(20)]
    return q + fp + [Matrix(2, 2, [0] * 4, RING), Matrix(1, 1, [-5], F101), Matrix(1, 3, ["-1/2", "1/3", "1/6"], RING)]


class TestOneStepSums:
    """entry_sum and column_sum add in one step what sum(..., ctx.zero) adds one scalar at a time."""

    @pytest.mark.parametrize("m", sum_cases())
    def test_entry_sum_is_the_ring_sum(self, m):
        want = sum(m.entries, m.ctx.zero)
        assert m.entry_sum() == want
        assert type(m.entry_sum()) is type(want)

    @pytest.mark.parametrize("m", sum_cases())
    def test_column_sums_are_the_ring_sums(self, m):
        for j in range(m.cols):
            want = sum(m.column(j), m.ctx.zero)
            assert m.column_sum(j) == want
            assert m.ctx.render(m.column_sum(j)) == m.ctx.render(want)


class TestLemmaAb:
    def test_hand_value(self):
        a = Matrix.from_rows([[1, 2], [3, 4]], RING)
        b = Matrix.from_rows([[5, 6], [7, 8]], RING)
        w = WeightVectors((Q(1), Q(2)), (Q(3), Q(4)))
        lhs, rhs = lemma_ab_check(a, b, w)
        assert lhs == rhs == 372

    def test_zero_matrix(self):
        a = Matrix(2, 2, [0] * 4, RING)
        b = Matrix.from_rows([[5, 6], [7, 8]], RING)
        w = WeightVectors((Q(1), Q(2)), (Q(3), Q(4)))
        assert lemma_ab_check(a, b, w) == (0, 0)

    def test_rectangular(self):
        rng = random.Random(41)
        a = rand_matrix(rng, RING, 1, 2)
        b = rand_matrix(rng, RING, 2, 1)
        w = WeightVectors((rand_scalar(rng, RING),), (rand_scalar(rng, RING), rand_scalar(rng, RING)))
        lhs, rhs = lemma_ab_check(a, b, w)
        assert lhs == rhs

    def test_context_checked(self):
        with pytest.raises(ContextMismatchError, match="different ring contexts"):
            lemma_ab_check(Matrix.identity(2, RING), Matrix.identity(2, F101),
                           WeightVectors((Q(1),) * 2, (Q(1),) * 2))

    def test_shape_checked(self):
        a = Matrix.identity(2, RING)
        with pytest.raises(ShapeError):
            lemma_ab_check(a, Matrix.identity(3, RING), WeightVectors((Q(1),) * 2, (Q(1),) * 2))
        with pytest.raises(ShapeError):
            lemma_ab_check(a, a, WeightVectors((Q(1),), (Q(1), Q(2))))

    @settings(deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
    )
    def test_identity_holds_generally(self, n, m, seed):
        rng = random.Random(seed)
        a = rand_matrix(rng, RING, n, m)
        b = rand_matrix(rng, RING, m, n)
        w = WeightVectors(
            tuple(rand_scalar(rng, RING) for _ in range(n)),
            tuple(rand_scalar(rng, RING) for _ in range(m)),
        )
        lhs, rhs = lemma_ab_check(a, b, w)
        assert lhs == rhs


def lemma_by_products(a, b, w):
    """Both sides of the trace identity with the right side read off the
    whole products AB and BA."""
    ctx = a.ctx
    xs, ys = [ctx.coerce(x) for x in w.xs], [ctx.coerce(y) for y in w.ys]
    lhs = ctx.zero
    for i in range(a.rows):
        for j in range(a.cols):
            lhs = lhs + (xs[i] + ys[j]) * a.entry(i, j) * b.entry(j, i)
    ab, ba = a * b, b * a
    rhs = ctx.zero
    for i in range(a.rows):
        rhs = rhs + xs[i] * ab.entry(i, i)
    for j in range(a.cols):
        rhs = rhs + ys[j] * ba.entry(j, j)
    return lhs, rhs


def lemma_scalar(rng, ctx, dens):
    if ctx is RING:  # signed, each with its own large prime denominator
        return Q(rng.randint(-10**6, 10**6), dens.pop())
    return ctx.coerce(rng.randrange(ctx.p))


class TestLemmaTraceTerms:
    """lemma_ab_check forms only the diagonals of AB and BA; each side must
    match the evaluation through whole matrix products."""

    @pytest.mark.parametrize("ctx", KERNEL_RINGS, ids=("rational", "f101", "f2^61-1"))
    @pytest.mark.parametrize("n, m", [(1, 1), (1, 5), (5, 1), (2, 3), (3, 2), (4, 4), (6, 3)])
    def test_each_side_matches_whole_products(self, ctx, n, m):
        rng = random.Random(97 * n + m)
        for _ in range(3):
            dens = rng.sample(BIG_PRIMES, 2 * n * m + n + m)
            a = Matrix(n, m, [lemma_scalar(rng, ctx, dens) for _ in range(n * m)], ctx)
            b = Matrix(m, n, [lemma_scalar(rng, ctx, dens) for _ in range(n * m)], ctx)
            w = WeightVectors(tuple(lemma_scalar(rng, ctx, dens) for _ in range(n)),
                              tuple(lemma_scalar(rng, ctx, dens) for _ in range(m)))
            lhs, rhs = lemma_ab_check(a, b, w)
            want_lhs, want_rhs = lemma_by_products(a, b, w)
            assert lhs == want_lhs
            assert rhs == want_rhs
            assert lhs == rhs
            assert ctx.coerce(rhs) == rhs

    def test_no_whole_product(self, monkeypatch):
        def refuse(self, other):
            raise AssertionError("lemma_ab_check formed a whole product")

        monkeypatch.setattr(Matrix, "__mul__", refuse)
        a = Matrix.from_rows([[1, 2, 0], [3, 4, 5]], RING)
        b = Matrix.from_rows([[5, 6], [7, 8], [1, -1]], RING)
        assert lemma_ab_check(a, b, WeightVectors((1, 2), (3, 4, 5))) == (337, 337)


def ring_lemma(a, b, w):
    """Both sides of the trace identity in ring arithmetic, one ring
    operation per term, with the trace terms as dot products."""
    ctx = a.ctx
    xs, ys = [ctx.coerce(x) for x in w.xs], [ctx.coerce(y) for y in w.ys]
    lhs = ctx.zero
    for i in range(a.rows):
        for j in range(a.cols):
            lhs = lhs + (xs[i] + ys[j]) * a.entry(i, j) * b.entry(j, i)
    rhs = ctx.zero
    for i in range(a.rows):
        rhs = rhs + xs[i] * sum((u * v for u, v in zip(a.row(i), b.column(i))), ctx.zero)
    for j in range(a.cols):
        rhs = rhs + ys[j] * sum((u * v for u, v in zip(b.row(j), a.column(j))), ctx.zero)
    return lhs, rhs


def lift_scalar(rng, ctx, dens):
    """A lemma operand: over Q with a denominator drawn from ``dens``
    (None: an int), over F_p a uniform residue."""
    if ctx is not RING:
        return ctx.coerce(rng.randrange(ctx.p))
    num = rng.randint(-10**6, 10**6)
    return num if dens is None else Q(num, rng.choice(dens))


class TestLemmaLift:
    """lemma_ab_check on integer lifts returns exactly the ring-arithmetic
    sides, whatever the denominators share."""

    DENOMINATORS = {  # operand denominators over Q; the weights take the same
        "small": range(1, 10),
        "shared": (6, 12, 36),
        "coprime": BIG_PRIMES[:60],
    }

    @pytest.mark.parametrize("ctx, dens", [(RING, d) for d in DENOMINATORS] + [(F101, None), (F61, None)],
                             ids=[f"q-{d}" for d in DENOMINATORS] + ["f101", "f2^61-1"])
    @pytest.mark.parametrize("n, m", [(1, 1), (1, 4), (4, 1), (2, 5), (5, 2), (3, 3), (6, 4)])
    def test_equals_ring_arithmetic(self, ctx, dens, n, m):
        rng = random.Random(7 * n + m)
        pool = self.DENOMINATORS.get(dens)
        for int_weights in (False, True):
            wd = None if int_weights else pool
            a = Matrix(n, m, [lift_scalar(rng, ctx, pool) for _ in range(n * m)], ctx)
            b = Matrix(m, n, [lift_scalar(rng, ctx, pool) for _ in range(n * m)], ctx)
            w = WeightVectors(tuple(lift_scalar(rng, ctx, wd) for _ in range(n)),
                              tuple(lift_scalar(rng, ctx, wd) for _ in range(m)))
            got, want = lemma_ab_check(a, b, w), ring_lemma(a, b, w)
            assert got == want
            assert [type(v) for v in got] == [type(v) for v in want]
            assert got[0] == got[1]


class TestBorder:
    def test_one_by_one(self):
        a = Matrix.from_rows([[Q(5)]], RING)
        assert border_with_ones(a).to_rows() == [[5, 1], [1, 0]]
        assert border_with_ones(a).det_fast() == -1
        assert a.adjugate_entry_sum() == 1

    def test_identity_two(self):
        a = Matrix.identity(2, RING)
        assert a.adjugate_entry_sum() == 2
        assert border_with_ones(a).det_fast() == -2

    @pytest.mark.parametrize("ctx", RINGS, ids=("rational", "f101"))
    def test_general_fact(self, ctx):
        rng = random.Random(43)
        for _ in range(25):
            n = rng.randint(1, 5)
            a = rand_matrix(rng, ctx, n, n)
            assert border_with_ones(a).det_fast() == -a.adjugate_entry_sum()

    def test_cofactor_route_agrees_on_border(self):
        rng = random.Random(47)
        a = rand_matrix(rng, RING, 3, 3)
        b = border_with_ones(a)
        assert b.det_fast() == b.det_cofactor()


class TestJson:
    def test_form(self):
        m = Matrix.from_rows([["1/2", 3]], RING)
        assert matrix_to_json(m) == {"rows": 1, "cols": 2, "entries": [["1/2", "3"]]}

    @pytest.mark.parametrize("m", sum_cases())
    def test_entries_are_the_ring_renders(self, m):
        rows = [[m.ctx.render(e) for e in m.row(i)] for i in range(m.rows)]
        assert matrix_to_json(m) == {"rows": m.rows, "cols": m.cols, "entries": rows}

    @pytest.mark.parametrize("ctx", RINGS)
    def test_derived_matrices_render_as_before(self, ctx):
        rng = random.Random(5)
        a = rand_matrix(rng, ctx, 4, 4)
        for m in (a, a * a, a.adjugate(), a.transpose(), border_with_ones(a), Matrix.identity(3, ctx)):
            want = [[ctx.render(e) for e in m.row(i)] for i in range(m.rows)]
            assert matrix_to_json(m)["entries"] == want
