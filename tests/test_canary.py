import math
import random
from fractions import Fraction as Q

import pytest

from cauchykit.canary import (
    CSV_HEADER,
    ExactZeroPivotError,
    FloatMatrix,
    float_image,
    hilbert_spec,
    identity_residual,
    invert_closed_float,
    invert_gauss_pp,
    run_canary,
)
from cauchykit.cauchy import CauchySpec, build, inverse_closed, is_invertible_spec
from cauchykit.ring import CauchyKitError, NotInvertibleError, PrimeField, RationalRing

RING = RationalRing()


class TestHilbertSpec:
    def test_two_by_two(self):
        assert build(hilbert_spec(2)).to_rows() == [[1, Q(1, 2)], [Q(1, 2), Q(1, 3)]]

    def test_single(self):
        assert build(hilbert_spec(1)).to_rows() == [[1]]

    def test_weight_sum(self):
        assert hilbert_spec(3).weight_sum() == 9

    def test_always_invertible(self):
        for n in range(1, 9):
            assert is_invertible_spec(hilbert_spec(n)).invertible

    def test_bad_size(self):
        with pytest.raises(ValueError):
            hilbert_spec(0)


class TestFloatMatrix:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            FloatMatrix(1, 2, [1.0, float("nan")])

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            FloatMatrix(1, 1, [float("inf")])

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="ragged rows"):
            FloatMatrix.from_rows([[1.0, 2.0], [3.0, 4.0, 5.0], [6.0]])

    def test_rejects_no_rows(self):
        with pytest.raises(ValueError, match="at least 1x1"):
            FloatMatrix.from_rows([])

    def test_rejects_an_empty_shape(self):
        with pytest.raises(ValueError, match="at least 1x1, got 0x3"):
            FloatMatrix(0, 3, [])

    def test_float_image(self):
        m = float_image(hilbert_spec(2))
        assert m.entry(0, 1) == 0.5
        assert m.entry(1, 1) == 1.0 / 3.0

    def test_entry_out_of_range(self):
        m = FloatMatrix(2, 2, [1.0, 2.0, 3.0, 4.0])
        assert m.entry(1, 0) == 3.0
        for i, j in ((0, 2), (2, 0), (-1, 0), (0, -1)):
            with pytest.raises(IndexError):
                m.entry(i, j)


class TestGaussPP:
    def test_diagonal(self):
        inv = invert_gauss_pp(FloatMatrix.from_rows([[2.0, 0.0], [0.0, 4.0]]))
        assert abs(inv.entry(0, 0) - 0.5) < 1e-15
        assert abs(inv.entry(1, 1) - 0.25) < 1e-15
        assert inv.entry(0, 1) == inv.entry(1, 0) == 0.0

    def test_small_cauchy(self):
        spec = CauchySpec([1, 2], [3, 5], RING)
        inv = invert_gauss_pp(full_float_image(spec))
        exact = inverse_closed(spec)
        for i in range(2):
            for j in range(2):
                assert abs(inv.entry(i, j) - float(exact.entry(i, j))) < 1e-9

    def test_exactly_singular(self):
        with pytest.raises(ExactZeroPivotError):
            invert_gauss_pp(FloatMatrix.from_rows([[1.0, 1.0], [1.0, 1.0]]))


class TestClosedFloat:
    def test_small_cauchy(self):
        spec = CauchySpec([1, 2], [3, 5], RING)
        inv = invert_closed_float(spec)
        for (i, j), want in zip(
            [(0, 0), (0, 1), (1, 0), (1, 1)], [60.0, -70.0, -84.0, 105.0]
        ):
            assert abs(inv.entry(i, j) - want) < 1e-12

    def test_single_exact(self):
        spec = CauchySpec([3], [4], RING)
        assert invert_closed_float(spec).entry(0, 0) == 7.0

    def test_hilbert_8_stays_finite(self):
        inv = invert_closed_float(hilbert_spec(8))
        assert all(abs(e) < float("inf") for e in inv.entries)


class TestRunCanary:
    def test_hilbert_3_is_benign(self):
        closed, gauss = run_canary(hilbert_spec(3))
        assert closed.entry_sum_residual < 1e-10
        assert gauss.entry_sum_residual < 1e-10
        assert closed.method == "closed_form"
        assert gauss.method == "gauss_pp"
        assert closed.n == gauss.n == 3

    def test_single(self):
        closed, gauss = run_canary(CauchySpec([2], [5], RING))
        assert closed.entry_sum_residual <= 1e-15
        assert gauss.entry_sum_residual <= 1e-15

    def test_residuals_nonnegative_and_deterministic(self):
        first = run_canary(hilbert_spec(5))
        second = run_canary(hilbert_spec(5))
        for a, b in zip(first, second):
            assert a.entry_sum_residual >= 0.0
            assert a.identity_residual >= 0.0
            assert a.entry_sum_residual == b.entry_sum_residual
            assert a.identity_residual == b.identity_residual

    def test_well_separated_specs_stay_accurate(self):
        rng = random.Random(151)
        done = 0
        while done < 10:
            n = rng.randint(1, 4)
            xs = [Q(rng.randint(1, 12)) for _ in range(n)]
            ys = [Q(rng.randint(1, 12)) for _ in range(n)]
            if len(set(xs)) < n or len(set(ys)) < n:
                continue  # integer-valued, so distinct means gaps >= 1
            spec = CauchySpec(xs, ys, RING)
            closed, gauss = run_canary(spec)
            assert closed.identity_residual < 1e-8
            assert gauss.identity_residual < 1e-8
            done += 1

    def test_gauss_degrades_with_size(self):
        # the headline behavior: the generic method falls apart as n grows,
        # while the exact entry-sum statistic sees it immediately
        _, gauss3 = run_canary(hilbert_spec(3))
        _, gauss12 = run_canary(hilbert_spec(12))
        assert gauss12.entry_sum_residual > 1e3 * gauss3.entry_sum_residual

    def test_csv_row_shape(self):
        closed, _ = run_canary(hilbert_spec(2))
        row = closed.csv_row()
        assert row.startswith("2,closed_form,")
        assert len(row.split(",")) == len(CSV_HEADER.split(","))


def test_identity_residual_of_perfect_inverse():
    eye = FloatMatrix.from_rows([[1.0, 0.0], [0.0, 1.0]])
    assert identity_residual(eye, eye) == 0.0


def test_identity_residual_of_a_tall_product():
    # C * C_inv is 3 x 2 here: rows past the second have no diagonal entry to take 1.0 from
    c = FloatMatrix.from_rows([[1.0], [0.5], [-3.0]])
    assert identity_residual(c, FloatMatrix(1, 2, [1.0, 0.25])) == 3.0
    assert identity_residual(c, FloatMatrix(1, 2, [1.0, 0.0])) == 3.0
    assert identity_residual(FloatMatrix(2, 1, [1.0, 0.0]), FloatMatrix(1, 2, [1.0, 0.0])) == 1.0


def test_identity_residual_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        identity_residual(FloatMatrix(2, 3, [1.0] * 6), FloatMatrix(2, 2, [1.0] * 4))


def test_run_canary_needs_rationals():
    with pytest.raises(CauchyKitError, match="float image"):
        run_canary(CauchySpec([1, 2], [3, 5], PrimeField(101)))


@pytest.mark.parametrize(
    "route, argument, error, what",
    [
        (lambda entries: FloatMatrix(2, 2, entries), [1.0] * 3, ValueError, "2x2 needs 4 entries, got 3"),
        (invert_gauss_pp, FloatMatrix(2, 3, [1.0] * 6), ValueError, "square"),
        (invert_closed_float, CauchySpec([1, 2], [3, 5], PrimeField(101)), CauchyKitError, "rational"),
        # each entry of C * C_inv is 1e200 * 1e200, past the float range
        (lambda m: identity_residual(m, m), FloatMatrix(1, 1, [1e200]), ValueError, "non-finite entry inf"),
        (run_canary, CauchySpec([1, 1], [2, 3], RING), NotInvertibleError, "invertible spec"),
    ],
    ids=("entry-count", "gauss-pp-shape", "closed-float-ring", "residual-product", "singular-spec"),
)
def test_unusable_arguments_raise(route, argument, error, what):
    with pytest.raises(error, match=what):
        route(argument)


@pytest.mark.parametrize(
    "route, spec",
    [
        (run_canary, CauchySpec([10**400, 10**400 + 1], [1, 2], RING)),  # its entry sum
        (float_image, CauchySpec([Q(1, 10**400), Q(2, 10**400)], [0, Q(1, 10**399)], RING)),
        (invert_closed_float, CauchySpec([10**400, 1], [1, 2], RING)),  # a parameter
    ],
    ids=("run_canary", "float_image", "invert_closed_float"),
)
def test_values_past_the_float_range_raise_value_error(route, spec):
    with pytest.raises(ValueError, match="past the float range"):
        route(spec)


@pytest.mark.parametrize(
    "xs, ys, what",
    [
        ([1 + Q(1, 2**60), 1], [7, 5], "difference of two parameters"),  # x[0] and x[1] round alike
        ([1 + Q(1, 2**60), 3], [-1, 5], "pair sum"),  # x[0] + y[0] = 2**-60 rounds to 0.0
    ],
    ids=("difference", "pair-sum"),
)
def test_values_that_vanish_in_floats_raise_value_error(xs, ys, what):
    spec = CauchySpec(xs, ys, RING)
    for route in (run_canary, invert_closed_float):
        with pytest.raises(ValueError, match=what):
            route(spec)


# The routes the canary took before it skipped the exact matrix, the product
# matrix and the dead left-block columns; the kernels must match them bit for bit.


def full_float_image(spec):
    return FloatMatrix(spec.n, spec.n, [float(e) for e in build(spec).entries])


def full_product_residual(c, c_inv):
    a, b = c.to_rows(), c_inv.to_rows()
    prod = [[math.fsum(a[i][j] * b[j][k] for j in range(c.cols)) for k in range(c_inv.cols)]
            for i in range(c.rows)]
    return max(abs(prod[i][k] - (1.0 if i == k else 0.0))
               for i in range(c.rows) for k in range(c_inv.cols))


def full_row_gauss_pp(m):
    n = m.rows
    a = m.to_rows()
    inv = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[pivot_row][col] == 0.0:
            raise ExactZeroPivotError(f"zero pivot in column {col}")
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            inv[col], inv[pivot_row] = inv[pivot_row], inv[col]
        d = a[col][col]
        a[col] = [v / d for v in a[col]]
        inv[col] = [v / d for v in inv[col]]
        for r in range(n):
            if r != col and a[r][col] != 0.0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
                inv[r] = [v - f * w for v, w in zip(inv[r], inv[col])]
    return FloatMatrix.from_rows(inv)


def two_block_gauss_pp(m):
    """Gauss-Jordan with partial pivoting on [A | I] held as two blocks, the
    left one updated right of the pivot only."""
    n = m.rows
    a = m.to_rows()
    inv = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[pivot_row][col] == 0.0:
            raise ExactZeroPivotError(f"zero pivot in column {col}")
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            inv[col], inv[pivot_row] = inv[pivot_row], inv[col]
        live = col + 1
        d = a[col][col]
        pivot = [v / d for v in a[col][live:]]
        a[col][live:] = pivot
        inv[col] = [v / d for v in inv[col]]
        for r in range(n):
            if r == col:
                continue
            f = a[r][col]
            if f != 0.0:
                a[r][live:] = [v - f * w for v, w in zip(a[r][live:], pivot)]
                inv[r] = [v - f * w for v, w in zip(inv[r], inv[col])]
    return FloatMatrix.from_rows(inv)


def bits(values):
    return [float.hex(v) for v in values]


def swap_forcing_matrices(count):
    """Random float matrices whose first row is scaled far down, so the
    first pivot is found by a row swap; about a fifth of the entries are
    exactly zero, and signs are mixed, so negative pivots make signed zeros."""
    rng = random.Random(311)
    out = []
    for _ in range(count):
        n = rng.randint(2, 10)
        rows = [[0.0 if rng.random() < 0.2 else rng.uniform(-1, 1) for _ in range(n)]
                for _ in range(n)]
        rows[0] = [v * 1e-3 for v in rows[0]]
        out.append(FloatMatrix.from_rows(rows))
    return out


@pytest.mark.parametrize(
    "m", [float_image(hilbert_spec(n)) for n in range(1, 15)] + swap_forcing_matrices(40),
    ids=lambda m: f"n{m.rows}")
def test_augmented_rows_match_two_blocks_bit_for_bit(m):
    try:
        want = bits(two_block_gauss_pp(m).entries)
    except ExactZeroPivotError as exc:  # an exact zero column from the dropped entries
        with pytest.raises(ExactZeroPivotError, match=str(exc)):
            invert_gauss_pp(m)
        return
    assert bits(invert_gauss_pp(m).entries) == want


def test_augmented_rows_raise_at_the_same_zero_pivot():
    m = FloatMatrix.from_rows([[2.0, 1.0, 3.0], [4.0, 2.0, 1.0], [6.0, 3.0, 5.0]])  # column 1 = column 0 / 2
    with pytest.raises(ExactZeroPivotError, match="zero pivot in column 1"):
        two_block_gauss_pp(m)
    with pytest.raises(ExactZeroPivotError, match="zero pivot in column 1"):
        invert_gauss_pp(m)


@pytest.mark.parametrize(
    "route",
    [lambda wide: wide.entry_sum(), lambda wide: identity_residual(wide, FloatMatrix(2, 1, [1.0, 1.0]))],
    ids=("entry_sum", "identity_residual"),
)
def test_overflowing_sums_raise_value_error(route):
    with pytest.raises(ValueError, match="past the float range"):
        route(FloatMatrix(1, 2, [1e308, 1e308]))


def random_rational_specs(count):
    rng = random.Random(233)
    specs = []
    while len(specs) < count:
        n = rng.randint(1, 8)
        xs = [Q(rng.randint(-60, 60), rng.randint(1, 30)) for _ in range(n)]
        ys = [Q(rng.randint(-60, 60), rng.randint(1, 30)) for _ in range(n)]
        if len(set(xs)) < n or len(set(ys)) < n or set(xs) & {-y for y in ys}:
            continue
        specs.append(CauchySpec(xs, ys, RING))
    return specs


CANARY_SPECS = [hilbert_spec(n) for n in range(1, 17)] + random_rational_specs(64)


@pytest.mark.parametrize("spec", CANARY_SPECS, ids=lambda spec: f"n{spec.n}")
def test_kernels_match_full_routes_bit_for_bit(spec):
    image = full_float_image(spec)
    assert bits(float_image(spec).entries) == bits(image.entries)
    gauss = full_row_gauss_pp(image)
    assert bits(invert_gauss_pp(image).entries) == bits(gauss.entries)
    closed = invert_closed_float(spec)
    truth = float(spec.weight_sum())
    reports = run_canary(spec)
    for report, inv in zip(reports, (closed, gauss)):
        residual = full_product_residual(image, inv)
        assert bits([identity_residual(image, inv)]) == bits([residual])
        assert repr(report.identity_residual) == repr(residual)
        assert repr(report.entry_sum_residual) == repr(abs(inv.entry_sum() - truth))
