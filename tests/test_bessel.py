import math

import mpmath
import numpy as np
import pytest

from scipy.special import ive

from heatpar.bessel import (
    _TINY,
    _orders_on_grid,
    bessel_tail_bound,
    bessel_time_convolve,
    besseli,
    besseli_row,
    halfline_dirichlet_closed_form,
    halfline_window_kernel,
    intro_identity_sum,
    watson_series,
    z_window_kernel,
)
from heatpar.errors import DomainError

from conftest import besseli_oracle, traced_peak, verify_intro_identity

# frozen reference values, computed from the power series before the build
I0_1 = 1.2660658777520083
I3_2 = 0.21273995923985266
EXP1_I1_1 = 0.20791041534970845  # e^-1 I_1(1)
HALFLINE_00_T1 = 0.5237776118026087  # e^-2 (I_0(2) + I_1(2))
DIRICHLET_11_T1 = 0.21526928924893766  # e^-2 (I_0(2) - I_2(2))


class TestBesseli:
    def test_at_zero(self):
        assert besseli(0, 0.0) == 1.0
        assert besseli(1, 0.0) == 0.0
        assert besseli(7, 0.0) == 0.0

    def test_frozen_values(self):
        assert besseli(0, 1.0) == pytest.approx(I0_1, abs=1e-13)
        assert besseli(3, 2.0) == pytest.approx(I3_2, abs=1e-13)

    def test_against_series_oracle(self):
        # arguments from well below the order to well above it
        for n in range(0, 31):
            for x in (0.05, 0.5, 1.0, 2.0, 3.7, 5.0, 8.0, 10.0, 25.0, 40.0):
                assert besseli(n, x) == pytest.approx(
                    besseli_oracle(n, x), abs=1e-12, rel=1e-11
                )

    def test_large_order(self):
        assert besseli(90, 40.0) == pytest.approx(besseli_oracle(90, 40.0), rel=1e-10)
        assert besseli(200, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            besseli(0, -1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError, match="outside certified range"):
                besseli(0, bad)
            with pytest.raises(DomainError, match="outside certified range"):
                besseli_row(2, np.array([1.0, bad]))
        with pytest.raises(DomainError):
            besseli(0, 41.0)
        with pytest.raises(DomainError):
            besseli(-1, 1.0)

    def test_row_matches_scalar(self):
        for x in (0.3, 2.0, 7.7, 23.0):
            row = besseli_row(25, x)
            for n in range(26):
                assert row[n] == pytest.approx(besseli(n, x), abs=1e-13, rel=1e-11)

    def test_row_over_array_matches_oracle(self):
        # one recurrence pass per argument, each from its own start order
        xs = np.array([[0.0, 0.3, 2.0], [7.7, 23.0, 40.0]])
        rows = besseli_row(25, xs)
        assert rows.shape == (2, 3, 26)
        for x, row in zip(xs.ravel(), rows.reshape(-1, 26)):
            for n in range(26):
                assert row[n] == pytest.approx(besseli_oracle(n, x), abs=1e-13, rel=1e-11)

    def test_recurrence(self):
        # I_{n-1}(x) - I_{n+1}(x) = (2n/x) I_n(x)
        for n in range(1, 26):
            for x in (0.1, 0.9, 2.7, 5.3, 10.0):
                lhs = besseli(n - 1, x) - besseli(n + 1, x)
                rhs = 2.0 * n / x * besseli(n, x)
                assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-280)

    def test_monotone_in_order(self):
        for x in (0.5, 2.0, 9.0):
            row = besseli_row(12, x)
            assert np.all(row[:-1] > row[1:])
            assert np.all(row > 0)


# arguments from the smallest subnormal to the top of the certified range,
# on both sides of the switch to the leading term
MPMATH_ARGS = (
    [0.0, 5e-324, 1e-300, 1e-60, 1e-9]
    + [float(np.nextafter(_TINY, 0.0)), _TINY, float(np.nextafter(_TINY, 1.0))]
    + [1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 3.7, 8.0, 15.0, 25.0, 33.0, 40.0]
)


@pytest.fixture(scope="module")
def mpmath_rows():
    with mpmath.workdps(40):
        return np.array(
            [[float(mpmath.besseli(n, mpmath.mpf(x))) for n in range(201)] for x in MPMATH_ARGS]
        )


def assert_rows_close(got, ref):
    # relative 1e-13, with an absolute floor of 1e-300 for values that
    # underflow in double precision
    assert np.isfinite(got).all()
    assert (np.abs(got - ref) <= np.maximum(1e-13 * np.abs(ref), 1e-300)).all()


class TestAgainstMpmath:
    @pytest.mark.parametrize("n_max", [30, 60, 90, 200])
    def test_row(self, mpmath_rows, n_max):
        rows = besseli_row(n_max, np.array(MPMATH_ARGS))
        assert_rows_close(rows, mpmath_rows[:, : n_max + 1])

    def test_scalar(self, mpmath_rows):
        for x, ref in zip(MPMATH_ARGS, mpmath_rows):
            for n in (0, 1, 2, 7, 30, 90, 200):
                assert_rows_close(np.array(besseli(n, x)), ref[n])

    def test_finite_over_the_certified_range(self):
        xs = np.concatenate([[0.0], np.geomspace(5e-324, 40.0, 2000)])
        assert np.isfinite(besseli_row(200, xs)).all()

    def test_mixed_array_rows_equal_single_rows(self):
        # each argument's row is the same whichever others share the call
        xs = np.array([40.0, 0.0, _TINY, 1e-300, 3.0, np.nextafter(_TINY, 0.0), 1e-5])
        rows = besseli_row(50, xs)
        for x, row in zip(xs, rows):
            assert np.array_equal(row, besseli_row(50, x))


# arguments from 0 to the top of the certified range, on both sides of the
# switch to the leading term
ORDER_ARGS = [0.0, 1e-300, 1e-9, float(np.nextafter(_TINY, 0.0)), _TINY,
              1e-3, 0.7, 5.0, 23.0, 40.0]


class TestRequestedOrders:
    """The recurrence keeps only the orders asked for, and each kept column
    is bitwise the matching column of the full row."""

    @pytest.mark.parametrize("n", [0, 1, 40, 200])
    def test_scalar_is_its_row_entry(self, n):
        for x in ORDER_ARGS:
            assert besseli(n, x) == besseli_row(n, x)[n]

    @pytest.mark.parametrize("n", [0, 1, 40, 200])
    @pytest.mark.parametrize("end,steps", [(2e-8, 40), (40.0, 50000)])
    def test_grid_columns_are_row_columns(self, n, end, steps):
        # repeated and unsorted orders; the nodes of [0, 2e-8] straddle the
        # switch, and 50001 nodes take several blocks, checked at every 101st
        orders = [n, 1, n, 0, 1]
        got = _orders_on_grid(orders, end, steps)
        taus = np.linspace(0.0, end, steps + 1)
        picked = np.r_[0 : steps + 1 : 1 + steps // 500, steps]
        ref = besseli_row(max(orders), taus[picked])[:, orders]
        assert np.array_equal(got[picked], ref)

    @pytest.mark.parametrize("n", [0, 1, 40, 200])
    def test_watson_totals_are_row_sums(self, n):
        for x in ORDER_ARGS:
            for m, terms in ((0, 12), (3, 25)):
                row = besseli_row(m + n + 2 * terms - 1, x)
                ref = 2.0 * sum(row[m + n + 2 * k + 1] for k in range(terms))
                assert watson_series(m, n, x, terms)[0] == ref

    def test_intro_memory_is_linear_in_the_order(self):
        # a block of full rows I_0..I_1999 over the 4001 nodes takes 6.5 MB;
        # the three requested columns take 96 kB
        assert traced_peak(intro_identity_sum, 2000, 0, 1.0, 0, 4000) < 2e6


class TestTailBound:
    def test_at_zero(self):
        assert bessel_tail_bound(0, 0.0) == 1.0
        assert bessel_tail_bound(3, 0.0) == 0.0

    def test_dominates_besseli(self):
        for n in range(0, 31):
            for x in (0.1, 1.0, 4.0, 10.0):
                assert bessel_tail_bound(n, x) >= besseli(n, x)

    def test_frozen_value(self):
        assert bessel_tail_bound(20, 4.0) == pytest.approx(2.353169571842353e-11, rel=1e-12)
        assert bessel_tail_bound(20, 4.0) > besseli(20, 4.0)


class TestLatticeKernels:
    def test_z_dirac(self):
        m = z_window_kernel([3, 5]).at(0.0)
        assert m[0, 0] == 1.0
        assert m[0, 1] == 0.0

    def test_z_frozen_value(self):
        assert z_window_kernel([1, 0]).at(0.5)[0, 1] == pytest.approx(EXP1_I1_1, abs=1e-13)

    def test_z_mass_conservation(self):
        # the window mass misses its target by at most the two edge tails
        t = 1.25
        mass = z_window_kernel(np.arange(-30, 31)).at(t)[30].sum()
        tail = 2.0 * math.exp(-2.0 * t) * bessel_tail_bound(31, 2.0 * t)
        assert abs(mass - 1.0) <= tail + 1e-13

    def test_halfline_dirac_and_value(self):
        m = halfline_window_kernel([4, 2]).at(0.0)
        assert m[0, 0] == 1.0
        assert m[0, 1] == 0.0
        assert halfline_window_kernel([0]).at(1.0)[0, 0] == pytest.approx(
            HALFLINE_00_T1, abs=1e-13
        )

    def test_halfline_symmetric(self):
        m = halfline_window_kernel([0, 3, 2, 5, 1]).at(0.8)
        assert np.array_equal(m, m.T)
        with pytest.raises(DomainError):
            halfline_window_kernel([-1, 0])

    def test_dirichlet_boundary_row(self):
        m = halfline_dirichlet_closed_form(np.arange(5)).at(1.3)
        assert np.abs(m[0]).max() == pytest.approx(0.0, abs=1e-15)

    def test_dirichlet_dirac_and_value(self):
        assert halfline_dirichlet_closed_form([2]).at(0.0)[0, 0] == 1.0
        assert halfline_dirichlet_closed_form([1]).at(1.0)[0, 0] == pytest.approx(
            DIRICHLET_11_T1, abs=1e-13
        )
        with pytest.raises(DomainError):
            halfline_dirichlet_closed_form([0, -2])


class TestClosedFormBuilders:
    @pytest.mark.parametrize(
        "builder,arg",
        [
            (z_window_kernel, np.arange(-2, 4)),
            (halfline_window_kernel, 5),
            (halfline_dirichlet_closed_form, 5),
        ],
    )
    def test_matrix_matches_scalar(self, builder, arg):
        # one batched sample against scipy's e^{−x} I_n(x), entry by entry;
        # an integer ``arg`` stands for the coordinates 0..arg−1
        coords = np.arange(arg) if np.ndim(arg) == 0 else arg
        kernel = builder(coords)
        times = np.array([0.0, 0.05, 0.7, 1.9, 6.0])
        x = 2.0 * times[:, None, None]
        dist = np.abs(coords[:, None] - coords[None, :])
        total = coords[:, None] + coords[None, :]
        expected = {
            z_window_kernel: lambda: ive(dist, x),
            halfline_window_kernel: lambda: ive(dist, x) + ive(total + 1, x),
            halfline_dirichlet_closed_form: lambda: ive(dist, x) - ive(total, x),
        }[builder]()
        m = kernel.sample(times)
        assert m.shape == (times.size, kernel.n, kernel.n)
        assert np.abs(m - expected).max() <= 1e-14

    @pytest.mark.parametrize(
        "builder", [z_window_kernel, halfline_window_kernel, halfline_dirichlet_closed_form]
    )
    def test_coordinate_order_permutes_the_kernel(self, builder):
        perm = np.array([3, 0, 4, 1, 2])
        times = np.array([0.0, 0.7, 6.0])
        ordered = builder(np.arange(5)).sample(times)
        assert np.array_equal(builder(perm).sample(times), ordered[:, perm[:, None], perm])


class TestTimeConvolution:
    def test_zero_length(self):
        assert bessel_time_convolve(0, 0, 0.0, 100) == 0.0

    def test_sinh_identity(self):
        # int_0^x I_0 I_0 equals 2(I_1 + I_3 + ...) = sinh(x)
        for x in (0.5, 1.0, 2.0):
            val = bessel_time_convolve(0, 0, x, 20000)
            assert val == pytest.approx(math.sinh(x), abs=5e-9)

    def test_watson_formula_with_certificate(self):
        for m in range(4):
            for n in range(4):
                for x in (1.0, 2.5, 4.0):
                    conv = bessel_time_convolve(m, n, x, 200000)
                    series, tail = watson_series(m, n, x, 40)
                    assert abs(conv - series) <= 1e-8 + tail

    def test_bounded_memory(self):
        # rows I_0..I_100 at all 100001 nodes would take 81 MB; taken a block
        # of nodes at a time they stay far below that
        assert traced_peak(bessel_time_convolve, 0, 100, 1.0, 100000) < 16e6

    def test_negative_order_refused(self):
        # an order of -1 must not read the last entry of a row
        with pytest.raises(DomainError):
            bessel_time_convolve(-1, 2, 1.0, 100)
        with pytest.raises(DomainError):
            watson_series(2, -1, 1.0, 10)

    def test_watson_tail_is_real_bound(self):
        # with few terms the certificate is well above roundoff and must
        # dominate the actual remainder
        series_4, tail = watson_series(0, 0, 4.0, 4)
        series_40, _ = watson_series(0, 0, 4.0, 40)
        assert tail > 1e-8
        assert abs(series_40 - series_4) <= tail


class TestIntroIdentity:
    def test_zero_time(self):
        assert verify_intro_identity(1, 0, 0.0, 10, 100) == 0.0

    def test_converges_with_depth(self):
        coarse = verify_intro_identity(1, 0, 1.0, 4, 500)
        fine = verify_intro_identity(1, 0, 1.0, 20, 8000)
        assert fine < coarse
        assert fine <= 1e-8

    def test_first_special_case(self):
        # I_1(t) from the (x, y) = (1, 0) instance
        t = 1.5
        rhs = intro_identity_sum(1, 0, t, 24, 8000)
        assert rhs == pytest.approx(besseli(1, t), abs=1e-7)

    def test_second_special_case(self):
        # I_2(t) from the (x, y) = (2, 0) instance
        t = 1.5
        rhs = intro_identity_sum(2, 0, t, 24, 8000)
        assert rhs == pytest.approx(besseli(2, t), abs=1e-7)

    def test_rejects_bad_orders(self):
        with pytest.raises(DomainError):
            verify_intro_identity(0, 0, 1.0, 5, 100)
