import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatpar import series
from heatpar.bessel import (
    halfline_dirichlet_closed_form,
    halfline_window_kernel,
    z_window_kernel,
)
from heatpar.errors import ContractViolation, SamplingError
from heatpar.oracle import spectral_kernel
from heatpar.parametrix import (
    ambient_spectral_kernel,
    complete_graph_kernel,
    subgraph_kernel_closed_form,
)
from heatpar.series import (
    ClosedFormKernel,
    TimeGrid,
    convolve_values,
    fold_bound,
    next_fast_len,
    sample_closed_form,
)

from conftest import (
    besseli_oracle,
    convolution_bound,
    dense_convolve,
    exact_start_weights,
    lattice_hole_document,
    naive_convolve,
    reference_series_product,
    traced_peak,
)


def constant_series(grid, n, value=1.0):
    return np.full((grid.steps + 1, n, n), value)


def monomial_series(grid, k):
    return (grid.nodes**k).reshape(-1, 1, 1)


class TestTimeGrid:
    def test_nodes(self):
        grid = TimeGrid(2.0, 4)
        assert np.allclose(grid.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert grid.dt == 0.5

    def test_validation(self):
        with pytest.raises(ContractViolation):
            TimeGrid(0.0, 4)
        with pytest.raises(ContractViolation):
            TimeGrid(1.0, 0)

    @pytest.mark.parametrize("t_max", [math.inf, -math.inf, math.nan])
    def test_non_finite_t_max(self, t_max):
        with pytest.raises(ContractViolation, match="positive and finite"):
            TimeGrid(t_max, 4)


class TestConvolve:
    def test_ones_single_vertex_exact(self):
        grid = TimeGrid(2.0, 64)
        out = convolve_values(constant_series(grid, 1), constant_series(grid, 1), grid.dt)
        assert np.allclose(out[:, 0, 0], grid.nodes, atol=1e-14)

    def test_ones_scale_with_vertex_count(self):
        grid = TimeGrid(1.5, 32)
        out = convolve_values(constant_series(grid, 3), constant_series(grid, 3), grid.dt)
        assert np.allclose(out[:, 0, 0], 3.0 * grid.nodes, atol=1e-13)

    def test_matches_direct_summation(self, rng):
        grid = TimeGrid(1.0, 40)
        a = rng.normal(size=(41, 3, 3))
        b = rng.normal(size=(41, 3, 3))
        out = convolve_values(a, b, grid.dt)
        ref = naive_convolve(a, b, grid.dt)
        assert np.abs(out - ref).max() <= 1e-12
        # rectangular operands, as in assembly, with non-zero t = 0 values
        a = rng.normal(size=(41, 5, 2))
        b = rng.normal(size=(41, 2, 4))
        out = convolve_values(a, b, grid.dt)
        assert out.shape == (41, 5, 4)
        assert np.abs(out - naive_convolve(a, b, grid.dt)).max() <= 1e-12

    def test_fft_lengths_are_the_next_5_smooth(self):
        def smooth(k):
            for f in (2, 3, 5):
                while k % f == 0:
                    k //= f
            return k == 1

        smooth_lengths = [k for k in range(1, 2100) if smooth(k)]
        for target in range(1, 2000):
            assert next_fast_len(target) == next(k for k in smooth_lengths if k >= target)
        assert next_fast_len(2 * 16385 - 1) == 32805

    def test_monomials_beta_integral(self):
        # r^k * r^l convolves to k! l!/(k+l+1)! t^{k+l+1}
        k, ell = 2, 3
        grid = TimeGrid(1.0, 512)
        out = convolve_values(monomial_series(grid, k), monomial_series(grid, ell), grid.dt)

        def beta_values(g):
            return (
                math.factorial(k)
                * math.factorial(ell)
                / math.factorial(k + ell + 1)
                * g.nodes ** (k + ell + 1)
            )

        err = np.abs(out[:, 0, 0] - beta_values(grid)).max()
        grid2 = TimeGrid(grid.t_max, 2 * grid.steps)
        out2 = convolve_values(monomial_series(grid2, k), monomial_series(grid2, ell), grid2.dt)
        err2 = np.abs(out2[:, 0, 0] - beta_values(grid2)).max()
        assert err <= 1e-5
        assert err / err2 >= 3.5  # second-order convergence

    def test_grid_mismatch(self):
        a = constant_series(TimeGrid(1.0, 8), 1)
        b = constant_series(TimeGrid(1.0, 16), 1)
        with pytest.raises(ContractViolation, match="time axes differ"):
            convolve_values(a, b, 1.0 / 8)

    def test_zero_at_origin(self, rng):
        grid = TimeGrid(1.0, 16)
        a = rng.normal(size=(17, 2, 2))
        assert np.all(convolve_values(a, a, grid.dt)[0] == 0.0)


def row_blocks(ma: int, mb: int, p: int, r: int) -> tuple[int, int]:
    """(number of row blocks, rows in the last block) that ``_series_product``
    takes for operands of lengths ``ma``, ``mb`` with p rows and r columns."""
    n_freq = next_fast_len(ma + mb - 1) // 2 + 1
    rows = max(1, series._BLOCK_ENTRIES // (n_freq * r))
    blocks = -(-p // rows)
    return blocks, p - rows * (blocks - 1)


class TestBlockedProduct:
    # (ma, mb, m, p, q, r) and the (blocks, last block rows) they force
    SHAPES = [
        ((65, 65, 65, 3, 2, 4), (1, 3)),
        ((64, 32, 64, 3, 3, 3), (1, 3)),  # a Newton step: shorter b
        ((2001, 2001, 2001, 1, 4, 41), (1, 1)),
        ((2001, 2001, 2001, 39, 2, 41), (13, 3)),
        ((2001, 2001, 2001, 41, 3, 41), (14, 2)),
        ((4001, 4001, 4001, 150, 2, 1), (3, 22)),
        ((20001, 20001, 20001, 3, 2, 41), (3, 1)),
    ]

    @pytest.mark.parametrize("halved", [False, True])
    @pytest.mark.parametrize("shape, blocks", SHAPES)
    def test_matches_one_shot_reference(self, rng, shape, blocks, halved):
        ma, mb, m, p, q, r = shape
        assert row_blocks(ma, mb, p, r) == blocks
        a = rng.normal(size=(ma, p, q))
        b = rng.normal(size=(mb, q, r))
        head = (0.5,) if halved else ()
        out = series._series_product(a, b, m, head)
        ref = reference_series_product(a, b, m, head)
        assert out.shape == ref.shape == (m, p, r)
        # FFT roundoff scales with the largest coefficient, not each entry's own
        assert np.abs(out - ref).max() <= 1e-14 * max(1.0, np.abs(ref).max())

    @pytest.mark.parametrize("shape, blocks", SHAPES)
    def test_gregory_head_matches_one_shot_reference(self, rng, shape, blocks):
        # the first three coefficients weighted in b once and in each row
        # block of a, against weighting both whole before one product
        ma, mb, m, p, q, r = shape
        a = rng.normal(size=(ma, p, q))
        b = rng.normal(size=(mb, q, r))
        head = (3 / 8, 7 / 6, 23 / 24)
        out = series._series_product(a, b, m, head)
        ref = reference_series_product(a, b, m, head)
        assert np.abs(out - ref).max() <= 1e-14 * max(1.0, np.abs(ref).max())

    @pytest.mark.parametrize("entries", [1, 40, 100, 1 << 18])
    def test_small_blocks_match_direct_summation(self, rng, monkeypatch, entries):
        monkeypatch.setattr(series, "_BLOCK_ENTRIES", entries)
        grid = TimeGrid(1.0, 30)
        for p, q, r in ((7, 3, 2), (1, 2, 5), (6, 4, 1)):
            a = rng.normal(size=(31, p, q))
            b = rng.normal(size=(31, q, r))
            out = convolve_values(a, b, grid.dt)
            assert np.abs(out - naive_convolve(a, b, grid.dt)).max() <= 1e-12


class TestAssociativity:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), steps=st.sampled_from([16, 32, 64]))
    def test_exact_for_zero_at_origin(self, seed, n, steps):
        rng = np.random.default_rng(seed)
        grid = TimeGrid(1.0, steps)
        vals = rng.normal(size=(3, steps + 1, n, n))
        vals[:, 0] = 0.0
        f1, f2, f3 = vals
        dt = grid.dt
        left = convolve_values(convolve_values(f1, f2, dt), f3, dt)
        right = convolve_values(f1, convolve_values(f2, f3, dt), dt)
        scale = max(np.abs(left).max(), np.abs(right).max(), 1e-30)
        assert np.abs(left - right).max() <= 1e-10 * scale

    def test_second_order_otherwise(self, rng):
        # with nonzero initial values the two orderings differ at O(dt^2)
        def defect(steps):
            grid = TimeGrid(1.0, steps)
            vals = np.stack(
                [np.cos((k + 1) * grid.nodes).reshape(-1, 1, 1) for k in range(3)]
            )
            f1, f2, f3 = vals
            dt = grid.dt
            left = convolve_values(convolve_values(f1, f2, dt), f3, dt)
            right = convolve_values(f1, convolve_values(f2, f3, dt), dt)
            return np.abs(left - right).max()

        assert defect(64) / defect(128) >= 3.5


class TestQuadratureOrder:
    def test_refinement_ratio(self):
        # smooth non-semigroup integrands: error vs a 4x refined reference
        # shrinks ~4x when dt halves
        def run(steps):
            grid = TimeGrid(1.0, steps)
            f1 = np.cos(3.0 * grid.nodes).reshape(-1, 1, 1)
            f2 = np.exp(-2.0 * grid.nodes).reshape(-1, 1, 1)
            return convolve_values(f1, f2, grid.dt)

        fine = run(512)
        errs = []
        for steps in (64, 128):
            coarse = run(steps)
            stride = 512 // steps
            errs.append(np.abs(coarse - fine[::stride]).max())
        assert errs[0] / errs[1] >= 3.5


class TestFourthOrder:
    @pytest.mark.parametrize("d", range(1, 5))
    def test_start_weights_are_exact(self, d):
        w = series.start_weights(d)
        assert w.shape == (d, d + 1, d + 1)
        assert np.abs(w - exact_start_weights(d)).max() <= 1e-15
        # the interpolants of two constants integrate to j
        assert np.allclose(w.sum(axis=(1, 2)), np.arange(1, d + 1), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("steps", [1, 2, 3, 4, 5, 6, 40])
    def test_matches_dense_reference(self, rng, steps):
        dt = 0.7 / steps
        for p, q, r in ((3, 3, 3), (5, 2, 4), (1, 4, 1)):
            a = rng.normal(size=(steps + 1, p, q))
            b = rng.normal(size=(steps + 1, q, r))
            out = convolve_values(a, b, dt, 4)
            ref = dense_convolve(a, b, dt, 4)
            assert out.shape == (steps + 1, p, r)
            assert np.abs(out - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())
            assert np.all(out[0] == 0.0)
            # the reference's order-2 rule is the trapezoid
            trapezoid = dense_convolve(a, b, dt, 2)
            assert np.abs(trapezoid - naive_convolve(a, b, dt)).max() <= 1e-14 * max(
                1.0, np.abs(trapezoid).max()
            )

    @pytest.mark.parametrize("steps", [1, 3, 4, 5, 64])
    def test_exact_for_cubic_integrands(self, steps):
        # t * t² = t⁴/12; Gregory's rule and the degree-min(4, M) start
        # integrate cubics exactly once the start interpolates t and t²
        grid = TimeGrid(1.0, steps)
        out = convolve_values(monomial_series(grid, 1), monomial_series(grid, 2), grid.dt, 4)
        if steps >= 2:
            assert np.abs(out[:, 0, 0] - grid.nodes**4 / 12).max() <= 1e-15

    def test_fourth_order_refinement_ratio(self):
        # TestQuadratureOrder's integrands: the error falls ~16x per halving
        def run(steps):
            grid = TimeGrid(1.0, steps)
            f1 = np.cos(3.0 * grid.nodes).reshape(-1, 1, 1)
            f2 = np.exp(-2.0 * grid.nodes).reshape(-1, 1, 1)
            return convolve_values(f1, f2, grid.dt, 4)[:, 0, 0], grid.nodes

        def exact(t):  # ∫₀ᵗ cos(3(t − s)) e^{−2s} ds
            return (2.0 * np.cos(3.0 * t) + 3.0 * np.sin(3.0 * t) - 2.0 * np.exp(-2.0 * t)) / 13.0

        errs = [np.abs(v - exact(t)).max() for v, t in (run(32), run(64))]
        assert errs[0] <= 2e-6  # the trapezoid's is 3.3e-4
        assert errs[0] / errs[1] >= 12.0

    def test_default_is_the_trapezoid(self, rng):
        a = rng.normal(size=(9, 2, 2))
        b = rng.normal(size=(9, 2, 2))
        assert np.array_equal(convolve_values(a, b, 0.1), convolve_values(a, b, 0.1, 2))
        assert not np.array_equal(convolve_values(a, b, 0.1), convolve_values(a, b, 0.1, 4))

    @pytest.mark.parametrize("order", [3, 0, 1, 6, "4"])
    def test_other_orders_refused(self, order):
        a = np.ones((5, 1, 1))
        with pytest.raises(ContractViolation, match="order must be 2 or 4"):
            convolve_values(a, a, 0.1, order)


class TestBounds:
    def test_convolution_bound_examples(self):
        assert convolution_bound(2.0, 0, 3.0, 0, 4, 0.5) == pytest.approx(12.0)
        assert convolution_bound(0.0, 2, 1.0, 3, 5, 1.0) == 0.0
        assert convolution_bound(1.0, 1, 1.0, 1, 1, 1.0) == pytest.approx(1.0 / 6.0)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_computed_convolution_respects_bound(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        grid = TimeGrid(float(rng.uniform(0.5, 2.0)), 64)
        k, ell = int(rng.integers(0, 3)), int(rng.integers(0, 3))
        c1, c2 = float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.1, 2.0))
        a = c1 * rng.uniform(-1, 1, size=(65, n, n)) * (grid.nodes**k).reshape(-1, 1, 1)
        b = c2 * rng.uniform(-1, 1, size=(65, n, n)) * (grid.nodes**ell).reshape(-1, 1, 1)
        out = convolve_values(a, b, grid.dt)
        for j in (16, 32, 64):
            t = grid.nodes[j]
            bound = convolution_bound(c1, k, c2, ell, n, t)
            assert np.abs(out[j]).max() <= bound + 1e-10

    def test_fold_bound_consistency(self):
        # ell = 1 reduces to C t^k
        assert fold_bound(2.0, 1, 1, 5, 0.5) == pytest.approx(2.0 * 0.5)
        assert fold_bound(0.0, 0, 3, 5, 1.0) == 0.0


class TestLFold:
    def test_triple_fold_of_ones(self):
        grid = TimeGrid(1.0, 256)
        ones = constant_series(grid, 1)
        out = convolve_values(convolve_values(ones, ones, grid.dt), ones, grid.dt)
        expected = grid.nodes**2 / 2.0
        assert np.abs(out[:, 0, 0] - expected).max() <= 1e-5

    def test_fold_respects_factorial_bound(self, rng):
        grid = TimeGrid(1.0, 128)
        vals = 0.7 * rng.uniform(-1.0, 1.0, size=(129, 2, 2))
        out = vals
        for ell in (2, 3, 4):
            out = convolve_values(out, vals, grid.dt)
            for j in (64, 128):
                t = grid.nodes[j]
                assert (
                    np.abs(out[j]).max()
                    <= fold_bound(0.7, 0, ell, 2, t) + 1e-10
                )


class TestSampling:
    def test_complete_graph_dirac(self):
        grid = TimeGrid(1.0, 4)
        out = sample_closed_form(complete_graph_kernel(2), grid)
        assert np.array_equal(out[0], np.eye(2))

    def test_complete_graph_equilibrium(self):
        grid = TimeGrid(40.0, 4)
        out = sample_closed_form(complete_graph_kernel(2), grid)
        assert np.abs(out[-1] - 0.5).max() <= 1e-12

    def test_z_kernel_diagonal(self):
        from heatpar.bessel import z_window_kernel

        kernel = z_window_kernel(np.arange(5))
        grid = TimeGrid(0.5, 2)
        out = sample_closed_form(kernel, grid)
        expected = math.exp(-1.0) * besseli_oracle(0, 1.0)
        assert out[-1, 2, 2] == pytest.approx(expected, abs=1e-12)

    def test_non_finite_sampling_error(self):
        bad = ClosedFormKernel(
            family="bad",
            n=1,
            factors=lambda times: times[:, None],
            expand=lambda f: np.where(f > 0.5, math.inf, 1.0)[:, :, None],
        )
        with pytest.raises(SamplingError):
            sample_closed_form(bad, TimeGrid(1.0, 4))

    def test_sampling_error_names_the_first_bad_entry(self):
        def expand(f):
            times = f[:, 0]
            vals = np.ones((len(times), 3, 3))
            vals[times >= 0.5, 2, 1] = math.nan
            vals[times >= 0.75, 0, 2] = -math.inf
            return vals

        bad = ClosedFormKernel("bad", 3, lambda times: times[:, None], expand)
        with pytest.raises(SamplingError, match=r"^bad kernel .* \(x=2, y=1, t=0\.5\)$"):
            sample_closed_form(bad, TimeGrid(1.0, 4))


def _case(name):
    from heatpar.documents import load_document

    return load_document(os.path.join(os.path.dirname(__file__), "..", "cases", name))


def _lattice_embedding():
    from heatpar.documents import parse_document

    return parse_document(json.dumps(lattice_hole_document(seed=1))).embedding


# (kernel, grid) of every closed-form family; the lattice grid is the one at
# which a contraction planned per call changed 26% of the spectral values
FAMILIES = {
    "integer-line": lambda: (z_window_kernel(np.arange(-1, 41)), TimeGrid(2.0, 400)),
    "half-line": lambda: (halfline_window_kernel(np.arange(41)), TimeGrid(2.0, 400)),
    "half-line-dirichlet": lambda: (
        halfline_dirichlet_closed_form(np.arange(41)),
        TimeGrid(2.0, 400),
    ),
    "complete-graph": lambda: (complete_graph_kernel(5), TimeGrid(1.0, 400)),
    "complete-graph-minus-edges": lambda: (
        subgraph_kernel_closed_form(_case("k5_minus_edge.json").embedding),
        TimeGrid(1.0, 400),
    ),
    "spectral": lambda: (spectral_kernel(_lattice_embedding().subgraph), TimeGrid(1.0, 250)),
    "ambient-spectral": lambda: (
        ambient_spectral_kernel(_lattice_embedding().ambient),
        TimeGrid(1.0, 250),
    ),
}


class TestBlockedSampling:
    """``sample_closed_form`` expands a kernel's factors a block of times at a
    time into one output array; no value depends on the blocks."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_one_time_per_block_is_bitwise_the_default(self, monkeypatch, family):
        kernel, grid = FAMILIES[family]()
        assert kernel.family == family
        default = sample_closed_form(kernel, grid)
        assert np.array_equal(default, kernel.sample(grid.nodes))  # one call
        monkeypatch.setattr(series, "_BLOCK_ENTRIES", 1)
        assert len(series.time_blocks(grid.steps + 1, kernel.n**2)) == grid.steps + 1
        assert np.array_equal(sample_closed_form(kernel, grid), default)

    def test_non_finite_value_after_the_first_block_names_its_time(self):
        grid = TimeGrid(2.0, 400)
        bad_t = grid.nodes[300]

        def expand(f):
            vals = np.ones((len(f), 41, 41))
            vals[f[:, 0] == bad_t, 7, 3] = math.nan
            return vals

        bad = ClosedFormKernel("bad", 41, lambda times: times[:, None], expand)
        first = series.time_blocks(grid.steps + 1, 41**2)[0]
        assert first.stop <= 300  # 155 times per block
        with pytest.raises(SamplingError, match=rf"\(x=7, y=3, t={re.escape(str(bad_t))}\)$"):
            sample_closed_form(bad, grid)

    def test_time_blocks_cover_every_node_once(self, monkeypatch):
        monkeypatch.setattr(series, "_BLOCK_ENTRIES", 100)
        for count, per_time in ((0, 9), (1, 9), (23, 9), (23, 1), (5, 1000)):
            blocks = series.time_blocks(count, per_time)
            nodes = [j for s in blocks for j in range(count)[s]]
            assert nodes == list(range(count))
            assert all(len(range(count)[s]) == max(1, 100 // per_time) for s in blocks[:-1])

    def test_peak_is_the_output_and_bounded_blocks(self):
        # 2001 × 41 × 41 values are 27 MB; sampling all times in one call
        # held a second array as large for the reflected Bessel term
        kernel, grid = halfline_dirichlet_closed_form(np.arange(41)), TimeGrid(2.0, 2000)
        out_bytes = (grid.steps + 1) * 41 * 41 * 8
        assert traced_peak(sample_closed_form, kernel, grid) <= 1.5 * out_bytes
