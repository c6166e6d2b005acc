import math
import os

import numpy as np
import pytest

from heatpar import embed1d
from heatpar.documents import load_document
from heatpar.embed1d import (
    _EXP_UNDERFLOW,
    IntervalDomain,
    _mode_overlaps,
    _ramp_moment,
    averaged_parametrix,
    build_bumps,
    build_voronoi,
    modes_for_time,
    series_tail_bound,
    smoothstep,
)
from heatpar.errors import ContractViolation
from heatpar.graph import WeightedGraph
from heatpar.methods import METHODS
from heatpar.oracle import compare_kernels, spectral_kernel
from heatpar.parametrix import heat_kernel_via_parametrix
from heatpar.series import TimeGrid, sample_closed_form

from conftest import (
    bump_quadrature,
    first_variable_parametrix,
    full_mode_parametrix,
    reference_mode_overlaps,
    reference_ramp_moment,
    traced_peak,
)

CASES = os.path.join(os.path.dirname(__file__), "..", "cases")


def fine_integral(f, a, b, panels=200_000):
    xs = np.linspace(a, b, panels + 1)
    w = np.ones(panels + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    return float(w @ f(xs)) * (b - a) / panels / 3.0


class TestIntervalKernel:
    def test_mode_certificate(self):
        t_min = 1e-4 / math.pi**2
        n = modes_for_time(1.0, t_min)
        assert series_tail_bound(1.0, t_min, n) < 1e-10
        assert series_tail_bound(1.0, t_min, n - 1) >= 1e-10


class TestVoronoi:
    def test_two_vertices(self):
        cells = build_voronoi([0.25, 0.75], 1.0, 0.25)
        assert cells[0].a == 0.0 and cells[0].b == 0.5
        assert cells[1].a == 0.5 and cells[1].b == 1.0
        assert cells[0].measure == cells[1].measure == 0.5

    def test_single_vertex(self):
        (cell,) = build_voronoi([0.4], 1.0, 0.25)
        assert (cell.a, cell.b) == (0.0, 1.0)
        assert cell.measure == 1.0

    def test_three_equally_spaced(self):
        cells = build_voronoi([1 / 6, 0.5, 5 / 6], 1.0, 0.25)
        assert all(c.measure == pytest.approx(1 / 3) for c in cells)

    def test_validation(self):
        with pytest.raises(ContractViolation):
            build_voronoi([0.5, 0.5], 1.0, 0.25)
        with pytest.raises(ContractViolation):
            build_voronoi([0.2, 0.8], 1.0, 0.7)
        with pytest.raises(ContractViolation):
            build_voronoi([0.0, 0.5], 1.0, 0.25)

    def test_collar_inside_cells(self):
        cells = build_voronoi([0.2, 0.5, 0.8], 1.0, 0.49)
        for c in cells:
            assert 0.0 < c.delta < c.measure / 2.0
            assert c.a < c.position < c.b


class TestBumps:
    def test_smoothstep_endpoints(self):
        assert smoothstep(np.array([0.0, 1.0])).tolist() == [0.0, 1.0]
        # first and second derivatives vanish at both ends
        h = 1e-6
        h2 = 1e-4
        for u in (0.0, 1.0):
            d1 = (smoothstep(np.array([u + h])) - smoothstep(np.array([u - h]))) / (2 * h)
            assert abs(d1.item()) <= 1e-5
            d2 = (
                smoothstep(np.array([u + h2]))
                - 2.0 * smoothstep(np.array([u]))
                + smoothstep(np.array([u - h2]))
            ) / (h2 * h2)
            assert abs(d2.item()) <= 1e-5

    def test_square_integral_calibration(self):
        cells = build_voronoi([0.2, 0.5, 0.8], 1.0, 0.3)
        bumps = build_bumps(cells)
        for v, cell in enumerate(cells):
            val = fine_integral(lambda xs: bumps.evaluate(v, xs) ** 2, cell.a, cell.b)
            assert val == pytest.approx(cell.measure, rel=1e-8)

    def test_plain_integral_below_measure(self):
        cells = build_voronoi([0.3, 0.7], 1.0, 0.4)
        bumps = build_bumps(cells)
        for v, cell in enumerate(cells):
            val = fine_integral(lambda xs: bumps.evaluate(v, xs), cell.a, cell.b)
            assert val <= cell.measure

    def test_disjoint_supports(self):
        cells = build_voronoi([0.3, 0.7], 1.0, 0.4)
        bumps = build_bumps(cells)
        xs = np.linspace(0.0, 1.0, 20001)
        prod = bumps.evaluate(0, xs) * bumps.evaluate(1, xs)
        assert np.all(prod == 0.0)

    def test_plateau_and_edges(self):
        cells = build_voronoi([0.5], 1.0, 0.25)
        bumps = build_bumps(cells)
        c = cells[0]
        inner = np.linspace(c.a + c.delta, c.b - c.delta, 101)
        assert np.abs(bumps.evaluate(0, inner) - bumps.amplitudes[0]).max() == 0.0
        assert bumps.evaluate(0, [c.a, c.b]).tolist() == [0.0, 0.0]
        collars = np.r_[np.linspace(c.a, c.a + c.delta, 51)[1:],
                        np.linspace(c.b - c.delta, c.b, 51)[:-1]]
        assert np.all(bumps.evaluate(0, collars) > 0.0)

    def test_calibrated_square_integral_on_unequal_cells(self):
        cells = build_voronoi([0.1, 0.3, 0.35, 0.8], 1.0, 0.45)
        assert len({round(c.measure, 12) for c in cells}) == len(cells)
        bumps = build_bumps(cells)
        for v, cell in enumerate(cells):
            xs, ws = bump_quadrature(cell)
            eta = bumps.evaluate(v, xs)
            assert float(ws @ (eta * eta)) == pytest.approx(cell.measure, rel=1e-13)

    def test_amplitude_matches_exact_root(self):
        # ∫η² = A²·(μ − 2δ + δ·2·∫₀¹smoothstep²) with ∫₀¹smoothstep² =
        # 181/462, so A = √(μ / (μ − 2δ + (181/231)·δ)) = 1.105980565075922
        # for cells [0, 0.5] and [0.5, 1] with δ = 0.075
        cells = build_voronoi([0.25, 0.75], 1.0, 0.3)
        bumps = build_bumps(cells)
        for cell, amp in zip(cells, bumps.amplitudes):
            mu, delta = cell.measure, cell.delta
            exact = math.sqrt(mu / (mu - 2.0 * delta + (181.0 / 231.0) * delta))
            assert amp == pytest.approx(exact, rel=1e-15)


class TestAveragedParametrix:
    def setup_method(self):
        self.g = WeightedGraph.path(3)
        self.positions = [0.17, 0.5, 0.83]
        self.cells = build_voronoi(self.positions, 1.0, 0.49)
        self.bumps = build_bumps(self.cells)
        self.dom = IntervalDomain(length=1.0, n_modes=520)

    def sample_at(self, t):
        """H at time ``t``: node 1 of a one-step grid."""
        grid = TimeGrid(t, 1)
        return averaged_parametrix(self.dom, self.bumps, grid, self.g).samples[1]

    def test_dirac_at_probe_time(self):
        t0 = 1e-4 / math.pi**2
        h0 = self.sample_at(t0)
        assert np.abs(np.diag(h0) - 1.0).max() <= 0.02
        assert np.abs(h0 - np.diag(np.diag(h0))).max() <= 0.02

    def test_criterion_7_gate_at_32768_steps(self):
        # criterion 7 runs 262144 steps; the flat-top bump meets its 1e-3
        # gate (8.8e-5 here) from 8× fewer, and its Dirac defect (0.0015) is
        # well inside criterion 7's 0.02
        h0 = self.sample_at(1e-4 / math.pi**2)
        off = h0 - np.diag(np.diag(h0))
        assert max(np.abs(np.diag(h0) - 1.0).max(), np.abs(off).max()) <= 0.005
        grid = TimeGrid(0.5, 32768)
        p = averaged_parametrix(self.dom, self.bumps, grid, self.g)
        k = heat_kernel_via_parametrix(p, 1e-8)
        spectral = sample_closed_form(spectral_kernel(self.g), grid)
        assert compare_kernels(k, spectral, grid.nodes).sup_error <= 1e-3

    def test_symmetric_normalization_is_symmetric(self):
        grid = TimeGrid(0.5, 8)
        p = averaged_parametrix(self.dom, self.bumps, grid, self.g)
        for j in (0, 4, 8):
            m = p.samples[j]
            assert np.abs(m - m.T).max() <= 1e-14

    def test_derivative_matches_finite_difference(self):
        # the heat image carries ∂_t H as LH − ΔH; t = 0.2 is node 4
        grid = TimeGrid(0.4, 8)
        p = averaged_parametrix(self.dom, self.bumps, grid, self.g)
        j, h = 4, 1e-6
        t = grid.nodes[j]
        dh = p.heat_image[j] - self.g.laplacian_matrix() @ p.samples[j]
        fd = (self.sample_at(t + h) - self.sample_at(t - h)) / (2.0 * h)
        assert np.abs(dh - fd).max() <= 1e-6

    def test_time_derivatives_bounded_near_zero(self):
        # first and second time derivatives stay bounded on (0, t_max];
        # the bound is recorded from the sweep, not prescribed
        mu = np.array([c.measure for c in self.cells])
        rates = self.dom.rates()
        s = _mode_overlaps(self.dom, self.bumps)
        norm = 1.0 / np.sqrt(np.outer(mu, mu))
        ts = np.logspace(-9, math.log10(0.5), 40)
        for order in (1, 2):
            sup = 0.0
            for t in ts:
                w = (2.0 / self.dom.length) * (-rates) ** order * np.exp(-rates * t)
                val = np.abs(norm * ((s * w[:, None]).T @ s)).max()
                sup = max(sup, val)
            limit_weights = (2.0 / self.dom.length) * (-rates) ** order
            limit = np.abs(norm * ((s * limit_weights[:, None]).T @ s)).max()
            assert math.isfinite(sup)
            assert sup <= 1.0001 * limit  # monotone approach to the t->0 limit

    def test_overlaps_evaluated_once(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return _mode_overlaps(*args)

        monkeypatch.setattr(embed1d, "_mode_overlaps", counted)
        averaged_parametrix(self.dom, self.bumps, TimeGrid(0.5, 8), self.g)
        assert len(calls) == 1

    def test_size_mismatch(self):
        grid = TimeGrid(0.5, 8)
        with pytest.raises(ContractViolation):
            averaged_parametrix(self.dom, self.bumps, grid, WeightedGraph.path(4))


def test_embed_method_resolves_the_collar_layer():
    # ``parametrix-embed`` at the CLI's order 4 against the ``spectral``
    # oracle on t <= 0.25: once the bumps' initial layer is resolved, each
    # halving of dt cuts the error about tenfold (1.42e-4 → 1.42e-5)
    doc = load_document(os.path.join(CASES, "path3_interval.json"))
    errors = []
    for steps in (4096, 8192):
        grid = TimeGrid(0.25, steps)
        k = METHODS["parametrix-embed"](doc, grid, 1e-8)
        exact = METHODS["spectral"](doc, grid, 1e-8)
        errors.append(compare_kernels(k, exact, grid.nodes).sup_error)
    assert errors[1] <= 2e-5
    assert errors[0] / errors[1] >= 9.0


def interval_case():
    """The `cases/path3_interval.json` setup that `heatpar kernel --method
    parametrix-embed` builds: graph, bumps and domain."""
    doc = load_document(os.path.join(CASES, "path3_interval.json"))
    bumps = build_bumps(build_voronoi(doc.position_list(), 1.0, 0.49))
    n_modes = modes_for_time(1.0, 1e-4 / math.pi**2)
    return doc.graph, bumps, IntervalDomain(1.0, n_modes)


def path20_case(n_modes=2000):
    """A 20-vertex path at evenly spaced positions in (0, 1): graph, bumps
    and a domain of ``n_modes`` modes, which at 2000 are four blocks of
    modes."""
    bumps = build_bumps(build_voronoi(np.linspace(0.025, 0.975, 20), 1.0, 0.49))
    return WeightedGraph.path(20), bumps, IntervalDomain(1.0, n_modes)


def assert_overlaps_match_direct_sines(cells, length, n_modes):
    # every mode up to 510; of 20000, every 156th and the last
    bumps = build_bumps(cells)
    s = _mode_overlaps(IntervalDomain(length=length, n_modes=n_modes), bumps)
    modes = np.unique(np.r_[np.arange(1, n_modes + 1, max(1, n_modes // 128)), n_modes])
    ref = reference_mode_overlaps(length, bumps, modes)
    assert np.abs(s[modes - 1] - ref).max() <= 1e-13


class TestSineSeries:
    @pytest.mark.parametrize("n_modes", [1, 31, 32, 33, 510, 20000])
    @pytest.mark.parametrize("length", [1.0, 2.5])
    def test_overlaps_match_direct_sines(self, n_modes, length):
        cells = build_voronoi([0.17 * length, 0.5 * length, 0.83 * length], length, 0.49)
        assert_overlaps_match_direct_sines(cells, length, n_modes)

    @pytest.mark.parametrize("n_modes", [1, 510, 20000])
    def test_overlaps_on_unequal_cells_match_direct_sines(self, n_modes):
        cells = build_voronoi([0.1, 0.3, 0.35, 0.8], 1.0, 0.45)
        assert_overlaps_match_direct_sines(cells, 1.0, n_modes)

    @pytest.mark.parametrize(
        "kappa", [0.0, 1e-6, 0.5, 2.0, 3.99, math.nextafter(4.0, 0.0), 4.0, 4.01, 6.0, 20.0, 1e3]
    )
    def test_ramp_moment_matches_dense_reference(self, kappa):
        # both sides of κ = 4, where the Taylor series hands over to the
        # integration by parts
        m = _ramp_moment(np.array([kappa]))[0]
        assert abs(m - reference_ramp_moment(kappa)) <= 1e-15

    def test_underflow_cut_is_exact(self):
        # every skipped mode has rate·t >= the cut, where e^{−rate·t} is 0.0
        assert np.exp(-_EXP_UNDERFLOW) == 0.0
        assert not np.exp(-np.full(37, _EXP_UNDERFLOW)).any()

    @staticmethod
    def assert_mode_sums_match_full_mode_reference(case, grid):
        g, bumps, dom = case()
        p = averaged_parametrix(dom, bumps, grid, g)
        h, lh = full_mode_parametrix(dom, bumps, grid, g)
        assert np.all(np.abs(p.samples - h) <= 1e-12 * np.maximum(1.0, np.abs(h)))
        assert np.all(np.abs(p.heat_image - lh) <= 1e-12 * np.maximum(1.0, np.abs(lh)))

    def test_mode_sums_match_full_mode_reference(self):
        self.assert_mode_sums_match_full_mode_reference(interval_case, TimeGrid(0.25, 8192))

    def test_mode_sums_over_four_mode_blocks_match_full_mode_reference(self):
        self.assert_mode_sums_match_full_mode_reference(path20_case, TimeGrid(0.25, 64))

    def test_peak_memory_has_no_modes_by_pairs_array(self):
        # the (modes, n²) products of the overlaps would be 64 MB each at
        # 20000 modes; a block of modes at a time, the peak is about 12.5 MB
        g, bumps, dom = path20_case(20000)
        assert traced_peak(averaged_parametrix, dom, bumps, TimeGrid(0.25, 64), g) < 20e6

    def test_peak_memory_has_no_times_by_modes_array(self):
        # all 510 modes at all 16385 times would be 67 MB for one exponential array
        g, bumps, dom = interval_case()
        grid = TimeGrid(0.25, 16384)
        assert traced_peak(averaged_parametrix, dom, bumps, grid, g) < 20e6


@pytest.mark.slow
class TestEmbeddedKernel:
    def test_single_vertex_graph(self):
        # no edges: the embedded kernel must be constant one
        g = WeightedGraph(np.zeros((1, 1)))
        bumps = build_bumps(build_voronoi([0.5], 1.0, 0.49))
        dom = IntervalDomain(length=1.0, n_modes=520)
        grid = TimeGrid(0.5, 32768)
        p = averaged_parametrix(dom, bumps, grid, g)
        assert p.samples[0, 0, 0] == pytest.approx(1.0, abs=1e-7)
        hg = heat_kernel_via_parametrix(p, 1e-8)
        # reads 3.8e-7
        assert np.abs(hg - 1.0).max() <= 2e-6

    def test_path3_against_spectral(self):
        g = WeightedGraph.path(3)
        bumps = build_bumps(build_voronoi([0.17, 0.5, 0.83], 1.0, 0.49))
        dom = IntervalDomain(length=1.0, n_modes=520)
        grid = TimeGrid(0.5, 65536)
        p = averaged_parametrix(dom, bumps, grid, g)
        hg = heat_kernel_via_parametrix(p, 1e-8)
        sp = sample_closed_form(spectral_kernel(g), grid)
        # reads 2.2e-5
        assert compare_kernels(hg, sp, grid.nodes).sup_error <= 1e-4

    def test_halving_dt_cuts_the_error_fourfold(self):
        # the embed-refine benchmark's check: t <= 0.25 at 8192 and 16384
        # steps against the spectral oracle, second order in dt
        g, bumps, dom = interval_case()
        errors = []
        for steps in (8192, 16384):
            grid = TimeGrid(0.25, steps)
            k = heat_kernel_via_parametrix(averaged_parametrix(dom, bumps, grid, g), 1e-8)
            spectral = sample_closed_form(spectral_kernel(g), grid)
            errors.append(compare_kernels(k, spectral, grid.nodes).sup_error)
        assert errors[0] <= 6e-3 and errors[1] <= 1.5e-3
        assert errors[0] / errors[1] >= 3.5

    def test_normalizations_agree(self):
        g = WeightedGraph.path(3)
        cells = build_voronoi([0.17, 0.5, 0.83], 1.0, 0.49)
        bumps = build_bumps(cells)
        dom = IntervalDomain(length=1.0, n_modes=520)
        grid = TimeGrid(0.5, 32768)
        p = averaged_parametrix(dom, bumps, grid, g)
        hs = [
            heat_kernel_via_parametrix(q, 1e-8) for q in (p, first_variable_parametrix(p, cells, g))
        ]
        # reads 2.8e-7
        assert np.abs(hs[0] - hs[1]).max() <= 1.5e-6

    def test_delta_robustness(self):
        # the assembled kernel does not depend on the bump family beyond the
        # combined numerical budgets of the two runs
        g = WeightedGraph.path(3)
        dom = IntervalDomain(length=1.0, n_modes=520)
        grid = TimeGrid(0.5, 32768)
        results = []
        for dfrac in (0.49, 0.245):
            bumps = build_bumps(build_voronoi([0.17, 0.5, 0.83], 1.0, dfrac))
            p = averaged_parametrix(dom, bumps, grid, g)
            results.append(heat_kernel_via_parametrix(p, 1e-8))
        # reads 5.0e-4
        assert np.abs(results[0] - results[1]).max() <= 2.5e-3
