import json
import math
import os
import time

import numpy as np
import pytest

from heatpar.bessel import besseli, besseli_row, z_window_kernel
from heatpar.embed1d import (
    IntervalDomain,
    averaged_parametrix,
    build_bumps,
    build_voronoi,
    modes_for_time,
)
from heatpar.errors import ContractViolation, NonConvergenceError, NumericalBudgetError
from heatpar.documents import load_document, parse_document
from heatpar.graph import SubgraphEmbedding, WeightedGraph, boundary_sets
from heatpar.oracle import compare_kernels, expm_heat_kernel, spectral_kernel
from heatpar.parametrix import (
    Parametrix,
    _series_inverse,
    _series_quotient,
    ambient_spectral_kernel,
    assemble_heat_kernel,
    b_matrix,
    complete_graph_kernel,
    diagonal_parametrix,
    dirichlet_parametrix,
    heat_kernel_via_parametrix,
    neumann_series,
    restriction_parametrix,
    series_terms,
    subgraph_kernel_closed_form,
)
from heatpar.methods import METHODS, ambient_kernel
from heatpar.series import TimeGrid, convolve_values, sample_closed_form

from conftest import (
    back_substitution_quotient,
    dense_convolve,
    dense_series_product,
    full_rows,
    lattice_hole_document,
    linear_scan_terms,
    random_embedding,
    random_graph,
    stepping_series,
    term_by_term_series,
    traced_peak,
)


CASE_DIR = os.path.join(os.path.dirname(__file__), "..", "cases")


def k5_minus_edge():
    return SubgraphEmbedding(
        ambient=WeightedGraph.complete(5),
        kept=tuple(range(5)),
        removed_edges=frozenset([frozenset((0, 1))]),
    )


def halfline_window(w: int) -> SubgraphEmbedding:
    amb = WeightedGraph.path(w + 2)
    return SubgraphEmbedding(
        ambient=amb, kept=tuple(range(1, w + 2)), frontier=frozenset([w + 1])
    )


def path3_interval_parametrix(steps: int, t_max: float = 0.5) -> Parametrix:
    """The averaged parametrix of ``cases/path3_interval.json`` as the CLI
    builds it: vertices at 0.25, 0.5, 0.75 in (0, 1)."""
    probe = 1e-4 / math.pi**2
    dom = IntervalDomain(length=1.0, n_modes=modes_for_time(1.0, probe, 1e-10))
    bumps = build_bumps(build_voronoi([0.25, 0.5, 0.75], 1.0, 0.49))
    return averaged_parametrix(dom, bumps, TimeGrid(t_max, steps), WeightedGraph.path(3))


class TestDiagonalParametrix:
    def test_single_vertex(self):
        g = WeightedGraph(np.zeros((1, 1)))
        grid = TimeGrid(1.0, 8)
        p = diagonal_parametrix(g, grid)
        assert np.all(p.samples == 1.0)
        assert np.all(p.heat_image == 0.0)

    def test_k2_heat_image(self):
        g = WeightedGraph.path(2)
        grid = TimeGrid(1.0, 10)
        p = diagonal_parametrix(g, grid)
        for j, t in enumerate(grid.nodes):
            assert p.heat_image[j, 0, 1] == pytest.approx(-math.exp(-t), abs=1e-14)
            assert p.heat_image[j, 0, 0] == 0.0

    def test_dirac_exact(self, rng):
        g = random_graph(rng)
        p = diagonal_parametrix(g, TimeGrid(1.0, 4))
        assert np.array_equal(p.samples[0], np.eye(g.n))

    def test_pipeline_on_random_graph(self, rng):
        g = random_graph(rng, n_max=6)
        grid = TimeGrid(1.0, 800)
        hg = heat_kernel_via_parametrix(diagonal_parametrix(g, grid), 1e-8)
        sp = sample_closed_form(spectral_kernel(g), grid)
        assert compare_kernels(hg, sp, grid.nodes).sup_error <= 5e-5


class TestRestrictionParametrix:
    def test_trivial_embedding_exact(self, rng):
        g = WeightedGraph.complete(4)
        e = SubgraphEmbedding.trivial(g)
        grid = TimeGrid(1.0, 50)
        p = restriction_parametrix(e, complete_graph_kernel(4), grid)
        assert p.support == () and p.heat_image.shape == (51, 0, 4)
        res = neumann_series(p, 1e-10)
        assert res.terms_used == 1
        assert res.F.shape == (51, 0, 4)
        hg = assemble_heat_kernel(p, res)
        assert np.array_equal(hg, p.samples)

    def test_k5_heat_image_closed_form(self):
        e = k5_minus_edge()
        grid = TimeGrid(1.0, 16)
        p = restriction_parametrix(e, complete_graph_kernel(5), grid)
        lh = full_rows(p, p.heat_image)
        n = 5
        for j, t in enumerate(grid.nodes):
            u = math.exp(-n * t)
            assert lh[j, 0, 0] == pytest.approx(-u, abs=1e-13)  # -e^{-Nt} d^c
            assert lh[j, 0, 1] == pytest.approx(u, abs=1e-13)  # complement neighbor
            assert lh[j, 0, 2] == pytest.approx(0.0, abs=1e-13)
            assert np.all(lh[j, 2:] == 0.0)  # interior rows vanish
        assert p.support == (0, 1)

    def test_halfline_heat_image_closed_form(self):
        w = 12
        e = halfline_window(w)
        offsets = np.arange(-1, w + 1)
        grid = TimeGrid(1.5, 8)
        p = restriction_parametrix(e, z_window_kernel(offsets), grid)
        lh = full_rows(p, p.heat_image)
        for j, t in enumerate(grid.nodes):
            x = 2.0 * t
            row = besseli_row(w + 2, x)
            for y in range(6):
                expected = math.exp(-x) * (row[y + 1] - row[y])
                assert lh[j, 0, y] == pytest.approx(expected, abs=1e-13)
        assert np.all(lh[:, 1:, :] == 0.0)
        assert p.support == (0,)

    def test_empty_embedding_rejected(self):
        with pytest.raises(ContractViolation):
            restriction_parametrix(
                k5_minus_edge(), complete_graph_kernel(4), TimeGrid(1.0, 4)
            )


class TestDirichletParametrix:
    def test_halfline_heat_image(self):
        w = 10
        e = halfline_window(w)
        grid = TimeGrid(1.0, 6)
        p = dirichlet_parametrix(e, z_window_kernel(np.arange(-1, w + 1)), grid)
        lh = full_rows(p, p.heat_image)
        for j, t in enumerate(grid.nodes):
            x = 2.0 * t
            row = besseli_row(w + 2, x)
            for y in range(5):
                assert lh[j, 1, y] == pytest.approx(math.exp(-x) * row[y], abs=1e-13)
                assert lh[j, 0, y] == pytest.approx(
                    -math.exp(-x) * row[abs(y - 1)], abs=1e-13
                )
        assert np.all(lh[:, 2:, :] == 0.0)
        assert p.support == (0, 1)

    def test_kernel_rows_zeroed(self):
        w = 10
        e = halfline_window(w)
        grid = TimeGrid(1.0, 6)
        p = dirichlet_parametrix(e, z_window_kernel(np.arange(-1, w + 1)), grid)
        samples = p.samples
        assert np.all(samples[:, 0, :] == 0.0)
        # identity restricted to the interior at t = 0
        expected = np.eye(w + 1)
        expected[0, 0] = 0.0
        assert np.abs(samples[0] - expected).max() <= 1e-12

    def test_neumann_F_vanishes_at_origin_pair(self):
        # the boundary-to-boundary series entry is identically zero in exact
        # arithmetic; the trapezoid realization converges to it at O(dt^2)
        w = 16
        e = halfline_window(w)

        def f00(steps):
            grid = TimeGrid(1.0, steps)
            p = dirichlet_parametrix(e, z_window_kernel(np.arange(-1, w + 1)), grid)
            return np.abs(full_rows(p, neumann_series(p, 1e-10).F)[:, 0, 0]).max()

        coarse, fine = f00(400), f00(800)
        assert coarse <= 1e-6
        assert coarse / fine >= 3.5


def lattice_hole_embedding(seed: int) -> SubgraphEmbedding:
    return parse_document(json.dumps(lattice_hole_document(seed))).embedding


class TestHeatImageIdentity:
    """For a finite ambient, ∂_t H̃ = −Δ̃H̃, so both heat images follow from
    the ambient samples and the two Laplacians alone, with no missing-neighbor
    or coupling bookkeeping."""

    CASES = [
        (k5_minus_edge, lambda e: complete_graph_kernel(5)),
        (lambda: lattice_hole_embedding(11), lambda e: ambient_spectral_kernel(e.ambient)),
    ] + [
        # seeds whose kept set is not a prefix and that remove kept-kept edges
        pytest.param(
            lambda seed=seed: random_embedding(seed),
            lambda e: ambient_spectral_kernel(e.ambient),
            id=f"random-embedding-{seed}",
        )
        for seed in range(3)
    ]

    @staticmethod
    def ambient_terms(e, kernel, grid):
        amb = sample_closed_form(kernel, grid)
        kept = np.array(e.kept)
        dt_amb = -(e.ambient.laplacian_matrix() @ amb)[:, kept[:, None], kept[None, :]]
        scale = max(1.0, float(np.abs(amb).max()))
        return amb[:, kept[:, None], kept[None, :]], dt_amb, scale

    @pytest.mark.parametrize("make_e,make_kernel", CASES)
    def test_restriction(self, make_e, make_kernel):
        e = make_e()
        grid = TimeGrid(1.0, 16)
        p = restriction_parametrix(e, make_kernel(e), grid)
        h, dt_h, scale = self.ambient_terms(e, make_kernel(e), grid)
        assert np.array_equal(p.samples, h)
        expected = e.subgraph.laplacian_matrix() @ h + dt_h
        assert np.abs(full_rows(p, p.heat_image) - expected).max() <= 1e-12 * scale

    @pytest.mark.parametrize("make_e,make_kernel", CASES)
    def test_dirichlet(self, make_e, make_kernel):
        e = make_e()
        grid = TimeGrid(1.0, 16)
        p = dirichlet_parametrix(e, make_kernel(e), grid)
        h, dt_h, scale = self.ambient_terms(e, make_kernel(e), grid)
        rows = [e.subgraph_index(v) for v in boundary_sets(e)[0]]
        h[:, rows, :] = 0.0
        dt_h[:, rows, :] = 0.0  # the boundary rows of H stay zero
        assert np.array_equal(p.samples, h)
        expected = e.subgraph.laplacian_matrix() @ h + dt_h
        assert np.abs(full_rows(p, p.heat_image) - expected).max() <= 1e-12 * scale


class TestNeumannSeries:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: diagonal_parametrix(WeightedGraph.complete(8), TimeGrid(1.0, 400)),
            lambda: restriction_parametrix(
                k5_minus_edge(), complete_graph_kernel(5), TimeGrid(1.0, 1000)
            ),
            lambda: dirichlet_parametrix(
                halfline_window(16), z_window_kernel(np.arange(-1, 17)), TimeGrid(1.0, 400)
            ),
            lambda: path3_interval_parametrix(8192),
        ],
        ids=["k8-diagonal", "k5-minus-edge", "dirichlet-halfline-w16", "path3-interval-8192"],
    )
    def test_direct_solve_matches_term_by_term(self, build):
        p = build()
        res = neumann_series(p, 1e-8)
        ref = term_by_term_series(p, 1e-15)
        scale = max(1.0, float(np.abs(ref).max()))
        assert np.abs(res.F - ref).max() <= 1e-12 * scale
        # F solves the discrete equation F + LH + conv(F, LH) = 0, and
        # ``residual`` is its sup on the support block
        f, lh = full_rows(p, res.F), full_rows(p, p.heat_image)
        residual = f + lh + convolve_values(f, lh, p.grid.dt)
        assert np.abs(residual).max() <= 1e-12 * scale
        supp = list(p.support)
        f_blk = res.F[:, :, supp]
        l_blk = p.heat_image[:, :, supp]
        block = f_blk + l_blk + convolve_values(f_blk, l_blk, p.grid.dt)
        assert res.residual == np.abs(block).max()

    def test_tolerance_only_sizes_the_bound(self, rng):
        g = random_graph(rng, n_max=5)
        p = diagonal_parametrix(g, TimeGrid(1.0, 200))
        loose, tight = neumann_series(p, 1e-4), neumann_series(p, 1e-10)
        assert np.array_equal(loose.F, tight.F)
        assert loose.residual == tight.residual

    def test_coarse_grid_refused(self):
        with pytest.raises(NonConvergenceError, match="refine the time grid"):
            neumann_series(path3_interval_parametrix(160, t_max=2.0), 1e-8)

    def test_first_node_bound_refused(self):
        # dt·|LH| ≈ 2 on K2 with weight 7.992: the discrete series itself has
        # |F_1| = 1.08e3, and the correction at t = dt is 136 against its
        # O(dt) bound of 17.6
        p = diagonal_parametrix(WeightedGraph.complete(2, 7.992), TimeGrid(1.0, 4))
        assert np.abs(stepping_series(p, 2)[1]).max() > 1e3
        with pytest.raises(NumericalBudgetError, match="violating its O\\(t\\) bound"):
            heat_kernel_via_parametrix(p, 1e-8)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: diagonal_parametrix(WeightedGraph.complete(3, 50.0), TimeGrid(1.0, 64)),
            lambda: path3_interval_parametrix(128),
        ],
        ids=["k3-weight-50", "path3-interval-128"],
    )
    def test_growing_series_keeps_its_early_nodes(self, build):
        # F grows along the grid (to 7.8e6 on the path); each node must still
        # match the node-by-node solve relative to its own size, which fails
        # when a converged coefficient takes roundoff from later, larger ones
        p = build()
        res = neumann_series(p, 1e-8)
        ref = stepping_series(p, 2)
        err = np.abs(res.F - ref).max(axis=(1, 2))
        assert np.all(err <= 1e-8 * np.abs(ref).max(axis=(1, 2)))

    def test_zero_heat_image(self):
        g = WeightedGraph(np.zeros((3, 3)))
        p = diagonal_parametrix(g, TimeGrid(1.0, 8))
        res = neumann_series(p, 1e-8)
        assert res.terms_used == 1
        assert res.certified_tail == 0.0
        assert np.all(res.F == 0.0)

    def test_tolerance_controls_terms(self, rng):
        g = random_graph(rng, n_max=5)
        p = diagonal_parametrix(g, TimeGrid(1.0, 200))
        loose = neumann_series(p, 1e-4)
        tight = neumann_series(p, 1e-10)
        assert tight.terms_used >= loose.terms_used
        assert tight.certified_tail <= 1e-10 * 2

    def test_truncation_certificate_stability(self, rng):
        g = random_graph(rng, n_max=5)
        grid = TimeGrid(1.0, 400)
        p = diagonal_parametrix(g, grid)
        tol = 1e-6
        a = assemble_heat_kernel(p, neumann_series(p, tol))
        b = assemble_heat_kernel(p, neumann_series(p, tol / 10.0))
        assert np.abs(a - b).max() <= 10.0 * tol

    def test_term_count_matches_linear_scan(self):
        checked = 0
        for c in np.logspace(-3, 2, 16):
            for n in (1, 2, 3, 8, 41):
                for t in (1e-3, 0.05, 0.5, 2.0):
                    for tol in (1e-4, 1e-8, 1e-12):
                        assert series_terms(c, n, t, tol) == linear_scan_terms(c, n, t, tol)
                        checked += 1
        assert checked == 960

    def test_term_guard_is_fast(self):
        # c·n·t = 2.2e8: the bound peaks far beyond the 10M-term cap, which a
        # term-by-term scan would take about 15 s to reach
        g = WeightedGraph(np.array([[0.0, 1e8], [1e8, 0.0]]))
        p = diagonal_parametrix(g, TimeGrid(1.0, 4))
        start = time.perf_counter()
        with pytest.raises(NonConvergenceError, match="never meets the tolerance"):
            neumann_series(p, 1e-8)
        assert time.perf_counter() - start < 1.0

    def test_t_operator_iterates_match_b_matrix(self):
        # H~ * (LH)^{*l} equals (-1)^l t^l/l! e^{-Nt} B^l for the complete
        # graph with removals
        e = k5_minus_edge()
        n = 5
        grid = TimeGrid(1.0, 2000)
        p = restriction_parametrix(e, complete_graph_kernel(n), grid)
        h = sample_closed_form(complete_graph_kernel(n), grid)
        lh = full_rows(p, p.heat_image)
        b = b_matrix(e)
        term = h
        for ell in (1, 2, 3):
            term = convolve_values(term, lh, grid.dt)
            expected = np.stack(
                [
                    ((-1.0) ** ell)
                    * (t**ell / math.factorial(ell))
                    * math.exp(-n * t)
                    * np.linalg.matrix_power(b, ell)
                    for t in grid.nodes
                ]
            )
            assert np.abs(term - expected).max() <= 1e-5


def fft_points(monkeypatch) -> list[int]:
    """Count the points numpy's real FFTs transform from now on: for each
    call, the transform length times the number of series transformed,
    appended to the returned list."""
    points = []
    for name in ("rfft", "irfft"):
        transform = getattr(np.fft, name)

        def counted(x, n=None, axis=-1, _transform=transform, **kw):
            x = np.asarray(x)
            points.append((n or x.shape[axis]) * (x.size // x.shape[axis]))
            return _transform(x, n=n, axis=axis, **kw)

        monkeypatch.setattr(np.fft, name, counted)
    return points


class TestSeriesSolver:
    """The power-series inverse and quotient that solve the correction
    series, on random non-commuting matrix series."""

    @staticmethod
    def random_series(s: int, m: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        p = rng.normal(size=(m, s, s)) / (s * np.sqrt(np.arange(1, m + 1)))[:, None, None]
        p[0] += 2.0 * np.eye(s)
        return p

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 40, 257])
    @pytest.mark.parametrize("s", [1, 3, 8])
    def test_inverse(self, s, m):
        p = self.random_series(s, m, seed=10 * s + m)
        g = _series_inverse(p, m)
        assert g.shape == (m, s, s)
        prod, size = dense_series_product(p, g, m)
        prod[0] -= np.eye(s)
        assert np.all(np.abs(prod) <= 1e-13 * size.max())

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 40, 257])
    @pytest.mark.parametrize("s", [1, 3, 8])
    def test_quotient_matches_back_substitution(self, s, m):
        den = self.random_series(s, m, seed=10 * s + m)
        num = np.random.default_rng(m).normal(size=(m, s, s))
        phi = _series_quotient(num, den)
        ref = back_substitution_quotient(num, den)
        _, size = dense_series_product(np.abs(ref), np.abs(den), m)
        assert np.abs(phi - ref).max() <= 1e-13 * max(1.0, size.max())

    @pytest.mark.parametrize("m", [40, 257])
    def test_converged_coefficients_are_never_rewritten(self, m):
        p = self.random_series(3, m, seed=m)
        g = _series_inverse(p, m)
        h = 1
        while h < m:
            assert np.array_equal(g[:h], _series_inverse(p, h))
            h *= 2

    def test_singular_constant_term_refused(self):
        p = self.random_series(3, 8, seed=1)
        p[0] = 0.0
        with pytest.raises(NonConvergenceError, match="refine the time grid"):
            _series_inverse(p, 8)

    def test_fft_work_of_one_solve(self, monkeypatch):
        # the transformed points, length times number of series, of one
        # order-4 solve on the 16384-step interval parametrix; the Newton
        # inverse to full length and a separate full-length product took
        # 7,080,615
        p = path3_interval_parametrix(16384)
        points = fft_points(monkeypatch)
        neumann_series(p, 1e-8, 4)
        assert 0 < sum(points) <= 3_540_000

    def test_fft_work_of_one_partial_support_solve(self, monkeypatch):
        # a support of 2 of 41 vertices: one convolution of the solved block
        # gives both the columns off the support and the residual, where a
        # second one for the residual alone took 834,720 points
        doc = load_document(os.path.join(CASE_DIR, "halfline_w40.json"))
        e = doc.embedding
        p = dirichlet_parametrix(e, ambient_kernel(e), TimeGrid(2.0, 2000))
        assert len(p.support) < p.n
        points = fft_points(monkeypatch)
        neumann_series(p, 1e-8, 4)
        assert 0 < sum(points) <= 800_000


class TestFourthOrder:
    """The order-4 rule in the one solver: the series against a dense
    node-by-node Gregory solve, and fourth-order convergence of whole
    kernels to exact ones."""

    BUILDS = {
        # support is every vertex
        "k3-diagonal": lambda grid: diagonal_parametrix(
            WeightedGraph(np.array([[0.0, 1.3, 0.4], [1.3, 0.0, 2.0], [0.4, 2.0, 0.0]])), grid
        ),
        # support {0, 1} of 5 vertices
        "k5-minus-edge": lambda grid: restriction_parametrix(
            k5_minus_edge(), complete_graph_kernel(5), grid
        ),
        # support {0, 1} of 7 vertices, with the boundary row zeroed
        "dirichlet-halfline-w6": lambda grid: dirichlet_parametrix(
            halfline_window(6), z_window_kernel(np.arange(-1, 7)), grid
        ),
        "random-embedding": lambda grid: restriction_parametrix(
            random_embedding(3), ambient_kernel(random_embedding(3)), grid
        ),
    }

    @pytest.mark.parametrize("steps", [1, 2, 3, 4, 5, 6, 40])
    @pytest.mark.parametrize("name", list(BUILDS))
    def test_series_matches_stepping_reference(self, name, steps):
        p = self.BUILDS[name](TimeGrid(0.8, steps))
        res = neumann_series(p, 1e-8, 4)
        ref = stepping_series(p, 4)
        scale = max(1.0, float(np.abs(ref).max()))
        assert res.order == 4
        assert np.abs(res.F - ref).max() <= 1e-13 * scale
        assert res.residual <= 1e-13 * scale
        # F solves F + LH + conv(F, LH) = 0 in the order-4 rule
        f, lh = full_rows(p, res.F), full_rows(p, p.heat_image)
        residual = f + lh + convolve_values(f, lh, p.grid.dt, 4)
        assert np.abs(residual).max() <= 1e-13 * scale

    def test_support_smaller_than_the_graph(self):
        for name in ("k5-minus-edge", "dirichlet-halfline-w6", "random-embedding"):
            p = self.BUILDS[name](TimeGrid(0.8, 4))
            assert len(p.support) < p.n, name

    @staticmethod
    def halving_ratio(run, coarse: int) -> float:
        errors = [run(steps) for steps in (coarse, 2 * coarse)]
        return errors[0] / errors[1]

    def test_dirichlet_halfline_halving_ratio(self):
        doc = load_document(os.path.join(CASE_DIR, "halfline_w40.json"))
        e = doc.embedding

        def error(steps):
            grid = TimeGrid(2.0, steps)
            p = dirichlet_parametrix(e, ambient_kernel(e), grid)
            exact = METHODS["closed-form-halfline-dirichlet"](doc, grid, 1e-10)
            return np.abs(heat_kernel_via_parametrix(p, 1e-10, 4) - exact).max()

        assert self.halving_ratio(error, 100) >= 12.0

    def test_lattice_hole_halving_ratio(self):
        e = lattice_hole_embedding(seed=1)
        exact_kernel = spectral_kernel(e.subgraph)

        def error(steps):
            grid = TimeGrid(1.0, steps)
            p = restriction_parametrix(e, ambient_kernel(e), grid)
            exact = sample_closed_form(exact_kernel, grid)
            return np.abs(heat_kernel_via_parametrix(p, 1e-8, 4) - exact).max()

        assert self.halving_ratio(error, 25) >= 12.0

    def test_dirichlet_boundary_row_is_exactly_zero(self):
        doc = load_document(os.path.join(CASE_DIR, "halfline_w40.json"))
        e = doc.embedding
        p = dirichlet_parametrix(e, ambient_kernel(e), TimeGrid(2.0, 200))
        kernel = heat_kernel_via_parametrix(p, 1e-10, 4)
        boundary = [e.subgraph_index(v) for v in boundary_sets(e)[0]]
        assert boundary and not kernel[:, boundary, :].any()

    @pytest.mark.parametrize("order", [3, 1, 8])
    def test_other_orders_refused(self, order):
        p = diagonal_parametrix(WeightedGraph.path(3), TimeGrid(1.0, 8))
        with pytest.raises(ContractViolation, match="order must be 2 or 4"):
            neumann_series(p, 1e-8, order)
        with pytest.raises(ContractViolation, match="order must be 2 or 4"):
            heat_kernel_via_parametrix(p, 1e-8, order)

    def test_assembly_takes_the_series_order(self):
        p = diagonal_parametrix(WeightedGraph.path(3), TimeGrid(1.0, 8))
        fourth = neumann_series(p, 1e-8, 4)
        assembled = assemble_heat_kernel(p, fourth)
        assert np.array_equal(assembled, heat_kernel_via_parametrix(p, 1e-8, 4))
        second = neumann_series(p, 1e-8)
        assert second.order == 2
        trapezoid = p.samples + dense_convolve(p.samples, second.F, p.grid.dt, 2)
        assert np.abs(assemble_heat_kernel(p, second) - trapezoid).max() <= 1e-14


class TestAmbientSpectralKernel:
    @pytest.mark.parametrize("name", sorted(os.listdir(CASE_DIR)))
    @pytest.mark.parametrize("t", [1e6, 1e12])
    def test_exact_at_large_time(self, name, t):
        # every case is connected, so the kernel tends to 1/n
        g = load_document(os.path.join(CASE_DIR, name)).graph
        assert np.abs(ambient_spectral_kernel(g).at(t) - 1.0 / g.n).max() <= 1e-12


class TestCompleteGraphClosedForms:
    def test_kernel_examples(self):
        k = complete_graph_kernel(5)
        assert np.array_equal(k.at(0.0), np.eye(5))
        for t in (0.3, 1.7):
            assert np.abs(k.at(t).sum(axis=1) - 1.0).max() <= 1e-14

    def test_one_vertex_is_the_constant_one(self):
        k = complete_graph_kernel(1)
        assert np.array_equal(k.sample(np.linspace(0.0, 5.0, 11)), np.ones((11, 1, 1)))
        with pytest.raises(ContractViolation):
            complete_graph_kernel(0)

    def test_n2_matches_hand_spectral(self):
        k = complete_graph_kernel(2)
        for t in (0.2, 1.0):
            expected = np.array(
                [
                    [(1 + math.exp(-2 * t)) / 2, (1 - math.exp(-2 * t)) / 2],
                    [(1 - math.exp(-2 * t)) / 2, (1 + math.exp(-2 * t)) / 2],
                ]
            )
            assert np.abs(k.at(t) - expected).max() <= 1e-14

    def test_b_matrix_edge_deletion(self):
        b = b_matrix(k5_minus_edge())
        expected = np.zeros((5, 5))
        expected[0, 0] = expected[1, 1] = 1.0
        expected[0, 1] = expected[1, 0] = -1.0
        assert np.array_equal(b, expected)
        for ell in (1, 2, 5):
            p = np.linalg.matrix_power(b, ell)
            assert p[0, 0] == 2.0 ** (ell - 1)
            assert p[0, 1] == -(2.0 ** (ell - 1))

    def test_b_matrix_trivial_and_errors(self):
        g = WeightedGraph.complete(4)
        assert np.array_equal(b_matrix(SubgraphEmbedding.trivial(g)), np.zeros((4, 4)))
        with pytest.raises(ContractViolation, match="needs a unit-weight complete graph"):
            b_matrix(SubgraphEmbedding.trivial(WeightedGraph.path(4)))

    def test_subgraph_closed_form_examples(self):
        e = k5_minus_edge()
        n = 5
        kn = complete_graph_kernel(n)
        for t in (0.25, 1.0):
            h = subgraph_kernel_closed_form(e).at(t)
            base = kn.at(t)
            corr = math.exp(-n * t) * (math.exp(2 * t) - 1) / 2.0
            assert h[0, 0] == pytest.approx(base[0, 0] + corr, abs=1e-12)
            assert h[0, 1] == pytest.approx(base[0, 1] - corr, abs=1e-12)
            assert np.abs(h[2:, 2:] - base[2:, 2:]).max() <= 1e-12

    def test_subgraph_closed_form_vs_expm(self, rng):
        n = 6
        for _ in range(5):
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            take = rng.choice(len(pairs), size=int(rng.integers(1, 6)), replace=False)
            removed = frozenset(frozenset(pairs[i]) for i in take)
            e = SubgraphEmbedding(
                ambient=WeightedGraph.complete(n),
                kept=tuple(range(n)),
                removed_edges=removed,
            )
            t = float(rng.uniform(0.1, 3.0))
            assert np.abs(
                subgraph_kernel_closed_form(e).at(t) - expm_heat_kernel(e.subgraph, t)
            ).max() <= 1e-10


class TestAssembledKernels:
    def test_k5_example_value(self):
        e = k5_minus_edge()
        grid = TimeGrid(1.0, 1000)
        p = restriction_parametrix(e, complete_graph_kernel(5), grid)
        hg = heat_kernel_via_parametrix(p, 1e-9)
        kn = complete_graph_kernel(5)
        j = 500
        t = grid.nodes[j]
        expected = kn.at(t)[0, 0] + math.exp(-5 * t) * (math.exp(2 * t) - 1) / 2.0
        assert hg[j, 0, 0] == pytest.approx(expected, abs=1e-6)

    def test_halfline_neumann_formula(self):
        w = 20
        e = halfline_window(w)
        grid = TimeGrid(2.0, 600)
        p = restriction_parametrix(e, z_window_kernel(np.arange(-1, w + 1)), grid)
        hg = heat_kernel_via_parametrix(p, 1e-9)
        from heatpar.bessel import halfline_window_kernel

        closed = sample_closed_form(halfline_window_kernel(np.arange(w + 1)), grid)
        assert np.abs(hg[:, :6, :6] - closed[:, :6, :6]).max() <= 1e-5

    def test_invariants_symmetry_mass_positivity(self, rng):
        g = random_graph(rng, n_max=6)
        grid = TimeGrid(1.0, 600)
        v = heat_kernel_via_parametrix(diagonal_parametrix(g, grid), 1e-9)
        tol = 1e-4
        assert np.abs(v - v.transpose(0, 2, 1)).max() <= tol
        assert np.abs(v.sum(axis=2) - 1.0).max() <= tol
        assert v.min() >= -tol

    def test_semigroup_at_grid_times(self, rng):
        g = random_graph(rng, n_max=5)
        grid = TimeGrid(2.0, 1000)
        hg = heat_kernel_via_parametrix(diagonal_parametrix(g, grid), 1e-9)
        j1, j2 = 300, 500
        prod = hg[j1] @ hg[j2]
        assert np.abs(prod - hg[j1 + j2]).max() <= 2e-4

    def test_correction_term_order(self, rng):
        # (H*F)(t) = O(t^{k+1}) with k = 0: the ratio to t stays bounded
        g = random_graph(rng, n_max=5)
        grid = TimeGrid(1.0, 1000)
        p = diagonal_parametrix(g, grid)
        res = neumann_series(p, 1e-9)
        hg = assemble_heat_kernel(p, res)
        corr = hg - p.samples
        cap = 2.0 * res.bound_constant * g.n
        for j in range(1, 33):
            ratio = np.abs(corr[j]).max() / grid.nodes[j]
            assert ratio <= cap + 1e-12

    def test_dirichlet_rows_and_interior_heat_equation(self):
        # finite ambient: Dirichlet kernel on the first 8 vertices of a
        # 10-vertex path, boundary at the cut
        amb = WeightedGraph.path(10)
        e = SubgraphEmbedding(ambient=amb, kept=tuple(range(8)))
        grid = TimeGrid(1.0, 800)
        p = dirichlet_parametrix(e, ambient_spectral_kernel(amb), grid)
        hd = heat_kernel_via_parametrix(p, 1e-9)
        # boundary row exactly zero for all t
        assert np.all(hd[:, 7, :] == 0.0)
        # interior rows solve the heat equation of the kept graph
        lap = e.subgraph.laplacian_matrix()
        dt = grid.dt
        v = hd
        ddt = (v[2:] - v[:-2]) / (2.0 * dt)
        residual = np.einsum("xv,jvw->jxw", lap, v[1:-1]) + ddt
        assert np.abs(residual[:, :7, :]).max() <= 5e-3
        # oracle: zero-padded exponential of the interior principal submatrix
        sub = lap[:7, :7]
        t = grid.nodes[400]
        from heatpar.oracle import jacobi_eigh

        lam, vv = jacobi_eigh(sub)
        hd_ref = (vv * np.exp(-lam * t)) @ vv.T
        assert np.abs(v[400, :7, :7] - hd_ref).max() <= 1e-5


class TestParametrixContract:
    """A parametrix checks its arrays against the grid and its support, and
    assembly refuses the series of a parametrix on another grid or support."""

    @staticmethod
    def parts():
        # rows 1, 3 and 5 of a 7-vertex heat image on a 4-step grid
        return TimeGrid(1.0, 4), np.zeros((5, 7, 7)), (1, 3, 5), np.full((5, 3, 7), 0.5)

    def test_valid_parts(self):
        p = Parametrix(*self.parts())
        assert p.n == 7
        assert p.support == (1, 3, 5)

    @pytest.mark.parametrize("support", [(3, 1, 5), (1, 3, 3), (-1, 3, 5), (1, 3, 7)])
    def test_support_increasing_and_in_range(self, support):
        grid, h, _, lh = self.parts()
        with pytest.raises(ContractViolation, match="support"):
            Parametrix(grid, h, support, lh)

    @pytest.mark.parametrize("rows", [2, 4])
    def test_heat_image_rows_match_support(self, rows):
        grid, h, supp, _ = self.parts()
        with pytest.raises(ContractViolation, match="heat image"):
            Parametrix(grid, h, supp, np.zeros((5, rows, 7)))

    @pytest.mark.parametrize("which", ["samples", "heat_image"])
    @pytest.mark.parametrize("nodes", [4, 6])
    def test_time_axis_matches_grid(self, which, nodes):
        parts = dict(zip(("grid", "samples", "support", "heat_image"), self.parts()))
        parts[which] = np.zeros((nodes,) + parts[which].shape[1:])
        with pytest.raises(ContractViolation, match="shape"):
            Parametrix(**parts)

    @pytest.mark.parametrize("which", ["samples", "heat_image"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_refused(self, which, bad):
        parts = dict(zip(("grid", "samples", "support", "heat_image"), self.parts()))
        parts[which][3, 2, 4] = bad
        with pytest.raises(ContractViolation, match="non-finite"):
            Parametrix(**parts)

    @pytest.mark.parametrize(
        "grid,support",
        [(TimeGrid(1.0, 4), (0, 3, 5)), (TimeGrid(1.0, 4), (1, 3)), (TimeGrid(2.0, 4), (1, 3, 5))],
        ids=["same-size-support", "smaller-support", "other-grid"],
    )
    def test_assembly_refuses_another_parametrix_series(self, grid, support):
        p = Parametrix(*self.parts())
        other = Parametrix(grid, p.samples, support, p.heat_image[:, : len(support)])
        assemble_heat_kernel(p, neumann_series(p, 1e-8))
        with pytest.raises(ContractViolation, match="does not match"):
            assemble_heat_kernel(p, neumann_series(other, 1e-8))


class TestAssemblyMemory:
    """Neither stage holds a full (M+1, n, n) array it does not return:
    ``neumann_series`` works on the support rows of LH only, and
    ``assemble_heat_kernel`` never holds a full-length spectrum, since the
    correction is computed a block of rows at a time and H is added in place."""

    def assembly_peak(self, p):
        series = neumann_series(p, 1e-8)
        before = p.samples.copy()
        peak = traced_peak(assemble_heat_kernel, p, series)
        assert np.array_equal(p.samples, before)
        return peak

    @staticmethod
    def dirichlet_verify_setup():
        e = load_document(os.path.join(CASE_DIR, "halfline_w40.json")).embedding
        return dirichlet_parametrix(e, ambient_kernel(e), TimeGrid(2.0, 2000))

    @staticmethod
    def lattice_with_hole():
        e = parse_document(json.dumps(lattice_hole_document(seed=1))).embedding
        p = restriction_parametrix(e, ambient_kernel(e), TimeGrid(1.0, 250))
        assert p.n == 77
        return p

    def test_dirichlet_builder_never_holds_the_ambient(self):
        # sampling the 42-vertex ambient whole and then copying out the 41
        # kept vertices peaked at 2.09 times the parametrix
        p = self.dirichlet_verify_setup()
        out_bytes = p.samples.nbytes + p.heat_image.nbytes
        assert traced_peak(self.dirichlet_verify_setup) <= 1.5 * out_bytes

    def test_dirichlet_verify_setup(self):
        # 2001 × 41 × 41 values are 27 MB; the one-shot spectrum was 54 MB
        assert self.assembly_peak(self.dirichlet_verify_setup()) < 60e6

    def test_lattice_with_hole(self):
        assert self.assembly_peak(self.lattice_with_hole()) < 35e6

    def test_series_dirichlet_verify_setup(self):
        # LH has 2 support rows of 41; one full (M+1, n, n) array is 27 MB
        assert traced_peak(neumann_series, self.dirichlet_verify_setup(), 1e-8) < 20e6

    def test_series_lattice_with_hole(self):
        # 8 support rows of 77; one full (M+1, n, n) array is 12 MB
        assert traced_peak(neumann_series, self.lattice_with_hole(), 1e-8) < 18e6
