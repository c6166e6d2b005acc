import json
import math
import os

import numpy as np
import pytest

from heatpar.documents import load_document, parse_document
from heatpar.errors import ContractViolation, NumericalBudgetError
from heatpar.graph import WeightedGraph
from heatpar.oracle import (
    compare_kernels,
    expm_heat_kernel,
    jacobi_eigh,
    spectral_kernel,
)
from heatpar.series import TimeGrid, sample_closed_form

from conftest import lattice_hole_document, random_graph, sequential_jacobi_eigh, traced_peak

CASES = os.path.join(os.path.dirname(__file__), "..", "cases")

# hand eigendecomposition of the unit 3-path Laplacian: eigenvalues 0, 1, 3
# with first-vertex weights 1/3, 1/2, 1/6
def p3_first_entry(t):
    return 1.0 / 3.0 + math.exp(-t) / 2.0 + math.exp(-3.0 * t) / 6.0


class TestJacobi:
    def test_reconstruction_and_orthogonality(self, rng):
        for _ in range(20):
            g = random_graph(rng, n_max=12)
            lap = g.laplacian_matrix()
            lam, v = jacobi_eigh(lap)
            assert np.abs(v @ np.diag(lam) @ v.T - lap).max() <= 1e-10 * max(
                1.0, np.abs(lap).max()
            )
            assert np.abs(v.T @ v - np.eye(g.n)).max() <= 1e-10
            assert np.all(np.diff(lam) >= 0)
            assert lam[0] >= -1e-10

    def test_connected_graph_kernel_of_zero(self):
        g = WeightedGraph.complete(6)
        lam, v = jacobi_eigh(g.laplacian_matrix())
        assert abs(lam[0]) <= 1e-12
        # zero eigenvector is the constant vector
        assert np.abs(np.abs(v[:, 0]) - 1.0 / math.sqrt(6)).max() <= 1e-10

    def test_requires_symmetry(self):
        with pytest.raises(ContractViolation):
            jacobi_eigh(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_requires_finite_entries(self):
        with pytest.raises(ContractViolation, match="finite"):
            jacobi_eigh(np.array([[1.0, math.inf], [math.inf, 1.0]]))

    def test_stop_test_survives_an_overflowing_norm(self):
        # ||L||_F² overflows at an edge of weight 1e160, which once made
        # the stopping test pass before the first rotation
        w = np.array([[0.0, 1e160, 0.0], [1e160, 0.0, 1.0], [0.0, 1.0, 0.0]])
        g = WeightedGraph(w)
        t = 1e-160
        assert np.abs(spectral_kernel(g).at(t) - expm_heat_kernel(g, t)).max() <= 1e-10


def weighted_graph(rng, n: int, p_edge: float = 0.4) -> WeightedGraph:
    w = rng.uniform(0.0, 2.0, size=(n, n)) * (rng.uniform(size=(n, n)) < p_edge)
    w = np.triu(w, 1)
    return WeightedGraph(w + w.T)


def round_robin_inputs():
    rng = np.random.default_rng(5)
    yield pytest.param(np.array([[0.0]]), id="n1")
    yield pytest.param(WeightedGraph.complete(2, weight=0.7).laplacian_matrix(), id="n2")
    yield pytest.param(weighted_graph(rng, 3, p_edge=1.0).laplacian_matrix(), id="n3")
    for n in (4, 7, 16, 33, 50, 81):
        yield pytest.param(weighted_graph(rng, n).laplacian_matrix(), id=f"random-n{n}")
    two = np.zeros((11, 11))
    two[:5, :5] = weighted_graph(rng, 5, p_edge=1.0).weights
    two[5:, 5:] = weighted_graph(rng, 6, p_edge=1.0).weights
    yield pytest.param(WeightedGraph(two).laplacian_matrix(), id="disconnected")
    yield pytest.param(WeightedGraph.complete(6).laplacian_matrix(), id="K6")
    yield pytest.param(np.diag([3.0, 0.5, 2.0, 0.5, 1.0]), id="diagonal")
    doc = parse_document(json.dumps(lattice_hole_document(seed=5)))
    yield pytest.param(doc.graph.laplacian_matrix(), id="lattice-hole")


class TestRoundRobinJacobi:
    @pytest.mark.parametrize("lap", round_robin_inputs())
    def test_matches_sequential_sweeps(self, lap):
        # eigenvectors are not unique at degenerate eigenvalues, so compare
        # the heat kernels they build
        assert_matches_sequential(lap, *jacobi_eigh(lap))

    def test_sweep_budget_exhausted(self, monkeypatch, rng):
        # from the identity, which a non-orthogonal LAPACK basis forces
        lap = weighted_graph(rng, 10, p_edge=0.6).laplacian_matrix()
        monkeypatch.setattr(np.linalg, "eigh", lambda a: (np.diag(a), np.ones_like(a)))
        with pytest.raises(ContractViolation):
            jacobi_eigh(lap, max_sweeps=1)


def lattice_hole_laplacian(seed: int = 1) -> np.ndarray:
    return parse_document(json.dumps(lattice_hole_document(seed=seed))).graph.laplacian_matrix()


def assert_matches_sequential(lap, lam, v):
    lam_ref, v_ref = sequential_jacobi_eigh(lap)
    budget = 1e-12 * max(1.0, float(np.linalg.norm(lap)))
    assert np.abs(lam - lam_ref).max() <= budget
    for t in (0.0, 0.1, 1.0):
        heat = (v * np.exp(-t * lam)) @ v.T
        heat_ref = (v_ref * np.exp(-t * lam_ref)) @ v_ref.T
        assert np.abs(heat - heat_ref).max() <= budget


class TestStartingBasis:
    # a budget of two sweeps passes exactly when one sweep converges: the
    # second only runs the stopping test

    def test_lapack_start_converges_in_one_sweep(self):
        lap = lattice_hole_laplacian()
        assert_matches_sequential(lap, *jacobi_eigh(lap, max_sweeps=2))

    def test_wrong_orthogonal_start_costs_sweeps_not_accuracy(self, monkeypatch):
        lap = lattice_hole_laplacian()
        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal(lap.shape))
        monkeypatch.setattr(np.linalg, "eigh", lambda a: (np.diag(a), q))
        assert_matches_sequential(lap, *jacobi_eigh(lap))
        with pytest.raises(ContractViolation, match="failed to converge"):
            jacobi_eigh(lap, max_sweeps=2)

    def test_bad_start_falls_back_to_the_identity(self, monkeypatch):
        lap = lattice_hole_laplacian()

        def lapack_fails(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        def skewed(a):
            return np.diag(a), np.eye(len(a)) + 1e-9

        results = []
        for fake in (lapack_fails, skewed):
            monkeypatch.setattr(np.linalg, "eigh", fake)
            results.append(jacobi_eigh(lap))
            # a cold start takes about ten sweeps here
            with pytest.raises(ContractViolation, match="failed to converge"):
                jacobi_eigh(lap, max_sweeps=2)
        assert all(np.array_equal(x, y) for x, y in zip(*results))
        assert_matches_sequential(lap, *results[0])


class TestSpectralKernel:
    def test_identity_at_zero(self, rng):
        g = random_graph(rng)
        assert np.abs(spectral_kernel(g).at(0.0) - np.eye(g.n)).max() <= 1e-12

    def test_k2_closed_form(self):
        kernel = spectral_kernel(WeightedGraph.complete(2))
        for t in (0.25, 1.0, 3.0):
            h = kernel.at(t)
            diag = (1.0 + math.exp(-2.0 * t)) / 2.0
            off = (1.0 - math.exp(-2.0 * t)) / 2.0
            assert h[0, 0] == pytest.approx(diag, abs=1e-12)
            assert h[0, 1] == pytest.approx(off, abs=1e-12)

    def test_p3_hand_eigendecomposition(self):
        kernel = spectral_kernel(WeightedGraph.path(3))
        for t in (0.1, 0.7, 2.0):
            h = kernel.at(t)
            assert h[0, 0] == pytest.approx(p3_first_entry(t), abs=1e-12)

    def test_identities(self, rng):
        for _ in range(10):
            g = random_graph(rng, n_max=8)
            t, s = 0.6, 1.1
            kernel = spectral_kernel(g)
            ht, hs, hts = (kernel.at(u) for u in (t, s, t + s))
            assert np.abs(ht - ht.T).max() <= 1e-12
            assert np.abs(ht @ hs - hts).max() <= 1e-12
            assert np.abs(ht.sum(axis=1) - 1.0).max() <= 1e-11

    @pytest.mark.parametrize("name", sorted(os.listdir(CASES)))
    @pytest.mark.parametrize("t", [1e6, 1e12])
    def test_exact_at_large_time(self, name, t):
        # every case is connected, so the kernel tends to 1/n
        g = load_document(os.path.join(CASES, name)).graph
        assert np.abs(spectral_kernel(g).at(t) - 1.0 / g.n).max() <= 1e-12

    def test_diagonal_decay_unit_graph(self):
        # connected unit-weight graph: diagonal decreases toward equilibrium
        g = WeightedGraph.complete(5)
        grid = TimeGrid(3.0, 60)
        series = sample_closed_form(spectral_kernel(g), grid)
        diag = series[:, 2, 2]
        assert np.all(np.diff(diag) <= 1e-12)


class TestExpm:
    def test_identity_at_zero(self, rng):
        g = random_graph(rng)
        assert np.abs(expm_heat_kernel(g, 0.0) - np.eye(g.n)).max() <= 1e-14

    def test_semigroup(self, rng):
        g = random_graph(rng, n_max=8)
        a = expm_heat_kernel(g, 0.7) @ expm_heat_kernel(g, 0.5)
        b = expm_heat_kernel(g, 1.2)
        assert np.abs(a - b).max() <= 1e-10

    def test_k2_closed_form(self):
        g = WeightedGraph.complete(2)
        h = expm_heat_kernel(g, 1.0)
        assert h[0, 0] == pytest.approx((1.0 + math.exp(-2.0)) / 2.0, abs=1e-13)

    def test_agrees_with_spectral(self, rng):
        worst = 0.0
        for _ in range(30):
            g = random_graph(rng, n_max=12)
            t = float(rng.uniform(0.0, 5.0))
            d = np.abs(
                spectral_kernel(g).at(t) - expm_heat_kernel(g, t)
            ).max()
            worst = max(worst, d)
        assert worst <= 1e-10

    @pytest.mark.parametrize(
        "t, match",
        [
            (1e308, r"= inf at .* overflows the expm scaling"),  # t·‖Δ‖ = inf
            (1.5 * 2.0**1021, r"= 6\.741e\+307 .* overflows the expm scaling"),  # 2^s = inf
        ],
    )
    def test_overflow_is_refused(self, t, match):
        w = np.kron(np.eye(2), [[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(NumericalBudgetError, match=match):
            expm_heat_kernel(WeightedGraph(w), t)

    @pytest.mark.parametrize("t", [1e6, 1e12, 1e20])
    def test_disconnected_graph_exact_at_large_time(self, t):
        # two disjoint unit edges: a second null mode (+1 on one edge, −1 on
        # the other) keeps the row sums of the whole matrix, so only the
        # row sums of each component hold its roundoff down
        w = np.kron(np.eye(2), [[0.0, 1.0], [1.0, 0.0]])
        decay = math.exp(-2.0 * t)
        edge = np.array([[1.0 + decay, 1.0 - decay], [1.0 - decay, 1.0 + decay]]) / 2.0
        exact = np.kron(np.eye(2), edge)
        assert np.abs(expm_heat_kernel(WeightedGraph(w), t) - exact).max() <= 1e-12

    @pytest.mark.parametrize("name", sorted(os.listdir(CASES)))
    @pytest.mark.parametrize("t", [1e6, 1e12])
    def test_exact_at_large_time(self, name, t):
        g = load_document(os.path.join(CASES, name)).graph
        lam, v = np.linalg.eigh(g.laplacian_matrix())
        lam[np.abs(lam) <= 1e-9] = 0.0  # the null eigenvalues are exactly zero
        exact = (v * np.exp(-t * lam)) @ v.T
        assert np.abs(expm_heat_kernel(g, t) - exact).max() <= 1e-12


class TestCompareKernels:
    def test_zero_report_for_identical(self, rng):
        g = random_graph(rng)
        grid = TimeGrid(1.0, 8)
        s = sample_closed_form(spectral_kernel(g), grid)
        report = compare_kernels(s, s, grid.nodes)
        assert report.sup_error == 0.0
        assert np.all(report.per_time_error == 0.0)

    def test_budget_and_first_crossing(self):
        times = np.array([0.0, 0.5, 1.0])
        a = np.zeros((3, 2, 2))
        b = np.zeros((3, 2, 2))
        b[2, 0, 1] = 1e-3
        report = compare_kernels(a, b, times=times, budget=1e-4)
        assert report.sup_error == pytest.approx(1e-3)
        assert not report.within_budget
        assert report.first_over_budget == 1.0
        assert report.argmax_time == 1.0

    def test_bounded_memory(self):
        # the dirichlet-verify shapes: the per-time maxima are taken a block
        # of times at a time, never on a whole-stack difference (27 MB)
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal((2, 2001, 41, 41))
        times = np.linspace(0.0, 2.0, 2001)
        assert traced_peak(compare_kernels, a, b, times) < 5e6
        rep = compare_kernels(a, b, times)
        assert np.array_equal(rep.per_time_error, np.abs(a - b).reshape(2001, -1).max(axis=1))

    def test_shape_mismatch(self):
        with pytest.raises(ContractViolation):
            compare_kernels(np.zeros((2, 2, 2)), np.zeros((2, 3, 3)), times=[0, 1])

    @pytest.mark.parametrize("budget", [math.nan, -1.0, -math.inf])
    def test_budget_must_be_a_nonnegative_number(self, budget):
        a = np.zeros((2, 2, 2))
        with pytest.raises(ContractViolation, match="budget must be nonnegative"):
            compare_kernels(a, a, [0.0, 1.0], budget=budget)
        assert compare_kernels(a, a, [0.0, 1.0], budget=0.0).within_budget

    def test_refinement_self_comparison_ratio(self):
        # halving dt shrinks the trapezoid error about fourfold
        from heatpar.parametrix import diagonal_parametrix, heat_kernel_via_parametrix

        g = WeightedGraph.path(4)
        errs = []
        for steps in (250, 500):
            grid = TimeGrid(1.0, steps)
            hg = heat_kernel_via_parametrix(diagonal_parametrix(g, grid), 1e-10)
            sp = sample_closed_form(spectral_kernel(g), grid)
            errs.append(compare_kernels(hg, sp, grid.nodes).sup_error)
        assert errs[0] / errs[1] >= 3.5

    def test_decomposition_caching_equivalence(self):
        # a kernel keeps one decomposition across samples: a reused kernel
        # agrees with a fresh one bit for bit
        g = WeightedGraph.path(5)
        kernel = spectral_kernel(g)
        kernel.at(0.3)
        assert np.array_equal(kernel.at(0.9), spectral_kernel(g).at(0.9))
