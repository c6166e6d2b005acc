"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  The randomized corpora use fixed seeds; the samplers are documented
next to the tests that use them.
"""

import math
import time

import numpy as np
import pytest

from heatpar.bessel import (
    bessel_tail_bound,
    bessel_time_convolve,
    besseli,
    halfline_dirichlet_closed_form,
    halfline_window_kernel,
    watson_series,
    z_window_kernel,
)
from heatpar.embed1d import (
    IntervalDomain,
    averaged_parametrix,
    build_bumps,
    build_voronoi,
)
from heatpar.graph import SubgraphEmbedding, WeightedGraph
from heatpar.oracle import compare_kernels, expm_heat_kernel, spectral_kernel
from heatpar.parametrix import (
    assemble_heat_kernel,
    complete_graph_kernel,
    diagonal_parametrix,
    dirichlet_parametrix,
    heat_kernel_via_parametrix,
    neumann_series,
    restriction_parametrix,
    subgraph_kernel_closed_form,
)
from heatpar.series import TimeGrid, convolve_values, sample_closed_form

from conftest import (
    convolution_bound,
    first_variable_parametrix,
    random_graph,
    verify_intro_identity,
)


def report(criterion: str, passed: bool, detail: str):
    print(f"[{criterion}] {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"{criterion}: {detail}"


def k5_minus_edge():
    return SubgraphEmbedding(
        ambient=WeightedGraph.complete(5),
        kept=tuple(range(5)),
        removed_edges=frozenset([frozenset((0, 1))]),
    )


def halfline_window(w: int) -> SubgraphEmbedding:
    return SubgraphEmbedding(
        ambient=WeightedGraph.path(w + 2),
        kept=tuple(range(1, w + 2)),
        frontier=frozenset([w + 1]),
    )


def test_criterion_1_complete_graph_edge_deletion():
    started = time.perf_counter()
    e = k5_minus_edge()
    grid = TimeGrid(1.0, 1000)
    p = restriction_parametrix(e, complete_graph_kernel(5), grid)
    hg = heat_kernel_via_parametrix(p, 1e-9)
    sup = 0.0
    exact = subgraph_kernel_closed_form(e)
    for t in (0.1, 0.5, 1.0):
        j = round(t / grid.dt)
        closed = exact.at(t)
        sup = max(sup, float(np.abs(hg[j] - closed).max()))
    elapsed = time.perf_counter() - started
    report(
        "criterion-1 complete-graph edge deletion",
        sup <= 5e-6 and elapsed <= 10.0,
        f"sup error {sup:.3e} <= 5e-06, runtime {elapsed:.2f}s <= 10s",
    )


def test_criterion_2_closed_form_engine_vs_spectral():
    rng = np.random.default_rng(60_2024)
    n = 6
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    worst = 0.0
    for _ in range(50):
        count = int(rng.integers(1, len(pairs) + 1))
        take = rng.choice(len(pairs), size=count, replace=False)
        e = SubgraphEmbedding(
            ambient=WeightedGraph.complete(n),
            kept=tuple(range(n)),
            removed_edges=frozenset(frozenset(pairs[i]) for i in take),
        )
        exact = subgraph_kernel_closed_form(e)
        spectral = spectral_kernel(e.subgraph)
        for t in (0.25, 1.0, 4.0):
            d = np.abs(exact.at(t) - spectral.at(t)).max()
            worst = max(worst, float(d))
    report(
        "criterion-2 closed-form engine vs spectral",
        worst <= 1e-10,
        f"worst disagreement {worst:.3e} <= 1e-10 over 50 random edge subsets",
    )


def _criterion3_corpus(count: int):
    # documented sampler: n ~ U{2..10}, Erdos-Renyi edge probability
    # ~ U[0.2, 0.7], surviving weights ~ U[0, 2]
    rng = np.random.default_rng(20240901)
    return [random_graph(rng, n_max=10, w_max=2.0, p_range=(0.2, 0.7)) for _ in range(count)]


def _diagonal_pipeline_error(g, steps):
    grid = TimeGrid(2.0, steps)
    hg = heat_kernel_via_parametrix(diagonal_parametrix(g, grid), 1e-8)
    return compare_kernels(hg, sample_closed_form(spectral_kernel(g), grid), grid.nodes).sup_error


@pytest.mark.slow
def test_criterion_3_diagonal_parametrix_universality():
    graphs = _criterion3_corpus(100)
    errors = [_diagonal_pipeline_error(g, 2000) for g in graphs]
    worst = max(errors)
    ok_tol = worst <= 1e-5
    ratios = []
    for g, err in zip(graphs[:10], errors[:10]):
        fine = _diagonal_pipeline_error(g, 4000)
        if fine < 1e-13:
            assert err < 1e-13
            continue
        ratios.append(err / fine)
    ok_order = all(r >= 3.5 for r in ratios)
    report(
        "criterion-3 diagonal parametrix universality",
        ok_tol and ok_order,
        f"worst sup error {worst:.3e} <= 1e-05 over 100 graphs; "
        f"halving ratios {min(ratios):.2f}..{max(ratios):.2f} >= 3.5",
    )


def test_criterion_4_halfline_neumann_kernel():
    w = 40
    e = halfline_window(w)
    # window certificate: at t <= 2 the nearest neglected lattice site
    # (distance >= 35 from any compared vertex) contributes below 1e-12
    certificate = math.exp(-4.0) * bessel_tail_bound(w - 5, 4.0)
    grid = TimeGrid(2.0, 1200)
    p = restriction_parametrix(e, z_window_kernel(np.arange(-1, w + 1)), grid)
    hg = heat_kernel_via_parametrix(p, 1e-10)
    closed = sample_closed_form(halfline_window_kernel(np.arange(w + 1)), grid)
    sup = float(np.abs(hg[:, :6, :6] - closed[:, :6, :6]).max())
    report(
        "criterion-4 half-line kernel via windowed parametrix",
        sup <= 1e-5 and certificate < 1e-12,
        f"sup error {sup:.3e} <= 1e-05 for v,w <= 5, t <= 2; "
        f"window tail certificate {certificate:.2e} < 1e-12",
    )


def test_criterion_5_dirichlet_halfline():
    w = 40
    e = halfline_window(w)
    grid = TimeGrid(2.0, 1200)
    p = dirichlet_parametrix(e, z_window_kernel(np.arange(-1, w + 1)), grid)
    hg = heat_kernel_via_parametrix(p, 1e-10)
    closed = sample_closed_form(halfline_dirichlet_closed_form(np.arange(w + 1)), grid)
    sup = float(np.abs(hg[:, :6, :6] - closed[:, :6, :6]).max())
    boundary_row = float(np.abs(hg[:, 0, :]).max())
    report(
        "criterion-5 Dirichlet half-line",
        sup <= 1e-5 and boundary_row == 0.0,
        f"sup error {sup:.3e} <= 1e-05 for x,y <= 5, t <= 2; "
        f"boundary row identically {boundary_row}",
    )


def test_criterion_6_bessel_identities():
    worst_watson = 0.0
    for m in range(4):
        for n in range(4):
            for x in (1.0, 2.0, 3.0, 4.0):
                conv = bessel_time_convolve(m, n, x, 200_000)
                series, _ = watson_series(m, n, x, 40)
                worst_watson = max(worst_watson, abs(conv - series))
    worst_intro = 0.0
    for x in (1, 2, 3):
        for y in (0, 1, 2):
            for t in (0.5, 1.0, 2.0):
                worst_intro = max(
                    worst_intro, verify_intro_identity(x, y, t, 20, 8000)
                )
    # the two special cases of the identity, stated separately
    special = max(
        verify_intro_identity(1, 0, 2.0, 20, 8000),
        verify_intro_identity(2, 0, 2.0, 20, 8000),
    )
    report(
        "criterion-6 Bessel identities",
        worst_watson <= 1e-8 and worst_intro <= 1e-6 and special <= 1e-6,
        f"Watson residual {worst_watson:.3e} <= 1e-08 (m,n <= 3, x <= 4); "
        f"alternating identity residual {worst_intro:.3e} <= 1e-06 "
        f"(x <= 3, y <= 2, t <= 2, 20 orders); special cases {special:.3e}",
    )


@pytest.mark.slow
def test_criterion_7_interval_embedding():
    g = WeightedGraph.path(3)
    length = 1.0
    cells = build_voronoi([0.17, 0.5, 0.83], length, 0.49)
    bumps = build_bumps(cells)
    dom = IntervalDomain(length=length, n_modes=520, quad_points=1600)
    t0 = 1e-4 / math.pi**2

    # H at t0 is node 1 of a one-step grid
    h0 = averaged_parametrix(dom, cells, bumps, TimeGrid(t0, 1), g).samples[1]
    dirac = max(
        float(np.abs(np.diag(h0) - 1.0).max()),
        float(np.abs(h0 - np.diag(np.diag(h0))).max()),
    )

    grid = TimeGrid(0.5, 262_144)
    p = averaged_parametrix(dom, cells, bumps, grid, g)
    symmetric = heat_kernel_via_parametrix(p, 1e-8)
    first = heat_kernel_via_parametrix(first_variable_parametrix(p, cells, g), 1e-8)
    spectral = sample_closed_form(spectral_kernel(g), grid)
    sup = compare_kernels(symmetric, spectral, grid.nodes).sup_error
    between = float(np.abs(symmetric - first).max())
    report(
        "criterion-7 interval embedding",
        dirac <= 0.02 and sup <= 1e-3 and between <= 2e-3,
        f"Dirac defect {dirac:.4f} <= 0.02 at t0 = 1e-4/pi^2; "
        f"assembled vs spectral {sup:.3e} <= 1e-03 for t <= 0.5; "
        f"normalizations differ by {between:.3e} <= 2e-03",
    )


@pytest.mark.slow
def test_criterion_8_property_suites():
    rng = np.random.default_rng(808)
    failures = []

    # symmetry, positivity, mass conservation, semigroup, Dirac limit on
    # assembled kernels over the randomized corpus
    for trial in range(10):
        g = random_graph(rng, n_max=8)
        grid = TimeGrid(2.0, 1000)
        v = heat_kernel_via_parametrix(diagonal_parametrix(g, grid), 1e-8)
        tol = 1e-4
        if np.abs(v - v.transpose(0, 2, 1)).max() > tol:
            failures.append(f"symmetry trial {trial}")
        if np.abs(v.sum(axis=2) - 1.0).max() > tol:
            failures.append(f"mass trial {trial}")
        if v.min() < -tol:
            failures.append(f"positivity trial {trial}")
        if np.abs(v[400] @ v[600] - v[1000]).max() > 2e-4:
            failures.append(f"semigroup trial {trial}")
        if np.abs(v[0] - np.eye(g.n)).max() > 1e-12:
            failures.append(f"dirac trial {trial}")

    # Dirichlet mass is only sub-conserved
    w = 20
    e = halfline_window(w)
    grid = TimeGrid(2.0, 600)
    pd = dirichlet_parametrix(e, z_window_kernel(np.arange(-1, w + 1)), grid)
    hd = heat_kernel_via_parametrix(pd, 1e-9)
    if hd.sum(axis=2).max() > 1.0 + 1e-6:
        failures.append("dirichlet mass exceeds one")
    if hd[:, 1:, :].min() < -1e-6:
        failures.append("dirichlet interior positivity")

    # convolution associativity on zero-at-origin series
    for trial in range(5):
        grid_a = TimeGrid(1.0, 48)
        vals = rng.normal(size=(3, 49, 3, 3))
        vals[:, 0] = 0.0
        f1, f2, f3 = vals
        dt = grid_a.dt
        left = convolve_values(convolve_values(f1, f2, dt), f3, dt)
        right = convolve_values(f1, convolve_values(f2, f3, dt), dt)
        scale = max(np.abs(left).max(), 1e-30)
        if np.abs(left - right).max() > 1e-10 * scale:
            failures.append(f"associativity trial {trial}")

    # single-convolution bound compliance
    for trial in range(20):
        n = int(rng.integers(1, 4))
        grid_b = TimeGrid(float(rng.uniform(0.5, 2.0)), 64)
        k, ell = int(rng.integers(0, 3)), int(rng.integers(0, 3))
        c1, c2 = float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.1, 2.0))
        a = c1 * rng.uniform(-1, 1, size=(65, n, n)) * (grid_b.nodes**k).reshape(-1, 1, 1)
        b = c2 * rng.uniform(-1, 1, size=(65, n, n)) * (grid_b.nodes**ell).reshape(-1, 1, 1)
        out = convolve_values(a, b, grid_b.dt)
        t = grid_b.t_max
        if np.abs(out[-1]).max() > convolution_bound(c1, k, c2, ell, n, t) + 1e-10:
            failures.append(f"bound trial {trial}")

    # truncation-certificate stability: tol/10 moves the kernel by <= 10 tol
    for trial in range(5):
        g = random_graph(rng, n_max=6)
        grid_c = TimeGrid(1.0, 500)
        p = diagonal_parametrix(g, grid_c)
        tol = 1e-6
        a = assemble_heat_kernel(p, neumann_series(p, tol))
        b = assemble_heat_kernel(p, neumann_series(p, tol / 10))
        if np.abs(a - b).max() > 10 * tol:
            failures.append(f"certificate trial {trial}")

    report(
        "criterion-8 property suites",
        not failures,
        "zero failures across symmetry/positivity/mass/semigroup/Dirac/"
        "associativity/bound/certificate checks"
        if not failures
        else f"failures: {failures}",
    )
