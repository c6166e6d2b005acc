"""Tests of the benchmark's own references and input generator.

    python3 -m pytest -q bench

The references are what every workload is checked against, so they are
checked here against sources that share nothing with them: mpmath's
``besseli`` for the half-line closed forms and ``scipy.linalg.expm`` for
the eigh heat kernels.
"""

import json
import os

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

import lattice
from reference import (
    DocumentGraph,
    halfline_dirichlet_kernel,
    halfline_kernel,
    max_abs_dev,
)

CASES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "cases")


def _case(name):
    with open(os.path.join(CASES, name), encoding="utf-8") as f:
        return DocumentGraph(json.load(f))


def _scaled_i(n, t):
    return float(mpmath.exp(-2 * t) * mpmath.besseli(n, 2 * t))


@pytest.mark.parametrize("t", [0.0, 0.013, 0.5, 2.0])
def test_halfline_closed_forms_match_mpmath(t):
    mpmath.mp.dps = 30
    coords = np.arange(12)
    h = halfline_kernel(coords, np.array([t]))[0]
    d = halfline_dirichlet_kernel(coords, np.array([t]))[0]
    for x, y in [(0, 0), (0, 5), (3, 4), (7, 2), (11, 11)]:
        want_h = _scaled_i(abs(x - y), t) + _scaled_i(x + y + 1, t)
        want_d = _scaled_i(abs(x - y), t) - _scaled_i(x + y, t)
        assert h[x, y] == pytest.approx(want_h, abs=1e-15, rel=1e-13)
        assert d[x, y] == pytest.approx(want_d, abs=1e-15, rel=1e-13)


@pytest.mark.parametrize("doc", ["path3_interval.json", "k5_minus_edge.json", "lattice"])
def test_eigh_kernel_matches_expm(doc):
    g = DocumentGraph(lattice.lattice_hole_document(0)) if doc == "lattice" else _case(doc)
    lap = np.diag(g.weights.sum(axis=1)) - g.weights
    times = np.array([0.0, 0.1, 0.7, 2.5])
    got = g.heat_kernel(times)
    for t, k in zip(times, got):
        np.testing.assert_allclose(k, expm(-t * lap), rtol=0, atol=1e-12)


def test_document_graph_reads_removed_edges():
    g = _case("k5_minus_edge.json")
    assert g.n == 5
    assert g.weights[0, 1] == 0.0 and g.weights.sum() == 2 * 9
    assert g.boundary() == [0, 1]


def test_halfline_coordinates():
    g = _case("halfline_w40.json")
    assert g.boundary() == [0]
    assert g.halfline_coordinates().tolist() == list(range(41))
    with pytest.raises(ValueError):
        _case("k5_minus_edge.json").halfline_coordinates()


def test_max_abs_dev_finds_one_bad_entry_in_any_block():
    times = np.linspace(0.0, 1.0, 700)
    coords = np.arange(5)
    vals = halfline_kernel(coords, times)
    assert max_abs_dev(vals, times, lambda t: halfline_kernel(coords, t)) == 0.0
    vals[613, 2, 4] += 3e-6
    dev = max_abs_dev(vals, times, lambda t: halfline_kernel(coords, t))
    assert dev == pytest.approx(3e-6, rel=1e-6)


def test_lattice_document_shape_and_seed():
    doc = lattice.lattice_hole_document(7, 2)
    assert doc == lattice.lattice_hole_document(7, 2)
    assert doc != lattice.lattice_hole_document(8, 2)
    assert doc != lattice.lattice_hole_document(7, 3)
    g = DocumentGraph(doc)
    assert g.n == 77 and len(doc["ambient"]["vertices"]) == 4
    weights = [w for _, _, w in doc["ambient"]["edges"]]
    assert len(weights) == 2 * 9 * 8
    assert all(0.9 <= w <= 1.1 for w in weights)
    assert len(g.boundary()) == 8
