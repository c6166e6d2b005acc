import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatpar.errors import ContractViolation
from heatpar.graph import (
    SubgraphEmbedding,
    WeightedGraph,
    boundary_sets,
    connected_components,
    lost_weights,
)

from heatpar.documents import load_document, parse_document

from conftest import (
    adjacency_complement,
    lattice_hole_document,
    random_embedding,
    random_graph,
    recursive_boundary_sets,
)

CASES = os.path.join(os.path.dirname(__file__), "..", "cases")


def k5_minus_edge():
    return SubgraphEmbedding(
        ambient=WeightedGraph.complete(5),
        kept=tuple(range(5)),
        removed_edges=frozenset([frozenset((0, 1))]),
    )


def halfline_window(w: int) -> SubgraphEmbedding:
    # ambient path holds lattice sites -1..w; kept sites 0..w; the far end
    # is a window artifact
    amb = WeightedGraph.path(w + 2)
    return SubgraphEmbedding(
        ambient=amb, kept=tuple(range(1, w + 2)), frontier=frozenset([w + 1])
    )


class TestWeightedGraph:
    def test_validation(self):
        with pytest.raises(ContractViolation):
            WeightedGraph(np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
        with pytest.raises(ContractViolation):
            WeightedGraph(np.array([[1.0, 0.0], [0.0, 0.0]]))  # self-loop
        with pytest.raises(ContractViolation):
            WeightedGraph(-np.ones((2, 2)) + np.eye(2))  # negative

    def test_immutable(self):
        g = WeightedGraph.path(3)
        with pytest.raises(ValueError):
            g.weights[0, 1] = 5.0

    def test_degrees(self):
        g = WeightedGraph.path(3, weight=2.0)
        assert np.allclose(g.mu, [2.0, 4.0, 2.0])


class TestConnectedComponents:
    def test_examples(self):
        def parts(g):
            return [c.tolist() for c in connected_components(g)]

        assert parts(WeightedGraph.path(4)) == [[0, 1, 2, 3]]
        assert parts(WeightedGraph(np.zeros((3, 3)))) == [[0], [1], [2]]
        g = WeightedGraph.from_edges(6, [(0, 4, 1.0), (4, 2, 0.5), (1, 5, 2.0)])
        assert parts(g) == [[0, 2, 4], [1, 5], [3]]

    @pytest.mark.parametrize("seed", range(10))
    def test_null_space_dimension(self, seed):
        # the Laplacian's null space is spanned by the components' indicators
        rng = np.random.default_rng(seed)
        w = np.triu(rng.uniform(0.5, 2.0, (12, 12)) * (rng.random((12, 12)) < 0.15), 1)
        g = WeightedGraph(w + w.T)
        parts = connected_components(g)
        assert sorted(np.concatenate(parts).tolist()) == list(range(12))
        lam = np.linalg.eigvalsh(g.laplacian_matrix())
        assert len(parts) == int((lam < 1e-9).sum())
        for c in parts:
            assert np.abs(g.laplacian_matrix()[:, c].sum(axis=1)).max() <= 1e-12


class TestLaplacian:
    def test_constant_is_harmonic(self, rng):
        g = random_graph(rng)
        out = g.laplacian_matrix() @ np.full(g.n, 3.7)
        assert np.abs(out).max() <= 1e-12 * 3.7 * g.mu.sum()

    def test_k2_example(self):
        out = WeightedGraph.path(2).laplacian_matrix() @ [1.0, 0.0]
        assert np.array_equal(out, [1.0, -1.0])

    def test_p3_example(self):
        out = WeightedGraph.path(3).laplacian_matrix() @ [1.0, 0.0, 0.0]
        assert np.array_equal(out, [1.0, -1.0, 0.0])

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_rows_sum_to_zero(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng)
        f = rng.normal(size=g.n)
        total = (g.laplacian_matrix() @ f).sum()
        assert abs(total) <= 1e-12 * max(1e-30, np.abs(f).max() * g.mu.sum())

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_symmetric_and_psd(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng)
        f, h = rng.normal(size=g.n), rng.normal(size=g.n)
        lap = g.laplacian_matrix()
        lf, lh = lap @ f, lap @ h
        scale = max(1e-30, abs(lf @ h), abs(f @ lh))
        assert abs(lf @ h - f @ lh) <= 1e-12 * scale
        assert f @ lf >= -1e-12 * (f @ f)


class TestEmbedding:
    def test_validation(self):
        amb = WeightedGraph.complete(4)
        with pytest.raises(ContractViolation):
            SubgraphEmbedding(ambient=amb, kept=())
        with pytest.raises(ContractViolation):
            SubgraphEmbedding(
                ambient=WeightedGraph.path(4),
                kept=(0, 1, 2, 3),
                removed_edges=frozenset([frozenset((0, 2))]),  # no ambient edge
            )
        with pytest.raises(ContractViolation):
            SubgraphEmbedding(ambient=amb, kept=(0, 1), frontier=frozenset([3]))

    def test_subgraph_weights(self):
        e = k5_minus_edge()
        w = e.subgraph.weights
        assert w[0, 1] == 0.0 and w[0, 2] == 1.0 and w[3, 4] == 1.0

    def test_boundary_k5(self):
        boundary, interior, second = boundary_sets(k5_minus_edge())
        assert boundary == {0, 1}
        assert interior == {2, 3, 4}
        assert second == {2, 3, 4}

    def test_boundary_halfline(self):
        e = halfline_window(10)
        boundary, interior, second = boundary_sets(e)
        assert boundary == {1}  # ambient id of lattice site 0
        assert second == {2}
        assert e.frontier == {11}

    def test_boundary_trivial(self, rng):
        g = random_graph(rng)
        boundary, interior, second = boundary_sets(SubgraphEmbedding.trivial(g))
        assert boundary == set() and interior == set(range(g.n)) and second == set()

    def test_boundary_recomputable(self):
        # rebuild the embedding from raw weights alone and recompute
        e = k5_minus_edge()
        e2 = SubgraphEmbedding(
            ambient=WeightedGraph(e.ambient.weights.copy()),
            kept=e.kept,
            removed_edges=e.removed_edges,
        )
        assert boundary_sets(e) == boundary_sets(e2)

    def test_boundary_weighted_lattice_hole(self):
        # an 11×11 lattice with random weights and a 2×2 hole: exactly the 8
        # vertices next to the hole lose an edge, even where an interior
        # vertex's degree sums over G and over the ambient graph round apart
        side, hole = 11, {(r, c) for r in (4, 5) for c in (4, 5)}
        cells = [(r, c) for r in range(side) for c in range(side)]
        for seed in range(5):
            rng = np.random.default_rng(seed)
            edges = []
            for r, c in cells:
                for r2, c2 in ((r, c + 1), (r + 1, c)):
                    if r2 < side and c2 < side:
                        w = float(rng.uniform(0.5, 1.5))
                        edges.append((r * side + c, r2 * side + c2, w))
            e = SubgraphEmbedding(
                ambient=WeightedGraph.from_edges(side * side, edges),
                kept=tuple(r * side + c for r, c in cells if (r, c) not in hole),
            )
            expected = {
                r * side + c
                for r, c in cells
                if (r, c) not in hole
                and any((r + dr, c + dc) in hole for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0)))
            }
            assert len(expected) == 8
            boundary, interior, _ = boundary_sets(e)
            assert boundary == expected, f"seed {seed}"
            assert interior == set(e.kept) - expected

    def test_adjacency_complement(self):
        e = k5_minus_edge()
        assert adjacency_complement(e, 0) == {1}
        assert adjacency_complement(e, 2) == set()
        hl = halfline_window(10)
        assert adjacency_complement(hl, 1) == {0}
        assert adjacency_complement(hl, 5) == set()
        with pytest.raises(ContractViolation):
            adjacency_complement(hl, 0)  # not kept

    def test_adjacency_complement_trivial(self, rng):
        g = random_graph(rng)
        e = SubgraphEmbedding.trivial(g)
        assert all(adjacency_complement(e, v) == set() for v in range(g.n))


class TestBoundarySetsAgainstRecursion:
    def test_case_documents(self):
        checked = 0
        for name in sorted(os.listdir(CASES)):
            e = load_document(os.path.join(CASES, name)).embedding
            if e is not None:
                assert boundary_sets(e) == recursive_boundary_sets(e), name
                checked += 1
        assert checked >= 2

    @pytest.mark.parametrize("seed", range(6))
    def test_lattices_with_a_hole(self, seed):
        e = parse_document(json.dumps(lattice_hole_document(seed))).embedding
        assert boundary_sets(e) == recursive_boundary_sets(e)
        assert len(boundary_sets(e)[2]) > 0

    @pytest.mark.parametrize("seed", range(10))
    def test_removed_edges_inside_the_kept_set(self, seed):
        e = random_embedding(seed)
        assert boundary_sets(e) == recursive_boundary_sets(e)
        # each row of the lost weights holds the ambient weights to exactly
        # the missing neighbors
        lost = lost_weights(e)
        for i, v in enumerate(e.kept):
            missing = sorted(adjacency_complement(e, v))
            assert np.flatnonzero(lost[i]).tolist() == missing
            assert np.array_equal(lost[i, missing], e.ambient.weights[v, missing])
