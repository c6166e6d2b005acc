"""Weighted graphs, the graph Laplacian, and subgraph boundary combinatorics.

Vertices are dense 0-based integers; external names are mapped to them in
``documents``.  Weights are stored as a dense symmetric matrix, which is
cheap at the target sizes (n up to a few hundred) and keeps the convolution
engine simple.  Infinite ambient graphs are represented as finite windows;
vertices whose neighborhoods were cut by the window are flagged in
``frontier``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import ContractViolation


def _as_weight_matrix(weights) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ContractViolation(f"weight matrix must be square, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ContractViolation("weight matrix contains non-finite entries")
    if np.any(w < 0):
        raise ContractViolation("weights must be nonnegative")
    if np.any(np.diag(w) != 0):
        raise ContractViolation("self-loops are not allowed (diagonal must be zero)")
    if not np.array_equal(w, w.T):
        raise ContractViolation("weight matrix must be symmetric")
    w = w.copy()
    w.flags.writeable = False
    return w


@dataclass(frozen=True)
class WeightedGraph:
    """Finite graph with symmetric nonnegative edge weights and no self-loops."""

    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", _as_weight_matrix(self.weights))

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def mu(self) -> np.ndarray:
        """Weighted degree of each vertex (row sums of the weight matrix)."""
        return self.weights.sum(axis=1)

    def laplacian_matrix(self) -> np.ndarray:
        return np.diag(self.mu) - self.weights

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int, float]]) -> "WeightedGraph":
        """Build from an undirected edge list; each edge listed once."""
        w = np.zeros((n, n))
        for u, v, wt in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ContractViolation(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ContractViolation(f"self-loop at vertex {u}")
            if w[u, v] != 0:
                raise ContractViolation(f"edge ({u},{v}) listed twice")
            w[u, v] = w[v, u] = wt
        return WeightedGraph(w)

    @staticmethod
    def complete(n: int, weight: float = 1.0) -> "WeightedGraph":
        w = np.full((n, n), weight)
        np.fill_diagonal(w, 0.0)
        return WeightedGraph(w)

    @staticmethod
    def path(n: int, weight: float = 1.0) -> "WeightedGraph":
        w = np.zeros((n, n))
        for i in range(n - 1):
            w[i, i + 1] = w[i + 1, i] = weight
        return WeightedGraph(w)


@dataclass(frozen=True)
class SubgraphEmbedding:
    """A graph G sitting inside an ambient graph, given by a vertex subset
    plus a set of removed edges.

    ``kept`` lists the ambient vertices forming G, ``removed_edges`` the
    unordered ambient-vertex pairs inside ``kept`` whose edge is dropped,
    and ``frontier`` the kept vertices whose true neighborhoods were cut
    off by windowing an infinite ambient graph (empty for genuinely finite
    ambients).  All vertex ids here are ambient ids.
    """

    ambient: WeightedGraph
    kept: tuple[int, ...]
    removed_edges: frozenset[frozenset[int]] = field(default_factory=frozenset)
    frontier: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        kept = tuple(sorted(set(int(v) for v in self.kept)))
        if not kept:
            raise ContractViolation("embedding must keep at least one vertex")
        if kept[0] < 0 or kept[-1] >= self.ambient.n:
            raise ContractViolation("kept vertices out of ambient range")
        removed = frozenset(frozenset(int(v) for v in e) for e in self.removed_edges)
        kept_set = set(kept)
        for e in removed:
            if len(e) != 2:
                raise ContractViolation(f"removed edge {set(e)} is not a pair")
            u, v = sorted(e)
            if u not in kept_set or v not in kept_set:
                raise ContractViolation(f"removed edge ({u},{v}) not inside kept set")
            if self.ambient.weights[u, v] <= 0:
                raise ContractViolation(f"removed edge ({u},{v}) has zero ambient weight")
        frontier = frozenset(int(v) for v in self.frontier)
        if not frontier <= kept_set:
            raise ContractViolation("frontier vertices must be kept vertices")
        object.__setattr__(self, "kept", kept)
        object.__setattr__(self, "removed_edges", removed)
        object.__setattr__(self, "frontier", frontier)

    @property
    def n(self) -> int:
        return len(self.kept)

    def subgraph_index(self, ambient_id: int) -> int:
        """Dense index of a kept vertex within the subgraph."""
        try:
            return self.kept.index(ambient_id)
        except ValueError:
            raise ContractViolation(f"vertex {ambient_id} is not kept") from None

    @property
    def subgraph(self) -> WeightedGraph:
        """The induced graph: ambient weights on kept×kept, removed edges zeroed."""
        idx = np.array(self.kept)
        w = self.ambient.weights[np.ix_(idx, idx)].copy()
        for e in self.removed_edges:
            u, v = sorted(e)
            i, j = self.subgraph_index(u), self.subgraph_index(v)
            w[i, j] = w[j, i] = 0.0
        return WeightedGraph(w)

    @staticmethod
    def trivial(g: WeightedGraph) -> "SubgraphEmbedding":
        """G embedded in itself: nothing removed, no boundary."""
        return SubgraphEmbedding(ambient=g, kept=tuple(range(g.n)))


def ambient_is_unit_complete(e: SubgraphEmbedding) -> bool:
    """Whether ``e`` keeps every vertex of a unit-weight complete ambient."""
    n = e.ambient.n
    return e.n == n and bool(np.array_equal(e.ambient.weights, np.ones((n, n)) - np.eye(n)))


def connected_components(g: WeightedGraph) -> list[np.ndarray]:
    """Vertex indices of each connected component, in increasing order and
    in order of their smallest vertex, by a breadth-first search over the
    positive weights."""
    unseen = np.ones(g.n, dtype=bool)
    parts = []
    for start in range(g.n):
        if not unseen[start]:
            continue
        unseen[start] = False
        part, frontier = [start], [start]
        while frontier:
            frontier = np.flatnonzero((g.weights[frontier] > 0).any(axis=0) & unseen).tolist()
            unseen[frontier] = False
            part += frontier
        parts.append(np.sort(part))
    return parts


def lost_weights(e: SubgraphEmbedding) -> np.ndarray:
    """The ambient edge weights that G loses, shape (n, N), kept rows by
    ambient columns: the ambient weights on the kept rows minus G's weights
    on the kept columns.  Each weight G keeps is a copy of the ambient one,
    so the subtraction is exact and the nonzero rows are ∂G."""
    kept = np.array(e.kept)
    lost = e.ambient.weights[kept]
    lost[:, kept] -= e.subgraph.weights
    return lost


def boundary_sets(e: SubgraphEmbedding) -> tuple[set[int], set[int], set[int]]:
    """Return (∂G, Int(G), ∂(G∖∂G)) as sets of ambient vertex ids.

    ∂G is the kept vertices that lose an ambient edge, the nonzero rows of
    :func:`lost_weights` (comparing weighted degrees in G and in the ambient
    graph would flag vertices whose sums merely round apart).  Int(G) is
    the rest, and ∂(G∖∂G) the interior vertices with a G-edge into ∂G.
    """
    kept = np.array(e.kept)
    on_boundary = lost_weights(e).any(axis=1)
    second = ~on_boundary & (e.subgraph.weights[:, on_boundary] > 0).any(axis=1)
    return tuple(set(kept[mask].tolist()) for mask in (on_boundary, ~on_boundary, second))
