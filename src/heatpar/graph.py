"""Weighted graphs, the graph Laplacian, and subgraph boundary combinatorics.

Vertices are dense 0-based integers; external names are mapped at the CLI
layer.  Weights are stored as a dense symmetric matrix, which is cheap at
the target sizes (n up to a few hundred) and keeps the convolution engine
simple.  Infinite ambient graphs are represented as finite windows; vertices
whose neighborhoods were cut by the window are flagged in ``frontier``.
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


def adjacency_complement(e: SubgraphEmbedding, v: int) -> set[int]:
    """Ambient vertices adjacent to kept vertex ``v`` whose edge is missing in G.

    That is: ambient neighbors of ``v`` outside the kept set, together with
    kept vertices joined to ``v`` in the ambient graph through a removed edge.
    Returned ids are ambient ids.
    """
    if v not in e.kept:
        raise ContractViolation(f"vertex {v} is not kept")
    kept_set = set(e.kept)
    out: set[int] = set()
    for u in np.nonzero(e.ambient.weights[v] > 0)[0]:
        u = int(u)
        if u not in kept_set:
            out.add(u)
        elif frozenset((u, v)) in e.removed_edges:
            out.add(u)
    return out


def boundary_sets(e: SubgraphEmbedding) -> tuple[set[int], set[int], set[int]]:
    """Return (∂G, Int(G), ∂(G∖∂G)) as sets of ambient vertex ids.

    ∂G holds kept vertices that lose an ambient edge in G, i.e. whose
    adjacency complement is non-empty (so their weighted degree in G is
    below their ambient degree; comparing the two floating-point sums
    instead would flag vertices whose sums merely round differently).
    Int(G) is the rest.  The third set is the boundary of Int(G)
    re-embedded into G, i.e. interior vertices that are G-adjacent to ∂G.
    """
    kept_set = set(e.kept)
    nbrs = {v: set(np.flatnonzero(e.ambient.weights[v] > 0).tolist()) for v in e.kept}
    in_removed = {v for edge in e.removed_edges for v in edge}
    boundary = {v for v in e.kept if v in in_removed or not nbrs[v] <= kept_set}
    interior = kept_set - boundary
    # an interior vertex lies on no removed edge, so each of its ambient
    # edges to a kept vertex is an edge of G
    second = {v for v in interior if nbrs[v] & boundary}
    return boundary, interior, second
