"""Graph documents: the JSON on-disk format the CLI consumes.

A document carries named vertices and either a plain weighted edge list or
an ambient block describing an embedding:

    {
      "vertices": ["a", "b"],                 # the graph's own vertices
      "edges": [["a", "b", 1.0]],             # omit when "ambient" is given
      "ambient": {                            # optional embedding block
        "vertices": ["w"],                    # ambient-only vertices
        "edges": [["a","b",1.0], ["b","w",1.0]],
        "removed": [["a","b"]],               # dropped inside the subgraph
        "frontier": ["b"]                     # window-truncation artifacts
      },
      "positions": {"a": 0.25, "b": 0.75},    # optional, interval embedding
      "interval": {"length": 1.0}             # optional interval settings
    }

Each undirected edge is listed once; when an ambient block is present the
subgraph's edges are derived (ambient edges minus removals), so a top-level
edge list is rejected to keep documents free of conflicting duplication.
Vertex names map to dense indices in listing order (graph vertices first,
then ambient-only ones).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError
from .graph import SubgraphEmbedding, WeightedGraph, boundary_sets


@dataclass(frozen=True)
class GraphDocument:
    """Parsed and validated graph document."""

    names: tuple[str, ...]
    graph: WeightedGraph
    embedding: SubgraphEmbedding | None = None
    ambient_names: tuple[str, ...] = ()
    positions: dict[str, float] = field(default_factory=dict)
    interval: dict = field(default_factory=dict)

    def position_list(self) -> list[float]:
        return [self.positions[n] for n in self.names]


def _check(cond: bool, msg: str):
    if not cond:
        raise ParseError(msg)


def _is_number(x) -> bool:
    """A JSON number: an int or float, but not a bool, which Python counts
    as an int."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _parse_edges(raw, index: dict[str, int], what: str) -> list[tuple[int, int, float]]:
    _check(isinstance(raw, list), f"{what} must be a list")
    out = []
    seen = set()
    for k, item in enumerate(raw):
        _check(
            isinstance(item, list) and len(item) == 3,
            f"{what}[{k}] must be [u, v, weight]",
        )
        u, v, w = item
        _check(u in index, f"{what}[{k}]: unknown vertex {u!r}")
        _check(v in index, f"{what}[{k}]: unknown vertex {v!r}")
        _check(u != v, f"{what}[{k}]: self-loop at {u!r}")
        _check(_is_number(w) and w > 0, f"{what}[{k}]: weight must be a positive number")
        key = frozenset((index[u], index[v]))
        _check(key not in seen, f"{what}[{k}]: edge ({u!r},{v!r}) listed twice")
        seen.add(key)
        out.append((index[u], index[v], float(w)))
    return out


def parse_document(text: str) -> GraphDocument:
    """Parse a JSON graph document, raising ParseError with location info."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    _check(isinstance(data, dict), "document root must be an object")
    unknown = set(data) - {"vertices", "edges", "ambient", "positions", "interval"}
    _check(not unknown, f"unknown document keys: {sorted(unknown)}")

    names = data.get("vertices")
    _check(isinstance(names, list) and names, "'vertices' must be a nonempty list")
    _check(all(isinstance(n, str) for n in names), "vertex names must be strings")
    _check(len(set(names)) == len(names), "duplicate vertex names")
    names = tuple(names)

    ambient_block = data.get("ambient")
    if ambient_block is None:
        _check("edges" in data, "'edges' is required without an ambient block")
        index = {n: i for i, n in enumerate(names)}
        edges = _parse_edges(data["edges"], index, "edges")
        graph = WeightedGraph.from_edges(len(names), edges)
        embedding = None
        ambient_names: tuple[str, ...] = ()
    else:
        _check(
            "edges" not in data,
            "with an ambient block, the subgraph's edges are derived; "
            "remove the top-level 'edges' list",
        )
        _check(isinstance(ambient_block, dict), "'ambient' must be an object")
        unknown = set(ambient_block) - {"vertices", "edges", "removed", "frontier"}
        _check(not unknown, f"unknown ambient keys: {sorted(unknown)}")
        extra = ambient_block.get("vertices", [])
        _check(isinstance(extra, list), "ambient 'vertices' must be a list")
        _check(all(isinstance(n, str) for n in extra), "ambient vertex names must be strings")
        ambient_names = tuple(extra)
        all_names = names + ambient_names
        _check(len(set(all_names)) == len(all_names), "duplicate vertex names across blocks")
        index = {n: i for i, n in enumerate(all_names)}
        edges = _parse_edges(ambient_block.get("edges", []), index, "ambient.edges")
        ambient_graph = WeightedGraph.from_edges(len(all_names), edges)
        removed = []
        for k, pair in enumerate(ambient_block.get("removed", [])):
            _check(
                isinstance(pair, list) and len(pair) == 2,
                f"ambient.removed[{k}] must be [u, v]",
            )
            u, v = pair
            _check(u in index and v in index, f"ambient.removed[{k}]: unknown vertex")
            _check(
                u in names and v in names,
                f"ambient.removed[{k}]: removed edges must join kept vertices",
            )
            removed.append(frozenset((index[u], index[v])))
        frontier = []
        for k, n in enumerate(ambient_block.get("frontier", [])):
            _check(n in names, f"ambient.frontier[{k}]: {n!r} is not a kept vertex")
            frontier.append(index[n])
        try:
            embedding = SubgraphEmbedding(
                ambient=ambient_graph,
                kept=tuple(range(len(names))),
                removed_edges=frozenset(removed),
                frontier=frozenset(frontier),
            )
        except ValueError as e:
            raise ParseError(str(e)) from None
        graph = embedding.subgraph

    positions = {}
    if "positions" in data:
        raw_pos = data["positions"]
        _check(isinstance(raw_pos, dict), "'positions' must be an object")
        for n, p in raw_pos.items():
            _check(n in names, f"positions: unknown vertex {n!r}")
            _check(_is_number(p), f"positions[{n!r}] must be a number")
            positions[n] = float(p)
        _check(
            set(positions) == set(names),
            "positions must cover every graph vertex",
        )

    interval = data.get("interval", {})
    _check(isinstance(interval, dict), "'interval' must be an object")
    unknown = set(interval) - {"length", "modes", "delta_fraction"}
    _check(not unknown, f"unknown interval keys: {sorted(unknown)}")
    for key, x in interval.items():
        if key in ("length", "delta_fraction"):
            # finite, and an int too large for a float is refused as well
            ok = _is_number(x) and abs(x) <= sys.float_info.max
            _check(ok, f"interval '{key}' must be a finite number")
        else:
            ok = isinstance(x, int) and not isinstance(x, bool)
            _check(ok, f"interval '{key}' must be an integer")
    if positions:
        length = float(interval.get("length", 1.0))
        order = sorted(range(len(names)), key=lambda i: positions[names[i]])
        _check(
            order == list(range(len(names))),
            "vertices must be listed in increasing position order",
        )
        _check(
            all(0.0 < positions[n] < length for n in names),
            "positions must lie strictly inside (0, length)",
        )

    return GraphDocument(
        names=names,
        graph=graph,
        embedding=embedding,
        ambient_names=ambient_names,
        positions=positions,
        interval=dict(interval),
    )


def load_document(path: str) -> GraphDocument:
    with open(path, "r", encoding="utf-8") as f:
        return parse_document(f.read())


def canonical_document(doc: GraphDocument) -> dict:
    """Re-emit a parsed document in canonical form, with derived data."""
    out: dict = {"vertices": list(doc.names)}
    if doc.embedding is None:
        w = doc.graph.weights
        out["edges"] = [
            [doc.names[i], doc.names[j], w[i, j]]
            for i in range(doc.graph.n)
            for j in range(i + 1, doc.graph.n)
            if w[i, j] > 0
        ]
    else:
        e = doc.embedding
        all_names = doc.names + doc.ambient_names
        wa = e.ambient.weights
        out["ambient"] = {
            "vertices": list(doc.ambient_names),
            "edges": [
                [all_names[i], all_names[j], wa[i, j]]
                for i in range(e.ambient.n)
                for j in range(i + 1, e.ambient.n)
                if wa[i, j] > 0
            ],
            "removed": sorted(
                sorted(all_names[v] for v in pair) for pair in e.removed_edges
            ),
            "frontier": sorted(all_names[v] for v in e.frontier),
        }
        boundary, interior, second = boundary_sets(e)
        out["derived"] = {
            "boundary": sorted(all_names[v] for v in boundary),
            "interior": sorted(all_names[v] for v in interior),
            "second_boundary": sorted(all_names[v] for v in second),
        }
    if doc.positions:
        out["positions"] = {n: doc.positions[n] for n in doc.names}
    if doc.interval:
        out["interval"] = dict(doc.interval)
    return out


# ---------------------------------------------------------------------------
# structural detection used to pick closed-form ambient kernels


def ambient_path_coordinates(e: SubgraphEmbedding) -> np.ndarray | None:
    """If the ambient graph is a unit-weight simple path, return integer
    lattice coordinates per ambient vertex (0 at one end), else None."""
    w = e.ambient.weights
    n = e.ambient.n
    if n == 1:
        return np.zeros(1, dtype=int)
    deg = (w > 0).sum(axis=1)
    if not np.all((w == 0) | (w == 1)) or sorted(deg)[:2] != [1, 1] or deg.max() > 2:
        return None
    if (deg == 1).sum() != 2:
        return None
    start = int(np.nonzero(deg == 1)[0][0])
    coords = np.full(n, -1, dtype=int)
    coords[start] = 0
    prev, cur = -1, start
    for step in range(1, n):
        nbrs = [int(u) for u in np.nonzero(w[cur] > 0)[0] if u != prev]
        if len(nbrs) != 1:
            return None
        prev, cur = cur, nbrs[0]
        coords[cur] = step
    if coords.min() < 0:
        return None
    return coords


def halfline_coordinates(doc: GraphDocument) -> np.ndarray | None:
    """Coordinates of kept vertices along a half-line window: the kept set
    must be a unit path inside a unit-path ambient, with the boundary vertex
    (the one with an ambient-only neighbor) at coordinate 0."""
    e = doc.embedding
    if e is None or e.removed_edges:
        return None
    coords = ambient_path_coordinates(e)
    if coords is None:
        return None
    boundary, _, _ = boundary_sets(e)
    if len(boundary) != 1:
        return None
    b = next(iter(boundary))
    kept = np.array(e.kept)
    rel = coords[kept] - coords[b]
    if np.all(rel <= 0):
        rel = -rel  # the path was traversed from the far end
    if np.any(rel < 0) or sorted(rel.tolist()) != list(range(e.n)):
        return None
    return rel
