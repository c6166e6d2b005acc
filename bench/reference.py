"""Independent references for the benchmark's checks.

Nothing here imports heatpar.  The half-line closed forms use
``scipy.special.ive``, with e^{−2t} I_n(2t) = ive(n, 2t); graph heat kernels
come from ``numpy.linalg.eigh`` of a Laplacian built here from the document
JSON itself.  ``test_reference.py`` checks both against mpmath and
``scipy.linalg.expm``.
"""

from __future__ import annotations

from collections import deque

import numpy as np
from scipy.special import ive

_CHUNK = 256  # time nodes per block, so no reference array exceeds ~30 MB


def _scaled_bessel_table(max_order: int, times: np.ndarray) -> np.ndarray:
    """(T, max_order + 1) table of e^{−2t} I_k(2t)."""
    return ive(np.arange(max_order + 1)[None, :], 2.0 * np.asarray(times)[:, None])


def halfline_kernel(coords: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Half-line lattice kernel e^{−2t}(I_{|x−y|}(2t) + I_{x+y+1}(2t))."""
    c = np.asarray(coords)
    dist = np.abs(c[:, None] - c[None, :])
    refl = c[:, None] + c[None, :] + 1
    table = _scaled_bessel_table(int(refl.max()), times)
    return table[:, dist] + table[:, refl]


def halfline_dirichlet_kernel(coords: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Dirichlet half-line kernel e^{−2t}(I_{|x−y|}(2t) − I_{x+y}(2t))."""
    c = np.asarray(coords)
    dist = np.abs(c[:, None] - c[None, :])
    refl = c[:, None] + c[None, :]
    table = _scaled_bessel_table(int(refl.max()), times)
    return table[:, dist] - table[:, refl]


class DocumentGraph:
    """The graph a document describes, read straight from its JSON.

    ``names`` are the graph's own vertices in document order.  For a
    document with an ambient block, ``ambient`` holds the ambient weight
    matrix over ``names`` followed by the ambient-only vertices, and
    ``weights`` is its kept block with removed edges dropped.
    """

    def __init__(self, doc: dict):
        self.names = list(doc["vertices"])
        k = len(self.names)
        amb = doc.get("ambient")
        all_names = self.names + (list(amb.get("vertices", [])) if amb else [])
        index = {name: i for i, name in enumerate(all_names)}
        w = np.zeros((len(all_names), len(all_names)))
        for u, v, wt in amb["edges"] if amb else doc["edges"]:
            w[index[u], index[v]] = w[index[v], index[u]] = float(wt)
        self.ambient = w if amb else None
        self.weights = w[:k, :k].copy()
        for u, v in amb.get("removed", []) if amb else []:
            self.weights[index[u], index[v]] = self.weights[index[v], index[u]] = 0.0

    @property
    def n(self) -> int:
        return len(self.names)

    def boundary(self) -> list[int]:
        """Kept vertices that lose an ambient edge in the subgraph."""
        if self.ambient is None:
            return []
        k = self.n
        lost = (self.ambient[:k, :k] > 0) & (self.weights == 0)
        lost_outside = (self.ambient[:k, k:] > 0).any(axis=1)
        return [i for i in range(k) if lost[i].any() or lost_outside[i]]

    def halfline_coordinates(self) -> np.ndarray:
        """Graph distance from the single boundary vertex, for a unit path."""
        b = self.boundary()
        if len(b) != 1:
            raise ValueError(f"a half-line window has one boundary vertex, found {len(b)}")
        if not np.all((self.weights == 0) | (self.weights == 1)):
            raise ValueError("a half-line window has unit weights")
        dist = np.full(self.n, -1)
        dist[b[0]] = 0
        queue = deque(b)
        while queue:
            u = queue.popleft()
            for v in np.nonzero(self.weights[u])[0]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        if sorted(dist.tolist()) != list(range(self.n)):
            raise ValueError("the kept vertices do not form a path from the boundary")
        return dist

    def heat_kernel(self, times: np.ndarray) -> np.ndarray:
        """exp(−tΔ) on the subgraph, from ``numpy.linalg.eigh``."""
        lap = np.diag(self.weights.sum(axis=1)) - self.weights
        lam, v = np.linalg.eigh(lap)
        decay = np.exp(-np.outer(times, lam))
        return (v[None, :, :] * decay[:, None, :]) @ v.T


def max_abs_dev(values: np.ndarray, times: np.ndarray, reference) -> float:
    """Sup over all entries of |values − reference(times)|, in time blocks.

    ``reference`` maps an array of times to a (T, n, n) kernel stack.
    """
    if values.shape[0] != len(times):
        raise ValueError(f"{values.shape[0]} time slices for {len(times)} times")
    dev = 0.0
    for j in range(0, len(times), _CHUNK):
        ref = reference(times[j : j + _CHUNK])
        if ref.shape != values[j : j + _CHUNK].shape:
            raise ValueError(f"shape {values.shape} does not match reference {ref.shape}")
        dev = max(dev, float(np.abs(values[j : j + _CHUNK] - ref).max()))
    return dev
