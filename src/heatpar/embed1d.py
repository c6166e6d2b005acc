"""Graphs embedded in an open interval, averaged against the interval's
Dirichlet sine-series heat kernel.

Each vertex sits at a position in (0, L) and owns the Voronoi cell of
points nearer to it than to any other vertex.  A per-cell flat-top bump,
a plateau of height A joined to zero by one monotone ramp, with A
calibrated so that ∫η² equals the cell measure, averages the interval
kernel into a graph parametrix:

    H0(v1, v2; t) = (μ_{v1} μ_{v2})^{−1/2} ∫∫ K(x, y; t) η_{v1}(x) η_{v2}(y) dy dx.

The sine series makes the double integral separable, so one 1-D quadrature
per (mode, vertex) suffices, and the time derivative is available termwise
with no numerical differentiation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, ResolutionError
from .graph import WeightedGraph
from .parametrix import Parametrix
from .series import TimeGrid


@dataclass(frozen=True)
class IntervalDomain:
    """The interval (0, length) with a truncated sine-series heat kernel."""

    length: float
    n_modes: int
    quad_points: int = 1600

    def __post_init__(self):
        if self.length <= 0:
            raise ContractViolation("interval length must be positive")
        if self.n_modes < 1:
            raise ContractViolation("need at least one series mode")
        if self.quad_points < 16:
            raise ContractViolation("quadrature resolution too small")

    def rates(self) -> np.ndarray:
        """Decay rates (nπ/L)² for modes n = 1..n_modes."""
        n = np.arange(1, self.n_modes + 1)
        return (n * math.pi / self.length) ** 2


def modes_for_time(length: float, t_min: float, tol: float = 1e-10) -> int:
    """Smallest mode count whose dropped sine-series tail at t_min is
    certified below ``tol``."""
    if t_min <= 0 or length <= 0:
        raise ContractViolation("length and t_min must be positive")
    n = 8
    while n < 200_000:
        if series_tail_bound(length, t_min, n) < tol:
            # back off to the smallest sufficient count
            lo = n // 2
            while series_tail_bound(length, t_min, lo) >= tol:
                lo += 1
            return lo
        n *= 2
    raise ContractViolation(f"no feasible mode count for t_min={t_min}")


def series_tail_bound(length: float, t: float, n_modes: int) -> float:
    """Bound Σ_{n>N} (2/L) e^{−(nπ/L)² t} by a geometric comparison."""
    alpha = (math.pi / length) ** 2 * t
    lead = (2.0 / length) * math.exp(-alpha * (n_modes + 1) ** 2)
    ratio = math.exp(-alpha * (2 * n_modes + 3))
    return lead / (1.0 - ratio)


@dataclass(frozen=True)
class VoronoiCell1D:
    """Interval of points nearer to ``position`` than to any other vertex."""

    vertex: int
    position: float
    a: float
    b: float
    delta: float

    @property
    def measure(self) -> float:
        return self.b - self.a


def build_voronoi(positions, length: float, delta_fraction: float) -> list[VoronoiCell1D]:
    """Cells bounded by consecutive midpoints (and by the interval ends),
    with a uniform collar width delta = delta_fraction × (smallest cell
    half-width)."""
    pos = [float(p) for p in positions]
    if len(set(pos)) != len(pos) or any(
        pos[i] >= pos[i + 1] for i in range(len(pos) - 1)
    ):
        raise ContractViolation("positions must be strictly increasing")
    if not pos or pos[0] <= 0.0 or pos[-1] >= length:
        raise ContractViolation("positions must lie strictly inside (0, length)")
    if not (0.0 < delta_fraction < 0.5):
        raise ContractViolation("delta_fraction must lie in (0, 1/2)")
    bounds = [0.0]
    for i in range(len(pos) - 1):
        bounds.append(0.5 * (pos[i] + pos[i + 1]))
    bounds.append(length)
    delta = delta_fraction * min(b - a for a, b in zip(bounds, bounds[1:])) / 2.0
    return [
        VoronoiCell1D(vertex=i, position=pos[i], a=bounds[i], b=bounds[i + 1], delta=delta)
        for i in range(len(pos))
    ]


def smoothstep(u: np.ndarray) -> np.ndarray:
    """Quintic ramp 10u³ − 15u⁴ + 6u⁵ with zero first and second derivatives
    at both ends, so pieces glue to a C² bump."""
    return u * u * u * (10.0 + u * (-15.0 + 6.0 * u))


@dataclass(frozen=True)
class BumpFamily:
    """Per-cell flat-top bumps, one amplitude A per cell.

    Within each cell, at distance d from the cell boundary, the bump is A
    on the plateau d >= delta, A·smoothstep((d − delta/2)/(delta/2)) on the
    band delta/2 <= d < delta, and zero within delta/2 of the boundary.  The
    support stays inside the cell, so the parametrix starts diagonal.
    """

    cells: tuple[VoronoiCell1D, ...]
    amplitudes: tuple[float, ...]

    def evaluate(self, v: int, xs) -> np.ndarray:
        cell = self.cells[v]
        xs = np.asarray(xs, dtype=float)
        d = np.minimum(xs - cell.a, cell.b - xs)
        return self.amplitudes[v] * smoothstep(np.clip(2.0 * d / cell.delta - 1.0, 0.0, 1.0))


def _cell_quadrature(cell: VoronoiCell1D, quad_points: int):
    """Composite Simpson nodes/weights over five pieces of the bump's
    support: each ramp split at its midpoint, and the plateau, so the
    junctions of the bump never sit inside a panel."""
    a, b, d = cell.a, cell.b, cell.delta
    cuts = [a + d / 2, a + 3 * d / 4, a + d, b - d, b - 3 * d / 4, b - d / 2]
    floor = max(4, 2 * (quad_points // 32))  # short band pieces carry the curvature
    xs_all, ws_all = [], []
    for lo, hi in zip(cuts, cuts[1:]):
        if hi <= lo:
            continue
        panels = max(floor, 2 * math.ceil(quad_points * (hi - lo) / (2.0 * cell.measure)))
        xs = np.linspace(lo, hi, panels + 1)
        ws = np.ones(panels + 1)
        ws[1:-1:2] = 4.0
        ws[2:-1:2] = 2.0
        ws *= (hi - lo) / panels / 3.0
        xs_all.append(xs)
        ws_all.append(ws)
    return np.concatenate(xs_all), np.concatenate(ws_all)


def build_bumps(cells: list[VoronoiCell1D], quad_points: int = 1600) -> BumpFamily:
    """Calibrate each cell's amplitude so that ∫η² = cell measure.

    The bump is A times the profile φ of plateau height one, so the
    amplitude is A = √(|cell| / ∫φ²), with ∫φ² by the cell quadrature.
    The plateau value is A > 1, because φ <= 1 vanishes near the cell
    boundary.
    """
    amps = []
    for cell in cells:
        xs, ws = _cell_quadrature(cell, quad_points)
        phi = BumpFamily(cells=(cell,), amplitudes=(1.0,)).evaluate(0, xs)
        amps.append(math.sqrt(cell.measure / float(ws @ (phi * phi))))
    return BumpFamily(cells=tuple(cells), amplitudes=tuple(amps))


_QUAD_BUDGET = 1e-6  # largest accepted quadrature self-estimate of the overlaps
_MODE_BLOCK = 32  # modes per angle-addition block in the overlaps
# e^{−x} is exactly 0.0 in double precision for x >= _EXP_UNDERFLOW
_EXP_UNDERFLOW = 745.2


def _mode_overlaps(
    d: IntervalDomain, cells, bumps: BumpFamily, quad_points: int
) -> np.ndarray:
    """s[m, v] = ∫ sin((m+1)πx/L) η_v(x) dx over each cell.

    Mode q + r, with q a multiple of ``_MODE_BLOCK`` and 1 <= r <= _MODE_BLOCK,
    is expanded as sin qθ·cos rθ + cos qθ·sin rθ (θ = πx/L), so each node
    takes a few dozen sines and cosines and the sums are two small matrix
    products instead of one sine per (mode, node).
    """
    blocks = -(-d.n_modes // _MODE_BLOCK)
    q = np.arange(blocks)[:, None] * _MODE_BLOCK
    r = np.arange(1, _MODE_BLOCK + 1)[:, None]
    out = np.empty((d.n_modes, len(cells)))
    for v, cell in enumerate(cells):
        xs, ws = _cell_quadrature(cell, quad_points)
        weighted = ws * bumps.evaluate(v, xs)
        theta = xs * (math.pi / d.length)
        qt, rt = q * theta, r * theta
        s = (np.sin(qt) * weighted) @ np.cos(rt).T + (np.cos(qt) * weighted) @ np.sin(rt).T
        out[:, v] = s.reshape(-1)[: d.n_modes]
    return out


def averaged_parametrix(
    d: IntervalDomain,
    cells: list[VoronoiCell1D],
    bumps: BumpFamily,
    grid: TimeGrid,
    graph: WeightedGraph,
) -> Parametrix:
    """Average the interval kernel against the bump family to obtain an
    order-zero parametrix for the embedded graph, with the symmetric
    (μ_{v1} μ_{v2})^{−1/2} scaling.  A Richardson comparison between
    the requested quadrature resolution and its refinement guards the mode
    overlaps; if the estimated error exceeds 1e-6 the resolution is
    rejected.
    """
    if len(cells) != graph.n:
        raise ContractViolation("graph size does not match the cell count")
    mu = np.array([c.measure for c in cells])
    s = _mode_overlaps(d, cells, bumps, d.quad_points)
    s_fine = _mode_overlaps(d, cells, bumps, 2 * d.quad_points)
    rates = d.rates()
    weights0 = (2.0 / d.length) * np.exp(-rates * grid.dt)
    probe = np.abs(
        (s * weights0[:, None]).T @ s - (s_fine * weights0[:, None]).T @ s_fine
    ).max() / float(np.sqrt(np.outer(mu, mu)).min())
    if probe > _QUAD_BUDGET:
        raise ResolutionError(
            f"quadrature self-estimate {probe:.2e} exceeds budget {_QUAD_BUDGET:.2e}; "
            "increase quad_points"
        )
    s = s_fine  # keep the refined overlaps
    norm = 1.0 / np.sqrt(np.outer(mu, mu))

    # mode sums collapse to one matrix product per block of times.  The
    # rates increase, so in a block only the modes with rate·t_min below the
    # underflow cut have a nonzero exponential; the rest are skipped exactly.
    # H and its termwise time derivative share one pass of exponentials.
    nv = graph.n
    pair = np.einsum("nv,nw->nvw", s, s).reshape(d.n_modes, nv * nv) * (2.0 / d.length)
    dpair = pair * (-rates[:, None])
    chunk = max(1, 131_072 // d.n_modes)
    times = grid.nodes
    h, dh = np.empty((len(times), nv, nv)), np.empty((len(times), nv, nv))
    for j0 in range(0, len(times), chunk):
        block = times[j0 : j0 + chunk]
        live = int(np.searchsorted(rates * block.min(), _EXP_UNDERFLOW))
        w = np.exp(-np.outer(block, rates[:live]))
        h[j0 : j0 + chunk] = (w @ pair[:live]).reshape(-1, nv, nv) * norm
        dh[j0 : j0 + chunk] = (w @ dpair[:live]).reshape(-1, nv, nv) * norm
    lh = np.einsum("xv,cvw->cxw", graph.laplacian_matrix(), h) + dh  # LH = ΔH + ∂_t H
    return Parametrix(grid, h, tuple(range(nv)), lh)
