"""Graphs embedded in an open interval, averaged against the interval's
Dirichlet sine-series heat kernel.

Each vertex sits at a position in (0, L) and owns the Voronoi cell of
points nearer to it than to any other vertex.  A per-cell flat-top bump,
a plateau of height A joined to zero at the cell edges by one monotone
ramp across a collar of width δ, with A calibrated so that ∫η² equals the
cell measure, averages the interval kernel into a graph parametrix:

    H0(v1, v2; t) = (μ_{v1} μ_{v2})^{−1/2} ∫∫ K(x, y; t) η_{v1}(x) η_{v2}(y) dy dx.

The sine series makes the double integral separable into overlaps of each
mode with each bump, which are exact because the bump is piecewise quintic,
and the time derivative is available termwise with no numerical
differentiation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .graph import WeightedGraph
from .parametrix import Parametrix
from .series import TimeGrid, time_blocks


@dataclass(frozen=True)
class IntervalDomain:
    """The interval (0, length) with a truncated sine-series heat kernel."""

    length: float
    n_modes: int

    def __post_init__(self):
        if self.length <= 0:
            raise ContractViolation("interval length must be positive")
        if self.n_modes < 1:
            raise ContractViolation("need at least one series mode")

    def rates(self) -> np.ndarray:
        """Decay rates (nπ/L)² for modes n = 1..n_modes."""
        n = np.arange(1, self.n_modes + 1)
        return (n * math.pi / self.length) ** 2


MAX_MODES = 200_000  # the most sine-series modes searched for
_TAIL_TOL = 1e-10  # the dropped sine-series tail a mode count must stay below


def modes_for_time(length: float, t_min: float) -> int:
    """Smallest mode count whose dropped sine-series tail at t_min is
    certified below ``_TAIL_TOL``."""
    if t_min <= 0 or length <= 0:
        raise ContractViolation("length and t_min must be positive")
    n = 8
    while n < MAX_MODES:
        if series_tail_bound(length, t_min, n) < _TAIL_TOL:
            # back off to the smallest sufficient count
            lo = n // 2
            while series_tail_bound(length, t_min, lo) >= _TAIL_TOL:
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
    if any(p >= q for p, q in zip(pos, pos[1:])):
        raise ContractViolation("positions must be strictly increasing")
    if not pos or pos[0] <= 0.0 or pos[-1] >= length:
        raise ContractViolation("positions must lie strictly inside (0, length)")
    if not (0.0 < delta_fraction < 0.5):
        raise ContractViolation("delta_fraction must lie in (0, 1/2)")
    bounds = [0.0, *(0.5 * (p + q) for p, q in zip(pos, pos[1:])), length]
    delta = delta_fraction * min(b - a for a, b in zip(bounds, bounds[1:])) / 2.0
    return [
        VoronoiCell1D(position=p, a=a, b=b, delta=delta)
        for p, a, b in zip(pos, bounds, bounds[1:])
    ]


def smoothstep(u: np.ndarray) -> np.ndarray:
    """Quintic ramp 10u³ − 15u⁴ + 6u⁵ with zero first and second derivatives
    at both ends, so pieces glue to a C² bump."""
    return u * u * u * (10.0 + u * (-15.0 + 6.0 * u))


@dataclass(frozen=True)
class BumpFamily:
    """Per-cell flat-top bumps, one amplitude A per cell.

    Within each cell, at distance d from the cell boundary, the bump is A
    on the plateau d >= delta and A·smoothstep(d/delta) on the collar
    0 <= d < delta.  It vanishes only at the cell edges, where neighbouring
    supports meet in a single point, so the parametrix starts diagonal.
    """

    cells: tuple[VoronoiCell1D, ...]
    amplitudes: tuple[float, ...]

    def evaluate(self, v: int, xs) -> np.ndarray:
        cell = self.cells[v]
        xs = np.asarray(xs, dtype=float)
        d = np.minimum(xs - cell.a, cell.b - xs)
        return self.amplitudes[v] * smoothstep(np.clip(d / cell.delta, 0.0, 1.0))


def build_bumps(cells: list[VoronoiCell1D]) -> BumpFamily:
    """Calibrate each cell's amplitude so that ∫η² = cell measure.

    The profile φ = η/A is 1 on a plateau of length μ − 2δ and smoothstep on
    two ramps of width δ, so ∫φ² = μ − 2δ + (181/231)·δ < μ and
    A = √(μ/∫φ²) > 1.
    """
    amps = [math.sqrt(c.measure / (c.measure - (2.0 - 181.0 / 231.0) * c.delta)) for c in cells]
    return BumpFamily(cells=tuple(cells), amplitudes=tuple(amps))


# Taylor coefficients of M(κ): ∫₀¹ smoothstep(u)·uᵏ du / k!, the integral
# 10/(k+4) − 15/(k+5) + 6/(k+6) taken as (k² + 14k + 60)/((k+4)(k+5)(k+6))
# so that it does not cancel; for κ < 4 the terms left out are below 1e-19
_RAMP_TAYLOR = [(k * k + 14 * k + 60) / ((k + 4) * (k + 5) * (k + 6) * math.factorial(k))
                for k in range(36)]
# e^{−x} is exactly 0.0 in double precision for x >= _EXP_UNDERFLOW
_EXP_UNDERFLOW = 745.2


def _ramp_moment(kappa: np.ndarray) -> np.ndarray:
    """M(κ) = ∫₀¹ smoothstep(u)·e^{iκu} du for κ >= 0.

    From κ = 4 on, five integrations by parts are exact: at u = 0, 1 the
    quintic has S = 0, 1; S' = S'' = 0; S''' = 60, 60; S'''' = −360, 360;
    S⁽⁵⁾ = 720.  Below κ = 4 those terms cancel; the Taylor series does not.
    """
    z = 1j * kappa
    small = kappa < 4.0
    out = np.empty(z.shape, dtype=complex)
    out[small] = np.polynomial.polynomial.polyval(z[small], _RAMP_TAYLOR)
    zl = z[~small]
    e = np.exp(zl)
    out[~small] = (
        e / zl - 60.0 * (e - 1.0) / zl**4 + 360.0 * (e + 1.0) / zl**5 - 720.0 * (e - 1.0) / zl**6
    )
    return out


def _mode_overlaps(d: IntervalDomain, bumps: BumpFamily) -> np.ndarray:
    """s[m, v] = ∫ sin(ωx) η_v(x) dx, ω = (m+1)π/L, in closed form.

    The plateau [a+δ, b−δ] gives 2A·sin(ω(a+b)/2)·sin(ω((b−a)/2 − δ))/ω, a
    product with no cancellation at small ω.  With κ = ωδ, the ramp on
    [a, a+δ] gives A·δ·Im(e^{iωa}·M(κ)), and its mirror image on [b−δ, b]
    gives A·δ·Im(e^{iωb}·conj M(κ)).
    """
    omega = np.arange(1, d.n_modes + 1) * (math.pi / d.length)
    out = np.empty((d.n_modes, len(bumps.cells)))
    for v, (cell, amp) in enumerate(zip(bumps.cells, bumps.amplitudes)):
        a, b, delta = cell.a, cell.b, cell.delta
        plateau = np.sin(omega * (a + b) / 2.0) * np.sin(omega * ((b - a) / 2.0 - delta))
        m = _ramp_moment(omega * delta)
        ramps = (np.exp(1j * omega * a) * m + np.exp(1j * omega * b) * m.conj()).imag
        out[:, v] = amp * (2.0 * plateau / omega + delta * ramps)
    return out


def averaged_parametrix(
    d: IntervalDomain, bumps: BumpFamily, grid: TimeGrid, graph: WeightedGraph
) -> Parametrix:
    """Average the interval kernel against the bump family to obtain an
    order-zero parametrix for the embedded graph, with the symmetric
    (μ_{v1} μ_{v2})^{−1/2} scaling.
    """
    if len(bumps.cells) != graph.n:
        raise ContractViolation("graph size does not match the cell count")
    mu = np.array([c.measure for c in bumps.cells])
    s = _mode_overlaps(d, bumps)
    rates = d.rates()
    norm = 1.0 / np.sqrt(np.outer(mu, mu))

    # mode sums collapse to one matrix product per block of modes and block
    # of times, so only the (modes, n) overlaps grow with the mode count.
    # The rates increase, so in a time block only the modes with rate·t_min
    # below the underflow cut have a nonzero exponential; the rest are
    # skipped exactly.  H and its termwise time derivative share one pass of
    # exponentials.
    nv = graph.n
    times = grid.nodes
    h, dh = np.zeros((len(times), nv * nv)), np.zeros((len(times), nv * nv))
    for modes in time_blocks(d.n_modes, nv * nv):
        pair = np.einsum("nv,nw->nvw", s[modes], s[modes]).reshape(-1, nv * nv) * (2.0 / d.length)
        dpair = pair * (-rates[modes, None])
        r = rates[modes]
        for blk in time_blocks(len(times), len(r)):
            live = int(np.searchsorted(r * times[blk].min(), _EXP_UNDERFLOW))
            w = np.exp(-np.outer(times[blk], r[:live]))
            h[blk] += w @ pair[:live]
            dh[blk] += w @ dpair[:live]
    h, dh = h.reshape(-1, nv, nv) * norm, dh.reshape(-1, nv, nv) * norm
    lh = np.einsum("xv,cvw->cxw", graph.laplacian_matrix(), h) + dh  # LH = ΔH + ∂_t H
    return Parametrix(grid, h, tuple(range(nv)), lh)
