"""Parametrix constructions and the Neumann-series correction that turns an
approximate heat kernel into the exact one.

Given a parametrix H with Dirac initial values and algebraically-known heat
image LH = (Δ + ∂_t)H, the corrected kernel is

    H_G = H + H * F,      F = Σ_{ℓ>=1} (−1)^ℓ (LH)^{*ℓ},

where * is the graph convolution.  The whole discrete series is solved
directly as a Volterra equation by a power-series inverse; the requested
tolerance only sizes the factorial term bound reported with it.  Heat
images are always assembled from closed-form values, never by numerically
differentiating a sampled kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, NonConvergenceError, NumericalBudgetError
from .graph import (
    SubgraphEmbedding,
    WeightedGraph,
    adjacency_complement,
    ambient_is_unit_complete,
    boundary_sets,
)
from .oracle import jacobi_eigh
from .series import (
    ClosedFormKernel,
    TimeGrid,
    _series_product,
    convolve_values,
    fold_bound,
    sample_closed_form,
)


@dataclass(frozen=True)
class Parametrix:
    """An approximate heat kernel H and its exact heat image on a time grid.

    ``samples`` holds H at the grid nodes, shape (M+1, n, n), with the Dirac
    initial condition at node 0.  LH = (Δ + ∂_t)H vanishes off ``support``
    (increasing vertex indices) in the first variable, so ``heat_image``
    holds only its rows there, shape (M+1, |support|, n); every construction
    here has |LH| = O(1) near t = 0.
    """

    grid: TimeGrid
    samples: np.ndarray
    support: tuple[int, ...]
    heat_image: np.ndarray

    def __post_init__(self):
        m1, n = self.grid.steps + 1, self.samples.shape[-1]
        supp = self.support
        if self.samples.shape != (m1, n, n):
            raise ContractViolation(f"samples have shape {self.samples.shape}, want {(m1, n, n)}")
        if self.heat_image.shape != (m1, len(supp), n):
            raise ContractViolation(
                f"heat image has shape {self.heat_image.shape}, want {(m1, len(supp), n)}"
            )
        increasing = all(a < b for a, b in zip(supp, supp[1:]))
        if not increasing or (supp and (supp[0] < 0 or supp[-1] >= n)):
            raise ContractViolation(f"support must be increasing vertex indices below {n}")
        if not (np.isfinite(self.samples).all() and np.isfinite(self.heat_image).all()):
            raise ContractViolation("samples or heat image contain non-finite entries")

    @property
    def n(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class NeumannSeriesResult:
    """Correction series F on the support rows, shape (M+1, |support|, n),
    with its bound certificate and discrete residual; F vanishes off them."""

    F: np.ndarray
    grid: TimeGrid
    support: tuple[int, ...]
    terms_used: int
    certified_tail: float
    bound_constant: float
    residual: float


def diagonal_parametrix(g: WeightedGraph, grid: TimeGrid) -> Parametrix:
    """The universal order-zero parametrix H(x,y;t) = δ_xy e^{−μ(x)t}.

    Its heat image is exactly LH(x,y;t) = −w_xy e^{−μ(y)t}, zero on the
    diagonal, so no differentiation is ever needed.
    """
    diag = np.arange(g.n)
    decay = np.exp(-np.outer(grid.nodes, g.mu))  # (M+1, n) of e^{−μ(y)t}
    h = np.zeros((grid.steps + 1, g.n, g.n))
    h[:, diag, diag] = decay
    lh = -decay[:, None, :] * g.weights[None, :, :]
    return Parametrix(grid, h, tuple(range(g.n)), lh)


def restriction_parametrix(
    e: SubgraphEmbedding, ambient_kernel: ClosedFormKernel, grid: TimeGrid
) -> Parametrix:
    """Restrict an ambient heat kernel to the subgraph and read off its heat
    image from the missing-neighbor formula

        LH(v1, v2; t) = −Σ_{v ∈ A(v1)} (H̃(v1, v2; t) − H̃(v, v2; t)) w̃_{v1 v},

    which is supported on the subgraph boundary in the first variable.  The
    ambient kernel is sampled once; every boundary row of LH comes from one
    product of those samples with the missing-neighbor weights.
    ``ambient_kernel`` must be the heat kernel of ``e.ambient`` (for windows
    of an infinite graph: of the infinite graph, with window truncation
    certified separately).
    """
    if ambient_kernel.n != e.ambient.n:
        raise ContractViolation("ambient kernel size does not match ambient graph")
    boundary = sorted(boundary_sets(e)[0])
    kept = np.array(e.kept)
    # row of v1: +w̃_{v1 v} at each missing neighbor v, −Σ_{v ∈ A(v1)} w̃_{v1 v} at v1
    coupling = np.zeros((len(boundary), e.ambient.n))
    for i, v1 in enumerate(boundary):
        missing = sorted(adjacency_complement(e, v1))
        coupling[i, missing] = e.ambient.weights[v1, missing]
        coupling[i, v1] = -coupling[i].sum()
    amb = sample_closed_form(ambient_kernel, grid)
    h = amb[:, kept[:, None], kept[None, :]]
    support = tuple(e.subgraph_index(v) for v in boundary)
    return Parametrix(grid, h, support, (coupling @ amb)[:, :, kept])


def dirichlet_parametrix(
    e: SubgraphEmbedding, ambient_kernel: ClosedFormKernel, grid: TimeGrid
) -> Parametrix:
    """Parametrix for the Dirichlet kernel: the ambient kernel with rows at
    the subgraph boundary zeroed out.

    The heat image is assembled exactly from ambient kernel values and is
    supported on ∂G together with the interior vertices adjacent to it:

      * v1 in ∂G:          LH(v1, v2) = −Σ_{y interior} w_{v1 y} H̃(y, v2)
      * v1 adjacent to ∂G: LH(v1, v2) = Σ_{y ∈ ∂G} w_{v1 y} H̃(y, v2)
      * elsewhere:         0,

    that is one coupling-matrix product with the restricted ambient samples.
    """
    if ambient_kernel.n != e.ambient.n:
        raise ContractViolation("ambient kernel size does not match ambient graph")
    boundary, interior, second = (
        np.array(sorted(e.subgraph_index(v) for v in vs), dtype=int) for vs in boundary_sets(e)
    )
    kept = np.array(e.kept)
    w = e.subgraph.weights
    coupling = np.zeros((e.n, e.n))
    coupling[np.ix_(boundary, interior)] = -w[np.ix_(boundary, interior)]
    coupling[np.ix_(second, boundary)] = w[np.ix_(second, boundary)]
    support = np.union1d(boundary, second)
    h = sample_closed_form(ambient_kernel, grid)[:, kept[:, None], kept[None, :]]
    lh = coupling[support] @ h  # before the boundary rows of h are zeroed
    h[:, boundary, :] = 0.0
    return Parametrix(grid, h, tuple(support.tolist()), lh)


_COARSE_GRID = (
    "the correction series has no bounded solution on this grid; the grid "
    "is too coarse to resolve the heat image (refine the time grid)"
)


def _series_inverse(p: np.ndarray) -> np.ndarray:
    """Inverse of the matrix power series ``p`` modulo z^len(p).

    Newton doubling G ← G(2I − PG) (Brent & Kung, JACM 25, 1978): each step
    doubles the number of correct coefficients at the cost of two FFT
    products, so the whole inverse costs a few products of full length.
    """
    m1 = p.shape[0]
    try:
        g = np.linalg.inv(p[:1])
    except np.linalg.LinAlgError:
        raise NonConvergenceError(_COARSE_GRID) from None
    while g.shape[0] < m1:
        m = min(2 * g.shape[0], m1)
        err = _series_product(p[:m], g, m)  # PG − I vanishes below z^len(g)
        err[0] -= np.eye(p.shape[1])
        step = -_series_product(g, err, m)
        step[: g.shape[0]] += g
        g = step
    return g


_MAX_TERMS = 10_000_000


def series_terms(c: float, n: int, t: float, tol: float) -> int:
    """The first ℓ >= 1 whose next term's bound fold_bound(c, 0, ℓ + 1, n, t)
    is below ``tol``; more than ``_MAX_TERMS`` is refused.

    The bound's ratio b(ℓ + 1)/b(ℓ) = c·n·t/ℓ falls with ℓ, so b rises to
    one peak and then falls.  If b(2) >= tol, every ℓ before the answer
    fails the test and every ℓ after it passes, so the answer is found by
    bisection.
    """

    def meets(ell: int) -> bool:
        return fold_bound(c, 0, ell + 1, n, t) < tol

    if c == 0.0 or meets(1):
        return 1
    if not meets(_MAX_TERMS):
        raise NonConvergenceError("term bound never meets the tolerance")
    lo, hi = 1, _MAX_TERMS  # meets(lo) is false, meets(hi) is true
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if meets(mid):
            hi = mid
        else:
            lo = mid
    return hi


def neumann_series(p: Parametrix, tol: float) -> NeumannSeriesResult:
    """The full discrete series F = Σ (−1)^ℓ (LH)^{*ℓ}, solved directly.

    The trapezoid convolution is a power-series product with halved
    constant terms, conv(a, b) = dt·[a′(z) b′(z)]_{j≥1} with a′₀ = a₀/2, so
    F solves the discrete Volterra equation F + LH + conv(F, LH) = 0, whose
    closed form modulo z^{M+1} is

        F′ = −(L′ + ¼·dt·L₀²)(I + dt·L′)⁻¹,   then F₀ = −L₀.

    Rows of F vanish off the support S, so the inverse is taken on the S×S
    block only (Hairer, Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6,
    1985) and one more product F_S = −L_S − conv(F_SS, L_S) gives the
    support rows, which are all of F that is returned.
    ``residual`` is the sup of F + LH + conv(F, LH) on that block.

    ``tol`` does not change F; it only sizes the factorial bound.
    ``terms_used`` is the first ℓ whose next term's bound, evaluated at
    t_max with the empirical sup of |LH| (inflated by 1.1) standing in for
    the true constant and the support size as the vertex count, drops below
    ``tol``; ``certified_tail`` sums the bound over the later terms.
    """
    if not tol > 0:
        raise ContractViolation("tolerance must be positive")
    lh_s = p.heat_image
    m1 = lh_s.shape[0]
    dt = p.grid.dt
    t_max = p.grid.t_max
    supp = list(p.support)
    n_eff = max(1, len(supp))
    c_emp = 1.1 * float(np.abs(lh_s).max(initial=0.0))

    terms_used = series_terms(c_emp, n_eff, t_max, tol)
    tail = 0.0
    for ell in range(terms_used + 1, terms_used + 500):
        b = fold_bound(c_emp, 0, ell, n_eff, t_max)
        tail += b
        if b == 0.0 or b <= 1e-16 * tail:
            break

    f_s = np.zeros(lh_s.shape)
    residual = 0.0
    if c_emp > 0.0:
        l_ss = lh_s[:, :, supp]
        l_prime = l_ss.copy()
        l_prime[0] *= 0.5
        num = -l_prime
        num[0] -= 0.25 * dt * (l_ss[0] @ l_ss[0])
        den = dt * l_prime
        den[0] += np.eye(len(supp))
        # overflow shows as a non-finite or huge F, reported just below
        with np.errstate(over="ignore", invalid="ignore"):
            f_ss = _series_product(num, _series_inverse(den), m1)
            f_ss[0] = -l_ss[0]
            f_s = -lh_s - convolve_values(f_ss, lh_s, dt)
            peak = float(np.abs(f_s).max())
            if not math.isfinite(peak) or peak > 1e150:
                raise NonConvergenceError(_COARSE_GRID)
            f_blk = f_s[:, :, supp]
            residual = float(np.abs(f_blk + l_ss + convolve_values(f_blk, l_ss, dt)).max())
    return NeumannSeriesResult(
        F=f_s,
        grid=p.grid,
        support=p.support,
        terms_used=terms_used,
        certified_tail=tail,
        bound_constant=c_emp,
        residual=residual,
    )


def assemble_heat_kernel(p: Parametrix, series: NeumannSeriesResult) -> np.ndarray:
    """H_G = H + H * F on the grid nodes, shape (M+1, n, n), with the
    convolution restricted to the support of F."""
    if (series.grid, series.support) != (p.grid, p.support):
        raise ContractViolation("series grid or support does not match the parametrix")
    h = p.samples
    corr = convolve_values(h[:, :, list(p.support)], series.F, p.grid.dt)
    corr += h  # in place: the correction is a new array, the samples stay as they are
    return corr


def heat_kernel_via_parametrix(p: Parametrix, tol: float) -> np.ndarray:
    """Neumann series then assembly; the correction at the first grid node
    must be O(dt), as a heat image that is O(1) near t = 0 makes it."""
    series = neumann_series(p, tol)
    out = assemble_heat_kernel(p, series)
    corr = float(np.abs(out[1] - p.samples[1]).max())
    h_scale = max(1.0, float(np.abs(p.samples[1]).max()))
    limit = 4.0 * series.bound_constant * p.n * p.grid.dt * h_scale + 1e-12
    if corr > limit:
        raise NumericalBudgetError(
            f"correction at the first node is {corr:.2e}, violating its O(t) bound {limit:.2e}"
        )
    return out


# ---------------------------------------------------------------------------
# complete-graph closed forms


def complete_graph_kernel(n: int) -> ClosedFormKernel:
    """Heat kernel on the unit-weight complete graph:
    1/N + (1 − 1/N) e^{−Nt} on the diagonal, 1/N − e^{−Nt}/N off it.
    At N = 1 this is the constant 1 of the one-vertex graph."""
    if n < 1:
        raise ContractViolation("complete graph needs at least 1 vertex")
    diag = np.arange(n)

    def sample(times: np.ndarray) -> np.ndarray:
        decay = np.exp(-n * np.asarray(times, dtype=float))
        vals = np.empty((decay.size, n, n))
        vals[:] = (1.0 / n - decay / n)[:, None, None]
        vals[:, diag, diag] = (1.0 / n + (1.0 - 1.0 / n) * decay)[:, None]
        return vals

    return ClosedFormKernel("complete-graph", n, sample)


def ambient_spectral_kernel(g: WeightedGraph) -> ClosedFormKernel:
    """Heat kernel Σ_j e^{−λ_j t} ψ_j ψ_jᵀ of a finite graph, for ambients
    with no closed form.  It uses LAPACK's symmetric eigensolver, so the
    Jacobi-based ``spectral`` oracle stays independent of it."""
    lam, v = np.linalg.eigh(g.laplacian_matrix())

    def sample(times: np.ndarray) -> np.ndarray:
        return (v * np.exp(-np.outer(times, lam))[:, None, :]) @ v.T

    return ClosedFormKernel("ambient-spectral", g.n, sample)


def b_matrix(e: SubgraphEmbedding) -> np.ndarray:
    """Complement matrix B with b_xx = number of removed edges at x and
    b_xy = −1 exactly when the edge {x,y} was removed."""
    if not ambient_is_unit_complete(e):
        raise ContractViolation(
            "the complete-graph closed form needs a unit-weight complete graph, "
            "or a unit-weight complete ambient with every vertex kept"
        )
    n = e.ambient.n
    b = np.zeros((n, n))
    for edge in e.removed_edges:
        u, v = sorted(edge)
        b[u, u] += 1.0
        b[v, v] += 1.0
        b[u, v] -= 1.0
        b[v, u] -= 1.0
    return b


def subgraph_kernel_closed_form(e: SubgraphEmbedding) -> ClosedFormKernel:
    """Exact heat kernel of a complete graph with edges removed:
    H_{K_N}(t) + e^{−Nt}(exp(tB) − Id), from one symmetric
    eigendecomposition of B."""
    lam, v = jacobi_eigh(b_matrix(e))
    n = e.ambient.n
    complete = complete_graph_kernel(n)
    diag = np.arange(n)

    def sample(times: np.ndarray) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        etb = (v * np.exp(np.outer(times, lam))[:, None, :]) @ v.T
        etb[:, diag, diag] -= 1.0
        return complete.sample(times) + np.exp(-n * times)[:, None, None] * etb

    return ClosedFormKernel("complete-graph-minus-edges", n, sample)
