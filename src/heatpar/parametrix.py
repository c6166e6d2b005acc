"""Parametrix constructions and the Neumann-series correction that turns an
approximate heat kernel into the exact one.

Given a parametrix H with Dirac initial values and algebraically-known heat
image LH = (Δ + ∂_t)H, the corrected kernel is

    H_G = H + H * F,      F = Σ_{ℓ>=1} (−1)^ℓ (LH)^{*ℓ},

where * is the graph convolution.  The whole discrete series is solved
directly as a Volterra equation by one power-series quotient: a Newton
inverse to half the length by middle products, then one Karp–Markstein
step; the requested tolerance only sizes the factorial term bound reported
with it.  The series, its residual and the assembly take the convolution
rule of one ``order``: 2, the trapezoid and the default, or 4, Gregory's
rule (see ``series``), which the CLI's parametrix methods run.  Heat images
are always assembled from closed-form values, never by numerically
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
    ambient_is_unit_complete,
    connected_components,
    lost_weights,
)
from .oracle import jacobi_eigh
from .series import (
    ClosedFormKernel,
    TimeGrid,
    convolution_rule,
    convolve_values,
    fold_bound,
    next_fast_len,
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
    solved with the convolution rule of ``order``, with its bound
    certificate and discrete residual; F vanishes off them."""

    F: np.ndarray
    grid: TimeGrid
    support: tuple[int, ...]
    order: int
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


def _embedded_parametrix(
    e: SubgraphEmbedding, ambient_kernel: ClosedFormKernel, grid: TimeGrid, coupling, zeroed=()
) -> Parametrix:
    """H, the ambient kernel on kept×kept with the ``zeroed`` rows set to
    zero, and LH = coupling·H̃ on the kept columns, from one pass over the
    ambient samples a block of times at a time, so they are never held
    whole.  ``coupling`` has shape (n, N), kept rows by ambient columns;
    LH is supported on its nonzero rows and the zeroed ones.
    """
    if ambient_kernel.n != e.ambient.n:
        raise ContractViolation("ambient kernel size does not match ambient graph")
    kept = np.array(e.kept)
    on_support = coupling.any(axis=1)
    on_support[list(zeroed)] = True
    support = np.flatnonzero(on_support)
    rows = coupling[support]
    h, lh = sample_closed_form(
        ambient_kernel,
        grid,
        lambda amb: amb[:, kept[:, None], kept[None, :]],
        lambda amb: (rows @ amb)[:, :, kept],
    )
    h[:, zeroed, :] = 0.0
    return Parametrix(grid, h, tuple(support.tolist()), lh)


def restriction_parametrix(
    e: SubgraphEmbedding, ambient_kernel: ClosedFormKernel, grid: TimeGrid
) -> Parametrix:
    """Restrict an ambient heat kernel to the subgraph and read off its heat
    image from the missing-neighbor formula

        LH(v1, v2; t) = −Σ_{v ∈ A(v1)} (H̃(v1, v2; t) − H̃(v, v2; t)) w̃_{v1 v},

    which is supported on the subgraph boundary in the first variable: the
    coupling is :func:`lost_weights` with minus its row sums on the
    diagonal.  ``ambient_kernel`` must be the heat kernel of ``e.ambient``
    (for windows of an infinite graph: of the infinite graph, with window
    truncation certified separately).
    """
    coupling = lost_weights(e)
    coupling[np.arange(e.n), e.kept] -= coupling.sum(axis=1)
    return _embedded_parametrix(e, ambient_kernel, grid, coupling)


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

    that is the coupling ±w_G between ∂G and Int(G).
    """
    on_boundary = lost_weights(e).any(axis=1)
    w = e.subgraph.weights
    across = on_boundary[:, None] != on_boundary[None, :]
    coupling = np.zeros((e.n, e.ambient.n))
    coupling[:, e.kept] = np.where(across, np.where(on_boundary[:, None], -w, w), 0.0)
    return _embedded_parametrix(e, ambient_kernel, grid, coupling, np.flatnonzero(on_boundary))


_COARSE_GRID = (
    "the correction series has no bounded solution on this grid; the grid "
    "is too coarse to resolve the heat image (refine the time grid)"
)


def _cyclic(fa: np.ndarray, fb: np.ndarray, nfft: int, lo: int, hi: int) -> np.ndarray:
    """Coefficients ``lo``..``hi`` − 1 of the cyclic product of length
    ``nfft`` of two matrix series, from their spectra."""
    return np.fft.irfft(fa @ fb, n=nfft, axis=0)[lo:hi]


def _spectrum(x: np.ndarray, nfft: int) -> np.ndarray:
    return np.fft.rfft(x, n=nfft, axis=0)


def _series_inverse(p: np.ndarray, m: int) -> np.ndarray:
    """Inverse of the matrix power series ``p`` modulo z^m.

    Newton doubling (Brent & Kung, JACM 25, 1978) from h to k = min(2h, m)
    correct coefficients G: PG − I vanishes below z^h, so only its middle
    coefficients E = (P[:k]·G)[h:k] are computed, and G gains
    −(G·E)[:k − h] as its coefficients h..k − 1 (Hanrot, Quercia &
    Zimmermann, AAECC 14, 2004).  Both are cyclic products of length
    ``next_fast_len(k)`` sharing one transform of G: the middle product's
    wrap-around falls below z^h and G·E is shorter than the cycle.  The
    first h coefficients are never rewritten, so converged ones keep no
    roundoff of later, larger ones.
    """
    try:
        g0 = np.linalg.inv(p[0])
    except np.linalg.LinAlgError:
        raise NonConvergenceError(_COARSE_GRID) from None
    g = np.empty((m,) + g0.shape)
    g[0] = g0
    h = 1
    while h < m:
        k = min(2 * h, m)
        nfft = next_fast_len(k)
        fg = _spectrum(g[:h], nfft)
        err = _cyclic(_spectrum(p[:k], nfft), fg, nfft, h, k)
        g[h:k] = -_cyclic(fg, _spectrum(err, nfft), nfft, 0, k - h)
        h = k
    return g


def _series_quotient(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Φ = N·D⁻¹ modulo z^m, m = len(``num``) = len(``den``), a right
    division, since matrix series do not commute.

    D is inverted only to h = ⌈m/2⌉ coefficients G; one Karp–Markstein
    step (Karp & Markstein, TOMS 23, 1997) gives the rest:
    Φ_lo = (N·G)[:h], R = (N − Φ_lo·D)[h:m] and Φ_hi = (R·G)[:m − h], three
    cyclic products of length ``next_fast_len(m)`` with no wrap-around
    into the kept coefficients.
    """
    m = num.shape[0]
    h = -(-m // 2)
    nfft = next_fast_len(m)
    fg = _spectrum(_series_inverse(den, h), nfft)
    lo = _cyclic(_spectrum(num[:h], nfft), fg, nfft, 0, h)
    rest = num[h:] - _cyclic(_spectrum(lo, nfft), _spectrum(den, nfft), nfft, h, m)
    return np.concatenate([lo, _cyclic(_spectrum(rest, nfft), fg, nfft, 0, m - h)])


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


def _start_values(l_ss: np.ndarray, start: np.ndarray, dt: float) -> np.ndarray:
    """F_0..F_d on the support block, d = len(``start``): F_0 = −L_0, and
    F_1..F_d from the d equations F_j + L_j + dt·Σ_ab W[j, a, b]·F_a L_b = 0
    of the start weights W, which couple them all.  With X = [F_1 … F_d]
    and the blocks K_aj = Σ_b W[j, a, b]·L_b they are one linear system
    X·(I + dt·K) = −[L_j + dt·F_0 K_0j]_j of size d·|S|."""
    f0 = -l_ss[:1]
    d, s = len(start), l_ss.shape[1]
    if not d:
        return f0
    mixed = np.einsum("jab,bqr->jaqr", start, l_ss[: d + 1])  # K_aj at [j − 1, a]
    k = mixed[:, 1:].transpose(1, 2, 0, 3).reshape(d * s, d * s)
    rhs = -(l_ss[1 : d + 1] + dt * (f0[0] @ mixed[:, 0]))
    try:
        x = np.linalg.solve(np.eye(d * s) + dt * k.T, rhs.transpose(0, 2, 1).reshape(d * s, s))
    except np.linalg.LinAlgError:
        raise NonConvergenceError(_COARSE_GRID) from None
    return np.concatenate([f0, x.reshape(d, s, s).transpose(0, 2, 1)])


def neumann_series(p: Parametrix, tol: float, order: int = 2) -> NeumannSeriesResult:
    """The full discrete series F = Σ (−1)^ℓ (LH)^{*ℓ}, solved directly.

    F solves the discrete Volterra equation F + LH + conv(F, LH) = 0, with
    conv the rule of ``order`` (see ``series.convolve_values``).  Rows of F
    vanish off the support S, so the equation is solved on the S×S block
    first (Hairer, Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985).
    Its start values F_0..F_d come from one linear solve
    (:func:`_start_values`; d is 0 for the trapezoid and min(4, M) for
    order 4).  From node 2·len(γ) − 1 on, conv is dt times the power-series
    product of Φ = γ′F and Λ = γ′L, L = LH on the block, so modulo z^{M+1}

        Φ·(I + dt·Λ) = −Λ + E,

    with E the polynomial of degree ≤ d that makes the first d + 1
    coefficients those of the start values.  Φ, which is F from node d + 1
    on, is that right-hand side divided on the right by I + dt·Λ
    (:func:`_series_quotient`): the inverse of I + dt·Λ to ⌈(M+1)/2⌉
    coefficients (:func:`_series_inverse`), then one Karp–Markstein step
    to M + 1.  For the trapezoid, γ = (½) and this is
    F′ = −(L′ + ¼·dt·L₀²)(I + dt·L′)⁻¹.  When S is every vertex the block
    is all of F; otherwise one more convolution
    F_S = −L_S − conv(F_SS, L_S) gives the support rows' columns off S,
    and the block keeps its solved values.  The support rows are all of F
    that is returned.  ``residual`` is the sup of F + LH + conv(F, LH) on the
    block, from the F returned.

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
    head, start = convolution_rule(order, m1 - 1)
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
        weights = np.ones((m1, 1, 1))
        weights[: len(head), 0, 0] = head[:m1]
        lam = weights * l_ss
        # overflow shows as a non-finite or huge F, reported just below
        with np.errstate(over="ignore", invalid="ignore"):
            f_head = _start_values(l_ss, start, dt)
            phi = weights[: len(f_head)] * f_head
            num = -lam
            for j in range(len(f_head)):  # the known head of Φ·(I + dt·Λ)
                prod = phi[j] @ lam[0]
                for r in range(1, j + 1):
                    prod += phi[j - r] @ lam[r]
                num[j] = phi[j] + dt * prod
            den = dt * lam
            den[0] += np.eye(len(supp))
            f_ss = _series_quotient(num, den)
            f_ss[: len(f_head)] = f_head
            if len(supp) == p.n:
                f_s = f_ss
            else:
                f_s = -lh_s - convolve_values(f_ss, lh_s, dt, order)
                f_s[:, :, supp] = f_ss
            peak = float(np.abs(f_s).max())
            if not math.isfinite(peak) or peak > 1e150:
                raise NonConvergenceError(_COARSE_GRID)
            residual = float(np.abs(f_ss + l_ss + convolve_values(f_ss, l_ss, dt, order)).max())
    return NeumannSeriesResult(
        F=f_s,
        grid=p.grid,
        support=p.support,
        order=order,
        terms_used=terms_used,
        certified_tail=tail,
        bound_constant=c_emp,
        residual=residual,
    )


def assemble_heat_kernel(p: Parametrix, series: NeumannSeriesResult, order: int = 2) -> np.ndarray:
    """H_G = H + H * F on the grid nodes, shape (M+1, n, n), with the
    convolution restricted to the support of F and taken by the rule of
    ``order``, which must be the one ``series`` was solved with."""
    if (series.grid, series.support) != (p.grid, p.support):
        raise ContractViolation("series grid or support does not match the parametrix")
    if series.order != order:
        raise ContractViolation(
            f"series was solved at order {series.order}, assembly asked for order {order}"
        )
    h = p.samples
    corr = convolve_values(h[:, :, list(p.support)], series.F, p.grid.dt, order)
    corr += h  # in place: the correction is a new array, the samples stay as they are
    return corr


def heat_kernel_via_parametrix(p: Parametrix, tol: float, order: int = 2) -> np.ndarray:
    """Neumann series then assembly, both by the convolution rule of
    ``order``; the correction at the first grid node must be O(dt), as a
    heat image that is O(1) near t = 0 makes it."""
    series = neumann_series(p, tol, order)
    out = assemble_heat_kernel(p, series, order)
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

    def expand(f: np.ndarray) -> np.ndarray:
        decay = f[:, 0]
        vals = np.empty((decay.size, n, n))
        vals[:] = (1.0 / n - decay / n)[:, None, None]
        vals[:, diag, diag] = (1.0 / n + (1.0 - 1.0 / n) * decay)[:, None]
        return vals

    return ClosedFormKernel("complete-graph", n, lambda times: np.exp(-n * times)[:, None], expand)


def ambient_spectral_kernel(g: WeightedGraph) -> ClosedFormKernel:
    """Heat kernel Σ_j e^{−λ_j t} ψ_j ψ_jᵀ of a finite graph, for ambients
    with no closed form, by LAPACK; the ``spectral`` oracle takes LAPACK's
    basis of its own Laplacian only as a start for Jacobi's test.  The c
    smallest eigenvalues, c the number of connected components, are set to
    exactly 0, so the kernel is exact at large t too."""
    lam, v = np.linalg.eigh(g.laplacian_matrix())
    lam[: len(connected_components(g))] = 0.0
    return ClosedFormKernel(
        "ambient-spectral",
        g.n,
        lambda times: np.exp(-np.outer(times, lam)),
        lambda w: (v * w[:, None, :]) @ v.T,
    )


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

    def factors(times: np.ndarray) -> np.ndarray:
        # exp(λ t) for each eigenvalue of B, then the complete graph's e^{−Nt}
        return np.column_stack([np.exp(np.outer(times, lam)), complete.factors(times)])

    def expand(f: np.ndarray) -> np.ndarray:
        etb = (v * f[:, None, :-1]) @ v.T
        etb[:, diag, diag] -= 1.0
        return complete.expand(f[:, -1:]) + f[:, -1, None, None] * etb

    return ClosedFormKernel("complete-graph-minus-edges", n, factors, expand)
