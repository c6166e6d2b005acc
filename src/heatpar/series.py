"""Time-sampled two-variable kernels and their convolution algebra.

A sampled kernel is a plain array of values F(x, y; t_j) at the nodes of a
uniform time grid, shape (M+1, n, n).  The graph convolution

    (F1 * F2)(x, y; t) = ∫_0^t Σ_v F1(x, v; t−r) F2(v, y; r) dr

is evaluated at every node by one of two rules, with the vertex sum as a
matrix product: the trapezoidal rule (order 2, the default), which on
series vanishing at t = 0 is exactly associative, or Gregory's rule with
end weights (3/8, 7/6, 23/24) and a product-interpolation start (order 4;
Linz, Analytical and Numerical Methods for Volterra Equations, SIAM 1985).
Both are one FFT power-series product of the end-weighted series away
from the first nodes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ContractViolation, SamplingError


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_j = j·dt for j = 0..steps, with dt = t_max/steps."""

    t_max: float
    steps: int

    def __post_init__(self):
        if not 0 < self.t_max < math.inf:
            raise ContractViolation(f"t_max must be positive and finite, got {self.t_max}")
        if self.steps < 1:
            raise ContractViolation(f"steps must be >= 1, got {self.steps}")

    @property
    def dt(self) -> float:
        return self.t_max / self.steps

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.steps + 1)


@dataclass(frozen=True)
class ClosedFormKernel:
    """Analytically evaluable n×n kernel, sampled over a block of times.

    ``factors`` maps a 1-D array of T times to a (T, k) array: the few
    numbers per time that the kernel is built from, such as Bessel values
    or decay exponentials.  ``expand`` maps any block of those rows to the
    (T, n, n) kernel values, each time's from its own row alone.
    :func:`sample_closed_form`, the grid sampler, computes the factors once
    and expands them a block of times at a time.
    """

    family: str
    n: int
    factors: Callable[[np.ndarray], np.ndarray]
    expand: Callable[[np.ndarray], np.ndarray]

    def sample(self, times) -> np.ndarray:
        return self.expand(self.factors(np.asarray(times, dtype=float)))

    def at(self, t: float) -> np.ndarray:
        return self.sample(np.array([float(t)]))[0]


def next_fast_len(target: int) -> int:
    """Smallest 5-smooth length 2^a·3^b·5^c >= ``target``, which pocketfft
    transforms fastest."""
    odd = [3**i * 5**j for i in range(target.bit_length()) for j in range(target.bit_length())]
    return min(p << (-(-target // p) - 1).bit_length() for p in odd)


# entries in one block: a product never holds more of its spectrum at once
# than this, however many rows it has, and a loop over time nodes (sampling,
# the CLI's bounds and tables, kernel comparison) takes about this many
# values per block
_BLOCK_ENTRIES = 1 << 18


def time_blocks(count: int, per_time: int) -> list[slice]:
    """Consecutive slices covering ``count`` time nodes, each of about
    ``_BLOCK_ENTRIES`` values at ``per_time`` values per node, and at least
    one node."""
    step = max(1, _BLOCK_ENTRIES // max(1, per_time))
    return [slice(j, j + step) for j in range(0, count, step)]


# end weights γ of each order's rule; see :func:`convolution_rule`
_END_WEIGHTS = {2: (0.5,), 4: (3 / 8, 7 / 6, 23 / 24)}


def convolution_rule(order: int, steps: int) -> tuple[tuple[float, ...], np.ndarray]:
    """The convolution rule of ``order``, 2 (the trapezoid) or 4 (Gregory's),
    on a grid of ``steps`` steps: its end weights γ and its start weights.

    A series weighted by γ' = (γ, 1, 1, ...) times another so weighted is
    the rule at every node from 2·len(γ) − 1 on, where the two ends do not
    overlap.  The d = min(2·len(γ) − 2, steps) nodes after t = 0 before it
    take the :func:`start_weights` of degree d, shape (d, d + 1, d + 1);
    the trapezoid has none.
    """
    if order not in _END_WEIGHTS:
        raise ContractViolation(f"order must be 2 or 4, got {order!r}")
    head = _END_WEIGHTS[order]
    return head, start_weights(min(2 * len(head) - 2, steps))


@functools.cache
def start_weights(d: int) -> np.ndarray:
    """W[j − 1, a, b] = ∫₀ʲ ℓ_a(j − u) ℓ_b(u) du for j = 1..d, with ℓ the
    Lagrange basis of degree d on the nodes 0..d: the weight of a_a·b_b in
    the convolution at node j of the two degree-d interpolants.  Gauss–
    Legendre with d + 1 points integrates the degree-2d product exactly;
    its nodes and weights on [−1, 1] come from the eigenvectors of the
    Legendre recurrence's Jacobi matrix (Golub & Welsch, Math. Comp. 23,
    1969).  Each degree's array is computed once and read-only."""
    i = np.arange(1.0, d + 1)
    x, v = np.linalg.eigh(np.diag(i / np.sqrt(4.0 * i * i - 1.0), 1), UPLO="U")
    w = 2.0 * v[0] ** 2
    nodes = np.arange(d + 1)

    def basis(u):  # (len(u), d + 1) values ℓ_a(u)
        return np.stack(
            [np.prod([(u - k) / (a - k) for k in nodes if k != a], axis=0) for a in nodes],
            axis=1,
        )

    out = np.empty((d, d + 1, d + 1))
    for j in range(1, d + 1):
        u = 0.5 * j * (x + 1.0)
        out[j - 1] = basis(j - u).T @ (0.5 * j * w[:, None] * basis(u))
    out.flags.writeable = False
    return out


def end_weighted(x: np.ndarray, head: tuple[float, ...]) -> np.ndarray:
    """A copy of the series ``x`` with its first coefficients scaled by the
    end weights ``head``: γ′x, γ′ = (γ, 1, 1, ...), as the convolution rules
    weight each operand of their power-series product."""
    out = x.copy()
    k = min(len(head), len(x))
    out[:k] *= np.reshape(head[:k], (k,) + (1,) * (x.ndim - 1))
    return out


def _series_product(
    a: np.ndarray, b: np.ndarray, m: int, head: tuple[float, ...] = ()
) -> np.ndarray:
    """First ``m`` coefficients of the matrix power-series product a(z)·b(z),
    a batched matrix product over the FFT frequencies.

    ``b`` is transformed once; the rows of ``a`` go through the transform,
    the product and the inverse a block at a time, each block sized to
    about ``_BLOCK_ENTRIES`` spectrum entries, and only the first ``m``
    coefficients of each block are kept.  With ``head`` both series are
    :func:`end_weighted` by it before their transforms, ``b`` once and ``a``
    a block at a time, as the convolution rules weight them.
    """
    nfft = next_fast_len(a.shape[0] + b.shape[0] - 1)
    fb = np.fft.rfft(end_weighted(b, head), n=nfft, axis=0)
    out = np.empty((m, a.shape[1], b.shape[2]))
    rows = max(1, _BLOCK_ENTRIES // (fb.shape[0] * b.shape[2]))
    for i in range(0, a.shape[1], rows):
        fa = np.fft.rfft(end_weighted(a[:, i : i + rows], head), n=nfft, axis=0)
        out[:, i : i + rows] = np.fft.irfft(fa @ fb, n=nfft, axis=0)[:m]
    return out


def convolve_values(a: np.ndarray, b: np.ndarray, dt: float, order: int = 2) -> np.ndarray:
    """Time convolution of node-sampled matrix series by the rule of
    ``order``: 2, the trapezoid, or 4, Gregory's rule with a
    product-interpolation start.

    ``a`` has shape (M+1, p, q) and ``b`` shape (M+1, q, r); the result
    (M+1, p, r) approximates ∫₀^{t_j} a(t_j − s) b(s) ds with the vertex sum
    carried out exactly.  Entry j = 0 is zero.  Order 2 gives
    dt·(Σ_{s=0..j} a[j−s]b[s] − ½a[j]b[0] − ½a[0]b[j]) at every j >= 1.
    Order 4 puts the end weights γ = (3/8, 7/6, 23/24) at both ends at
    every j >= 5; at j = 1..min(4, M) it integrates the product of the two
    series' interpolants of degree min(4, M) on the first nodes exactly
    (:func:`start_weights`).  Wherever the end weights do not overlap the
    rule is dt times the power-series product of the two series with their
    first coefficients scaled by γ, evaluated through an FFT along the time
    axis; this reproduces the direct summation up to roundoff.
    """
    m1 = a.shape[0]
    if b.shape[0] != m1:
        raise ContractViolation("time axes differ")
    if a.shape[2] != b.shape[1]:
        raise ContractViolation(f"inner dimensions differ: {a.shape} vs {b.shape}")
    head, start = convolution_rule(order, m1 - 1)
    out = _series_product(a, b, m1, head)
    d, q = len(start), a.shape[2]
    if d:
        # [a_0 … a_d] times the stacked Σ_b W[j, a, b]·b_b, for each start node j
        mixed = np.einsum("jab,bqr->jaqr", start, b[: d + 1]).reshape(d, (d + 1) * q, -1)
        out[1 : d + 1] = a[: d + 1].transpose(1, 0, 2).reshape(-1, (d + 1) * q) @ mixed
    out *= dt
    out[0] = 0.0
    return out


def fold_bound(c: float, k: int, ell: int, n: int, t: float) -> float:
    """Upper bound (C·k!)^ℓ·n^{ℓ−1}·t^{ℓk+ℓ−1}/(ℓk+ℓ−1)! for the ℓ-fold
    convolution of a kernel bounded by C·t^k; the factor n tightens to the
    support size when the kernel is supported on a vertex subset."""
    if ell < 1 or k < 0 or n < 1 or c < 0:
        raise ContractViolation("bound arguments out of range")
    if c == 0.0:
        return 0.0
    if t == 0.0:
        return c if ell == 1 and k == 0 else 0.0
    p = ell * k + ell - 1
    log_b = (
        ell * (math.log(c) + math.lgamma(k + 1))
        + (ell - 1) * math.log(n)
        + p * math.log(t)
        - math.lgamma(p + 1)
    )
    return math.exp(log_b) if log_b < 700.0 else math.inf


def sample_closed_form(
    kernel: ClosedFormKernel, grid: TimeGrid, *parts
) -> np.ndarray | tuple[np.ndarray, ...]:
    """Sample a closed-form kernel at every grid node: its factors at once,
    then their expansion one of :func:`time_blocks` at a time, each block
    checked finite; the (M+1, n, n) result is allocated once and filled
    block by block.

    With ``parts``, functions that each map a block of samples (T, n, n) to
    a (T, ...) array, the result is instead a tuple with one array per part,
    its outputs over all nodes (a 1-tuple for one part), and the samples
    are never held whole.
    """
    times = grid.nodes
    factors = kernel.factors(times)
    # the outputs are allocated before the first block, so on the heap they
    # sit below the block temporaries, not between them and later stages
    probe = np.asarray(kernel.expand(factors[:1]), dtype=float)
    shapes = [f(probe).shape[1:] for f in parts] if parts else [probe.shape[1:]]
    outs = [np.empty((len(times),) + shape) for shape in shapes]
    for s in time_blocks(len(times), kernel.n**2):
        vals = np.asarray(kernel.expand(factors[s]), dtype=float)
        if not np.isfinite(vals).all():
            j, x, y = np.argwhere(~np.isfinite(vals))[0]
            raise SamplingError(
                f"{kernel.family} kernel returned a non-finite value at "
                f"(x={x}, y={y}, t={times[s.start + j]})"
            )
        blocks = [f(vals) for f in parts] if parts else [vals]
        for out, b in zip(outs, blocks):
            out[s] = b
    return tuple(outs) if parts else outs[0]
