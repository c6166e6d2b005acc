"""Time-sampled two-variable kernels and their convolution algebra.

A sampled kernel is a plain array of values F(x, y; t_j) at the nodes of a
uniform time grid, shape (M+1, n, n).  The graph convolution

    (F1 * F2)(x, y; t) = ∫_0^t Σ_v F1(x, v; t−r) F2(v, y; r) dr

is evaluated with the trapezoidal rule at every node; the vertex sum is a
matrix product.  On series vanishing at t = 0 the discrete operation is
exactly associative, and it is second-order accurate for smooth integrands.
"""

from __future__ import annotations

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


def _series_product(a: np.ndarray, b: np.ndarray, m: int, halved: bool = False) -> np.ndarray:
    """First ``m`` coefficients of the matrix power-series product a(z)·b(z),
    a batched matrix product over the FFT frequencies.

    ``b`` is transformed once; the rows of ``a`` go through the transform,
    the product and the inverse a block at a time, each block sized to
    about ``_BLOCK_ENTRIES`` spectrum entries, and only the first ``m``
    coefficients of each block are kept.  With ``halved`` both constant
    terms count half; a constant term adds itself to every frequency, so
    halving it is a shift of the spectrum.
    """
    nfft = next_fast_len(a.shape[0] + b.shape[0] - 1)
    fb = np.fft.rfft(b, n=nfft, axis=0)
    if halved:
        fb -= 0.5 * b[0]
    out = np.empty((m, a.shape[1], b.shape[2]))
    rows = max(1, _BLOCK_ENTRIES // (fb.shape[0] * b.shape[2]))
    for i in range(0, a.shape[1], rows):
        blk = a[:, i : i + rows]
        fa = np.fft.rfft(blk, n=nfft, axis=0)
        if halved:
            fa -= 0.5 * blk[0]
        out[:, i : i + rows] = np.fft.irfft(fa @ fb, n=nfft, axis=0)[:m]
    return out


def convolve_values(a: np.ndarray, b: np.ndarray, dt: float) -> np.ndarray:
    """Trapezoid time convolution of node-sampled matrix series.

    ``a`` has shape (M+1, p, q) and ``b`` shape (M+1, q, r); the result
    (M+1, p, r) holds dt·(Σ_{s=0..j} a[j−s]b[s] − ½a[j]b[0] − ½a[0]b[j]),
    which is the trapezoidal rule for the time integral with the vertex sum
    carried out exactly.  Entry j = 0 is zero.  For j >= 1 that sum is the
    power-series product of a and b with halved constant terms, evaluated
    through an FFT along the time axis; this reproduces the direct
    summation up to roundoff.
    """
    m1 = a.shape[0]
    if b.shape[0] != m1:
        raise ContractViolation("time axes differ")
    if a.shape[2] != b.shape[1]:
        raise ContractViolation(f"inner dimensions differ: {a.shape} vs {b.shape}")
    out = _series_product(a, b, m1, halved=True)
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
