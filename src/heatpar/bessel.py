"""Integer-order modified Bessel functions I_n and the lattice heat kernels
built from them.

I_n has one evaluator, ``_miller_rows``: a Miller-style backward recurrence
in the order, normalized by Σ I_n = e^x and run over an array of arguments
at once, passes every order below its start and keeps the orders a caller
asks for (``besseli_row``: the row I_0..I_N); forward recurrence in growing
order is unstable and is never used.  Below x = 1e-8 a column is its
leading term (x/2)^k/k!, I_k to double precision there, and the recurrence,
whose ratios 2k/x overflow for the smallest arguments, is not run.
Arguments are certified on 0 <= x <= 40.

Two convolutions appear in this package: the one-variable time convolution
(I_m * I_n)(x) = ∫_0^x I_m(τ) I_n(x−τ) dτ implemented here, and the graph
convolution of :mod:`heatpar.series`.  They are distinct operations.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractViolation, DomainError
from .series import ClosedFormKernel, convolve_values, time_blocks

_RESCALE = 1e250


_X_MAX = 40.0  # arguments are certified on 0 <= x <= _X_MAX

# below this argument a row is its leading term (x/2)^k/k!: the next term is
# at most x²/4 = 2.5e-17 of it
_TINY = 1e-8


def _check(n: int, x):
    if n < 0 or int(n) != n:
        raise DomainError(f"order must be a nonnegative integer, got {n}")
    xs = np.asarray(x, dtype=float)
    outside = xs[~((xs >= 0) & (xs <= _X_MAX))]  # NaN fails both tests
    if outside.size:
        raise DomainError(f"argument {outside[0]} outside certified range [0, {_X_MAX}]")


def _miller_rows(orders, xs: np.ndarray) -> np.ndarray:
    """I_k(xs), one column per entry k of ``orders`` (repeats and any order
    allowed), each bitwise that column of the full row I_0..I_max(orders)."""
    cols = {}
    for c, k in enumerate(orders):
        cols.setdefault(int(k), []).append(c)
    n_max = max(cols)
    rows = np.zeros((xs.size, len(orders)))
    # below _TINY the leading term, as a running product
    tiny = xs < _TINY
    half, lead = xs[tiny] / 2.0, np.ones(np.count_nonzero(tiny))
    leads = np.empty((half.size, len(orders)))
    for k in range(n_max + 1 if half.size else 0):
        for c in cols.get(k, ()):
            leads[:, c] = lead
        lead = lead * half / (k + 1)
    rows[tiny] = leads
    x = xs[~tiny]
    # one recurrence per argument, each from its own start order: a column
    # stays zero until the shared countdown reaches its start, where it
    # takes its seed; the countdown passes every order below the start, and
    # the requested ones are kept
    start = np.maximum(n_max, np.ceil(x)).astype(int) + 60
    out = np.zeros((x.size, len(orders)))
    b_hi = np.zeros(x.size)
    b = np.zeros(x.size)
    norm = np.zeros(x.size)
    for k in range(int(start.max(initial=0)), 0, -1):
        b[start == k] = 1e-300
        b_hi, b = b, b_hi + (2.0 * k / x) * b
        for c in cols.get(k - 1, ()):
            out[:, c] = b
        norm += 2.0 * b if k - 1 > 0 else b
        big = np.abs(b) > _RESCALE
        if big.any():
            b_hi[big] /= _RESCALE
            b[big] /= _RESCALE
            norm[big] /= _RESCALE
            out[big] /= _RESCALE
    rows[~tiny] = out * (np.exp(x) / norm)[:, None]
    return rows


def besseli(n: int, x: float) -> float:
    """I_n(x), n >= 0, 0 <= x <= 40, from the recurrence asked for order n
    alone: bitwise entry n of ``besseli_row(n, x)``."""
    _check(n, x)
    return float(_miller_rows([n], np.array([x], dtype=float))[0, 0])


def besseli_row(n_max: int, x) -> np.ndarray:
    """I_0 .. I_{n_max} at ``x``, a number or an array: one backward
    recurrence pass for all arguments, with the orders on a new last axis."""
    _check(n_max, x)
    xs = np.asarray(x, dtype=float)
    return _miller_rows(range(int(n_max) + 1), xs.ravel()).reshape(xs.shape + (int(n_max) + 1,))


def bessel_tail_bound(n: int, x: float) -> float:
    """Proven upper bound (x/2)^n e^x / n! for I_n(x).

    Used to certify that vertices beyond a finite window of an infinite
    lattice contribute negligibly to kernel values and mass sums.
    """
    if n < 0:
        raise DomainError("order must be nonnegative")
    if x < 0:
        raise DomainError("argument must be nonnegative")
    if x == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(n * math.log(x / 2.0) + x - math.lgamma(n + 1))


# ---------------------------------------------------------------------------
# closed-form lattice kernels


def _lattice_kernel(family: str, coords, reflect: int | None = None, sign: float = 1.0):
    """Kernel e^{−2t}(I_{|x−y|}(2t) + sign·I_{x+y+reflect}(2t)) between the
    lattice coordinates ``coords``, the reflected term left out when
    ``reflect`` is None.  The factors of a time are one recurrence row
    I_0..I_top(2t) and then e^{−2t}."""
    c = np.asarray(coords, dtype=int)
    dist = np.abs(c[:, None] - c[None, :])
    refl = None
    if reflect is not None:
        if np.any(c < 0):
            raise DomainError("half-line vertices must be nonnegative")
        refl = c[:, None] + c[None, :] + reflect
    top = int((dist if refl is None else refl).max())

    def factors(times: np.ndarray) -> np.ndarray:
        x = 2.0 * times
        return np.column_stack([besseli_row(top, x), np.exp(-x)])

    def expand(f: np.ndarray) -> np.ndarray:
        vals = f[:, dist]
        if refl is not None:
            vals += (sign * f)[:, refl]
        vals *= f[:, -1, None, None]
        return vals

    return ClosedFormKernel(family, c.size, factors, expand)


def z_window_kernel(offsets) -> ClosedFormKernel:
    """Closed-form integer-line kernel on a window of lattice coordinates:
    ``offsets[i]`` is the lattice coordinate of window vertex i, and entries
    are e^{−2t} I_{|offsets[i]−offsets[j]|}(2t)."""
    return _lattice_kernel("integer-line", offsets)


def halfline_window_kernel(coords) -> ClosedFormKernel:
    """Closed-form half-line kernel on a window of lattice coordinates
    ``coords`` >= 0: e^{−2t}(I_{|x−y|}(2t) + I_{x+y+1}(2t))."""
    return _lattice_kernel("half-line", coords, 1)


def halfline_dirichlet_closed_form(coords) -> ClosedFormKernel:
    """Closed-form Dirichlet half-line kernel on a window of lattice
    coordinates ``coords`` >= 0, boundary vertex at 0:
    e^{−2t}(I_{|x−y|}(2t) − I_{x+y}(2t)), identically zero when x or y is 0."""
    return _lattice_kernel("half-line-dirichlet", coords, 0, -1.0)


# ---------------------------------------------------------------------------
# one-variable convolutions and the identities they certify


def _orders_on_grid(orders: list[int], end: float, steps: int) -> np.ndarray:
    """I_k at the steps + 1 trapezoid nodes of [0, end], one column per order
    k in ``orders``, a block of nodes at a time, so memory stays bounded in
    both the node count and the orders."""
    _check(min(orders), end)
    taus = np.linspace(0.0, end, steps + 1)
    # a node holds its kept columns and about 8 working values of the pass
    blocks = time_blocks(taus.size, len(orders) + 8)
    return np.concatenate([_miller_rows(orders, taus[s]) for s in blocks])


def bessel_time_convolve(m: int, n: int, x: float, quad_steps: int) -> float:
    """Trapezoidal evaluation of (I_m * I_n)(x) = ∫_0^x I_m(τ) I_n(x−τ) dτ."""
    if quad_steps < 2:
        raise ContractViolation("quad_steps must be >= 2")
    f = _orders_on_grid([m, n], x, quad_steps)
    prod = f[:, 0] * f[::-1, 1]
    return float((prod.sum() - 0.5 * (prod[0] + prod[-1])) * (x / quad_steps))


def watson_series(m: int, n: int, x: float, terms: int) -> tuple[float, float]:
    """Partial sum 2 Σ_{k<terms} I_{m+n+2k+1}(x) and a certified bound on the
    dropped tail.  The full sum equals (I_m * I_n)(x)."""
    if terms < 1:
        raise ContractViolation("terms must be >= 1")
    _check(min(m, n), x)
    odd = range(m + n + 1, m + n + 2 * terms, 2)  # m+n+2k+1 for k < terms
    total = 2.0 * sum(_miller_rows(odd, np.array([float(x)]))[0])
    # tail: 2 Σ_{k>=terms} bound(m+n+2k+1); consecutive bounds shrink by
    # (x/2)^2 / ((p+1)(p+2)) <= q < 1 once p exceeds x, giving a geometric cap
    p = m + n + 2 * terms + 1
    first = 2.0 * bessel_tail_bound(p, x)
    q = (x / 2.0) ** 2 / ((p + 1.0) * (p + 2.0))
    if q >= 1.0:
        raise ContractViolation("too few terms to certify the tail at this argument")
    return total, first / (1.0 - q)


def intro_identity_sum(
    x: int, y: int, t: float, order_cap: int, quad_steps: int
) -> float:
    """Truncated right-hand side of the alternating convolution identity

        I_{x+y}(t) = Σ_{ℓ=0}^{∞} (−1)^ℓ / 2^{ℓ+1} · (I_1^{*ℓ} * I_{x−1} * I_y)(t),

    summed through ℓ = order_cap, with each convolution evaluated on a
    trapezoid grid of quad_steps panels.  The 0-fold convolution acts as
    the identity operator.
    """
    if x < 1 or y < 0:
        raise DomainError("identity requires x >= 1 and y >= 0")
    if order_cap < 0 or quad_steps < 2:
        raise ContractViolation("order_cap must be >= 0 and quad_steps >= 2")
    dx = t / quad_steps
    f1, fx, fy = (f[:, None, None] for f in _orders_on_grid([1, x - 1, y], t, quad_steps).T)
    g = convolve_values(fx, fy, dx)
    total = 0.0
    sign = 1.0
    scale = 0.5
    for _ in range(order_cap + 1):
        total += sign * scale * g[-1, 0, 0]
        g = convolve_values(f1, g, dx)
        sign = -sign
        scale *= 0.5
    return total
