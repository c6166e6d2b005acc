"""Integer-order modified Bessel functions I_n and the lattice heat kernels
built from them.

Single values use the defining power series when the argument is small
relative to the order (x <= 2(n+1)) and a Miller-style backward recurrence
normalized by Σ I_n = e^x otherwise; forward recurrence in growing order is
unstable and is never used.  Whole rows I_0..I_N come from the recurrence,
run over an array of arguments at once.  Arguments are certified on
0 <= x <= 40.

Two convolutions appear in this package: the one-variable time convolution
(I_m * I_n)(x) = ∫_0^x I_m(τ) I_n(x−τ) dτ implemented here, and the graph
convolution of :mod:`heatpar.series`.  They are distinct operations.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractViolation, DomainError
from .series import ClosedFormKernel, convolve_values

_RESCALE = 1e250


_X_MAX = 40.0  # arguments are certified on 0 <= x <= _X_MAX


def _check(n: int, x):
    if n < 0 or int(n) != n:
        raise DomainError(f"order must be a nonnegative integer, got {n}")
    xs = np.asarray(x, dtype=float)
    outside = xs[(xs < 0) | (xs > _X_MAX)]
    if outside.size:
        raise DomainError(f"argument {outside[0]} outside certified range [0, {_X_MAX}]")


def _power_series_grid(n: int, xs: np.ndarray) -> np.ndarray:
    out = np.zeros_like(xs)
    pos = xs > 0
    x = xs[pos]
    if x.size:
        term = np.exp(n * np.log(x / 2.0) - math.lgamma(n + 1))
        total = term.copy()
        q = x * x / 4.0
        for k in range(1000):
            term *= q / ((k + 1.0) * (n + k + 1.0))
            total += term
            if np.all(term <= 1e-18 * total):
                break
        else:
            raise DomainError("vectorized power series did not converge")
        out[pos] = total
    if n == 0:
        out[~pos] = 1.0
    return out


def _miller_rows(n_max: int, xs: np.ndarray) -> np.ndarray:
    # one recurrence per argument, each from its own start order; a column
    # keeps its seed values until the shared countdown reaches its start
    rows = np.zeros((xs.size, n_max + 1))
    rows[xs == 0.0, 0] = 1.0
    pos = xs > 0.0
    x = xs[pos]
    if not x.size:
        return rows
    start = np.maximum(n_max, np.ceil(x)).astype(int) + 60
    out = np.zeros((x.size, n_max + 1))
    b_hi = np.zeros(x.size)
    b = np.full(x.size, 1e-300)
    norm = np.zeros(x.size)
    for k in range(int(start.max()), 0, -1):
        on = start >= k
        b_lo = b_hi + (2.0 * k / x) * b
        b_hi = np.where(on, b, b_hi)
        b = np.where(on, b_lo, b)
        if k - 1 <= n_max:
            out[:, k - 1] = b
        norm += np.where(on, 2.0 * b if k - 1 > 0 else b, 0.0)
        big = np.abs(b) > _RESCALE
        if big.any():
            b_hi[big] /= _RESCALE
            b[big] /= _RESCALE
            norm[big] /= _RESCALE
            out[big] /= _RESCALE
    rows[pos] = out * (np.exp(x) / norm)[:, None]
    return rows


def besseli(n: int, x: float) -> float:
    """I_n(x), n >= 0, 0 <= x <= 40: power series for x <= 2(n+1), Miller
    recurrence beyond."""
    _check(n, x)
    if x <= 2.0 * (n + 1):
        return float(_power_series_grid(int(n), np.array([float(x)]))[0])
    return float(besseli_row(n, x)[n])


def besseli_row(n_max: int, x) -> np.ndarray:
    """I_0 .. I_{n_max} at ``x``, a number or an array: one backward
    recurrence pass for all arguments, with the orders on a new last axis."""
    _check(n_max, x)
    xs = np.asarray(x, dtype=float)
    return _miller_rows(int(n_max), xs.ravel()).reshape(xs.shape + (int(n_max) + 1,))


def besseli_grid(n: int, xs) -> np.ndarray:
    """I_n over an array of arguments, by the power series."""
    _check(n, xs)
    return _power_series_grid(int(n), np.asarray(xs, dtype=float))


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


def bessel_time_convolve(m: int, n: int, x: float, quad_steps: int) -> float:
    """Trapezoidal evaluation of (I_m * I_n)(x) = ∫_0^x I_m(τ) I_n(x−τ) dτ."""
    if quad_steps < 2:
        raise ContractViolation("quad_steps must be >= 2")
    if x == 0.0:
        return 0.0
    taus = np.linspace(0.0, x, quad_steps + 1)
    prod = besseli_grid(m, taus) * besseli_grid(n, taus)[::-1]
    return float((prod.sum() - 0.5 * (prod[0] + prod[-1])) * (x / quad_steps))


def watson_series(m: int, n: int, x: float, terms: int) -> tuple[float, float]:
    """Partial sum 2 Σ_{k<terms} I_{m+n+2k+1}(x) and a certified bound on the
    dropped tail.  The full sum equals (I_m * I_n)(x)."""
    if terms < 1:
        raise ContractViolation("terms must be >= 1")
    top = m + n + 2 * (terms - 1) + 1
    row = besseli_row(top, x) if x > 0 else None
    if row is None:
        return 0.0, 0.0
    total = 2.0 * sum(row[m + n + 2 * k + 1] for k in range(terms))
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
    if t == 0.0:
        return 0.0
    dx = t / quad_steps
    taus = np.linspace(0.0, t, quad_steps + 1)
    f1, fx, fy = (besseli_grid(k, taus)[:, None, None] for k in (1, x - 1, y))
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
