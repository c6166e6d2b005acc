"""Independent ground truth: spectral heat kernels via a Jacobi eigensolver
swept in round-robin order, a Taylor scaling-and-squaring matrix
exponential, and kernel comparison reports.

The two kernel routes here share no machinery, so their mutual agreement
(checked in the test suite to 1e−10) certifies both; the rest of the
package is validated against them.  A LAPACK basis only starts the Jacobi
sweeps, whose own convergence test decides the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractViolation, NumericalBudgetError
from .graph import WeightedGraph, connected_components
from .series import ClosedFormKernel, time_blocks


def _round_robin(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Rounds of disjoint pairs (p, q) in which every pair of 0..n−1 meets
    once.  Seat 0 keeps index size−1, the other indices move one seat per
    round, and seat i faces seat size−1−i; for odd n that fixed index is a
    dummy, so the pair at seat 0 is left out."""
    size = n + n % 2
    rounds = [np.r_[size - 1, np.roll(np.arange(size - 1), r)] for r in range(size - 1)]
    return [(s[n % 2 : size // 2], s[::-1][n % 2 : size // 2]) for s in rounds]


def _start_basis(a: np.ndarray) -> np.ndarray:
    """LAPACK's eigenvectors of ``a`` if orthogonal to 1e−12, else the identity."""
    eye = np.eye(len(a))
    try:
        v0 = np.linalg.eigh(a)[1]
    except np.linalg.LinAlgError:
        return eye
    return v0 if np.abs(v0.T @ v0 - eye).max(initial=0.0) <= 1e-12 else eye


def jacobi_eigh(a: np.ndarray, tol: float = 1e-15, max_sweeps: int = 60):
    """Eigendecomposition of a finite symmetric matrix by Jacobi rotations
    in round-robin order.

    Each sweep visits every off-diagonal pair once, in rounds of disjoint
    pairs whose rotations commute and are applied together (Brent & Luk,
    SIAM J. Sci. Stat. Comput. 6, 1985) to V₀ᵀAV₀, V₀ from ``_start_basis``
    (Drmač & Veselić, SIAM J. Matrix Anal. Appl. 29, 2008); from LAPACK's
    basis one sweep suffices.  Sweeps run until the off-diagonal Frobenius
    norm drops below tol·max(1, ||A||_F), both norms taken in units of the
    largest |a_ij| so they cannot overflow.  Returns (eigenvalues
    ascending, eigenvectors as columns).
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or not np.array_equal(a, a.T):
        raise ContractViolation("jacobi_eigh requires an exactly symmetric matrix")
    if not np.isfinite(a).all():
        raise ContractViolation("jacobi_eigh requires a finite matrix")
    v0 = _start_basis(a)
    m0 = v0.T @ a @ v0
    # the matrix on top of its eigenvector columns, so one column update
    # rotates both
    mv = np.vstack([0.5 * (m0 + m0.T), v0])
    m, v = mv[:n], mv[n:]
    unit = float(np.abs(a).max(initial=0.0)) or 1.0
    scale = max(1.0 / unit, float(np.linalg.norm(a / unit)))
    prev_off = math.inf
    diag_mask = ~np.eye(n, dtype=bool)
    rounds = _round_robin(n)
    for _ in range(max_sweeps):
        off = float(np.linalg.norm(m[diag_mask] / unit))
        if off <= tol * scale:
            break
        if off >= 0.5 * prev_off and off <= 1e-12 * scale:
            break  # stalled at the roundoff plateau, which is good enough
        prev_off = off
        for p, q in rounds:
            apq, app, aqq = m[p, q], m[p, p], m[q, q]
            h = aqq - app
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                theta = h / (2.0 * apq)
                # smaller-magnitude root of t^2 + 2 t theta − 1 = 0, or its
                # small-angle limit
                t = np.copysign(1.0, theta) / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
                t = np.where(np.abs(h) > 1e12 * np.abs(apq), apq / h, t)
            # an entry negligible against the diagonal gets the identity
            # rotation: annihilating it would only add roundoff elsewhere
            tiny = np.abs(apq) <= 1e-300
            tiny |= 100.0 * np.abs(apq) <= 1e-16 * (np.abs(app) + np.abs(aqq))
            t[tiny] = 0.0
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            rp, rq, cs, ss = m[p, :], m[q, :], c[:, None], s[:, None]
            m[p, :], m[q, :] = cs * rp - ss * rq, ss * rp + cs * rq
            cp, cq = mv[:, p], mv[:, q]
            mv[:, p], mv[:, q] = c * cp - s * cq, s * cp + c * cq
            m[p, q] = m[q, p] = 0.0
    else:
        raise ContractViolation("jacobi_eigh failed to converge")
    lam = np.diag(m).copy()
    order = np.argsort(lam)
    return lam[order], v[:, order]


def spectral_decomposition(g: WeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of the graph
    Laplacian, by Jacobi rotations."""
    return jacobi_eigh(g.laplacian_matrix())


def spectral_kernel(g: WeightedGraph) -> ClosedFormKernel:
    """Heat kernel Σ_j e^{−λ_j t} ψ_j ψ_jᵀ from the Laplacian eigensystem.

    The c smallest eigenvalues, c the number of connected components, are
    set to exactly 0, so the kernel tends to the projection onto the
    locally constant vectors at large t, however the eigensolver rounds
    them.  Each time's matrix is its own product, so its values do not
    depend on the other times sampled with it."""
    lam, v = spectral_decomposition(g)
    lam[: len(connected_components(g))] = 0.0
    return ClosedFormKernel(
        "spectral",
        g.n,
        lambda times: np.exp(-np.outer(times, lam)),
        lambda w: (v * w[:, None, :]) @ v.T,
    )


def _expm_taylor(a: np.ndarray, terms: int = 25) -> np.ndarray:
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, terms + 1):
        term = term @ a / k
        out = out + term
    return out


def expm_heat_kernel(g: WeightedGraph, t: float) -> np.ndarray:
    """Heat kernel exp(−tΔ) by scaling and squaring around a 25-term Taylor
    core, scaled so the halved matrix has sup-norm at most 0.5.

    At that norm the dropped Taylor tail is below 0.5^26/26! ≈ 4e−35, so
    the result is limited by roundoff, not truncation.  After each squaring
    the entries between connected components are set to zero, the row and
    column sums of each component back to one, and the result is
    symmetrized, so that roundoff does not grow with t.  A t·‖Δ‖ whose
    scaling 2^s is not a finite float, or squarings that overflow, are
    refused.
    """
    if t < 0:
        raise ContractViolation("time must be nonnegative")
    with np.errstate(over="ignore"):
        a = -t * g.laplacian_matrix()
        norm = float(np.abs(a).sum(axis=1).max())
    if not norm <= 2.0**1022:  # else 2.0**s below overflows
        raise NumericalBudgetError(
            f"t*|Laplacian| = {norm:.3e} at t={t:.6g} overflows the expm scaling"
        )
    s = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0
    core = _expm_taylor(a / 2.0**s)
    parts = [np.ix_(idx, idx) for idx in connected_components(g)]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            squared = core @ core
            # exp(−tΔ) is symmetric, vanishes between connected components
            # and has unit row sums on each; restoring all three keeps the
            # squarings from raising the core's roundoff to the power 2^s
            core = np.zeros_like(squared)
            for block in parts:
                c = squared[block]
                r = c.sum(axis=1) - 1.0
                c -= (r[:, None] + r[None, :]) / len(r) - r.sum() / len(r) ** 2
                core[block] = 0.5 * (c + c.T)
    if not np.isfinite(core).all():
        raise NumericalBudgetError(f"expm at t={t:.6g} overflows in {s} squarings")
    return core


@dataclass(frozen=True)
class OracleReport:
    """Sup-norm comparison of two kernel families over common time nodes."""

    times: np.ndarray
    per_time_error: np.ndarray
    sup_error: float
    argmax_time: float
    budget: float | None = None
    first_over_budget: float | None = None

    @property
    def within_budget(self) -> bool:
        return self.budget is None or self.sup_error <= self.budget

    def to_dict(self) -> dict:
        return {
            "sup_error": self.sup_error,
            "argmax_time": self.argmax_time,
            "budget": self.budget,
            "within_budget": self.within_budget,
            "first_over_budget": self.first_over_budget,
            "times": [float(t) for t in self.times],
            "per_time_error": [float(e) for e in self.per_time_error],
        }


def compare_kernels(a, b, times: Sequence[float], budget: float | None = None) -> OracleReport:
    """Compare two kernels stacked as (T, n, n) arrays over ``times``; a
    budget must be a nonnegative number."""
    if budget is not None and not budget >= 0:
        raise ContractViolation(f"budget must be nonnegative, got {budget}")
    va, vb = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    times = np.asarray(times, dtype=float)
    if va.shape != vb.shape:
        raise ContractViolation(f"kernel shapes differ: {va.shape} vs {vb.shape}")
    if len(times) != va.shape[0]:
        raise ContractViolation("time axis does not match the kernel stacks")
    # per-time maxima a block of times at a time, so the difference is never
    # held whole
    per_time = np.empty(va.shape[0])
    for s in time_blocks(len(per_time), math.prod(va.shape[1:])):
        d = va[s] - vb[s]
        np.abs(d, out=d)
        per_time[s] = d.reshape(len(d), -1).max(axis=1)
    sup = float(per_time.max()) if per_time.size else 0.0
    argmax = float(times[int(per_time.argmax())]) if per_time.size else 0.0
    first_over = None
    if budget is not None:
        over = np.nonzero(per_time > budget)[0]
        if over.size:
            first_over = float(times[int(over[0])])
    return OracleReport(
        times=times,
        per_time_error=per_time,
        sup_error=sup,
        argmax_time=argmax,
        budget=budget,
        first_over_budget=first_over,
    )
