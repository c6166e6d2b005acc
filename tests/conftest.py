import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.fft import irfft, next_fast_len, rfft

from heatpar.bessel import besseli, intro_identity_sum
from heatpar.embed1d import _mode_overlaps
from heatpar.errors import ContractViolation, DomainError
from heatpar.graph import SubgraphEmbedding, WeightedGraph
from heatpar.parametrix import Parametrix
from heatpar.series import fold_bound
from heatpar.series import next_fast_len as smooth_fft_len


def besseli_oracle(n: int, x: float) -> float:
    """Independent reference for I_n(x): defining power series with a
    geometric remainder cap.

    All terms are positive, so there is no cancellation; summation stops
    once the geometric tail of the remaining terms is below 1e-17 of the
    running sum.
    """
    if x == 0.0:
        return 1.0 if n == 0 else 0.0
    term = math.exp(n * math.log(x / 2.0) - math.lgamma(n + 1))
    total = term
    q = x * x / 4.0
    for k in range(2000):
        term *= q / ((k + 1.0) * (n + k + 1.0))
        total += term
        ratio = q / ((k + 2.0) * (n + k + 2.0))
        if ratio < 1.0 and term * ratio / (1.0 - ratio) < 1e-17 * total:
            return total
    raise RuntimeError("oracle did not converge")


def verify_intro_identity(
    x: int, y: int, t: float, order_cap: int, quad_steps: int
) -> float:
    """Absolute residual |I_{x+y}(t) − truncated alternating sum|."""
    if t == 0.0:
        if x < 1 or y < 0:
            raise DomainError("identity requires x >= 1 and y >= 0")
        return 0.0
    return abs(besseli(x + y, t) - intro_identity_sum(x, y, t, order_cap, quad_steps))


def convolution_bound(c1: float, k: int, c2: float, ell: int, n: int, t: float) -> float:
    """Upper bound C1·C2·n·k!ℓ!/(k+ℓ+1)!·t^{k+ℓ+1} for a single convolution
    of kernels bounded by C1·t^k and C2·t^ℓ on an n-vertex graph."""
    if c1 < 0 or c2 < 0 or k < 0 or ell < 0 or n < 1:
        raise ContractViolation("bound arguments out of range")
    if c1 == 0.0 or c2 == 0.0:
        return 0.0
    log_coef = math.lgamma(k + 1) + math.lgamma(ell + 1) - math.lgamma(k + ell + 2)
    return c1 * c2 * n * math.exp(log_coef) * t ** (k + ell + 1)


def traced_peak(fn, *args):
    """Peak bytes that tracemalloc, which sees numpy buffers, records while
    ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_graph(rng: np.random.Generator, n_max: int = 10, w_max: float = 2.0,
                 p_range=(0.2, 0.7)) -> WeightedGraph:
    """Erdős–Rényi-style weighted graph with weights in [0, w_max]."""
    n = int(rng.integers(2, n_max + 1))
    w = rng.uniform(0.0, w_max, size=(n, n))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    p_edge = rng.uniform(*p_range)
    mask = np.triu(rng.uniform(size=(n, n)) < p_edge, 1)
    return WeightedGraph(w * (mask + mask.T))


def random_embedding(seed: int) -> SubgraphEmbedding:
    """A random ambient graph, a random kept set and random kept-kept edges
    removed, so ∂G mixes both ways of losing an edge."""
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n_max=14, p_range=(0.3, 0.6))
    kept = [v for v in range(g.n) if rng.uniform() < 0.8] or [0]
    inside = [
        frozenset((u, v))
        for u in kept
        for v in kept
        if u < v and g.weights[u, v] > 0 and rng.uniform() < 0.3
    ]
    return SubgraphEmbedding(ambient=g, kept=tuple(kept), removed_edges=frozenset(inside))


def lattice_hole_document(seed: int, side: int = 9, hole=(3, 4)) -> dict:
    """Graph document of a side×side lattice with seeded weights in
    [0.5, 1.5] as the ambient graph and the ``hole``×``hole`` block of
    vertices left out of the kept set."""
    rng = np.random.default_rng(seed)
    cells = [(r, c) for r in range(side) for c in range(side)]
    edges = [
        [f"{r}_{c}", f"{r2}_{c2}", float(rng.uniform(0.5, 1.5))]
        for r, c in cells
        for r2, c2 in ((r, c + 1), (r + 1, c))
        if r2 < side and c2 < side
    ]
    missing = {(r, c) for r in hole for c in hole}
    return {
        "vertices": [f"{r}_{c}" for r, c in cells if (r, c) not in missing],
        "ambient": {"vertices": [f"{r}_{c}" for r, c in sorted(missing)], "edges": edges},
    }


def sequential_jacobi_eigh(a: np.ndarray, tol: float = 1e-15, max_sweeps: int = 60):
    """Reference for ``jacobi_eigh``: the same rotations, skip rules and
    stopping tests, applied one pair at a time in cyclic row order.

    Sweeps run until the off-diagonal Frobenius norm drops below
    tol·max(1, ||A||_F); convergence is quadratic once rotations are small.
    Returns (eigenvalues ascending, eigenvectors as columns).
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or not np.array_equal(a, a.T):
        raise ContractViolation("sequential_jacobi_eigh requires an exactly symmetric matrix")
    m = a.copy()
    v = np.eye(n)
    scale = max(1.0, float(np.linalg.norm(m)))
    prev_off = math.inf
    diag_mask = ~np.eye(n, dtype=bool)
    for _ in range(max_sweeps):
        off = float(np.linalg.norm(m[diag_mask]))
        if off <= tol * scale:
            break
        if off >= 0.5 * prev_off and off <= 1e-12 * scale:
            break  # stalled at the roundoff plateau, which is good enough
        prev_off = off
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = m[p, q]
                if apq == 0.0:
                    continue
                if abs(apq) <= 1e-300 or 100.0 * abs(apq) <= 1e-16 * (
                    abs(m[p, p]) + abs(m[q, q])
                ):
                    # negligible against the diagonal: annihilating it would
                    # only add roundoff elsewhere
                    m[p, q] = m[q, p] = 0.0
                    continue
                h = m[q, q] - m[p, p]
                if abs(h) > 1e12 * abs(apq):
                    t = apq / h  # small-angle limit of the stable root
                else:
                    theta = h / (2.0 * apq)
                    # smaller-magnitude root of t^2 + 2 t theta − 1 = 0
                    t = math.copysign(1.0, theta) / (
                        abs(theta) + math.sqrt(theta * theta + 1.0)
                    )
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rp, rq = m[p, :].copy(), m[q, :].copy()
                m[p, :] = c * rp - s * rq
                m[q, :] = s * rp + c * rq
                cp, cq = m[:, p].copy(), m[:, q].copy()
                m[:, p] = c * cp - s * cq
                m[:, q] = s * cp + c * cq
                m[p, q] = m[q, p] = 0.0
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    else:
        raise ContractViolation("sequential_jacobi_eigh failed to converge")
    lam = np.diag(m).copy()
    order = np.argsort(lam)
    return lam[order], v[:, order]


def reference_series_product(a: np.ndarray, b: np.ndarray, m: int, head=()):
    """Reference for ``series._series_product``: both series with their first
    coefficients scaled by ``head``, then the whole spectrum product in one
    batched matrix product, then the first ``m`` coefficients."""
    nfft = smooth_fft_len(a.shape[0] + b.shape[0] - 1)
    a, b = a.copy(), b.copy()
    for k, g in enumerate(head):
        a[k] *= g
        b[k] *= g
    fa = np.fft.rfft(a, n=nfft, axis=0)
    fb = np.fft.rfft(b, n=nfft, axis=0)
    return np.fft.irfft(fa @ fb, n=nfft, axis=0)[:m]


# Gregory's end weights of each order, exactly
GREGORY = {2: (Fraction(1, 2),), 4: (Fraction(3, 8), Fraction(7, 6), Fraction(23, 24))}


def exact_start_weights(d: int) -> np.ndarray:
    """W[j − 1, a, b] = ∫₀ʲ ℓ_a(j − u) ℓ_b(u) du for j = 1..d and the
    degree-d Lagrange basis ℓ on the nodes 0..d, in rational arithmetic:
    each ℓ as its coefficients, ℓ_a(j − u) by the binomial expansion, and
    the product integrated term by term."""

    def mul(p, q):
        out = [Fraction(0)] * (len(p) + len(q) - 1)
        for i, x in enumerate(p):
            for k, y in enumerate(q):
                out[i + k] += x * y
        return out

    basis = []
    for a in range(d + 1):
        poly = [Fraction(1)]
        for k in range(d + 1):
            if k != a:
                poly = mul(poly, [Fraction(-k, a - k), Fraction(1, a - k)])
        basis.append(poly)
    out = np.empty((d, d + 1, d + 1))
    for j in range(1, d + 1):
        for a, la in enumerate(basis):
            # ℓ_a(j − u) = Σ_k c_k (j − u)^k
            refl = [Fraction(0)] * len(la)
            for k, c in enumerate(la):
                for i in range(k + 1):
                    refl[i] += c * math.comb(k, i) * j ** (k - i) * (-1) ** i
            for b, lb in enumerate(basis):
                prod = mul(refl, lb)
                out[j - 1, a, b] = float(sum(c * Fraction(j) ** (k + 1) / (k + 1)
                                             for k, c in enumerate(prod)))
    return out


def rule_weights(order: int, j: int) -> np.ndarray:
    """Quadrature weights w_r, r = 0..j, of the convolution rule of ``order``
    at a node j where its two ends do not overlap: Gregory's end weights at
    both ends, 1 between."""
    head = [float(g) for g in GREGORY[order]]
    w = np.ones(j + 1)
    w[: len(head)] = head
    w[j + 1 - len(head):] = head[::-1]
    return w


def dense_convolve(a: np.ndarray, b: np.ndarray, dt: float, order: int) -> np.ndarray:
    """Reference for ``convolve_values(order=...)`` by direct sums, O(M²):
    dt·Σ_r w_r a[j−r]b[r] with :func:`rule_weights` from node 2·len(γ) − 1
    on, and dt·Σ_ab W[j, a, b]·a_a b_b with :func:`exact_start_weights` of
    degree d = min(2·len(γ) − 2, M) at the d nodes before it."""
    m1 = a.shape[0]
    d = min(2 * len(GREGORY[order]) - 2, m1 - 1)
    start = exact_start_weights(d)
    out = np.zeros((m1, a.shape[1], b.shape[2]))
    for j in range(1, m1):
        if j <= d:
            terms = [start[j - 1, x, y] * (a[x] @ b[y])
                     for x in range(d + 1) for y in range(d + 1)]
        else:
            w = rule_weights(order, j)
            terms = [w[r] * (a[j - r] @ b[r]) for r in range(j + 1)]
        out[j] = dt * np.sum(terms, axis=0)
    return out


def stepping_series(p, order: int) -> np.ndarray:
    """Reference for ``neumann_series(p, tol, order)``: F + LH + conv(F, LH)
    = 0 with the :func:`dense_convolve` rule, solved on the support block
    node by node.  F_0 = −L_0; the start nodes 1..d solve their coupled
    equations at once, as one Kronecker-product system on the row-major
    entries of F_1..F_d; every later node solves
    F_j (I + dt·γ_0·L_0) = −L_j − dt·Σ_{r>=1} w_r F_{j−r} L_r.
    Returns the support rows F_S = −L_S − conv(F_SS, L_S)."""
    lh_s = p.heat_image
    m1, s = lh_s.shape[0], len(p.support)
    dt = p.grid.dt
    lss = lh_s[:, :, list(p.support)]
    d = min(2 * len(GREGORY[order]) - 2, m1 - 1)
    start = exact_start_weights(d)
    f = np.zeros_like(lss)
    f[0] = -lss[0]
    eye = np.eye(s)
    if d:
        # row-major vec(X C) = kron(I, Cᵀ) vec(X)
        sys_ = np.eye(d * s * s)
        rhs = np.empty(d * s * s)
        for j in range(1, d + 1):
            rows = slice((j - 1) * s * s, j * s * s)
            known = lss[j] + dt * sum(start[j - 1, 0, y] * (f[0] @ lss[y]) for y in range(d + 1))
            rhs[rows] = -known.ravel()
            for x in range(1, d + 1):
                c = sum(start[j - 1, x, y] * lss[y] for y in range(d + 1))
                cols = slice((x - 1) * s * s, x * s * s)
                sys_[rows, cols] += dt * np.kron(eye, c.T)
        f[1 : d + 1] = np.linalg.solve(sys_, rhs).reshape(d, s, s)
    for j in range(d + 1, m1):
        w = rule_weights(order, j)
        known = lss[j] + dt * sum(w[r] * (f[j - r] @ lss[r]) for r in range(1, j + 1))
        f[j] = np.linalg.solve((eye + dt * w[0] * lss[0]).T, -known.T).T
    return -lh_s - dense_convolve(f, lh_s, dt, order)


def naive_convolve(a: np.ndarray, b: np.ndarray, dt: float) -> np.ndarray:
    """Direct-sum trapezoid convolution; reference for the FFT evaluation."""
    m1 = a.shape[0]
    out = np.zeros((m1, a.shape[1], b.shape[2]))
    for j in range(1, m1):
        acc = np.zeros((a.shape[1], b.shape[2]))
        for r in range(j + 1):
            w = 0.5 if r in (0, j) else 1.0
            acc += w * (a[j - r] @ b[r])
        out[j] = dt * acc
    return out


def term_by_term_series(p, tol: float, max_terms: int = 10000):
    """Reference for ``neumann_series``: sum F = Σ (−1)^ℓ (LH)^{*ℓ} one FFT
    convolution at a time until the factorial bound for the next term, with
    1.1·sup|LH| as the constant, drops below ``tol``, or a term falls below
    1e-9·tol everywhere.  Returns the rows of F on the support."""
    lh_s = p.heat_image
    m1 = lh_s.shape[0]
    supp = list(p.support)
    n_eff = max(1, len(supp))
    c_emp = 1.1 * float(np.abs(lh_s).max(initial=0.0))
    term = lh_s.copy()
    f_s = -term
    terms_used = 1
    nfft = next_fast_len(2 * m1 - 1)
    fb = rfft(lh_s, n=nfft, axis=0)
    b0 = lh_s[0]
    sign = -1.0
    while c_emp > 0.0:
        if fold_bound(c_emp, 0, terms_used + 1, n_eff, p.grid.t_max) < tol:
            break
        if terms_used >= max_terms:
            raise RuntimeError(f"reference series still above tol after {max_terms} terms")
        # ((LH)^{*ℓ} * LH)(v1, v2) only sums over the support columns
        a = term[:, :, supp]
        fa = rfft(a, n=nfft, axis=0)
        prod = np.einsum("fpq,fqr->fpr", fa, fb)
        prod -= 0.5 * np.einsum("fpq,qr->fpr", fa, b0)
        if terms_used == 1:
            prod -= 0.5 * np.einsum("pq,fqr->fpr", a[0], fb)
        term = irfft(prod, n=nfft, axis=0)[:m1]
        term *= p.grid.dt
        term[0] = 0.0
        terms_used += 1
        sign = -sign
        f_s += sign * term
        peak = float(np.abs(term).max())
        if not np.isfinite(peak):
            raise RuntimeError("reference series terms overflowed")
        if peak < max(1e-250, 1e-9 * tol):
            break
    return f_s


def linear_scan_terms(c: float, n: int, t: float, tol: float) -> int:
    """Reference for ``series_terms``: ℓ counted up from 1 until the bound
    on term ℓ + 1 drops below ``tol``."""
    ell = 1
    while c > 0.0 and fold_bound(c, 0, ell + 1, n, t) >= tol:
        ell += 1
    return ell


def full_rows(p, rows):
    """The (M+1, n, n) array whose rows on ``p.support`` are ``rows`` (the
    support rows of a heat image or correction series) and zero elsewhere."""
    full = np.zeros((p.grid.steps + 1, p.n, p.n))
    full[:, list(p.support), :] = rows
    return full


def _fmt17(x) -> str:
    return format(float(x), ".17g")


def _csv_name(name: str) -> str:
    # RFC 4180: quote a field holding a separator, quote or line break
    if set(name) & set(',"\r\n'):
        return '"' + name.replace('"', '""') + '"'
    return name


def reference_emit_table(times, names, values, fmt: str, meta: dict) -> str:
    """Reference for ``cli._emit_table``: the text it writes, built one
    (t, x, y) row at a time with every number formatted on its own."""
    if fmt == "csv":
        lines = ["t,x,y,value"]
        for j, t in enumerate(times):
            for a, xn in enumerate(names):
                for b, yn in enumerate(names):
                    x, y = _csv_name(xn), _csv_name(yn)
                    lines.append(f"{_fmt17(t)},{x},{y},{_fmt17(values[j][a][b])}")
        return "\n".join(lines) + "\n"
    rows = [
        [float(t), xn, yn, float(values[j][a][b])]
        for j, t in enumerate(times)
        for a, xn in enumerate(names)
        for b, yn in enumerate(names)
    ]
    doc = {"meta": meta, "columns": ["t", "x", "y", "value"], "rows": rows}
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def fast_reference_emit_table(times, names, values, fmt: str, meta: dict) -> str:
    """``reference_emit_table``'s text built a column at a time, several
    times faster on large tables: each time and each value is spelled once,
    a whole column in one C-coded call (``%.17g`` for CSV, json's encoder
    for JSON), and each row is then formatted from its four spellings."""
    n2 = len(names) ** 2
    if fmt == "csv":

        def spell(xs):
            return ("%.17g\0" * len(xs) % tuple(xs)).split("\0")[:-1]

        quote, row = _csv_name, "{},{},{},{}".format
    else:

        def spell(xs):  # numbers only, so every NUL is a separator
            return json.dumps(xs, separators=("\0", ":"))[1:-1].split("\0")

        quote, row = json.dumps, "\n  [\n   {},\n   {},\n   {},\n   {}\n  ]".format
    ts = [s for s in spell(times.tolist()) for _ in range(n2)]
    xs = [quote(x) for x in names for _ in names] * len(times)
    ys = [quote(y) for y in names] * (len(names) * len(times))
    rows = list(map(row, ts, xs, ys, spell(values.ravel().tolist())))
    if fmt == "csv":
        return "\n".join(["t,x,y,value", *rows]) + "\n"
    doc = {"meta": meta, "columns": ["t", "x", "y", "value"], "rows": "\0"}
    text = json.dumps(doc, sort_keys=True, indent=1)
    return text.replace('"\\u0000"', "[" + ",".join(rows) + "\n ]") + "\n"


def adjacency_complement(e: SubgraphEmbedding, v: int) -> set[int]:
    """Ambient vertices adjacent to kept vertex ``v`` whose edge is missing in G.

    That is: ambient neighbors of ``v`` outside the kept set, together with
    kept vertices joined to ``v`` in the ambient graph through a removed edge.
    Returned ids are ambient ids.
    """
    if v not in e.kept:
        raise ContractViolation(f"vertex {v} is not kept")
    kept_set = set(e.kept)
    out: set[int] = set()
    for u in np.nonzero(e.ambient.weights[v] > 0)[0]:
        u = int(u)
        if u not in kept_set:
            out.add(u)
        elif frozenset((u, v)) in e.removed_edges:
            out.add(u)
    return out


def recursive_boundary_sets(e: SubgraphEmbedding):
    """Reference for ``boundary_sets``: ∂(G∖∂G) found by re-embedding the
    interior into G and taking that embedding's boundary recursively."""
    boundary = set(v for v in e.kept if adjacency_complement(e, v))
    interior = set(e.kept) - boundary
    if not interior:
        return boundary, interior, set()
    sub = e.subgraph
    interior_idx = sorted(e.subgraph_index(v) for v in interior)
    inner = SubgraphEmbedding(ambient=sub, kept=tuple(interior_idx))
    inner_boundary, _, _ = (
        recursive_boundary_sets(inner) if inner.n < e.n else (set(), set(), set())
    )
    # map back: inner ids are subgraph indices of e
    second = set(e.kept[i] for i in inner_boundary)
    return boundary, interior, second


def full_mode_parametrix(d, bumps, grid, graph):
    """Reference for the symmetric ``averaged_parametrix`` samples and heat
    image: every sine mode summed at every time, on the refined overlaps.
    Returns (H, LH) at the grid nodes."""
    mu = np.array([c.measure for c in bumps.cells])
    s = _mode_overlaps(d, bumps, 2 * d.quad_points)
    rates = d.rates()
    nv = graph.n
    norm = 1.0 / np.sqrt(np.outer(mu, mu))
    pair = np.einsum("nv,nw->nvw", s, s).reshape(d.n_modes, nv * nv) * (2.0 / d.length)
    w = np.exp(-np.outer(grid.nodes, rates))
    h = (w @ pair).reshape(-1, nv, nv) * norm
    dh = (w @ (pair * (-rates[:, None]))).reshape(-1, nv, nv) * norm
    lh = np.einsum("xv,cvw->cxw", graph.laplacian_matrix(), h) + dh
    return h, lh


def first_variable_parametrix(p, cells, graph):
    """The symmetric ``averaged_parametrix`` ``p`` rescaled to the
    first-variable 1/μ_{v1} normalization, which must assemble to the same
    heat kernel: H_f = H·√(μ_y/μ_x), ∂_tH_f = (LH − ΔH)·√(μ_y/μ_x) and
    LH_f = ΔH_f + ∂_tH_f."""
    mu = np.array([c.measure for c in cells])
    scale = np.sqrt(np.outer(1.0 / mu, mu))  # √(μ_y/μ_x) at [x, y]
    lap = graph.laplacian_matrix()
    h = p.samples * scale
    dh = (p.heat_image - np.einsum("xv,cvw->cxw", lap, p.samples)) * scale
    lh = np.einsum("xv,cvw->cxw", lap, h) + dh
    return Parametrix(p.grid, h, p.support, lh)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
