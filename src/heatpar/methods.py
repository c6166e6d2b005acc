"""The kernel methods: a table from each name to a function of (document,
time grid, tolerance) that returns the (M+1, n, n) kernel values, or raises
``ParseError`` when the document lacks the block it reads.  Each function
imports what it calls when called, so this module loads no numpy, and a
function rebound on its module (as by a tracer) is the one that runs.

The four parametrix methods convolve by the rule of order ``ORDER``, read
when they run: Gregory's fourth-order rule, which reaches the accuracy of
the trapezoid (the library's default) from far fewer time steps."""

from .errors import ParseError

ORDER = 4


def ambient_kernel(e):
    """The ambient heat kernel of an embedding: a complete-graph or integer-
    line closed form when the structure matches, else the spectral kernel."""
    from .bessel import z_window_kernel
    from .documents import ambient_path_coordinates
    from .graph import ambient_is_unit_complete
    from .parametrix import ambient_spectral_kernel, complete_graph_kernel

    if ambient_is_unit_complete(e):
        return complete_graph_kernel(e.ambient.n)
    coords = ambient_path_coordinates(e)
    if coords is not None and e.frontier:
        return z_window_kernel(coords)
    return ambient_spectral_kernel(e.ambient)


def _embedding(doc):
    if doc.embedding is None:
        raise ParseError("the document has no ambient block")
    return doc.embedding


def _halfline(doc, grid, kernel_of):
    from .documents import halfline_coordinates
    from .series import sample_closed_form

    coords = halfline_coordinates(doc)
    if coords is None:
        raise ParseError("the document is not a half-line window embedding")
    return sample_closed_form(kernel_of(coords), grid)


def _spectral(doc, grid, tol):
    from .oracle import spectral_kernel
    from .series import sample_closed_form

    return sample_closed_form(spectral_kernel(doc.graph), grid)


def _expm(doc, grid, tol):
    import numpy as np

    from .oracle import expm_heat_kernel

    return np.stack([expm_heat_kernel(doc.graph, float(t)) for t in grid.nodes])


def _restriction(doc, grid, tol):
    from .parametrix import heat_kernel_via_parametrix, restriction_parametrix

    e = _embedding(doc)
    p = restriction_parametrix(e, ambient_kernel(e), grid)
    return heat_kernel_via_parametrix(p, tol, ORDER)


def _diagonal(doc, grid, tol):
    from .parametrix import diagonal_parametrix, heat_kernel_via_parametrix

    return heat_kernel_via_parametrix(diagonal_parametrix(doc.graph, grid), tol, ORDER)


def _interval(doc, grid, tol):
    import math

    from .embed1d import IntervalDomain, averaged_parametrix, build_bumps, build_voronoi
    from .embed1d import modes_for_time
    from .parametrix import heat_kernel_via_parametrix

    if not doc.positions:
        raise ParseError("the document has no positions block")
    length = float(doc.interval.get("length", 1.0))
    if length * length == math.inf:
        raise ParseError(f"interval 'length' {length:g} is too large: its square overflows")
    # certify the sine tail at the Dirac-probe time scale; the truncated
    # series is itself the parametrix being corrected, so finer time
    # grids do not demand more modes
    probe = 1e-4 * length**2 / math.pi**2
    dom = IntervalDomain(length=length, n_modes=modes_for_time(length, probe))
    bumps = build_bumps(build_voronoi(doc.position_list(), length, delta_fraction=0.49))
    p = averaged_parametrix(dom, bumps, grid, doc.graph)
    return heat_kernel_via_parametrix(p, tol, ORDER)


def _dirichlet(doc, grid, tol):
    from .parametrix import dirichlet_parametrix, heat_kernel_via_parametrix

    e = _embedding(doc)
    p = dirichlet_parametrix(e, ambient_kernel(e), grid)
    return heat_kernel_via_parametrix(p, tol, ORDER)


def _complete(doc, grid, tol):
    from .graph import SubgraphEmbedding
    from .parametrix import subgraph_kernel_closed_form
    from .series import sample_closed_form

    e = doc.embedding or SubgraphEmbedding.trivial(doc.graph)
    return sample_closed_form(subgraph_kernel_closed_form(e), grid)


def _halfline_window(doc, grid, tol):
    from .bessel import halfline_window_kernel

    return _halfline(doc, grid, halfline_window_kernel)


def _halfline_dirichlet(doc, grid, tol):
    from .bessel import halfline_dirichlet_closed_form

    return _halfline(doc, grid, halfline_dirichlet_closed_form)


METHODS = {
    "spectral": _spectral,
    "expm": _expm,
    "parametrix-restriction": _restriction,
    "parametrix-diagonal": _diagonal,
    "parametrix-embed": _interval,
    "dirichlet": _dirichlet,
    "closed-form-complete": _complete,
    "closed-form-halfline": _halfline_window,
    "closed-form-halfline-dirichlet": _halfline_dirichlet,
}
