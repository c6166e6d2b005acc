"""Heat kernels on weighted graphs built from parametrices and corrected by
an alternating convolution series, with spectral and closed-form oracles.

The public names below load their submodule on first access (PEP 562), so
``import heatpar.cli`` does not load numpy, the only run-time dependency,
before the CLI has applied ``HEATPAR_THREADS`` to its thread pools.
"""

import importlib

_EXPORTS = {
    "bessel": (
        "bessel_tail_bound",
        "bessel_time_convolve",
        "besseli",
        "besseli_row",
        "halfline_dirichlet_closed_form",
        "halfline_window_kernel",
        "intro_identity_sum",
        "watson_series",
        "z_window_kernel",
    ),
    "embed1d": (
        "BumpFamily",
        "IntervalDomain",
        "VoronoiCell1D",
        "averaged_parametrix",
        "build_bumps",
        "build_voronoi",
        "modes_for_time",
        "series_tail_bound",
    ),
    "graph": (
        "SubgraphEmbedding",
        "WeightedGraph",
        "boundary_sets",
        "connected_components",
        "lost_weights",
    ),
    "oracle": (
        "OracleReport",
        "compare_kernels",
        "expm_heat_kernel",
        "jacobi_eigh",
        "spectral_decomposition",
        "spectral_kernel",
    ),
    "parametrix": (
        "NeumannSeriesResult",
        "Parametrix",
        "assemble_heat_kernel",
        "ambient_spectral_kernel",
        "b_matrix",
        "complete_graph_kernel",
        "diagonal_parametrix",
        "dirichlet_parametrix",
        "heat_kernel_via_parametrix",
        "neumann_series",
        "restriction_parametrix",
        "subgraph_kernel_closed_form",
    ),
    "series": (
        "ClosedFormKernel",
        "TimeGrid",
        "convolve_values",
        "fold_bound",
        "sample_closed_form",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
