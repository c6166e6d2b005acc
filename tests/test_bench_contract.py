"""The names the benchmark's tracer relies on.

``bench/tracer.py`` rebinds every ``LAYERS`` callable to time it, and the
end-to-end runs of the verify workloads replace ``cli.compute_kernel`` to
keep the kernels they check.  A renamed layer or a changed signature would
make every traced operation crash, so these checks keep the two in step.
The tracer also reads ``terms_used`` from every ``neumann_series`` result.
"""

import importlib
import importlib.util
import inspect
import os

import heatpar.cli as cli

TRACER = os.path.join(os.path.dirname(__file__), "..", "bench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    layers = load_tracer().LAYERS
    assert ("bessel", "besseli_row") in layers
    assert ("series", "ClosedFormKernel.at") in layers
    assert ("series", "sample_closed_form") in layers
    for mod_name, attr in layers:
        obj = importlib.import_module(f"heatpar.{mod_name}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"{mod_name}.{attr}"


def test_series_result_carries_an_int_term_count():
    from heatpar.graph import WeightedGraph
    from heatpar.parametrix import diagonal_parametrix, neumann_series
    from heatpar.series import TimeGrid

    result = neumann_series(diagonal_parametrix(WeightedGraph.path(3), TimeGrid(1.0, 8)), 1e-8)
    assert isinstance(result.terms_used, int)
    assert result.terms_used >= 1


def test_compute_kernel_signature():
    params = list(inspect.signature(cli.compute_kernel).parameters)
    assert params == ["doc", "method", "t_max", "steps", "tol"]


def test_compute_kernel_called_through_module_global(monkeypatch, tmp_path):
    # replacing the module attribute must catch the calls of both commands
    calls = []
    inner = cli.compute_kernel

    def capturing(doc, method, t_max, steps, tol):
        calls.append(method)
        return inner(doc, method, t_max, steps, tol)

    monkeypatch.setattr(cli, "compute_kernel", capturing)
    graph = os.path.join(os.path.dirname(__file__), "..", "cases", "k2.json")
    out = str(tmp_path / "out")
    common = ["--graph", graph, "--t-max", "1", "--steps", "4", "--out", out]
    assert cli.main(["kernel", "--method", "spectral", *common]) == 0
    assert cli.main(
        ["verify", "--method-a", "expm", "--method-b", "spectral", "--budget", "1e-8", *common]
    ) == 0
    assert calls == ["spectral", "expm", "spectral"]
