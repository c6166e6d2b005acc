"""The names the benchmark's tracer relies on.

``bench/tracer.py`` rebinds every ``LAYERS`` callable to time it, and the
end-to-end runs of the verify workloads replace ``cli.compute_kernel`` to
keep the kernels they check.  A renamed layer or a changed signature would
make every traced operation crash, so these checks keep the two in step.
A layer that is called through a binding the tracer cannot rebind, such as
a function object held in a table, would read as zero time instead; the
workload check below catches that.  The tracer also reads ``terms_used``
from every ``neumann_series`` result.
"""

import importlib
import importlib.util
import inspect
import json
import os
import sys

import pytest

import heatpar.cli as cli

from conftest import lattice_hole_document

TRACER = os.path.join(os.path.dirname(__file__), "..", "bench", "tracer.py")
CASES = os.path.join(os.path.dirname(__file__), "..", "cases")


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
    graph = os.path.join(CASES, "k2.json")
    out = str(tmp_path / "out")
    common = ["--graph", graph, "--t-max", "1", "--steps", "4", "--out", out]
    assert cli.main(["kernel", "--method", "spectral", *common]) == 0
    assert cli.main(
        ["verify", "--method-a", "expm", "--method-b", "spectral", "--budget", "1e-8", *common]
    ) == 0
    assert calls == ["spectral", "expm", "spectral"]


def count_layer_calls(monkeypatch, layers) -> dict[str, int]:
    """Rebind every traced layer as the tracer does, in each loaded heatpar
    module that binds it (a method on its class), to a wrapper that counts
    its calls."""
    counts = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    modules = {mod_name: importlib.import_module(f"heatpar.{mod_name}") for mod_name, _ in layers}
    for mod_name, attr in layers:
        name = f"{mod_name}.{attr}"
        counts[name] = 0
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(modules[mod_name], cls_name)
            monkeypatch.setattr(cls, meth, counting(name, getattr(cls, meth)))
            continue
        original = getattr(modules[mod_name], attr)
        replacement = counting(name, original)
        for key, mod in list(sys.modules.items()):
            if key == "heatpar" or key.startswith("heatpar."):
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, binding, replacement)
    return counts


def dirichlet_verify(tmp_path):
    return ["verify", "--graph", os.path.join(CASES, "halfline_w40.json"), "--method-a",
            "dirichlet", "--method-b", "closed-form-halfline-dirichlet", "--t-max", "2",
            "--steps", "200", "--tol", "1e-10", "--budget", "1e-3"]


def embed_refine(tmp_path):
    return ["kernel", "--graph", os.path.join(CASES, "path3_interval.json"), "--method",
            "parametrix-embed", "--t-max", "0.25", "--steps", "1024", "--tol", "1e-8"]


def lattice_hole_verify(tmp_path):
    graph = tmp_path / "lattice.json"
    graph.write_text(json.dumps(lattice_hole_document(seed=1)))
    return ["verify", "--graph", str(graph), "--method-a", "parametrix-restriction",
            "--method-b", "spectral", "--t-max", "1", "--steps", "25", "--tol", "1e-8",
            "--budget", "1e-3"]


LOAD = {"cli.compute_kernel", "documents.load_document"}
SOLVE = {"parametrix.neumann_series", "parametrix.assemble_heat_kernel"}
# call counts a workload pins, so no caller routes around the counted layer:
# one Bessel row per lattice-kernel sampling of the Dirichlet workload, and
# one sampling each for the parametrix's ambient kernel and the closed form
# it is checked against, so no kernel is sampled twice; one eigensolve,
# LAPACK start included, per verified lattice document; and one series solve
# and one assembly per parametrix kernel, so the series' start block and the
# assembly's stay inside the layers the tracer times
ONE_SOLVE = {"parametrix.neumann_series": 1, "parametrix.assemble_heat_kernel": 1}
PINNED = {
    dirichlet_verify: {"bessel.besseli_row": 2, "series.sample_closed_form": 2, **ONE_SOLVE},
    embed_refine: ONE_SOLVE,
    lattice_hole_verify: {"oracle.spectral_decomposition": 1, **ONE_SOLVE},
}


@pytest.mark.parametrize(
    "workload,used",
    [
        (dirichlet_verify, LOAD | SOLVE | {"cli.cmd_verify", "bessel.besseli_row",
                                           "series.sample_closed_form",
                                           "parametrix.dirichlet_parametrix",
                                           "oracle.compare_kernels"}),
        (embed_refine, LOAD | SOLVE | {"cli.cmd_kernel", "embed1d.build_bumps",
                                       "embed1d.averaged_parametrix"}),
        (lattice_hole_verify, LOAD | SOLVE | {"cli.cmd_verify", "series.sample_closed_form",
                                              "parametrix.restriction_parametrix",
                                              "oracle.spectral_decomposition",
                                              "oracle.compare_kernels"}),
    ],
)
def test_workload_layers_reach_the_tracer(monkeypatch, tmp_path, workload, used):
    # small versions of the benchmark's three workload commands
    counts = count_layer_calls(monkeypatch, load_tracer().LAYERS)
    assert used <= set(counts)
    out = str(tmp_path / "out")
    assert cli.main([*workload(tmp_path), "--out", out]) == 0
    assert {name for name in used if counts[name] == 0} == set()
    pinned = PINNED.get(workload, {})
    assert {name: counts[name] for name in pinned} == pinned
