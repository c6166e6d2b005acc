"""In-process traced run of the heatpar CLI.

    python3 bench/tracer.py PLAN.json

The plan is a JSON object:

    {"args": [cli args...],          # passed to heatpar.cli.main
     "out": DIR,                      # where trace.json and kernels go
     "mode": "spans",                 # or "memory", or "capture"
     "capture": ["dirichlet"]}        # methods whose compute_kernel result is saved

One interpreter runs one CLI command, as the untraced ``heatpar`` child
does, so the two can be compared.

In ``spans`` mode the public functions of each layer (see ``LAYERS``) are
replaced by timing wrappers in every heatpar module that binds them, so the
calls made through ``from .x import y`` bindings and through the Bessel
kernel closures are caught as well.  Every call records a span (name,
start, end, parent).  In ``memory`` mode only the ``MEMORY`` stages are
wrapped, and each records its tracemalloc peak, which includes numpy
buffers.  That is a separate run because tracemalloc slows every Python
allocation and would inflate the span times.  ``capture`` mode wraps
nothing and only keeps kernels for the checks.  Spans stay in memory and
are written once, at the end, to ``DIR/trace.json``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import tracemalloc

# (module, attribute) of every traced callable; a dotted attribute is a method
LAYERS = (
    ("cli", "cmd_kernel"),
    ("cli", "cmd_verify"),
    ("cli", "compute_kernel"),
    ("documents", "load_document"),
    ("bessel", "besseli_row"),
    ("series", "ClosedFormKernel.at"),
    ("series", "sample_closed_form"),
    ("parametrix", "restriction_parametrix"),
    ("parametrix", "dirichlet_parametrix"),
    ("parametrix", "neumann_series"),
    ("parametrix", "assemble_heat_kernel"),
    ("embed1d", "build_bumps"),
    ("embed1d", "averaged_parametrix"),
    ("oracle", "spectral_decomposition"),
    ("oracle", "compare_kernels"),
)
# stages whose tracemalloc peak is recorded; neither calls the other
MEMORY = {"parametrix.neumann_series", "parametrix.assemble_heat_kernel"}


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.peaks: dict[str, list[int]] = {}
        self.terms: list[int] = []

    def wrap(self, name: str, fn, memory: bool):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
            self.stack.append(idx)
            if memory:
                tracemalloc.start()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.stack.pop()
                self.spans[idx][1:3] = [t0, t1]
                if memory:
                    self.peaks.setdefault(name, []).append(tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if name == "parametrix.neumann_series":
                self.terms.append(int(result.terms_used))
            return result

        return traced


def _replace(original, replacement):
    """Rebind ``original`` to ``replacement`` in every loaded heatpar module."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "heatpar" or mod_name.startswith("heatpar."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)


def install(tracer: Tracer, memory: bool):
    for mod_name, attr in LAYERS:
        name = f"{mod_name}.{attr}"
        if memory and name not in MEMORY:
            continue
        mod = importlib.import_module(f"heatpar.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, tracer.wrap(name, getattr(cls, meth), memory))
        else:
            original = getattr(mod, attr)
            _replace(original, tracer.wrap(name, original, memory))


def capture(cli, methods: list[str], kept: list):
    """Keep the result of every compute_kernel call for ``methods``; the
    arrays are written after the run, so saving them is timed by no span."""
    inner = cli.compute_kernel

    @functools.wraps(inner)
    def capturing(doc, method, t_max, steps, tol):
        times, names, values = inner(doc, method, t_max, steps, tol)
        if method in methods:
            kept.append((method, list(names), times, values))
        return times, names, values

    _replace(inner, capturing)


def save_kernels(out: str, kept: list) -> list[dict]:
    import numpy as np  # not at the top: the timed import of heatpar.cli loads it

    saved = []
    for i, (method, names, times, values) in enumerate(kept):
        path = os.path.join(out, f"kernel_{i}.npz")
        np.savez(path, times=np.asarray(times), values=np.asarray(values))
        saved.append({"method": method, "names": names, "file": path})
    return saved


def main(plan_path: str) -> int:
    with open(plan_path, encoding="utf-8") as f:
        plan = json.load(f)
    t0 = time.perf_counter()
    import heatpar.cli as cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    if plan["mode"] != "capture":
        install(tracer, memory=plan["mode"] == "memory")
    kept: list = []
    capture(cli, plan["capture"], kept)
    code = cli.main(list(plan["args"]))
    saved = save_kernels(plan["out"], kept)
    with open(os.path.join(plan["out"], "trace.json"), "w", encoding="utf-8") as f:
        json.dump(
            {
                "import_s": import_s,
                "spans": tracer.spans,
                "peaks": tracer.peaks,
                "terms": tracer.terms,
                "kernels": saved,
            },
            f,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
