"""Benchmark of the heatpar CLI, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; heatpar is imported from ``src/``.  With
``--trace 0`` the run times the workload's CLI children one at a time for
about S seconds (always at least one operation) and reports the end-to-end
metrics.  With ``--trace 1`` each round runs the operation once untraced,
once inside ``bench/tracer.py`` with timing spans and once with tracemalloc,
and reports the per-layer metrics and the tracing overhead.  Every operation is checked against references from
``bench/reference.py``, which share no code with heatpar.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See ``bench/README.md`` for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
CASES = os.path.join(ROOT, "cases")
sys.path.insert(0, BENCH)

import lattice  # noqa: E402
from reference import (  # noqa: E402
    DocumentGraph,
    halfline_dirichlet_kernel,
    max_abs_dev,
)

SETUP_BEFORE = 2  # exports before the timed loop; one more follows each operation
KERNEL_TOL = 1e-5  # every kernel check, as in the acceptance criteria
REFINE_RATIO = 3.5  # second order: halving dt cuts the error about 4×
MB = 1e6


class CheckFailed(Exception):
    pass


# what a garbled or missing output raises while it is read
BAD_OUTPUT = (CheckFailed, ValueError, KeyError, OSError)


def require(cond: bool, msg: str):
    if not cond:
        raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# checks on what the CLI writes


def read_table(path: str, names: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Parse a CSV kernel table and check its layout: one row per
    (t, x, y), time-major, then x, then y in document order."""
    with open(path, encoding="utf-8") as f:
        require(f.readline() == "t,x,y,value\n", f"{path}: bad header")
    num = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 3), ndmin=2)
    xy = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(1, 2), dtype=str, ndmin=2)
    n = len(names)
    require(len(num) % (n * n) == 0, f"{path}: {len(num)} rows is not a multiple of {n}²")
    nt = len(num) // (n * n)
    pairs = np.array(names)
    require(np.array_equal(xy[:, 0], np.tile(np.repeat(pairs, n), nt)), f"{path}: x order")
    require(np.array_equal(xy[:, 1], np.tile(pairs, n * nt)), f"{path}: y order")
    t = num[:, 0].reshape(nt, n * n)
    require(bool(np.all(t == t[:, :1])), f"{path}: time changes inside a time block")
    return t[:, 0], num[:, 1].reshape(nt, n, n)


def check_grid(times: np.ndarray, t_max: float, steps: int, what: str):
    require(len(times) == steps + 1, f"{what}: {len(times)} time nodes, want {steps + 1}")
    grid = np.linspace(0.0, t_max, steps + 1)
    require(bool(np.allclose(times, grid, rtol=0, atol=1e-12)), f"{what}: time nodes off grid")


def check_report(path: str, budget: float):
    with open(path, encoding="utf-8") as f:
        report = json.load(f)
    require(report["within_budget"] is True, f"report not within budget: {report['sup_error']}")
    require(0.0 <= report["sup_error"] <= budget, f"report sup_error {report['sup_error']}")


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Ctx:
    """Per-run inputs and temporary directory of one workload."""

    seed: int
    tmp: str
    graphs: list[str] = field(default_factory=list)
    docs: list[DocumentGraph] = field(default_factory=list)


@dataclass
class Workload:
    name: str
    graphs: Callable[[Ctx], list[str]]  # input documents, made from the seed
    runs: Callable[[Ctx], list[list[str]]]  # CLI children of one operation
    outputs: Callable[[Ctx], list[str]]  # files the CLI children write
    check_outputs: Callable[[Ctx], float | None]  # deviation, if the outputs hold a kernel
    capture: tuple[str, ...] = ()  # methods whose kernel a verify check needs
    check_kernels: Callable[[Ctx, list[dict]], float] | None = None


def _case(name: str) -> Callable[[Ctx], list[str]]:
    return lambda ctx: [os.path.join(CASES, name)]


def _out(ctx: Ctx, name: str) -> str:
    return os.path.join(ctx.tmp, name)


def _kernel(k: dict, doc: DocumentGraph, t_max: float, steps: int):
    """Times and values of a captured kernel, after checking its grid."""
    require(k["names"] == doc.names, f"{k['method']} kernel vertex order")
    with np.load(k["file"]) as z:
        times, vals = z["times"], z["values"]
    check_grid(times, t_max, steps, f"{k['method']} kernel")
    return times, vals


# dirichlet-verify: fine grid, tiny output
DV_T, DV_M, DV_BUDGET = 2.0, 2000, 1e-5


def _dirichlet_runs(ctx):
    return [["verify", "--graph", ctx.graphs[0], "--method-a", "dirichlet",
             "--method-b", "closed-form-halfline-dirichlet", "--t-max", str(DV_T),
             "--steps", str(DV_M), "--tol", "1e-10", "--budget", str(DV_BUDGET),
             "--out", _out(ctx, "report.json")]]


def _dirichlet_kernels(ctx, kernels):
    require(len(kernels) == 1, f"{len(kernels)} dirichlet kernels captured, want 1")
    doc = ctx.docs[0]
    times, vals = _kernel(kernels[0], doc, DV_T, DV_M)
    coords = doc.halfline_coordinates()
    b = int(np.argmin(coords))
    require(not vals[:, b, :].any(), "boundary row of the Dirichlet kernel is not 0")
    dev = max_abs_dev(vals, times, lambda t: halfline_dirichlet_kernel(coords, t))
    require(dev <= KERNEL_TOL, f"Dirichlet kernel deviates by {dev:.3e}")
    return dev


# embed-refine: the grid-halving pair a user runs on the interval embedding
ER_T, ER_STEPS = 0.25, (8192, 16384)


def _embed_runs(ctx):
    return [["kernel", "--graph", ctx.graphs[0], "--method", "parametrix-embed",
             "--t-max", str(ER_T), "--tol", "1e-8", "--steps", str(m),
             "--out", _out(ctx, f"embed_{m}.csv")] for m in ER_STEPS]


def _embed_check(ctx):
    doc = ctx.docs[0]
    devs = []
    for m in ER_STEPS:
        times, vals = read_table(_out(ctx, f"embed_{m}.csv"), doc.names)
        check_grid(times, ER_T, m, f"embed {m}")
        devs.append(max_abs_dev(vals, times, doc.heat_kernel))
    require(
        devs[0] >= REFINE_RATIO * devs[1],
        f"halving dt cut the error only {devs[0] / devs[1]:.2f}× ({devs[0]:.3e} → {devs[1]:.3e})",
    )
    return devs[1]


# lattice-hole-verify: generated weighted lattices, ambient-spectral branch;
# one operation verifies each of the seed's documents in turn
LV_T, LV_M, LV_BUDGET = 1.0, 250, 1e-5


def _lattice_runs(ctx):
    return [["verify", "--graph", g, "--method-a", "parametrix-restriction",
             "--method-b", "spectral", "--t-max", str(LV_T), "--steps", str(LV_M),
             "--tol", "1e-8", "--budget", str(LV_BUDGET), "--out", _out(ctx, f"report_{i}.json")]
            for i, g in enumerate(ctx.graphs)]


def _lattice_reports(ctx):
    return [_out(ctx, f"report_{i}.json") for i in range(len(ctx.graphs))]


def _lattice_check_reports(ctx):
    for path in _lattice_reports(ctx):
        check_report(path, LV_BUDGET)


def _lattice_kernels(ctx, kernels):
    require(len(kernels) == len(ctx.docs), f"{len(kernels)} kernels for {len(ctx.docs)} documents")
    dev = 0.0
    for k, doc in zip(kernels, ctx.docs):
        times, vals = _kernel(k, doc, LV_T, LV_M)
        dev = max(dev, max_abs_dev(vals, times, doc.heat_kernel))
    require(dev <= KERNEL_TOL, f"restriction kernel deviates by {dev:.3e}")
    return dev


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dirichlet-verify", _case("halfline_w40.json"), _dirichlet_runs,
                 lambda ctx: [_out(ctx, "report.json")],
                 lambda ctx: check_report(_out(ctx, "report.json"), DV_BUDGET),
                 capture=("dirichlet",), check_kernels=_dirichlet_kernels),
        Workload("embed-refine", _case("path3_interval.json"), _embed_runs,
                 lambda ctx: [_out(ctx, f"embed_{m}.csv") for m in ER_STEPS], _embed_check),
        Workload("lattice-hole-verify", lambda ctx: lattice.write_documents(ctx.seed, ctx.tmp),
                 _lattice_runs, _lattice_reports,
                 _lattice_check_reports,
                 capture=("parametrix-restriction",), check_kernels=_lattice_kernels),
    )
}


# ---------------------------------------------------------------------------
# children


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    # HEATPAR_THREADS is applied after numpy has loaded, so set the pools
    # directly; one thread leaves the other cores to the noise of the machine
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(argv: list[str]) -> tuple[int, float, float]:
    """Run one child to its end; return (exit code, wall seconds, peak RSS in MB)."""
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL)
    try:
        _, status, usage = os.wait4(p.pid, 0)  # this child's own rusage only
    except BaseException:
        p.kill()
        p.wait()
        raise
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, wall, usage.ru_maxrss * 1024 / MB


def cli(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "heatpar.cli", *args]


def digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as f:
            for block in iter(lambda: f.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def traced_run(ctx: Ctx, w: Workload, mode: str) -> tuple[int, float, dict]:
    """Run one operation with each CLI child inside tracer.py; return the
    worst exit code, the summed wall time and the merged trace."""
    merged = {"import_s": 0.0, "spans": [], "peaks": {}, "terms": [], "kernels": []}
    worst, total = 0, 0.0
    for args in w.runs(ctx):
        out = tempfile.mkdtemp(dir=ctx.tmp, prefix=f"{mode}-")
        capture = list(w.capture) if mode != "memory" else []
        plan_path = os.path.join(out, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as f:
            json.dump({"args": args, "out": out, "mode": mode, "capture": capture}, f)
        code, wall, _ = spawn([sys.executable, os.path.join(BENCH, "tracer.py"), plan_path])
        worst, total = max(worst, code), total + wall
        if code != 0:
            continue
        with open(os.path.join(out, "trace.json"), encoding="utf-8") as f:
            trace = json.load(f)
        offset = len(merged["spans"])
        merged["spans"] += [[n, t0, t1, p + offset if p >= 0 else -1]
                            for n, t0, t1, p in trace["spans"]]
        merged["import_s"] += trace["import_s"]
        for name, peaks in trace["peaks"].items():
            merged["peaks"].setdefault(name, []).extend(peaks)
        merged["terms"] += trace["terms"]
        merged["kernels"] += trace["kernels"]
    return worst, total, merged


# ---------------------------------------------------------------------------
# one run


@dataclass
class Op:
    ok: bool
    wall: float = 0.0
    rss: float = 0.0


class Run:
    def __init__(self, w: Workload, ctx: Ctx):
        self.w, self.ctx = w, ctx
        self.ops: list[Op] = []
        self.first_digest: str | None = None
        self.dev: float | None = None

    def timed_op(self) -> Op:
        """The workload's CLI children in turn, then the checks on their output."""
        wall, rss = 0.0, 0.0
        for args in self.w.runs(self.ctx):
            code, dt, mb = spawn(cli(args))
            wall, rss = wall + dt, max(rss, mb)
            if code != 0:
                print(f"{self.w.name}: exit {code} from heatpar {args[0]}", file=sys.stderr)
                return Op(False, wall, rss)
        return Op(self.outputs_ok(), wall, rss)

    def outputs_ok(self) -> bool:
        """Check the first operation in full; later ones must write the same bytes."""
        paths = self.w.outputs(self.ctx)
        try:
            d = digest(paths)
            if self.first_digest is None:
                dev = self.w.check_outputs(self.ctx)
                if dev is not None:
                    self.dev = dev
                self.first_digest = d
            require(d == self.first_digest, "output differs from the first operation's")
        except BAD_OUTPUT as e:
            print(f"{self.w.name}: check failed: {e!r}", file=sys.stderr)
            return False
        finally:
            for p in paths:
                if os.path.exists(p):
                    os.remove(p)
        return True

    def kernels_ok(self, trace: dict) -> bool:
        if self.w.check_kernels is None:
            return True
        try:
            self.dev = self.w.check_kernels(self.ctx, trace["kernels"])
        except BAD_OUTPUT as e:
            print(f"{self.w.name}: kernel check failed: {e!r}", file=sys.stderr)
            return False
        finally:
            for k in trace["kernels"]:
                if os.path.exists(k["file"]):
                    os.remove(k["file"])
        return True

    def loop(self, seconds: float, one: Callable[[], Op], start: float | None = None):
        """Whole operations until about ``seconds`` after ``start`` (now, by
        default): another starts only if one more of typical length still fits."""
        start = time.perf_counter() if start is None else start
        lengths = []  # of whole loop turns: the children and the work around them
        while True:
            t0 = time.perf_counter()
            self.ops.append(one())
            lengths.append(time.perf_counter() - t0)
            op = self.ops[-1]
            print(f"{self.w.name}: operation {len(self.ops)}: {op.wall:.3f} s, "
                  f"{op.rss:.0f} MB, {'ok' if op.ok else 'FAILED'}", file=sys.stderr)
            if time.perf_counter() - start + statistics.median(lengths) > seconds:
                break


def setup_seconds(ctx: Ctx, repeats: int) -> list[float]:
    """Wall times of `heatpar export` on the workload's document."""
    times = []
    for _ in range(repeats):
        out = _out(ctx, "export.json")
        code, wall, _ = spawn(cli(["export", "--graph", ctx.graphs[0], "--out", out]))
        if code != 0:
            raise SystemExit(f"heatpar export failed with exit {code}")
        with open(out, encoding="utf-8") as f:
            names = json.load(f)["vertices"]
        os.remove(out)
        if names != ctx.docs[0].names:
            raise SystemExit("heatpar export changed the vertex list")
        times.append(wall)
    return times


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(run: Run, seconds: float) -> dict:
    ctx, w = run.ctx, run.w
    # the run's seconds cover everything below, so its length does not
    # depend on the workload's set-up and checks
    start = time.perf_counter()
    kernels_ok = True
    if w.check_kernels is not None:
        # the verify report holds no kernel: one untimed run inside tracer.py
        # keeps it for the check, and warms the file cache for the timed loop
        code, _, trace = traced_run(ctx, w, "capture")
        kernels_ok = code == 0 and run.kernels_ok(trace)
    # set-up is timed before the loop and after every operation, to sample
    # as many moments of the machine as the operations do
    setup = setup_seconds(ctx, SETUP_BEFORE)

    def op_then_setup() -> Op:
        op = run.timed_op()
        setup.extend(setup_seconds(ctx, 1))
        return op

    run.loop(seconds, op_then_setup, start)
    if not kernels_ok:
        for op in run.ops:
            op.ok = False  # every operation computed this same kernel
    good = [o for o in run.ops if o.ok] or run.ops
    return {
        # means over the run: the shared host runs this work at one speed for
        # a while and up to 1.6 times slower for a while, and a run's mean
        # moves smoothly with the mix, where its fastest or its median
        # operation jumps from one speed to the other
        "wall_s": metric(statistics.mean(o.wall for o in good), "s"),
        "setup_s": metric(statistics.mean(setup), "s"),
        "peak_rss_mb": metric(statistics.median(o.rss for o in good), "MB"),
        # 1.0, the scale of a kernel entry, when no operation got as far as a check
        "max_abs_dev": metric(run.dev if run.dev is not None else 1.0, "1"),
    }


def _busy(spans: list, names: set[str]) -> float:
    """Seconds inside spans named in ``names``, counting nested calls once."""
    total = 0.0
    for name, t0, t1, parent in spans:
        if name not in names:
            continue
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            total += t1 - t0
    return total


def layer_metrics(trace: dict, peaks: dict) -> dict:
    spans = trace["spans"]
    calls: dict[str, int] = {}
    for s in spans:
        calls[s[0]] = calls.get(s[0], 0) + 1
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    emit = sum(
        (t1 - t0) - child_time[i]
        for i, (name, t0, t1, _) in enumerate(spans)
        if name in ("cli.cmd_kernel", "cli.cmd_verify")
    )

    def busy(*names):
        return metric(_busy(spans, set(names)), "s")

    return {
        "cli.import_s": metric(trace["import_s"], "s"),
        "documents.load_s": busy("documents.load_document"),
        "cli.compute_s": busy("cli.compute_kernel"),
        "cli.emit_s": metric(emit, "s"),
        "bessel.row_calls": metric(calls.get("bessel.besseli_row", 0), "count"),
        "bessel.row_s": busy("bessel.besseli_row"),
        "series.at_calls": metric(calls.get("series.ClosedFormKernel.at", 0), "count"),
        "series.at_s": busy("series.ClosedFormKernel.at"),
        "series.sample_s": busy("series.sample_closed_form"),
        "parametrix.build_s": busy("parametrix.restriction_parametrix",
                                   "parametrix.dirichlet_parametrix"),
        "embed1d.build_s": busy("embed1d.build_bumps", "embed1d.averaged_parametrix"),
        "parametrix.series_s": busy("parametrix.neumann_series"),
        "parametrix.series_terms": metric(sum(trace["terms"]), "count"),
        "parametrix.series_peak_mb": metric(
            max(peaks.get("parametrix.neumann_series", [0])) / MB, "MB"),
        "parametrix.assemble_s": busy("parametrix.assemble_heat_kernel"),
        "parametrix.assemble_peak_mb": metric(
            max(peaks.get("parametrix.assemble_heat_kernel", [0])) / MB, "MB"),
        "oracle.eigh_calls": metric(calls.get("oracle.spectral_decomposition", 0), "count"),
        "oracle.eigh_s": busy("oracle.spectral_decomposition"),
        "oracle.compare_s": busy("oracle.compare_kernels"),
    }


def per_layer(run: Run, seconds: float) -> dict:
    ctx, w = run.ctx, run.w
    layers: list[dict] = []
    overheads: list[float] = []

    def round_() -> Op:
        untraced = run.timed_op()
        code, wall, trace = traced_run(ctx, w, "spans")
        ok = untraced.ok and code == 0 and run.outputs_ok() and run.kernels_ok(trace)
        mem_code, mem_wall, mem = traced_run(ctx, w, "memory")
        ok = ok and mem_code == 0 and run.outputs_ok()
        if not ok:
            print(f"{w.name}: traced run failed (exit {code}, {mem_code})", file=sys.stderr)
            return Op(False, untraced.wall + wall + mem_wall)
        layers.append(layer_metrics(trace, mem["peaks"]))
        overheads.append(wall - untraced.wall)
        return Op(True, untraced.wall + wall + mem_wall)

    run.loop(seconds, round_)
    if not layers:
        return {}
    out = {
        k: metric(statistics.median(m[k]["value"] for m in layers), layers[0][k]["unit"])
        for k in layers[0]
    }
    out["trace.overhead_s"] = metric(statistics.median(overheads), "s")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="heatpar benchmark")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "heatpar", "cli.py")):
        print(f"error: no heatpar sources under {SRC}", file=sys.stderr)
        return 2
    w = WORKLOADS[a.workload]
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=tmp_root, prefix=f"{w.name}-")
    try:
        ctx = Ctx(seed=a.seed, tmp=tmp)
        ctx.graphs = w.graphs(ctx)
        for path in ctx.graphs:
            with open(path, encoding="utf-8") as f:
                ctx.docs.append(DocumentGraph(json.load(f)))
        run = Run(w, ctx)
        metrics = per_layer(run, a.seconds) if a.trace else end_to_end(run, a.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass  # another run still uses it
    failed = sum(not o.ok for o in run.ops)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(run.ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
