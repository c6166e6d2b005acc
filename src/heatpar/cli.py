"""Command-line interface.

    heatpar kernel   --graph FILE --method NAME --t-max R --steps M [...]
    heatpar verify   --graph FILE --method-a A --method-b B --budget R [...]
    heatpar identity --name watson|intro|halfline-special-1|halfline-special-2 [...]
    heatpar export   --graph FILE [...]

Exit codes: 0 success, 2 input error, 3 numerical budget exceeded.  Output
is deterministic: rows are time-major (then first vertex, then second),
CSV carries 17 significant digits, JSON is emitted with sorted keys.  The
environment variable HEATPAR_THREADS caps the numeric libraries' thread
pools when set before startup.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3

METHODS = (
    "spectral",
    "expm",
    "parametrix-restriction",
    "parametrix-diagonal",
    "parametrix-embed",
    "dirichlet",
    "closed-form-complete",
    "closed-form-halfline",
    "closed-form-halfline-dirichlet",
)


def _apply_thread_env():
    threads = os.environ.get("HEATPAR_THREADS")
    if threads:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, threads)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_text(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)


def _emit_table(times, names, values, fmt: str, out: str | None, meta: dict):
    lines = []
    if fmt == "csv":
        lines.append("t,x,y,value")
        for j, t in enumerate(times):
            for a, xn in enumerate(names):
                for b, yn in enumerate(names):
                    lines.append(f"{_fmt(t)},{xn},{yn},{_fmt(values[j][a][b])}")
        _write_text(out, "\n".join(lines) + "\n")
    else:
        rows = [
            [float(t), xn, yn, float(values[j][a][b])]
            for j, t in enumerate(times)
            for a, xn in enumerate(names)
            for b, yn in enumerate(names)
        ]
        doc = {"meta": meta, "columns": ["t", "x", "y", "value"], "rows": rows}
        _write_text(out, json.dumps(doc, sort_keys=True, indent=1) + "\n")


def _ambient_closed_form(doc):
    """Pick the ambient heat kernel: complete-graph or integer-line closed
    forms when the structure matches, the ambient spectral kernel otherwise."""
    from .bessel import z_window_kernel
    from .documents import ambient_is_unit_complete, ambient_path_coordinates
    from .parametrix import ambient_spectral_kernel, complete_graph_kernel

    e = doc.embedding
    if ambient_is_unit_complete(e):
        return complete_graph_kernel(e.ambient.n)
    coords = ambient_path_coordinates(e)
    if coords is not None and e.frontier:
        return z_window_kernel(coords)
    return ambient_spectral_kernel(e.ambient)


def compute_kernel(doc, method: str, t_max: float, steps: int, tol: float):
    """Run one method on a document; returns (times, names, values array)."""
    import math

    import numpy as np

    from .bessel import halfline_dirichlet_closed_form, halfline_window_kernel
    from .documents import ambient_is_unit_complete, halfline_coordinates
    from .errors import ParseError
    from .graph import SubgraphEmbedding
    from .oracle import expm_heat_kernel, spectral_kernel_series
    from .parametrix import (
        complete_graph_kernel,
        diagonal_parametrix,
        dirichlet_parametrix,
        heat_kernel_via_parametrix,
        restriction_parametrix,
        subgraph_kernel_closed_form,
    )
    from .series import TimeGrid, sample_closed_form

    grid = TimeGrid(t_max, steps)
    g = doc.graph
    if method == "spectral":
        return grid.nodes, doc.names, spectral_kernel_series(g, grid).values
    if method == "expm":
        vals = np.stack([expm_heat_kernel(g, float(t)) for t in grid.nodes])
        return grid.nodes, doc.names, vals
    if method == "parametrix-diagonal":
        p = diagonal_parametrix(g, grid)
        return grid.nodes, doc.names, heat_kernel_via_parametrix(p, tol).values
    if method == "parametrix-restriction":
        if doc.embedding is None:
            raise ParseError("parametrix-restriction needs an ambient block")
        p = restriction_parametrix(doc.embedding, _ambient_closed_form(doc), grid)
        return grid.nodes, doc.names, heat_kernel_via_parametrix(p, tol).values
    if method == "dirichlet":
        if doc.embedding is None:
            raise ParseError("dirichlet needs an ambient block")
        p = dirichlet_parametrix(doc.embedding, _ambient_closed_form(doc), grid)
        return grid.nodes, doc.names, heat_kernel_via_parametrix(p, tol).values
    if method == "parametrix-embed":
        if not doc.positions:
            raise ParseError("parametrix-embed needs a positions block")
        from .embed1d import (
            IntervalDomain,
            averaged_parametrix,
            build_bumps,
            build_voronoi,
            embed_heat_kernel,
            modes_for_time,
        )

        length = float(doc.interval.get("length", 1.0))
        # certify the sine tail at the Dirac-probe time scale; the truncated
        # series is itself the parametrix being corrected, so finer time
        # grids do not demand more modes
        probe = 1e-4 * length**2 / math.pi**2
        n_modes = int(doc.interval.get("modes", modes_for_time(length, probe, 1e-10)))
        quad_points = int(doc.interval.get("quad_points", 1600))
        delta_fraction = float(doc.interval.get("delta_fraction", 0.49))
        dom = IntervalDomain(length=length, n_modes=n_modes, quad_points=quad_points)
        cells = build_voronoi(doc.position_list(), length, delta_fraction)
        bumps = build_bumps(cells, quad_points)
        p = averaged_parametrix(dom, cells, bumps, grid, g)
        return grid.nodes, doc.names, embed_heat_kernel(p, g, tol).values
    if method == "closed-form-complete":
        if doc.embedding is not None:
            if not ambient_is_unit_complete(doc.embedding):
                raise ParseError("closed-form-complete needs a unit-weight complete ambient")
            kernel = subgraph_kernel_closed_form(doc.embedding)
            return grid.nodes, doc.names, sample_closed_form(kernel, grid).values
        trivial = SubgraphEmbedding.trivial(g)
        if not ambient_is_unit_complete(trivial):
            raise ParseError("closed-form-complete needs a unit-weight complete graph")
        kernel = complete_graph_kernel(g.n)
        return grid.nodes, doc.names, sample_closed_form(kernel, grid).values
    if method in ("closed-form-halfline", "closed-form-halfline-dirichlet"):
        coords = halfline_coordinates(doc)
        if coords is None:
            raise ParseError(f"{method} needs a half-line window embedding")
        order = np.argsort(coords)
        inv = np.empty_like(order)
        inv[order] = np.arange(len(order))
        builder = (
            halfline_window_kernel
            if method == "closed-form-halfline"
            else halfline_dirichlet_closed_form
        )
        kernel = builder(len(coords))
        vals = sample_closed_form(kernel, grid).values[:, inv[:, None], inv[None, :]]
        return grid.nodes, doc.names, vals
    raise ParseError(f"unknown method {method!r}")


def cmd_kernel(args) -> int:
    from .documents import load_document

    doc = load_document(args.graph)
    times, names, values = compute_kernel(doc, args.method, args.t_max, args.steps, args.tol)
    meta = {
        "graph": os.path.basename(args.graph),
        "method": args.method,
        "t_max": args.t_max,
        "steps": args.steps,
        "tol": args.tol,
    }
    _emit_table(times, names, values, args.format, args.out, meta)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .documents import load_document
    from .oracle import compare_kernels

    doc = load_document(args.graph)
    times, names, va = compute_kernel(doc, args.method_a, args.t_max, args.steps, args.tol)
    _, _, vb = compute_kernel(doc, args.method_b, args.t_max, args.steps, args.tol)
    report = compare_kernels(va, vb, times=times, budget=args.budget)
    payload = dict(report.to_dict())
    payload["method_a"] = args.method_a
    payload["method_b"] = args.method_b
    payload["graph"] = os.path.basename(args.graph)
    if args.format == "csv":
        lines = ["t,error"]
        lines += [f"{_fmt(t)},{_fmt(e)}" for t, e in zip(report.times, report.per_time_error)]
        lines.append(f"# sup_error,{_fmt(report.sup_error)}")
        lines.append(f"# budget,{_fmt(args.budget)}")
        lines.append(f"# within_budget,{report.within_budget}")
        _write_text(args.out, "\n".join(lines) + "\n")
    else:
        _write_text(args.out, json.dumps(payload, sort_keys=True, indent=1) + "\n")
    if not report.within_budget:
        print(
            f"sup error {report.sup_error:.3e} exceeds budget {args.budget:.3e} "
            f"(first at t={report.first_over_budget})",
            file=sys.stderr,
        )
        return EXIT_BUDGET
    return EXIT_OK


def cmd_identity(args) -> int:
    from .bessel import bessel_time_convolve, besseli, intro_identity_sum, watson_series

    if args.name == "watson":
        lhs = bessel_time_convolve(args.m, args.n, args.x, args.quad_steps)
        rhs, tail = watson_series(args.m, args.n, args.x, args.terms)
        residual = abs(lhs - rhs)
        payload = {
            "identity": "watson",
            "m": args.m,
            "n": args.n,
            "x": args.x,
            "lhs_convolution": lhs,
            "rhs_series": rhs,
            "residual": residual,
            "certified_tail": tail,
            "tolerance": args.tol,
        }
    else:
        if args.name == "halfline-special-1":
            x, y = 1, 0
        elif args.name == "halfline-special-2":
            x, y = 2, 0
        else:
            x, y = args.x_order, args.y_order
        t = args.t
        rhs = intro_identity_sum(x, y, t, args.order_cap, args.quad_steps)
        lhs = besseli(x + y, t)
        residual = abs(lhs - rhs)
        # alternating tail: each extra fold contracts by (I_0(t) − 1)/2
        ratio = (besseli(0, t) - 1.0) / 2.0
        tail = (
            abs(lhs) * ratio ** (args.order_cap + 1) / (1.0 - ratio)
            if ratio < 1.0
            else float("inf")
        )
        payload = {
            "identity": args.name,
            "x": x,
            "y": y,
            "t": t,
            "order_cap": args.order_cap,
            "lhs": lhs,
            "rhs": rhs,
            "residual": residual,
            "certified_tail": tail,
            "tolerance": args.tol,
        }
    text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    _write_text(args.out, text)
    if args.out not in (None, "-"):
        print(
            f"{args.name}: residual {residual:.3e} "
            f"({'ok' if residual <= args.tol else 'over tolerance'})"
        )
    return EXIT_OK if residual <= args.tol else EXIT_BUDGET


def cmd_export(args) -> int:
    from .documents import canonical_document, load_document

    doc = load_document(args.graph)
    _write_text(args.out, json.dumps(canonical_document(doc), sort_keys=True, indent=1) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="heatpar",
        description="Heat kernels on weighted graphs via parametrix correction",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--graph", required=True, help="graph document (JSON)")
        p.add_argument("--t-max", type=float, default=1.0)
        p.add_argument("--steps", type=int, default=1000)
        p.add_argument("--tol", type=float, default=1e-8)
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    k = sub.add_parser("kernel", help="compute a kernel table")
    add_common(k)
    k.add_argument("--method", choices=METHODS, required=True)
    k.set_defaults(func=cmd_kernel)

    v = sub.add_parser("verify", help="compare two methods on one document")
    add_common(v)
    v.add_argument("--method-a", choices=METHODS, required=True)
    v.add_argument("--method-b", choices=METHODS, required=True)
    v.add_argument("--budget", type=float, required=True)
    v.set_defaults(func=cmd_verify)
    v.set_defaults(format="json")

    i = sub.add_parser("identity", help="check a Bessel convolution identity")
    i.add_argument(
        "--name",
        choices=("watson", "intro", "halfline-special-1", "halfline-special-2"),
        required=True,
    )
    i.add_argument("--m", type=int, default=0)
    i.add_argument("--n", type=int, default=0)
    i.add_argument("--x", type=float, default=2.0)
    i.add_argument("--terms", type=int, default=40)
    i.add_argument("--x-order", type=int, default=1)
    i.add_argument("--y-order", type=int, default=0)
    i.add_argument("--t", type=float, default=1.0)
    i.add_argument("--order-cap", type=int, default=20)
    i.add_argument("--quad-steps", type=int, default=4000)
    i.add_argument("--tol", type=float, default=1e-6)
    i.add_argument("--out", default=None)
    i.set_defaults(func=cmd_identity)

    e = sub.add_parser("export", help="re-emit a document in canonical form")
    e.add_argument("--graph", required=True)
    e.add_argument("--out", default=None)
    e.set_defaults(func=cmd_export)
    return ap


def main(argv=None) -> int:
    _apply_thread_env()
    ap = build_parser()
    args = ap.parse_args(argv)
    from .errors import NumericalBudgetError, ParseError

    try:
        return args.func(args)
    except (ParseError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalBudgetError as e:
        print(f"numerical budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
