"""Command-line interface.

    heatpar kernel   --graph FILE --method NAME --t-max R --steps M [...]
    heatpar verify   --graph FILE --method-a A --method-b B --budget R [...]
    heatpar identity --name watson|intro|halfline-special-1|halfline-special-2 [...]
    heatpar export   --graph FILE [...]

Exit codes: 0 success, 2 input error, 3 numerical budget exceeded, which
includes a kernel provably wrong by its half-asymmetry (refine the time
grid).  Output is deterministic: rows are time-major (then first vertex,
then second), CSV carries 17 significant digits, JSON is emitted with sorted
keys.  HEATPAR_THREADS, a positive integer (exit 2 otherwise), sets the
numeric libraries' thread pools over any preset BLAS thread variables.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3

# largest accepted ½·sup|K − Kᵀ|; a kernel above it is refused with EXIT_BUDGET
ASYMMETRY_LIMIT = 0.1

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
    """Copy HEATPAR_THREADS, which must be a positive integer, over the BLAS
    thread-pool variables."""
    threads = os.environ.get("HEATPAR_THREADS")
    if threads is None:
        return
    try:
        count = int(threads)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"HEATPAR_THREADS must be a positive integer, got {threads!r}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(count)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _json_number(x: float) -> str:
    return json.dumps(float(x))


# values per block of a streamed kernel table: a table is formatted and
# written a block of time nodes at a time, so its text is never held whole
_TABLE_BLOCK = 1 << 16


def _write_chunks(path: str | None, chunks):
    if path is None or path == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="utf-8") as f:
            f.writelines(chunks)


def _write_text(path: str | None, text: str):
    _write_chunks(path, (text,))


def _table_chunks(times, names, values, fmt: str, meta: dict):
    """The text of a kernel table, one block of time nodes at a time.

    Each time node is formatted once and interleaved with its values by a
    per-node template of one row per vertex pair, names escaped for %.  The
    JSON text is ``json.dumps(doc, sort_keys=True, indent=1)`` plus a
    newline: ``rows`` sorts last, so the header is the document without
    it, and numbers take float.__repr__ or json's non-finite spelling.
    """
    import numpy as np

    if fmt == "csv":
        row, sep, quote, stamp = "%s,{},{},%.17g\n", "", str, _fmt
        yield "t,x,y,value\n"
    else:
        row, sep, quote = "\n  [\n   %s,\n   {},\n   {},\n   %s\n  ]", ",", json.dumps
        stamp = _json_number
        doc = {"meta": meta, "columns": ["t", "x", "y", "value"], "rows": []}
        yield json.dumps(doc, sort_keys=True, indent=1)[: -len("]\n}")]
    esc = [quote(nm).replace("%", "%%") for nm in names]
    template = sep.join(row.format(xn, yn) for xn in esc for yn in esc)
    npairs = len(esc) ** 2
    step = max(1, _TABLE_BLOCK // npairs)
    args = [None] * (2 * npairs)
    for j in range(0, len(times), step):
        block = values[j : j + step].reshape(-1, npairs)
        rows = block.tolist()
        if sep and not np.isfinite(block).all():
            rows = [[v if math.isfinite(v) else _json_number(v) for v in r] for r in rows]
        texts = []
        for t, r in zip(times[j : j + step], rows):
            args[0::2] = [stamp(t)] * npairs
            args[1::2] = r
            texts.append(template % tuple(args))
        yield (sep if j else "") + sep.join(texts)
    if sep:
        yield "\n ]\n}\n"


def _emit_table(times, names, values, fmt: str, out: str | None, meta: dict):
    _write_chunks(out, _table_chunks(times, names, values, fmt, meta))


def _ambient_closed_form(doc):
    """Pick the ambient heat kernel: complete-graph or integer-line closed
    forms when the structure matches, the ambient spectral kernel otherwise."""
    from .bessel import z_window_kernel
    from .documents import ambient_path_coordinates
    from .graph import ambient_is_unit_complete
    from .parametrix import ambient_spectral_kernel, complete_graph_kernel

    e = doc.embedding
    if ambient_is_unit_complete(e):
        return complete_graph_kernel(e.ambient.n)
    coords = ambient_path_coordinates(e)
    if coords is not None and e.frontier:
        return z_window_kernel(coords)
    return ambient_spectral_kernel(e.ambient)


def _half_asymmetry(values) -> float:
    """½·sup|K − Kᵀ| over all times, taken a block of times at a time.

    Every exact kernel here is symmetric, so this is a proven lower bound
    on the sup error of ``values``; a NaN entry makes it NaN."""
    import numpy as np

    step = max(1, 65536 // values[0].size)
    blocks = (values[j : j + step] for j in range(0, len(values), step))
    # K − Kᵀ is antisymmetric, so its largest entry is its sup norm
    return 0.5 * float(np.max([(b - b.transpose(0, 2, 1)).max() for b in blocks]))


def _dispatch(doc, method: str, grid, tol: float):
    """Kernel values of one method on a document, one array (M+1, n, n)."""
    import math

    import numpy as np

    from .bessel import halfline_dirichlet_closed_form, halfline_window_kernel
    from .documents import halfline_coordinates
    from .errors import ParseError
    from .graph import SubgraphEmbedding, ambient_is_unit_complete
    from .oracle import expm_heat_kernel, spectral_kernel
    from .parametrix import (
        diagonal_parametrix,
        dirichlet_parametrix,
        heat_kernel_via_parametrix,
        restriction_parametrix,
        subgraph_kernel_closed_form,
    )
    from .series import sample_closed_form

    g = doc.graph
    if method == "spectral":
        return sample_closed_form(spectral_kernel(g), grid).values
    if method == "expm":
        return np.stack([expm_heat_kernel(g, float(t)) for t in grid.nodes])
    if method == "parametrix-diagonal":
        return heat_kernel_via_parametrix(diagonal_parametrix(g, grid), tol).values
    if method in ("parametrix-restriction", "dirichlet"):
        if doc.embedding is None:
            raise ParseError(f"{method} needs an ambient block")
        build = dirichlet_parametrix if method == "dirichlet" else restriction_parametrix
        p = build(doc.embedding, _ambient_closed_form(doc), grid)
        return heat_kernel_via_parametrix(p, tol).values
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
        n_modes = doc.interval.get("modes", modes_for_time(length, probe, 1e-10))
        quad_points = doc.interval.get("quad_points", 1600)
        delta_fraction = float(doc.interval.get("delta_fraction", 0.49))
        dom = IntervalDomain(length=length, n_modes=n_modes, quad_points=quad_points)
        cells = build_voronoi(doc.position_list(), length, delta_fraction)
        bumps = build_bumps(cells, quad_points)
        p = averaged_parametrix(dom, cells, bumps, grid, g)
        return embed_heat_kernel(p, g, tol).values
    if method == "closed-form-complete":
        e = doc.embedding or SubgraphEmbedding.trivial(g)
        if not ambient_is_unit_complete(e):
            raise ParseError("closed-form-complete needs a unit-weight complete graph or ambient")
        return sample_closed_form(subgraph_kernel_closed_form(e), grid).values
    if method in ("closed-form-halfline", "closed-form-halfline-dirichlet"):
        coords = halfline_coordinates(doc)
        if coords is None:
            raise ParseError(f"{method} needs a half-line window embedding")
        if method == "closed-form-halfline":
            kernel = halfline_window_kernel(coords)
        else:
            kernel = halfline_dirichlet_closed_form(coords)
        return sample_closed_form(kernel, grid).values
    raise ParseError(f"unknown method {method!r}")


def compute_kernel(doc, method: str, t_max: float, steps: int, tol: float):
    """Run one method on a document; returns (times, names, values array).

    A kernel whose half-asymmetry exceeds ``ASYMMETRY_LIMIT`` is provably
    that far from the exact kernel and is refused."""
    from .errors import NumericalBudgetError
    from .series import TimeGrid

    grid = TimeGrid(t_max, steps)
    values = _dispatch(doc, method, grid, tol)
    asym = _half_asymmetry(values)
    if not asym <= ASYMMETRY_LIMIT:
        raise NumericalBudgetError(
            f"{method} kernel is at least {asym:.3e} from the exact kernel "
            f"(half the sup of |K - K^T|, above {ASYMMETRY_LIMIT}); refine the time grid"
        )
    return grid.nodes, doc.names, values


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
    ap = build_parser()
    args = ap.parse_args(argv)
    from .errors import NumericalBudgetError, ParseError

    try:
        _apply_thread_env()
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
