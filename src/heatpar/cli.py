"""Command-line interface.

    heatpar kernel   --graph FILE --method NAME --t-max R --steps M [...]
    heatpar verify   --graph FILE --method-a A --method-b B --budget R [...]
    heatpar identity --name watson|intro|halfline-special-1|halfline-special-2 [...]
    heatpar export   --graph FILE [...]

Methods are the keys of ``methods.METHODS``; this module parses the
arguments, applies the refusals and writes the output.  Exit codes: 0
success, 2 input error, 3 numerical budget exceeded, which includes a
kernel provably more than 0.1 from the exact one by any of three lower
bounds on its sup error (refine the time grid): half the sup of |K − Kᵀ|,
the distance of an entry from [0, 1], and (row sum − 1)⁺/n.  Every exact
kernel here is symmetric, has entries in [0, 1] and row sums at most 1.
Output is deterministic: rows are time-major (then first vertex, then
second), CSV carries 17 significant digits, JSON is emitted with sorted
keys.  HEATPAR_THREADS, a positive integer (exit 2 otherwise), sets the
numeric libraries' thread pools over any preset BLAS thread variables;
without it and without any of them, the pools take one thread.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .methods import METHODS

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3

# largest accepted lower bound on a kernel's sup error (see _error_bounds);
# a kernel above it is refused with EXIT_BUDGET
ERROR_LIMIT = 0.1


_POOLS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _apply_thread_env():
    """Copy HEATPAR_THREADS, which must be a positive integer, over the BLAS
    thread-pool variables; without it, and with none of them preset, set
    them to 1.  The blocked products here are small, and on a few cores a
    pool's threads cost more than they save."""
    threads = os.environ.get("HEATPAR_THREADS")
    if threads is None:
        if any(var in os.environ for var in _POOLS):
            return
        threads = "1"
    try:
        count = int(threads)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"HEATPAR_THREADS must be a positive integer, got {threads!r}")
    for var in _POOLS:
        os.environ[var] = str(count)


# glibc's mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_block_memory():
    """On glibc, keep the pages of freed time blocks for the next block.

    Each block loop (sampling, the FFT series products, the checks) frees a
    block's temporaries together, several arrays of up to 4 MB, and
    allocates them again for the next block.  glibc returns the top of its
    heap to the system once more than its trim threshold is free there,
    and by default that threshold is twice the largest mapped array freed
    so far, so each block's pages were given back and faulted in again.
    Fixed thresholds keep arrays below 8 MB (two 4 MB spectrum blocks) on
    the heap and up to 32 MB of free pages at its top; (M+1, n, n) kernels
    above 8 MB are still mapped and returned when freed."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):
        return
    import ctypes

    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # each returns 0 when glibc refuses the value, which leaves its default
    mallopt(_M_MMAP_THRESHOLD, 8 << 20)
    mallopt(_M_TRIM_THRESHOLD, 32 << 20)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _json_number(x: float) -> str:
    return json.dumps(float(x))


# a formatted value weighs far more than the double it came from: its float
# object, then its text twice (the rows, then the joined chunk); a table
# takes blocks of time nodes sized as if each value were this many doubles
_TEXT_WEIGHT = 4


def _write_chunks(path: str | None, chunks):
    if path is None or path == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="utf-8") as f:
            f.writelines(chunks)


def _write_text(path: str | None, text: str):
    _write_chunks(path, (text,))


def _csv_field(name: str) -> str:
    """``name`` as an RFC 4180 field: in double quotes with its quotes
    doubled when it holds a comma, a double quote or a line break, else as
    it is."""
    if any(c in name for c in ',"\r\n'):
        return '"' + name.replace('"', '""') + '"'
    return name


def _table_chunks(times, names, values, fmt: str, meta: dict):
    """The text of a kernel table, one block of time nodes at a time, so the
    text is never held whole.

    Each time node is formatted once and interleaved with its values by a
    per-node template of one row per vertex pair, names quoted for CSV or
    JSON and escaped for %.  The JSON text is ``json.dumps(doc,
    sort_keys=True, indent=1)`` plus a newline: ``rows`` sorts last, so the
    header is the document without it, and numbers take float.__repr__ or
    json's non-finite spelling.
    """
    import numpy as np

    from .series import time_blocks

    if fmt == "csv":
        row, sep, quote, stamp = "%s,{},{},%.17g\n", "", _csv_field, _fmt
        yield "t,x,y,value\n"
    else:
        row, sep, quote = "\n  [\n   %s,\n   {},\n   {},\n   %s\n  ]", ",", json.dumps
        stamp = _json_number
        doc = {"meta": meta, "columns": ["t", "x", "y", "value"], "rows": []}
        yield json.dumps(doc, sort_keys=True, indent=1)[: -len("]\n}")]
    esc = [quote(nm).replace("%", "%%") for nm in names]
    template = sep.join(row.format(xn, yn) for xn in esc for yn in esc)
    npairs = len(esc) ** 2
    args = [None] * (2 * npairs)
    for s in time_blocks(len(times), _TEXT_WEIGHT * npairs):
        block = values[s].reshape(-1, npairs)
        rows = block.tolist()
        if sep and not np.isfinite(block).all():
            rows = [[v if math.isfinite(v) else _json_number(v) for v in r] for r in rows]
        texts = []
        for t, r in zip(times[s], rows):
            args[0::2] = [stamp(t)] * npairs
            args[1::2] = r
            texts.append(template % tuple(args))
        yield (sep if s.start else "") + sep.join(texts)
    if sep:
        yield "\n ]\n}\n"


def _emit_table(times, names, values, fmt: str, out: str | None, meta: dict):
    _write_chunks(out, _table_chunks(times, names, values, fmt, meta))


# the proven lower bounds on sup|K − exact| that compute_kernel reads, in
# the order _error_bounds returns them
_BOUNDS = (
    "half the sup of |K - K^T|",
    "the distance of an entry from [0, 1]",
    "(row sum - 1)+/n",
)


def _error_bounds(values) -> list[float]:
    """½·sup|K − Kᵀ|, the distance of any entry from [0, 1], and
    (row sum − 1)⁺/n, each over all times, taken a block of times at a time.

    Every exact kernel here is symmetric, has entries in [0, 1] and row sums
    at most 1 (Dirichlet and windowed kernels lose mass), so each is a
    proven lower bound on the sup error of ``values``.  A non-finite entry
    makes them inf, with no warning, so such a kernel is refused too."""
    import numpy as np

    from .series import time_blocks

    n = values.shape[-1]
    blocks = (values[s] for s in time_blocks(len(values), values[0].size))
    with np.errstate(invalid="ignore", over="ignore"):
        # K − Kᵀ is antisymmetric, so its largest entry is its sup norm
        per_block = [
            (
                0.5 * (b - b.transpose(0, 2, 1)).max(),
                np.max([b.max() - 1.0, -b.min()]),
                (b.sum(axis=2).max() - 1.0) / n,
            )
            for b in blocks
        ]
        worst = np.maximum(np.max(per_block, axis=0), 0.0)
    return np.where(np.isnan(worst), np.inf, worst).tolist()


def _check_tol(tol: float):
    from .errors import ParseError

    if not 0 < tol < math.inf:
        raise ParseError(f"tolerance must be positive and finite, got {tol}")


def compute_kernel(doc, method: str, t_max: float, steps: int, tol: float):
    """Run the method named ``method`` in ``methods.METHODS`` on a document;
    returns (times, names, values array).

    ``tol`` must be positive and finite for every method, as the parametrix
    methods' term bound needs.  A kernel is refused when one of the three
    lower bounds of ``_error_bounds`` exceeds ``ERROR_LIMIT``: it is
    provably that far from the exact kernel."""
    from .errors import NumericalBudgetError, ParseError
    from .series import TimeGrid

    _check_tol(tol)
    grid = TimeGrid(t_max, steps)
    run = METHODS.get(method)
    if run is None:
        raise ParseError(f"unknown method {method!r}")
    values = run(doc, grid, tol)
    bounds = _error_bounds(values)
    bound, label = max(zip(bounds, _BOUNDS))
    if not bound <= ERROR_LIMIT:
        each = ", ".join(f"{lb} {b:.3e}" for lb, b in zip(_BOUNDS, bounds))
        raise NumericalBudgetError(
            f"{method} kernel is at least {bound:.3e} from the exact kernel by {label}, "
            f"above {ERROR_LIMIT} ({each}); refine the time grid"
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

    _check_tol(args.tol)
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
        _keep_block_memory()
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
