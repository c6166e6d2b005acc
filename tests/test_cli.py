import csv
import json
import math
import os
import subprocess
import sys

import pytest

from heatpar.cli import main
from heatpar.methods import METHODS

CASES = os.path.join(os.path.dirname(__file__), "..", "cases")


def case(name):
    return os.path.join(CASES, name)


def run_main(args):
    return main(args)


class TestKernelCommand:
    def test_k2_spectral_row(self, tmp_path, capsys):
        out = tmp_path / "k2.csv"
        status = run_main(
            [
                "kernel",
                "--graph",
                case("k2.json"),
                "--method",
                "spectral",
                "--t-max",
                "1",
                "--steps",
                "2",
                "--out",
                str(out),
            ]
        )
        assert status == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,x,y,value"
        # deterministic ordering: time-major, then first vertex, then second
        assert [ln.split(",")[:3] for ln in lines[1:6]] == [
            ["0", "a", "a"],
            ["0", "a", "b"],
            ["0", "b", "a"],
            ["0", "b", "b"],
            ["0.5", "a", "a"],
        ]
        final_diag = float(lines[-4].split(",")[3])
        assert final_diag == pytest.approx((1 + math.exp(-2.0)) / 2.0, abs=1e-12)

    def test_single_vertex_constant(self, tmp_path):
        out = tmp_path / "sv.csv"
        assert (
            run_main(
                [
                    "kernel",
                    "--graph",
                    case("single_vertex.json"),
                    "--method",
                    "spectral",
                    "--steps",
                    "4",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        for line in out.read_text().strip().splitlines()[1:]:
            assert float(line.split(",")[3]) == pytest.approx(1.0, abs=1e-12)

    def test_single_vertex_closed_form_complete_is_spectral(self, tmp_path):
        # a one-vertex graph is the complete graph K1, whose kernel is 1
        tables = []
        for method in ("spectral", "closed-form-complete"):
            out = tmp_path / f"{method}.csv"
            args = ["kernel", "--graph", case("single_vertex.json"), "--method", method,
                    "--t-max", "1", "--steps", "50", "--out", str(out)]
            assert run_main(args) == 0
            tables.append(out.read_bytes())
        assert tables[0] == tables[1]

    def test_halfline_closed_form_rows(self, tmp_path):
        out = tmp_path / "hl.json"
        status = run_main(
            [
                "kernel",
                "--graph",
                case("halfline_w40.json"),
                "--method",
                "closed-form-halfline",
                "--t-max",
                "1",
                "--steps",
                "2",
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        assert status == 0
        rows = json.loads(out.read_text())["rows"]
        from scipy.special import ive

        # e^{−2t}(I_{|v−w|}(2t) + I_{v+w+1}(2t)) at v, w, t = 2, 5, 0.5
        picked = [r for r in rows if r[0] == 0.5 and r[1] == "2" and r[2] == "5"]
        assert picked[0][3] == pytest.approx(ive(3, 1.0) + ive(8, 1.0), abs=1e-13)

    def test_shuffled_halfline_permutes_the_kernel(self):
        # the half-line methods read lattice coordinates, so listing the
        # vertices in another order only permutes the kernel
        import numpy as np

        from heatpar.cli import compute_kernel
        from heatpar.documents import parse_document

        with open(case("halfline_w40.json"), encoding="utf-8") as f:
            data = json.load(f)
        perm = np.random.default_rng(5).permutation(len(data["vertices"]))
        shuffled = dict(data, vertices=[data["vertices"][i] for i in perm])
        docs = [parse_document(json.dumps(d)) for d in (data, shuffled)]
        for method, atol in (
            ("closed-form-halfline", 0.0),
            ("closed-form-halfline-dirichlet", 0.0),
            ("dirichlet", 1e-15),
        ):
            (_, names, ordered), (_, names_s, vals) = (
                compute_kernel(doc, method, 1.0, 50, 1e-10) for doc in docs
            )
            assert list(names_s) == [names[i] for i in perm]
            assert np.abs(vals - ordered[:, perm[:, None], perm]).max() <= atol, method

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            run_main(
                [
                    "kernel",
                    "--graph",
                    case("k5_minus_edge.json"),
                    "--method",
                    "parametrix-restriction",
                    "--t-max",
                    "0.5",
                    "--steps",
                    "64",
                    "--out",
                    str(out),
                ]
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_parse_error_status(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        status = run_main(
            ["kernel", "--graph", str(bad), "--method", "spectral"]
        )
        assert status == 2
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value", [("modes", True), ("modes", 520.9), ("quad_points", True),
                      ("length", True), ("length", 1e200), ("delta_fraction", float("inf"))]
    )
    def test_bad_interval_setting_exits_2(self, tmp_path, capsys, key, value):
        with open(case("path3_interval.json"), encoding="utf-8") as f:
            doc = json.load(f)
        doc.setdefault("interval", {})[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        status = run_main(
            ["kernel", "--graph", str(bad), "--method", "parametrix-embed", "--steps", "4"]
        )
        assert status == 2
        assert f"'{key}'" in capsys.readouterr().err

    def test_too_many_modes_exits_2(self, tmp_path, capsys):
        # 10^8 modes once asked numpy for 28 GiB and died with a traceback
        with open(case("path3_interval.json"), encoding="utf-8") as f:
            doc = json.load(f)
        doc["interval"]["modes"] = 100_000_000
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "k.csv"
        status = run_main(["kernel", "--graph", str(bad), "--method", "parametrix-embed",
                           "--steps", "4", "--out", str(out)])
        assert status == 2
        err = capsys.readouterr().err
        assert err == "error: interval 'modes' 100000000 exceeds the limit of 200000\n"
        assert not out.exists()

    def test_boolean_weight_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"vertices": ["a", "b"], "edges": [["a", "b", True]]}))
        assert run_main(["export", "--graph", str(bad)]) == 2
        assert "edges[0]: weight" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "method,name",
        [
            ("parametrix-restriction", "k2.json"),
            ("dirichlet", "k2.json"),
            ("parametrix-embed", "k2.json"),
            ("closed-form-halfline", "k5_minus_edge.json"),
            ("closed-form-halfline-dirichlet", "k5_minus_edge.json"),
            ("closed-form-complete", "path3_interval.json"),
        ],
    )
    def test_method_requires_embedding(self, capsys, method, name):
        # every table entry that reads a block refuses a document without it
        status = run_main(["kernel", "--graph", case(name), "--method", method, "--steps", "4"])
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_unknown_method_is_a_parse_error(self):
        from heatpar.cli import compute_kernel
        from heatpar.documents import load_document
        from heatpar.errors import ParseError

        with pytest.raises(ParseError, match="unknown method 'heat'"):
            compute_kernel(load_document(case("k2.json")), "heat", 1.0, 4, 1e-8)

    def test_every_table_entry_is_a_cli_choice(self, capsys):
        from heatpar.methods import METHODS

        with pytest.raises(SystemExit):
            run_main(["kernel", "--graph", case("k2.json"), "--method", "heat"])
        err = capsys.readouterr().err
        assert all(f"'{name}'" in err for name in METHODS)

    @pytest.mark.parametrize("steps", ["100", "200"])
    def test_diagonal_kernel_out_of_range_exits_3(self, monkeypatch, tmp_path, capsys, steps):
        # dt·|LH| = 1 or 0.5 on K2: the trapezoid kernel is symmetric but its
        # diagonal at t = 100 reads 9586.2 or 4.36, where the exact value is 0.5
        from heatpar import methods

        monkeypatch.setattr(methods, "ORDER", 2)
        status = run_main(["kernel", "--graph", case("k2.json"), "--method",
                           "parametrix-diagonal", "--t-max", "100", "--steps", steps,
                           "--out", str(tmp_path / "k.csv")])
        assert status == 3
        err = capsys.readouterr().err
        assert "by (row sum - 1)+/n" in err and "refine the time grid" in err
        assert not (tmp_path / "k.csv").exists()

    def test_first_node_bound_exits_3(self, monkeypatch, tmp_path, capsys):
        # K2 with weight 7.992 at dt = 1/4: the trapezoid's own series has
        # |F_1| = 1.08e3, and the correction at t = dt is 136 against its
        # O(t) bound of 17.6
        from heatpar import methods

        monkeypatch.setattr(methods, "ORDER", 2)
        doc = tmp_path / "k2_heavy.json"
        doc.write_text(json.dumps({"vertices": ["a", "b"], "edges": [["a", "b", 7.992]]}))
        status = run_main(["kernel", "--graph", str(doc), "--method", "parametrix-diagonal",
                           "--t-max", "1", "--steps", "4", "--out", str(tmp_path / "k.csv")])
        assert status == 3
        assert "O(t) bound" in capsys.readouterr().err
        assert not (tmp_path / "k.csv").exists()

    def test_embed_first_node_bound_exits_3(self, monkeypatch, tmp_path, capsys):
        # the trapezoid's correction at t = dt stays below its O(t) bound
        # here; the kernel, 7.89e4 off [0, 1], is refused by the range bound
        from heatpar import methods

        monkeypatch.setattr(methods, "ORDER", 2)
        status = run_main(["kernel", "--graph", case("path3_interval.json"), "--method",
                           "parametrix-embed", "--t-max", "0.5", "--steps", "128",
                           "--out", str(tmp_path / "k.csv")])
        assert status == 3
        assert "by the distance of an entry from [0, 1]" in capsys.readouterr().err

    def test_embed_on_coarse_grid_exits_3(self, monkeypatch, tmp_path, capsys):
        from heatpar import methods

        monkeypatch.setattr(methods, "ORDER", 2)  # the trapezoid's kernel
        status = run_main(
            [
                "kernel",
                "--graph",
                case("path3_interval.json"),
                "--method",
                "parametrix-embed",
                "--t-max",
                "0.5",
                "--steps",
                "512",
                "--out",
                str(tmp_path / "k.csv"),
            ]
        )
        assert status == 3
        assert "refine the time grid" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", ["384", "512"])
    def test_asymmetric_embed_kernel_exits_3(self, monkeypatch, tmp_path, capsys, steps):
        # the series is solved on these grids, but half the trapezoid kernel's
        # asymmetry, a lower bound on its error, is about 0.388 and 0.154; the
        # run exits 0 from 640 steps
        from heatpar import methods

        monkeypatch.setattr(methods, "ORDER", 2)
        status = run_main(
            [
                "kernel",
                "--graph",
                case("path3_interval.json"),
                "--method",
                "parametrix-embed",
                "--t-max",
                "0.5",
                "--steps",
                steps,
                "--tol",
                "1e-8",
                "--out",
                str(tmp_path / "k.csv"),
            ]
        )
        assert status == 3
        err = capsys.readouterr().err
        assert "K - K^T" in err and "refine the time grid" in err
        assert not (tmp_path / "k.csv").exists()

    def test_half_asymmetry_reads_every_block(self):
        # and so do the range and row-sum bounds
        import numpy as np

        from heatpar.cli import _error_bounds

        vals = np.zeros((3, 300, 300))  # one time per block
        assert _error_bounds(vals) == [0.0, 0.0, 0.0]
        vals[2, 7, 250] = 0.3
        assert _error_bounds(vals) == pytest.approx([0.15, 0.0, 0.0])
        vals[1, 5, 6] = -0.2
        vals[1, 6, 5] = -0.2
        assert _error_bounds(vals) == pytest.approx([0.15, 0.2, 0.0])
        vals[0, 9, 9] = 1.6  # row sum 1.6, off [0, 1] by 0.6
        assert _error_bounds(vals) == pytest.approx([0.15, 0.6, 0.6 / 300])
        vals[1, 4, 4] = np.nan  # refused by compute_kernel, never passed
        assert _error_bounds(vals) == [math.inf] * 3

    @pytest.mark.parametrize(
        "bound,entries",
        [
            ("half the sup of |K - K^T|", [(0, 1, 0.5), (1, 0, 0.2)]),  # 0.15
            ("the distance of an entry from [0, 1]", [(0, 0, -0.11)]),  # below 0
            ("the distance of an entry from [0, 1]", [(1, 1, 1.12), (0, 1, 0), (1, 0, 0)]),
            ("(row sum - 1)+/n", [(0, 1, 0.85), (1, 0, 0.85)]),  # 0.3 over 2 vertices
        ],
    )
    def test_each_bound_refuses(self, monkeypatch, capsys, bound, entries):
        import numpy as np

        from heatpar import methods

        def wrong(doc, grid, tol):
            vals = np.full((grid.steps + 1, 2, 2), 0.45)
            for x, y, value in entries:
                vals[-1, x, y] = value
            return vals

        monkeypatch.setitem(methods.METHODS, "spectral", wrong)
        status = run_main(["kernel", "--graph", case("k2.json"), "--method", "spectral",
                           "--steps", "4"])
        assert status == 3
        out = capsys.readouterr()
        assert out.out == "" and f"exact kernel by {bound}, above 0.1" in out.err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entry", [(0, 1, math.inf), (1, 0, -math.inf), (1, 1, math.inf)])
    def test_non_finite_kernel_exits_3(self, monkeypatch, capsys, entry):
        # off the diagonal and on it, where K − Kᵀ is inf − inf
        import numpy as np

        from heatpar import methods

        x, y, value = entry

        def infinite(doc, grid, tol):
            vals = np.full((grid.steps + 1, 2, 2), 0.5)
            vals[-1, x, y] = value
            return vals

        monkeypatch.setitem(methods.METHODS, "spectral", infinite)
        status = run_main(["kernel", "--graph", case("k2.json"), "--method", "spectral",
                           "--steps", "4"])
        assert status == 3
        out = capsys.readouterr()
        assert out.out == "" and "numerical budget exceeded" in out.err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method", ["spectral", "parametrix-diagonal", "expm"])
    def test_infinite_t_max_exits_2(self, capsys, method):
        status = run_main(["kernel", "--graph", case("path3_interval.json"), "--method", method,
                           "--t-max", "inf", "--steps", "4"])
        assert status == 2
        assert "t_max must be positive and finite, got inf" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", ["k2.json", "path3_interval.json"])
    def test_expm_overflow_exits_3(self, capsys, name):
        status = run_main(["kernel", "--graph", case(name), "--method", "expm",
                           "--t-max", "1e308", "--steps", "4"])
        assert status == 3
        assert "overflows the expm scaling" in capsys.readouterr().err

    def test_spectral_of_overflowing_degree_exits_2(self, tmp_path, capsys):
        # the weighted degree of b is 2e308 = inf, which the graph refuses
        # when it is built, with no overflow warning
        doc = tmp_path / "huge.json"
        doc.write_text(json.dumps({"vertices": ["a", "b", "c"],
                                   "edges": [["a", "b", 1e308], ["b", "c", 1e308]]}))
        status = run_main(["kernel", "--graph", str(doc), "--method", "spectral",
                           "--t-max", "1", "--steps", "1"])
        assert status == 2
        assert "weighted degree of vertex 1, the sum of its edge weights, overflows" in (
            capsys.readouterr().err
        )

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("ambient", [False, True])
    @pytest.mark.parametrize(
        "command", [["export"], *(["kernel", "--method", m] for m in METHODS)]
    )
    def test_overflowing_degree_is_one_refusal(self, tmp_path, capsys, command, ambient):
        # every method and export refuse the document as it loads
        # b is vertex 1 of the graph, or vertex 2 of the ambient after a and c
        edges = [["a", "b", 1e308], ["b", "c", 1e308]]
        if ambient:
            body = {"vertices": ["a", "c"], "ambient": {"vertices": ["b"], "edges": edges}}
        else:
            body = {"vertices": ["a", "b", "c"], "edges": edges}
        doc = tmp_path / "huge.json"
        doc.write_text(json.dumps(body))
        steps = ["--t-max", "1", "--steps", "1"] if command[0] == "kernel" else []
        assert run_main([*command, "--graph", str(doc), *steps]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (
            f"error: the weighted degree of vertex {1 + ambient}, the sum of its edge weights, "
            "overflows\n"
        )

    @pytest.mark.parametrize("method", ["parametrix-restriction", "dirichlet",
                                        "closed-form-halfline",
                                        "closed-form-halfline-dirichlet"])
    def test_bessel_kernels_at_tiny_time(self, tmp_path, method):
        # I_n(2t) at 2t = 1e-100 is its leading term, and the kernel is the
        # identity, with the Dirichlet kernels zero at the boundary vertex 0
        import numpy as np

        out = tmp_path / "tiny.json"
        status = run_main(["kernel", "--graph", case("halfline_w40.json"), "--method", method,
                           "--t-max", "1e-100", "--steps", "2", "--format", "json",
                           "--out", str(out)])
        assert status == 0
        rows = json.loads(out.read_text())["rows"]
        values = np.array([r[3] for r in rows]).reshape(3, 41, 41)
        exact = np.eye(41)
        if "dirichlet" in method:
            exact[0, 0] = 0.0
        assert np.abs(values - exact).max() <= 1e-15

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_bad_tolerance_exits_2(self, capsys, method, tol):
        status = run_main(["kernel", "--graph", case("k2.json"), "--method", method,
                           "--tol", tol, "--steps", "4"])
        assert status == 2
        assert "tolerance must be positive" in capsys.readouterr().err

    def test_csv_quotes_special_names(self, tmp_path):
        names = ["a,b", "c\nd", 'q"r', "e\r\nf", "100%,%s", "plain"]
        edges = [[x, y, 1.0 + i] for i, (x, y) in enumerate(zip(names, names[1:]))]
        doc = tmp_path / "g.json"
        doc.write_text(json.dumps({"vertices": names, "edges": edges}))
        out = tmp_path / "k.csv"
        status = run_main(["kernel", "--graph", str(doc), "--method", "spectral",
                           "--steps", "2", "--out", str(out)])
        assert status == 0
        with open(out, newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["t", "x", "y", "value"]
        pairs = [[x, y] for x in names for y in names]
        assert [r[1:3] for r in rows[1:]] == 3 * pairs
        assert all(len(r) == 4 for r in rows)


def test_restriction_runs_without_the_jacobi_oracle(monkeypatch):
    # the ambient-spectral parametrix is checked against the Jacobi-based
    # `spectral` oracle, so it must not use that eigensolver itself; LAPACK
    # only proposes the oracle's starting basis, for the kept graph's own
    # Laplacian, and Jacobi's convergence test decides whether it is accepted
    import numpy as np

    from heatpar import cli, oracle
    from heatpar.documents import parse_document

    from conftest import lattice_hole_document

    def refuse(*args, **kwargs):
        raise AssertionError("the parametrix called the oracle's eigensolver")

    monkeypatch.setattr(oracle, "jacobi_eigh", refuse)
    doc = parse_document(json.dumps(lattice_hole_document(seed=7)))
    times, _, vals = cli.compute_kernel(doc, "parametrix-restriction", 1.0, 250, 1e-8)
    lam, v = np.linalg.eigh(doc.graph.laplacian_matrix())
    exact = (v * np.exp(-np.outer(times, lam))[:, None, :]) @ v.T
    assert np.abs(vals - exact).max() <= 1e-5


class TestEmitTable:
    NAMES = ("a%s", "{0}", "}b{", "100%", "é")
    META = {"graph": "g.json", "method": "spectral", "t_max": 1.0, "steps": 3, "tol": 1e-8}

    def emitted(self, tmp_path, times, names, values, fmt):
        from heatpar.cli import _emit_table

        out = tmp_path / f"table.{fmt}"
        _emit_table(times, names, values, fmt, str(out), self.META)
        return out.read_bytes()

    def test_matches_row_by_row_reference(self, tmp_path):
        import numpy as np

        from conftest import reference_emit_table

        rng = np.random.default_rng(7)
        specials = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 3.0, -42.0, 1e16, math.inf]
        for n in (1, 2, 5):
            times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 3.0, 6))])
            values = rng.standard_normal((len(times), n, n)) * 10.0 ** rng.integers(
                -320, 300, (len(times), n, n)
            )
            flat = values.reshape(-1)
            flat[rng.choice(flat.size, min(flat.size, len(specials)), replace=False)] = (
                specials[: min(flat.size, len(specials))]
            )
            names = self.NAMES[:n]
            for fmt in ("csv", "json"):
                ref = reference_emit_table(times, names, values, fmt, self.META)
                got = self.emitted(tmp_path, times, names, values, fmt)
                assert got == ref.encode("utf-8"), (n, fmt)

    SPECIALS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 3.0, -42.0, 1e16, math.inf,
                -math.inf, math.nan]

    def long_table(self, rng, nodes, n):
        import numpy as np

        times = np.linspace(0.0, 3.0, nodes)
        values = rng.standard_normal((nodes, n, n)) * 10.0 ** rng.integers(
            -320, 300, (nodes, n, n)
        )
        flat = values.reshape(-1)
        flat[rng.choice(flat.size, len(self.SPECIALS), replace=False)] = self.SPECIALS
        values[-1, -1, -1] = -math.inf  # a non-finite value in the last block
        return times, values

    @pytest.mark.parametrize(
        "block, n", [(b, n) for b in (7, 100) for n in (1, 2, 5)] + [(None, 5)]
    )
    def test_tables_longer_than_one_block(self, tmp_path, monkeypatch, block, n):
        import numpy as np

        from heatpar import cli, series

        from conftest import reference_emit_table

        if block is not None:  # values per table block
            monkeypatch.setattr(series, "_BLOCK_ENTRIES", cli._TEXT_WEIGHT * block)
        # time nodes per block
        step = max(1, series._BLOCK_ENTRIES // (cli._TEXT_WEIGHT * n**2))
        # at the module's own block size: two blocks and a ragged third
        nodes = 1501 if block else 2 * step + 3
        assert nodes > step
        times, values = self.long_table(np.random.default_rng(n), nodes, n)
        names = self.NAMES[:n]
        for fmt in ("csv", "json"):
            ref = reference_emit_table(times, names, values, fmt, self.META)
            got = self.emitted(tmp_path, times, names, values, fmt)
            assert got == ref.encode("utf-8"), (n, block, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_out_dash_writes_the_file_bytes_to_stdout(self, tmp_path, capsysbinary, fmt):
        # 6001 nodes × 25 pairs: three blocks of time nodes, the last one ragged
        out = tmp_path / f"k5.{fmt}"
        args = ["kernel", "--graph", case("k5_minus_edge.json"), "--method", "spectral",
                "--t-max", "1", "--steps", "6000", "--format", fmt]
        assert run_main(args + ["--out", str(out)]) == 0
        assert run_main(args + ["--out", "-"]) == 0
        assert capsysbinary.readouterr().out == out.read_bytes()

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_fast_reference_matches_reference(self, n):
        import numpy as np

        from conftest import fast_reference_emit_table, reference_emit_table

        # names that need quoting or escaping in CSV or JSON
        names = ("a,b", '"q"', "x\r\ny", "é", "\0", "[1]")[:n]
        times, values = self.long_table(np.random.default_rng(n), 40, n)
        for fmt in ("csv", "json"):
            ref = reference_emit_table(times, names, values, fmt, self.META)
            assert fast_reference_emit_table(times, names, values, fmt, self.META) == ref

    @pytest.mark.slow
    def test_every_case_and_method_matches_reference(self, tmp_path):
        from heatpar.cli import compute_kernel
        from heatpar.documents import load_document
        from heatpar.methods import METHODS
        from heatpar.errors import NumericalBudgetError

        from conftest import fast_reference_emit_table

        emitted = 0
        for name in sorted(os.listdir(CASES)):
            doc = load_document(case(name))
            for method in METHODS:
                if method == "parametrix-embed":
                    continue
                try:
                    times, names, values = compute_kernel(doc, method, 1.0, 200, 1e-8)
                except (ValueError, NumericalBudgetError):
                    continue  # a method the document does not support: exit 2 or 3
                for fmt in ("csv", "json"):
                    ref = fast_reference_emit_table(times, names, values, fmt, self.META)
                    got = self.emitted(tmp_path, times, names, values, fmt)
                    assert got == ref.encode("utf-8"), (name, method, fmt)
                emitted += 1
        assert emitted >= 15


class TestVerifyCommand:
    def test_oracles_agree(self, tmp_path):
        out = tmp_path / "rep.json"
        status = run_main(
            [
                "verify",
                "--graph",
                case("k5_minus_edge.json"),
                "--method-a",
                "spectral",
                "--method-b",
                "expm",
                "--budget",
                "1e-10",
                "--t-max",
                "2",
                "--steps",
                "50",
                "--out",
                str(out),
            ]
        )
        assert status == 0
        report = json.loads(out.read_text())
        assert report["within_budget"] is True
        assert report["sup_error"] <= 1e-10

    def test_coarse_grid_reports_not_crashes(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        status = run_main(
            [
                "verify",
                "--graph",
                case("k5_minus_edge.json"),
                "--method-a",
                "parametrix-restriction",
                "--method-b",
                "closed-form-complete",
                "--budget",
                "1e-8",
                "--t-max",
                "1",
                "--steps",
                "4",
                "--out",
                str(out),
            ]
        )
        assert status == 3
        report = json.loads(out.read_text())
        assert report["within_budget"] is False
        assert report["first_over_budget"] is not None

    @pytest.mark.parametrize("budget", ["nan", "-1"])
    def test_bad_budget_exits_2(self, capsys, budget):
        status = run_main(["verify", "--graph", case("k2.json"), "--method-a", "spectral",
                           "--method-b", "expm", "--steps", "4", "--budget", budget])
        assert status == 2
        out = capsys.readouterr()
        assert out.out == "" and "budget must be nonnegative" in out.err


class TestIdentityCommand:
    def test_watson_ok(self, tmp_path):
        out = tmp_path / "watson.json"
        status = run_main(
            [
                "identity",
                "--name",
                "watson",
                "--m",
                "1",
                "--n",
                "2",
                "--x",
                "3.0",
                "--terms",
                "40",
                "--quad-steps",
                "200000",
                "--tol",
                "1e-8",
                "--out",
                str(out),
            ]
        )
        assert status == 0
        payload = json.loads(out.read_text())
        assert payload["residual"] <= 1e-8

    def test_intro_special_cases(self, tmp_path):
        for name in ("halfline-special-1", "halfline-special-2"):
            out = tmp_path / f"{name}.json"
            status = run_main(
                [
                    "identity",
                    "--name",
                    name,
                    "--t",
                    "1.0",
                    "--order-cap",
                    "20",
                    "--quad-steps",
                    "4000",
                    "--tol",
                    "1e-6",
                    "--out",
                    str(out),
                ]
            )
            assert status == 0

    def test_zero_time_trivial(self, tmp_path):
        out = tmp_path / "zero.json"
        status = run_main(
            [
                "identity",
                "--name",
                "intro",
                "--x-order",
                "2",
                "--y-order",
                "1",
                "--t",
                "0.0",
                "--tol",
                "1e-12",
                "--out",
                str(out),
            ]
        )
        assert status == 0
        assert json.loads(out.read_text())["residual"] == 0.0

    def test_over_tolerance_exits_3(self, tmp_path):
        out = tmp_path / "coarse.json"
        status = run_main(
            [
                "identity",
                "--name",
                "intro",
                "--t",
                "1.0",
                "--order-cap",
                "1",
                "--quad-steps",
                "10",
                "--tol",
                "1e-10",
                "--out",
                str(out),
            ]
        )
        assert status == 3

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    @pytest.mark.parametrize(
        "name", ["watson", "intro", "halfline-special-1", "halfline-special-2"]
    )
    def test_bad_tolerance_exits_2(self, tmp_path, capsys, name, tol):
        out = tmp_path / "identity.json"
        status = run_main(["identity", "--name", name, "--tol", tol, "--out", str(out)])
        assert status == 2
        assert "tolerance must be positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args", [["--name", "watson", "--x", "nan"],
                                      ["--name", "intro", "--t", "nan"]])
    def test_nan_argument_exits_2(self, capsys, args):
        assert run_main(["identity", *args, "--quad-steps", "100"]) == 2
        assert "argument nan outside certified range" in capsys.readouterr().err


class TestFourthOrderMethods:
    def test_dirichlet_verify_grid_is_within_1e_11(self):
        # the benchmark's Dirichlet run: the trapezoid's error there is 8.19e-8
        import numpy as np

        from heatpar.cli import compute_kernel
        from heatpar.documents import load_document

        doc = load_document(case("halfline_w40.json"))
        _, _, kernel = compute_kernel(doc, "dirichlet", 2.0, 2000, 1e-10)
        _, _, exact = compute_kernel(doc, "closed-form-halfline-dirichlet", 2.0, 2000, 1e-10)
        assert np.abs(kernel - exact).max() <= 1e-11

    @pytest.mark.parametrize("order", [2, 4])
    def test_methods_run_the_module_order(self, monkeypatch, order):
        # ORDER is read when a method runs; at 2 the method is the library's
        # default pipeline
        import numpy as np

        from heatpar import methods
        from heatpar.documents import load_document
        from heatpar.parametrix import diagonal_parametrix, heat_kernel_via_parametrix
        from heatpar.series import TimeGrid

        monkeypatch.setattr(methods, "ORDER", order)
        doc = load_document(case("k5_minus_edge.json"))
        grid = TimeGrid(1.0, 40)
        direct = heat_kernel_via_parametrix(diagonal_parametrix(doc.graph, grid), 1e-8, order)
        assert np.array_equal(methods.METHODS["parametrix-diagonal"](doc, grid, 1e-8), direct)
        if order == 2:
            default = heat_kernel_via_parametrix(diagonal_parametrix(doc.graph, grid), 1e-8)
            assert np.array_equal(direct, default)


class TestExportCommand:
    def test_canonical_and_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert (
                run_main(["export", "--graph", case("halfline_w40.json"), "--out", str(path)])
                == 0
            )
        assert a.read_bytes() == b.read_bytes()
        doc = json.loads(a.read_text())
        assert doc["derived"]["boundary"] == ["0"]
        assert doc["ambient"]["frontier"] == ["40"]


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "heatpar.cli", "export", "--graph", case("k2.json")],
            capture_output=True,
            text=True,
            env={**os.environ, "HEATPAR_THREADS": "1"},
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["vertices"] == ["a", "b"]

    def test_import_leaves_numpy_unloaded(self):
        # main() sets the BLAS thread variables from HEATPAR_THREADS, which
        # only has an effect if numpy is not loaded yet
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, heatpar.cli; print('numpy' in sys.modules)"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_runs_leave_scipy_unloaded(self, tmp_path):
        # the run path is numpy only; scipy is a test-time dependency
        from conftest import lattice_hole_document

        lattice = tmp_path / "lattice.json"
        lattice.write_text(json.dumps(lattice_hole_document(seed=7)))
        common = ["--t-max", "1", "--steps", "100", "--out", str(tmp_path / "out")]
        runs = [
            ["verify", "--graph", str(lattice), "--method-a", "parametrix-restriction",
             "--method-b", "spectral", "--budget", "1e-3", *common],
            ["verify", "--graph", case("halfline_w40.json"), "--method-a", "dirichlet",
             "--method-b", "closed-form-halfline-dirichlet", "--budget", "1e-3", *common],
            ["kernel", "--graph", case("path3_interval.json"), "--method", "parametrix-embed",
             "--t-max", "0.25", "--steps", "8192", "--out", str(tmp_path / "out")],
        ]
        script = (
            "import json, sys\n"
            "from heatpar.cli import main\n"
            "status = [main(args) for args in json.loads(sys.argv[1])]\n"
            "print(json.dumps([status, 'scipy' in sys.modules]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(runs)], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [[0, 0, 0], False]

    def test_embedding_runs_leave_numpy_ma_unloaded(self, tmp_path):
        # a support taken with np.union1d would import numpy.ma (through
        # np.unique) in every restriction and Dirichlet run
        from conftest import lattice_hole_document

        lattice = tmp_path / "lattice.json"
        lattice.write_text(json.dumps(lattice_hole_document(seed=1)))
        common = ["--t-max", "1", "--steps", "25", "--budget", "1e-3",
                  "--out", str(tmp_path / "out")]
        runs = [
            ["verify", "--graph", str(lattice), "--method-a", "parametrix-restriction",
             "--method-b", "spectral", *common],
            ["verify", "--graph", case("halfline_w40.json"), "--method-a", "dirichlet",
             "--method-b", "closed-form-halfline-dirichlet", *common],
        ]
        script = (
            "import json, sys\n"
            "from heatpar.cli import main\n"
            "status = [main(args) for args in json.loads(sys.argv[1])]\n"
            "print(json.dumps([status, 'numpy.ma' in sys.modules]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(runs)], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [[0, 0], False]

    @pytest.mark.skipif(
        not getattr(os, "confstr_names", {}).get("CS_GNU_LIBC_VERSION"),
        reason="the mmap and trim thresholds are glibc's",
    )
    def test_freed_blocks_keep_their_pages(self):
        # 50 blocks of three 3 MB temporaries, freed together as a series
        # product frees a block's transform, product and inverse: glibc
        # trims them off its heap and faults them in again for each block
        # (3 × 768 pages), until main() fixes its thresholds.  Below 4 MB
        # numpy asks for no huge pages, so each page faults on its own.
        script = (
            "import resource, sys\n"
            "import numpy as np\n"
            "from heatpar import cli\n"
            "if sys.argv[1] == '1':\n"
            "    cli._keep_block_memory()\n"
            "def block():\n"
            "    return [np.ones(3 << 17) for _ in range(3)]\n"
            "block()\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for _ in range(50):\n"
            "    block()\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        faults = []
        for keep in "01":
            proc = subprocess.run(
                [sys.executable, "-c", script, keep], capture_output=True, text=True
            )
            assert proc.returncode == 0, proc.stderr
            faults.append(int(proc.stdout))
        assert faults[0] > 25 * 768
        assert faults[1] < 768

    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    def test_invalid_thread_count_exits_2(self, monkeypatch, capsys, value):
        monkeypatch.setenv("HEATPAR_THREADS", value)
        assert run_main(["export", "--graph", case("k2.json"), "--out", os.devnull]) == 2
        assert "HEATPAR_THREADS must be a positive integer" in capsys.readouterr().err

    def test_thread_count_overrides_blas_variables(self, monkeypatch, tmp_path):
        blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        for var in blas:
            monkeypatch.setenv(var, "5")  # restored after the test
        monkeypatch.setenv("HEATPAR_THREADS", "2")
        out = str(tmp_path / "k2.json")
        assert run_main(["export", "--graph", case("k2.json"), "--out", out]) == 0
        assert [os.environ[var] for var in blas] == ["2", "2", "2"]

    def test_pools_default_to_one_thread(self, monkeypatch, tmp_path):
        blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        for var in ("HEATPAR_THREADS", *blas):
            monkeypatch.setenv(var, "0")  # so that the test's end removes it again
            monkeypatch.delenv(var)
        out = str(tmp_path / "k2.json")
        assert run_main(["export", "--graph", case("k2.json"), "--out", out]) == 0
        assert [os.environ.get(var) for var in blas] == ["1", "1", "1"]

    @pytest.mark.parametrize("preset", ["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                        "MKL_NUM_THREADS"])
    def test_preset_pool_variable_is_kept(self, monkeypatch, tmp_path, preset):
        blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        for var in ("HEATPAR_THREADS", *blas):
            monkeypatch.setenv(var, "0")
            monkeypatch.delenv(var)
        monkeypatch.setenv(preset, "3")
        out = str(tmp_path / "k2.json")
        assert run_main(["export", "--graph", case("k2.json"), "--out", out]) == 0
        assert {var: os.environ.get(var) for var in blas} == {
            var: "3" if var == preset else None for var in blas
        }

    def test_every_export_resolves(self):
        # a name left in __all__ after its definition is gone fails here
        # rather than on first access
        import heatpar

        for name in heatpar.__all__:
            assert getattr(heatpar, name) is not None, name
