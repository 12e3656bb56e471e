"""End-to-end command-line runs: exit codes, payloads, determinism."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import (avg_dist_tail, cycle_builds, forests_walked,
                      lose_a_root_path, path_graph, referee_nodal, star_graph,
                      two_triangle_join, zero_bar_operator)
from magnodal import __version__, cli
from magnodal.cli import _build_parser, main
from magnodal.errors import AdmissibilityError
from magnodal.families import (
    complete_graph,
    cycle_graph,
    random_connected_graph,
    random_operator,
    strong_diagonal_fixture,
)
from magnodal.graphs import Graph, graph_to_json
from magnodal.nodal import SurplusDistribution
from magnodal.operators import SIGNING_CAP, SupportedMatrix, operator_to_json
from magnodal.serialize import csv_cell, dumps_canonical


def write_op(tmp_path, h, name="op.json"):
    path = tmp_path / name
    path.write_text(json.dumps(operator_to_json(h)))
    return str(path)


def write_graph(tmp_path, g, name="graph.json"):
    path = tmp_path / name
    path.write_text(json.dumps(graph_to_json(g)))
    return str(path)


def triangle_op():
    g = cycle_graph(3)
    return SupportedMatrix(g, np.array([0.1, 0.2, 0.3]),
                           -np.ones(3, dtype=np.complex128))


def disconnected_op():
    """A triangle and an isolated vertex with the lowest diagonal."""
    g = Graph(4, ((0, 1), (0, 2), (1, 2)))
    return SupportedMatrix(g, np.array([0.0, 0.3, 0.7, -5.0]),
                           np.full(3, -1.0 + 0j))


def half_admissible_op():
    g = Graph(3, ((0, 1), (0, 2), (1, 2)))
    return SupportedMatrix(g, np.array([0.0, 1.5, 5.0]),
                           np.array([-1.0, 0.5, -1.0], dtype=np.complex128))


def nodal_fixtures() -> dict[str, SupportedMatrix]:
    """Operators whose positions pass, or fail each check of, the
    admissibility kernel: strong and zero diagonals, random couplings
    at diagonal spreads 0 and 1, a degenerate ring, complex entries off
    a critical point and a disconnected graph."""
    rng = np.random.default_rng(5)
    ops = {
        "strong-K4": strong_diagonal_fixture(complete_graph(4)),
        "strong-K5": strong_diagonal_fixture(complete_graph(5)),
        "ring-C4": SupportedMatrix(cycle_graph(4), np.zeros(4),
                                   -np.ones(4, dtype=np.complex128)),
        "zero-diagonal-K4": SupportedMatrix(
            complete_graph(4), np.zeros(4), -np.ones(6, dtype=np.complex128)),
        "zero-diagonal-P3": SupportedMatrix(
            path_graph(3), np.zeros(3), -np.ones(2, dtype=np.complex128)),
        "triangle": triangle_op(),
        "complex-C3": SupportedMatrix(
            cycle_graph(3), np.array([0.0, 1.0, 2.0]),
            np.exp(1j * np.array([0.3, 0.5, 0.7]))),
        "disconnected": disconnected_op(),
    }
    for n in (5, 6, 7):
        for i in range(4):
            ops[f"random-n{n}-{i}"] = random_operator(
                random_connected_graph(n, n + 1 + i, rng), rng,
                diag_spread=float(i % 2))
    return ops


NODAL_FIXTURES = nodal_fixtures()


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectrum:
    def test_payload_and_record(self, tmp_path, capsys):
        op = write_op(tmp_path, triangle_op())
        stem = str(tmp_path / "run")
        code, out, _ = run(capsys, ["spectrum", "--op", op, "--out", stem])
        assert code == 0
        payload = json.loads(out)
        values = payload["eigenvalues"]
        assert values == sorted(values) and len(values) == 3
        record = json.loads((tmp_path / "run.json").read_text())
        assert record["artifact"]["name"] == "magnodal"
        assert record["config"]["command"] == "spectrum"
        assert record["results"] == payload
        assert "degeneracy" in record["tolerances"]
        csv_lines = (tmp_path / "run.csv").read_text().splitlines()
        assert csv_lines[0].startswith("# schema: magnodal/spectrum")
        assert csv_lines[1] == "k,eigenvalue"
        assert len(csv_lines) == 5

    def test_csv_stdout(self, tmp_path, capsys):
        op = write_op(tmp_path, triangle_op())
        code, out, _ = run(capsys, ["spectrum", "--op", op,
                                    "--format", "csv"])
        assert code == 0
        assert out.splitlines()[0] == "k,eigenvalue"

    def test_deterministic_output(self, tmp_path, capsys):
        op = write_op(tmp_path, triangle_op())
        _, out1, _ = run(capsys, ["spectrum", "--op", op])
        _, out2, _ = run(capsys, ["spectrum", "--op", op])
        assert out1 == out2

    def test_graph_cross_check_passes(self, tmp_path, capsys):
        h = triangle_op()
        op = write_op(tmp_path, h)
        gpath = write_graph(tmp_path, h.graph)
        code, _, _ = run(capsys, ["spectrum", "--op", op, "--graph", gpath])
        assert code == 0


class TestNodalDist:
    def test_single_position(self, tmp_path, capsys):
        op = write_op(tmp_path, triangle_op())
        code, out, _ = run(capsys, ["nodal-dist", "--op", op, "--k", "2"])
        assert code == 0
        payload = json.loads(out)
        assert payload == {"k": 2, "nodal_count": 2, "surplus": 1,
                           "betti": 1}

    def test_full_table_with_inadmissible_rows(self, tmp_path, capsys):
        g = cycle_graph(3)
        h = SupportedMatrix(g, np.zeros(3), -np.ones(3, dtype=np.complex128))
        op = write_op(tmp_path, h)
        code, out, _ = run(capsys, ["nodal-dist", "--op", op])
        assert code == 0
        payload = json.loads(out)
        assert payload["admissible"] == 1
        assert payload["surplus_histogram"] == [1, 0]
        statuses = [r["status"] for r in payload["rows"]]
        assert statuses == ["ok", "inadmissible", "inadmissible"]

    def test_tree_histogram_concentrates_at_zero(self, tmp_path, capsys):
        h = random_operator(star_graph(3), np.random.default_rng(7))
        code, out, _ = run(capsys, ["nodal-dist", "--op",
                                    write_op(tmp_path, h)])
        payload = json.loads(out)
        assert (code, payload["betti"]) == (0, 0)
        assert payload["surplus_histogram"] == [4]
        assert payload["admissible"] == 4

    def test_triangle_histogram(self, tmp_path, capsys):
        code, out, _ = run(capsys, ["nodal-dist", "--op",
                                    write_op(tmp_path, triangle_op())])
        payload = json.loads(out)
        assert code == 0
        assert payload["surplus_histogram"] == [2, 1]
        assert payload["admissible"] == 3

    def test_single_position_degenerate_exits_2(self, tmp_path, capsys):
        g = cycle_graph(3)
        h = SupportedMatrix(g, np.zeros(3), -np.ones(3, dtype=np.complex128))
        op = write_op(tmp_path, h)
        code, _, err = run(capsys, ["nodal-dist", "--op", op, "--k", "2"])
        assert code == 2
        assert "precondition" in err


    @pytest.mark.parametrize("case", ["triangle", "zero-diagonal-C3",
                                      "random-K5", "disconnected"])
    def test_one_kernel_call_decides_every_position(self, tmp_path, capsys,
                                                    monkeypatch, case):
        """The table comes from one kernel call at every position, and
        each row is what ``nodal_count`` gives at its k alone."""
        import magnodal.nodal as nodal

        h, flags = {
            "triangle": (triangle_op(), []),
            "zero-diagonal-C3": (SupportedMatrix(
                cycle_graph(3), np.zeros(3),
                -np.ones(3, dtype=np.complex128)), []),
            "random-K5": (random_operator(complete_graph(5),
                                          np.random.default_rng(0)), []),
            # every check fails at some k, the bound included
            "disconnected": (disconnected_op(), ["--tol-vanish", "0"]),
        }[case]
        stacks = []  # (rows, positions) of each kernel call's products
        inner = nodal._stack_checks

        def counting(*args, **kwargs):
            stacks.append(args[2].shape[:2])
            return inner(*args, **kwargs)

        monkeypatch.setattr(nodal, "_stack_checks", counting)
        op = write_op(tmp_path, h)
        code, _, _ = run(capsys, ["nodal-dist", "--op", op, *flags, "--k",
                                  "1"])
        assert code in (0, 2)
        assert stacks == [(1, h.graph.n)]
        stacks.clear()
        code, out, _ = run(capsys, ["nodal-dist", "--op", op, *flags])
        assert code == 0
        assert stacks == [(1, h.graph.n)]
        monkeypatch.undo()
        tol_vanish = 0.0 if flags else 1e-8
        for row in json.loads(out)["rows"]:
            try:
                count = nodal.nodal_count(h, row["k"], tol_vanish=tol_vanish)
            except AdmissibilityError as exc:
                assert (row["status"], row["reason"]) \
                    == ("inadmissible", str(exc))
                continue
            assert (row["status"], row["nodal_count"], row["surplus"]) \
                == ("ok", count, count - row["k"] + 1)


    @pytest.mark.parametrize("flags", [[], ["--tol-vanish", "0"]],
                             ids=["default", "tol-vanish-0"])
    @pytest.mark.parametrize("case", NODAL_FIXTURES)
    def test_single_position_is_the_table_row(self, tmp_path, capsys, case,
                                               flags):
        """``--k`` reports the row the table gives at that k: its count,
        or its reason as the precondition error (exit 2)."""
        h = NODAL_FIXTURES[case]
        op = write_op(tmp_path, h)
        code, out, err = run(capsys, ["nodal-dist", "--op", op, *flags])
        assert (code, err) == (0, "")
        table = json.loads(out)
        for row in table["rows"]:
            code, out, err = run(capsys, ["nodal-dist", "--op", op,
                                          "--k", str(row["k"]), *flags])
            if row["status"] == "ok":
                assert (code, err) == (0, "")
                assert json.loads(out) == {
                    "k": row["k"], "nodal_count": row["nodal_count"],
                    "surplus": row["surplus"], "betti": table["betti"]}
            else:
                assert (code, out) == (2, "")
                assert err == f"precondition not met: {row['reason']}\n"

    @pytest.mark.parametrize("case", [
        name for name, h in NODAL_FIXTURES.items()
        if h.graph.n <= 6 and h.is_real])
    def test_admitted_surpluses_match_the_fifty_digit_referee(
            self, tmp_path, capsys, case):
        h = NODAL_FIXTURES[case]
        ref = referee_nodal(h)
        code, out, _ = run(capsys, ["nodal-dist", "--op",
                                    write_op(tmp_path, h)])
        assert code == 0
        admitted = [(r["k"], r["surplus"]) for r in json.loads(out)["rows"]
                    if r["status"] == "ok"]
        assert admitted or case == "disconnected"  # vanishing everywhere
        assert admitted == [(k, ref.surplus[k - 1]) for k, _ in admitted]
        scale = max(1.0, h.norm_fro)
        assert np.allclose(np.linalg.eigvalsh(h.to_dense()),
                           [float(x) for x in ref.values],
                           rtol=0.0, atol=1e-12 * scale)

    @pytest.mark.parametrize("case,k,csv", [
        ("triangle", None, "1,ok,0,0\n2,ok,2,1\n3,ok,2,0\n"),
        ("triangle", 2, "2,ok,2,1\n"),
        ("zero-diagonal-C3", None,
         "1,ok,0,0\n2,inadmissible,,\n3,inadmissible,,\n"),
    ])
    def test_csv_table_printed_written_or_both(self, tmp_path, capsys, case,
                                               k, csv):
        """The table is the same printed, written, or both at once."""
        h = (triangle_op() if case == "triangle" else SupportedMatrix(
            cycle_graph(3), np.zeros(3), -np.ones(3, dtype=np.complex128)))
        argv = ["nodal-dist", "--op", write_op(tmp_path, h)]
        argv += [] if k is None else ["--k", str(k)]
        table = "k,status,nodal_count,surplus\n" + csv
        printed = run(capsys, [*argv, "--format", "csv"])
        written = run(capsys, [*argv, "--out", str(tmp_path / "w")])
        both = run(capsys, [*argv, "--out", str(tmp_path / "b"),
                            "--format", "csv"])
        assert printed == both == (0, table, "")
        assert written[:2] == run(capsys, argv)[:2]
        for stem in ("w", "b"):
            assert (tmp_path / f"{stem}.csv").read_text() \
                == "# schema: magnodal/nodal v1\n" + table
            record = json.loads((tmp_path / f"{stem}.json").read_text())
            assert record["results"] == json.loads(written[1])


class TestRealOnly:
    """The library refuses a complex operator; the command prints its
    sentence, after its own ``--k`` range check."""

    @pytest.mark.parametrize("argv,sentence", [
        (["avg-dist"], "the signing average is stated for real matrices; "
         "this operator has complex entries"),
        (["critical-scan", "--k", "2"], "the scan sweeps the torus over a "
         "real base matrix; this operator has complex entries"),
        (["verify-index"], "index-versus-surplus verification runs over the "
         "signings of a real matrix; this operator has complex entries"),
    ], ids=["avg-dist", "critical-scan", "verify-index"])
    def test_complex_operator_exits_2(self, tmp_path, capsys, argv,
                                      sentence):
        h = SupportedMatrix(cycle_graph(3), np.array([0.0, 1.0, 2.0]),
                            np.exp(1j * np.array([0.3, 0.5, 0.7])))
        op = write_op(tmp_path, h)
        assert run(capsys, [*argv, "--op", op]) \
            == (2, "", f"precondition not met: {sentence}\n")

    def test_k_range_is_checked_first(self, tmp_path, capsys):
        h = SupportedMatrix(path_graph(2), np.zeros(2),
                            np.array([np.exp(0.4j)]))
        code, out, err = run(capsys, ["critical-scan", "--op",
                                      write_op(tmp_path, h), "--k", "3"])
        assert (code, out) == (3, "")
        assert err.startswith("usage error: --k 3 is outside 1..2")


class TestEmit:
    """``_emit`` reads a command's CSV rows once, and only when the table
    is printed or written."""

    def emit(self, tmp_path, capsys, out, fmt, last=(2, None)):
        reads = []

        def rows():
            reads.append(1)
            yield [1, 0.5]
            yield list(last)

        args = _build_parser().parse_args(
            ["spectrum", "--op", "x", "--format", fmt,
             *(["--out", str(tmp_path / out)] if out else [])])
        args._t0 = 0.0
        cli._emit(args, {"a": 1}, ("magnodal/test", ["k", "x"], rows()))
        return len(reads), capsys.readouterr().out

    def test_json_alone_reads_no_row(self, tmp_path, capsys):
        assert self.emit(tmp_path, capsys, None, "json") \
            == (0, '{\n  "a": 1\n}\n')

    @pytest.mark.parametrize("out,fmt", [(None, "csv"), ("w", "json"),
                                         ("b", "csv")])
    def test_rows_read_once(self, tmp_path, capsys, out, fmt):
        reads, printed = self.emit(tmp_path, capsys, out, fmt)
        assert reads == 1
        table = "k,x\n1,0.5\n2,\n"
        assert printed == (table if fmt == "csv" else '{\n  "a": 1\n}\n')
        if out:
            assert (tmp_path / f"{out}.csv").read_text() \
                == "# schema: magnodal/test v1\n" + table

    @pytest.mark.parametrize("out", [None, "b"])
    @pytest.mark.parametrize("last", [(2,), (2, None, 3)])
    def test_row_width_checked_when_printed(self, tmp_path, capsys, out,
                                            last):
        """Printed or written, a table is rendered by one function, which
        refuses a row whose width differs from the header's."""
        with pytest.raises(ValueError, match="row width"):
            self.emit(tmp_path, capsys, out, "csv", last)
        assert capsys.readouterr().out == ""


class TestAvgDist:
    def test_k4_binomial(self, tmp_path, capsys):
        op = write_op(tmp_path, strong_diagonal_fixture(complete_graph(4)))
        code, out, err = run(capsys, ["avg-dist", "--op", op])
        assert code == 0
        payload = json.loads(out)
        assert payload["counts"] == [32, 96, 96, 32]
        assert payload["mean"] == 1.5 and payload["variance"] == 0.75
        assert payload["symmetric_counts"] is True
        assert payload["binomial_l1_deviation"] == 0.0
        assert payload["averaged_over"] == "all signings"
        assert "binomial L1" in err

    def test_class_sweep_matches(self, tmp_path, capsys):
        op = write_op(tmp_path, strong_diagonal_fixture(complete_graph(4)))
        _, full_out, _ = run(capsys, ["avg-dist", "--op", op])
        _, class_out, _ = run(capsys, ["avg-dist", "--op", op, "--classes"])
        assert json.loads(full_out)["counts"] \
            == json.loads(class_out)["counts"]

    def test_k7_classes_binomial(self, tmp_path, capsys):
        # beta 15: 32768 classes of 64 signings each
        h = strong_diagonal_fixture(complete_graph(7), eta=100.0)
        code, out, _ = run(capsys, ["avg-dist", "--op", write_op(tmp_path, h),
                                    "--classes"])
        assert code == 0
        payload = json.loads(out)
        assert payload["betti"] == 15
        assert payload["n_samples"] == 2 ** 21 * 7
        assert payload["counts"] == [math.comb(15, s) * 2 ** 6 * 7
                                     for s in range(16)]
        assert payload["binomial_l1_deviation"] == 0.0

    def test_complex_operator_exits_2(self, tmp_path, capsys):
        g = path_graph(2)
        h = SupportedMatrix(g, np.zeros(2), np.array([np.exp(0.4j)]))
        op = write_op(tmp_path, h)
        code, _, err = run(capsys, ["avg-dist", "--op", op])
        assert code == 2 and "complex" in err

    def test_cap_exits_4(self, tmp_path, capsys):
        op = write_op(tmp_path, strong_diagonal_fixture(complete_graph(8)))
        code, _, err = run(capsys, ["avg-dist", "--op", op])
        assert code == 4 and "cap" in err

    @staticmethod
    def path_with_chords(n):
        """A path on ``n`` vertices plus three chords: beta 3."""
        edges = path_graph(n).edges + ((0, 3), (5, 9), (12, 20))
        return Graph(n, tuple(sorted(edges)))

    def test_cap_bounds_beta_not_edges(self, tmp_path, capsys):
        # 32 edges, 8 classes of 2^29 signings each
        h = random_operator(self.path_with_chords(30),
                            np.random.default_rng(1))
        code, out, _ = run(capsys, ["avg-dist", "--op", write_op(tmp_path, h)])
        assert code == 0
        payload = json.loads(out)
        assert payload["betti"] == 3
        assert payload["n_samples"] == 30 * 2 ** 32
        assert payload["counts"] == [30 * 2 ** 29 * c for c in (1, 3, 3, 1)]

    def test_count_overflow_exits_4(self, tmp_path, capsys):
        # beta 3 is under the cap, but 70 * 2^72 samples overflow int64
        h = random_operator(self.path_with_chords(70),
                            np.random.default_rng(1))
        code, out, err = run(capsys, ["avg-dist", "--op",
                                      write_op(tmp_path, h)])
        assert code == 4 and out == ""
        assert err == ("cap exceeded: 70 vertices times 2^72 signings "
                       "overflow the int64 counts\n")

    def test_one_class_enumeration_and_two_to_beta_rows(self, tmp_path,
                                                       capsys, monkeypatch):
        import magnodal.nodal as nodal

        enumerations, rows = [], []
        classes, solve = nodal.gauge_classes_of_signings, nodal.eigh_dense

        def counting_classes(*args, **kwargs):
            enumerations.append(args)
            return classes(*args, **kwargs)

        def counting_solve(dense):
            rows.append(len(dense))
            return solve(dense)

        monkeypatch.setattr(nodal, "gauge_classes_of_signings",
                            counting_classes)
        monkeypatch.setattr(nodal, "eigh_dense", counting_solve)
        op = write_op(tmp_path, strong_diagonal_fixture(complete_graph(5)))
        for extra in ([], ["--skip-inadmissible"], ["--classes"]):
            enumerations.clear()
            rows.clear()
            code, _, _ = run(capsys, ["avg-dist", "--op", op, *extra])
            assert code == 0
            assert len(enumerations) == 1
            assert sum(rows) == 2 ** 6  # beta of K5

    def test_inadmissible_signing_exits_2(self, tmp_path, capsys):
        op = write_op(tmp_path, half_admissible_op())
        code, _, err = run(capsys, ["avg-dist", "--op", op])
        assert code == 2 and "inadmissible" in err

    def test_skip_inadmissible(self, tmp_path, capsys):
        op = write_op(tmp_path, half_admissible_op())
        code, out, _ = run(capsys, ["avg-dist", "--op", op,
                                    "--skip-inadmissible"])
        assert code == 0
        payload = json.loads(out)
        assert payload["skipped_signings"] == 4
        assert payload["counts"] == [8, 4]
        assert payload["averaged_over"] == "admissible signings only"

    @pytest.mark.parametrize("extra", [[], ["--classes"]])
    def test_every_signing_skipped(self, tmp_path, capsys, extra):
        g = complete_graph(4)
        zero = SupportedMatrix(g, np.zeros(4),
                               -np.ones(g.num_edges, dtype=np.complex128))
        op = write_op(tmp_path, zero)
        stem = str(tmp_path / "run")
        code, out, err = run(capsys, ["avg-dist", "--op", op, "--out", stem,
                                      "--skip-inadmissible", *extra])
        assert code == 0
        payload = json.loads(out)
        assert payload["counts"] == [0, 0, 0, 0]
        assert payload["n_samples"] == 0
        assert payload["skipped_signings"] == 64
        assert payload["mean"] is None and payload["variance"] is None
        assert payload["binomial_l1_deviation"] is None
        assert "no admissible signings" in err
        csv_rows = (tmp_path / "run.csv").read_text().splitlines()[2:]
        assert [row.split(",")[2] for row in csv_rows] == [""] * 4

    def test_vertexless_operator_has_no_moments(self, tmp_path, capsys):
        op = tmp_path / "empty.json"
        op.write_text('{"graph": {"n": 0, "edges": []}, "diag": [], '
                      '"offdiag": []}')
        code, out, err = run(capsys, ["avg-dist", "--op", str(op)])
        assert code == 0
        payload = json.loads(out)
        assert payload["counts"] == [0] and payload["n_samples"] == 0
        assert payload["skipped_signings"] == 0
        assert payload["mean"] is None and payload["variance"] is None
        assert "moments undefined" in err

    @pytest.mark.parametrize("extra", [[], ["--classes"],
                                       ["--skip-inadmissible"]])
    def test_vertexless_operator_names_the_missing_positions(
            self, tmp_path, capsys, extra):
        """Nothing is skipped on a graph without vertices: its one
        signing has no eigenvalue position, and the note says so."""
        op = tmp_path / "empty.json"
        op.write_text('{"graph": {"n": 0, "edges": []}, "diag": [], '
                      '"offdiag": []}')
        code, out, err = run(capsys, ["avg-dist", "--op", str(op), *extra])
        assert code == 0
        assert json.loads(out) == {
            "averaged_over": ("admissible signings only" if extra
                              == ["--skip-inadmissible"] else "all signings"),
            "betti": 0, "binomial_l1_deviation": None, "counts": [0],
            "mean": None, "n_samples": 0, "skipped_signings": 0,
            "symmetric_counts": True, "variance": None}
        assert err == ("no eigenvalue positions (the graph has no "
                       "vertices); moments undefined\n")


    def test_zero_edge_entry_skips_every_signing_unsolved(
            self, tmp_path, capsys, monkeypatch):
        """Every product on a zero edge entry is a zero, too close to
        zero to carry a sign: skipping drops all 64 signings of
        strong-diagonal K4 before any eigensolve, with the bytes that
        solving every class gave.  Without skipping, and in
        ``verify-index``, the classes are still solved, and each message
        comes from the first failing check."""
        import magnodal.spectral as spectral

        h = strong_diagonal_fixture(complete_graph(4))
        offdiag = h.offdiag.copy()
        offdiag[2] = 0.0  # edge (0, 3)
        op = write_op(tmp_path, SupportedMatrix(h.graph, h.diag, offdiag))
        solves = []
        inner = spectral._EIGH

        def counting(*args, **kwargs):
            solves.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(spectral, "_EIGH", counting)
        skipped = "no admissible signings (64 skipped); moments undefined\n"
        for extra in ([], ["--classes"]):
            assert run(capsys, ["avg-dist", "--op", op, "--skip-inadmissible",
                                *extra]) == (0, (
                '{\n  "averaged_over": "admissible signings only",\n'
                '  "betti": 3,\n  "binomial_l1_deviation": null,\n'
                '  "counts": [\n    0,\n    0,\n    0,\n    0\n  ],\n'
                '  "mean": null,\n  "n_samples": 0,\n'
                '  "skipped_signings": 64,\n  "symmetric_counts": true,\n'
                '  "variance": null\n}\n'), skipped)
        assert run(capsys, ["avg-dist", "--op", op, "--skip-inadmissible",
                            "--format", "csv"]) \
            == (0, "surplus,count,prob\n0,0,\n1,0,\n2,0,\n3,0,\n", skipped)
        assert solves == []
        assert run(capsys, ["avg-dist", "--op", op]) == (2, "", (
            "precondition not met: signing with pattern (1, 1, 1, 1, 1, 1) "
            "is inadmissible at k=1: edge products too close to zero on "
            "edges [(0, 3)]\n"))
        assert len(solves) == 1
        code, out, err = run(capsys, ["verify-index", "--op", op])
        assert (code, err) == (0, "verified 0 rows, skipped 32\n")
        assert {r["reason"] for r in json.loads(out)["rows"]} \
            == {"edge products too close to zero on edges [(0, 3)]"}
        assert len(solves) > 1


GOLDEN =json.loads((Path(__file__).parent / "data" / "avg_dist_golden.json")
                    .read_text())


class TestAvgDistGolden:
    """avg-dist output, byte for byte, as the per-signing sweep wrote it;
    the exit-2 messages name the class representative since the average
    sums over switching classes only."""

    @pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda c: "-".join(
        [c["op"], *(f.lstrip("-") for f in c["flags"])]))
    def test_output_is_unchanged(self, tmp_path, capsys, case):
        path = tmp_path / "op.json"
        path.write_text(json.dumps(GOLDEN["operators"][case["op"]]))
        code, out, err = run(capsys, ["avg-dist", "--op", str(path),
                                      *case["flags"]])
        assert code == case["exit"]
        assert out == case["stdout"]
        assert err == case["stderr"]

    @pytest.mark.parametrize(
        "case", [c for c in GOLDEN["cases"] if "--classes" not in c["flags"]],
        ids=lambda c: "-".join([c["op"], *(f.lstrip("-")
                                          for f in c["flags"])]))
    def test_classes_flag_is_ignored(self, tmp_path, capsys, case):
        path = tmp_path / "op.json"
        path.write_text(json.dumps(GOLDEN["operators"][case["op"]]))
        argv = ["avg-dist", "--op", str(path), *case["flags"]]
        assert run(capsys, [*argv, "--classes"]) == run(capsys, argv)

    def test_classes_help_says_ignored(self, capsys):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["avg-dist", "-h"])
        assert "accepted and ignored" in " ".join(
            capsys.readouterr().out.split())

    def test_cases_cover_every_mode(self):
        modes = {(c["op"], tuple(c["flags"])) for c in GOLDEN["cases"]}
        assert len(modes) == 16
        assert {c["exit"] for c in GOLDEN["cases"]} == {0, 2}


def tail_histograms() -> dict[str, tuple[SurplusDistribution, int]]:
    """Histograms for the moments tail, each with the vertex count of
    its operator: beta 0, beta 20 at the cap, no samples (every signing
    skipped, or no vertex), and asymmetric and symmetric counts."""
    rng = np.random.default_rng(29)
    wide = rng.integers(0, 1 << 40, size=21)
    return {
        "beta0": (SurplusDistribution(0, [12], 12), 3),
        "beta20-cap": (SurplusDistribution(20, wide, int(wide.sum())), 21),
        "all-skipped": (SurplusDistribution(3, [0] * 4, 0, skipped=64), 4),
        "vertexless": (SurplusDistribution(0, [0], 0), 0),
        "asymmetric": (SurplusDistribution(3, [5, 0, 7, 1], 13), 4),
        "symmetric": (SurplusDistribution(4, [1, 4, 6, 4, 1], 16), 5),
    }


class TestAvgDistTail:
    """The moments tail of ``avg-dist`` against ``conftest.avg_dist_tail``,
    the formulas it ran before: the stderr line, the payload and the
    CSV table, byte for byte."""

    @pytest.mark.parametrize("name", sorted(tail_histograms()))
    @pytest.mark.parametrize("skip", [False, True])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_matches_the_oracle(self, capsys, monkeypatch, name, skip, fmt):
        dist, n = tail_histograms()[name]
        h = SupportedMatrix(Graph(n), np.zeros(n), np.zeros(0))
        monkeypatch.setattr(cli, "_load_operator", lambda args: h)
        monkeypatch.setattr(cli, "average_surplus_distribution",
                            lambda *args, **kwargs: dist)
        argv = ["avg-dist", "--op", "unread.json", "--format", fmt]
        code, out, err = run(capsys, argv + ["--skip-inadmissible"] * skip)
        line, payload, rows = avg_dist_tail(dist, n, skip)
        assert code == 0
        assert err == line + "\n"
        if fmt == "json":
            assert out == dumps_canonical(payload) + "\n"
        else:
            assert out == "".join(
                ",".join(map(csv_cell, row)) + "\n"
                for row in [["surplus", "count", "prob"], *rows])

    def test_cases_cover_the_edges(self):
        cases = tail_histograms().values()
        assert {d.betti for d, _ in cases} >= {0, SIGNING_CAP}
        assert any(d.n_samples == 0 and n > 0 for d, n in cases)
        assert any(n == 0 for _, n in cases)
        assert any(d.counts.tolist() != d.counts.tolist()[::-1]
                   for d, _ in cases)


class TestInputErrors:
    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, ["spectrum", "--op",
                                    str(tmp_path / "missing.json")])
        assert code == 3 and "input error" in err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, ["spectrum", "--op", str(path)])
        assert code == 3 and "not valid JSON" in err

    def test_schema_violation(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"graph": {"n": 2, "edges": []}}))
        code, _, err = run(capsys, ["spectrum", "--op", str(path)])
        assert code == 3

    @pytest.mark.parametrize("edge", [[None, 1], [[0], 1], [True, 0]])
    def test_edge_reference_must_be_integers(self, tmp_path, capsys, edge):
        """An edge reference is a pair of integers, as a graph edge is:
        no crash on a non-number, and ``true`` is not vertex 1."""
        doc = operator_to_json(triangle_op())
        doc["offdiag"][0]["edge"] = edge
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["spectrum", "--op", str(path)])
        assert (code, out) == (3, "")
        assert f"bad edge reference {edge!r}" in err

    def test_graph_mismatch(self, tmp_path, capsys):
        op = write_op(tmp_path, triangle_op())
        gpath = write_graph(tmp_path, cycle_graph(4))
        code, _, err = run(capsys, ["spectrum", "--op", op,
                                    "--graph", gpath])
        assert code == 3 and "does not match" in err

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, ["no-such-command"])
        assert code == 3 and "usage error" in err

    def test_missing_required_argument(self, capsys):
        code, _, _ = run(capsys, ["spectrum"])
        assert code == 3

    def test_linkage_needs_op_or_fixture(self, capsys):
        code, _, err = run(capsys, ["linkage-analyze"])
        assert code == 3 and "usage error" in err

    def test_linkage_with_op_needs_k(self, tmp_path, capsys):
        op = write_op(tmp_path, triangle_op())
        code, _, err = run(capsys, ["linkage-analyze", "--op", op])
        assert code == 3 and "--k" in err


class TestCriticalScan:
    def test_triangle_scan(self, tmp_path, capsys):
        op = write_op(tmp_path, strong_diagonal_fixture(cycle_graph(3)))
        stem = str(tmp_path / "scan")
        code, out, _ = run(capsys, ["critical-scan", "--op", op, "--k", "1",
                                    "--starts", "4", "--out", stem])
        assert code == 0
        payload = json.loads(out)
        assert len(payload["reports"]) == 2
        assert all(r["classification"] == "symmetry"
                   for r in payload["reports"])
        assert sorted(r["morse_index"] for r in payload["reports"]) == [0, 1]
        assert "best effort" in payload["coverage"]
        lines = (tmp_path / "scan.csv").read_text().splitlines()
        assert lines[1].split(",")[0] == "classification"

    def test_one_forest_walk_per_graph(self, tmp_path, capsys, monkeypatch):
        walked = forests_walked(monkeypatch)
        op = write_op(tmp_path, strong_diagonal_fixture(complete_graph(5)))
        code, _, _ = run(capsys, ["critical-scan", "--op", op, "--k", "2",
                                  "--starts", "4"])
        assert code == 0
        assert len(walked) == 1

    def test_one_cycle_basis_per_graph(self, tmp_path, capsys, monkeypatch):
        built = cycle_builds(monkeypatch)
        op = write_op(tmp_path, strong_diagonal_fixture(complete_graph(5)))
        code, _, _ = run(capsys, ["critical-scan", "--op", op, "--k", "2",
                                  "--starts", "4"])
        assert code == 0
        # one checked build of the six fundamental cycles of K5, on the
        # forest of the one graph the operator file was read into, for
        # the flux cross-check of the symmetry points
        assert len(built) == 1 and built[0].coeffs.shape == (6, 10)

    def test_complex_operator_exits_2(self, tmp_path, capsys):
        g = path_graph(2)
        h = SupportedMatrix(g, np.zeros(2), np.array([np.exp(0.4j)]))
        op = write_op(tmp_path, h)
        code, _, _ = run(capsys, ["critical-scan", "--op", op, "--k", "1"])
        assert code == 2

    def test_zero_edge_entry_is_refused_before_any_eigensolve(
            self, tmp_path, capsys, monkeypatch):
        """A zero edge entry has no phase: the scan refuses it, with the
        words ``linkage-analyze`` uses, before it solves anything."""
        import magnodal.spectral as spectral

        h = strong_diagonal_fixture(complete_graph(4))
        offdiag = h.offdiag.copy()
        offdiag[2] = 0.0
        op = write_op(tmp_path, SupportedMatrix(h.graph, h.diag, offdiag))
        refusal = ("precondition not met: phase recovery needs a nonzero "
                   "entry on every edge\n")
        solves = []
        inner = spectral._eigensolve

        def counting(*args):
            solves.append(1)
            return inner(*args)

        monkeypatch.setattr(spectral, "_eigensolve", counting)
        for k in range(1, 5):
            assert run(capsys, ["critical-scan", "--op", op, "--k", str(k),
                                "--starts", "4"]) == (2, "", refusal)
        assert solves == []
        assert run(capsys, ["linkage-analyze", "--op", op, "--k", "1"]) \
            == (2, "", refusal)


class TestVerifyIndex:
    def test_triangle(self, tmp_path, capsys):
        op = write_op(tmp_path, strong_diagonal_fixture(complete_graph(3)))
        code, out, err = run(capsys, ["verify-index", "--op", op])
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] == 6 and payload["skipped"] == 0
        assert "verified 6 rows" in err

    def test_builds_no_cycle_basis(self, tmp_path, capsys, monkeypatch):
        # the torus chart is the forest's non-forest positions; no cycle
        # coefficient or root path is read, so none is built
        walked = forests_walked(monkeypatch)
        op = write_op(tmp_path, strong_diagonal_fixture(complete_graph(5)))
        code, out, _ = run(capsys, ["verify-index", "--op", op])
        assert code == 0 and json.loads(out)["ok"] > 0
        assert len(walked) == 1
        assert not {"coeffs", "up"} & walked[0].__dict__.keys()

    def test_disconnected_graph_mismatch_exits_2(self, tmp_path, capsys):
        op = write_op(tmp_path, disconnected_op())
        code, out, err = run(capsys, ["verify-index", "--op", op,
                                      "--tol-vanish", "0"])
        assert code == 2 and out == ""
        assert err == ("precondition not met: Morse index 1 differs from "
                       "nodal surplus 0 at class (0,), k=2; the "
                       "index-surplus identity holds on connected graphs "
                       "only\n")


@pytest.mark.parametrize("argv", [["critical-scan", "--k", "1"],
                                  ["verify-index"]])
def test_beta_over_the_cap_exits_4_before_any_solve(tmp_path, capsys,
                                                    monkeypatch, argv):
    # K8 carries beta 21; uncapped, its 2^21 symmetry points would all
    # be solved
    op = write_op(tmp_path, strong_diagonal_fixture(complete_graph(8)))

    import magnodal.spectral as spectral

    def refuse(*args, **kwargs):
        raise AssertionError("an eigensolve ran before the cap check")

    monkeypatch.setattr(spectral, "_EIGH", refuse)
    code, out, err = run(capsys, [argv[0], "--op", op, *argv[1:]])
    assert code == 4 and out == ""
    assert err == ("cap exceeded: class enumeration over beta 21 exceeds "
                   "the cap of 20\n")


class TestLinkageAnalyze:
    def test_emit_fixture_and_reanalyze(self, tmp_path, capsys):
        stem = str(tmp_path / "link")
        code, out, _ = run(capsys, ["linkage-analyze", "--emit-fixture", "3",
                                    "--seed", "0", "--out", stem])
        assert code == 0
        payload = json.loads(out)
        assert payload["vanishing_vertex"] == 0
        assert payload["manifold_dimension"] == 0
        assert payload["hessian_index"] == payload["predicted_index"]
        assert payload["closure_residual"] <= 1e-8
        fixture_path = tmp_path / "link.fixture.json"
        assert fixture_path.exists()
        code2, out2, _ = run(capsys, ["linkage-analyze", "--op",
                                      str(fixture_path), "--k",
                                      str(payload["k"])])
        assert code2 == 0
        again = json.loads(out2)
        assert again["vanishing_vertex"] == 0
        assert again["manifold_dimension"] == 0
        assert again["predicted_index"] == payload["predicted_index"]

    @pytest.mark.parametrize("degree", [3, 4, 5, 6])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_reanalysis_reproduces_the_emitted_run(self, tmp_path, capsys,
                                                   degree, seed):
        """``--op`` analyzes the operator in the file as read: the
        re-analysis of an emitted fixture prints the emitted run's
        stdout and stderr byte for byte, float fields included."""
        stem = str(tmp_path / "link")
        emitted = run(capsys, ["linkage-analyze", "--emit-fixture",
                               str(degree), "--seed", str(seed),
                               "--out", stem])
        assert emitted[0] == 0
        k = json.loads(emitted[1])["k"]
        assert run(capsys, ["linkage-analyze", "--op",
                            stem + ".fixture.json", "--k", str(k),
                            "--seed", str(seed)]) == emitted

    def test_builds_no_cycle_basis(self, capsys, monkeypatch):
        # the Hessian's chart is the forest's non-forest positions; no
        # graph that the fixture and its analysis walk builds its cycles
        # or root paths
        walked = forests_walked(monkeypatch)
        code, _, _ = run(capsys, ["linkage-analyze", "--emit-fixture", "4",
                                  "--seed", "0"])
        assert code == 0 and walked
        assert not any({"coeffs", "up"} & f.__dict__.keys() for f in walked)

    @pytest.mark.parametrize("extra", [
        ["--op", "OP"], ["--k", "1"], ["--graph", "GRAPH"],
        ["--op", "OP", "--k", "1"]], ids=lambda x: "+".join(x[::2]))
    def test_emit_fixture_excludes_an_operator(self, tmp_path, capsys,
                                               extra):
        paths = {"OP": write_op(tmp_path, triangle_op()),
                 "GRAPH": write_graph(tmp_path, cycle_graph(3))}
        stem = str(tmp_path / "run")
        code, out, err = run(capsys, [
            "linkage-analyze", "--emit-fixture", "3", "--out", stem,
            *(paths.get(a, a) for a in extra)])
        assert code == 3 and out == ""
        assert "usage error: --emit-fixture excludes --op, --k and " \
            "--graph" in err
        assert not list(tmp_path.glob("run*"))

    def test_zero_entry_beside_closing_bars_exits_2(self, tmp_path, capsys):
        """Three bars that close and a zero entry at the vanishing
        vertex: the zero entry is refused with exit 2, where its zero bar
        length escaped as a traceback with exit 1."""
        h, k = zero_bar_operator()
        op = write_op(tmp_path, h)
        assert run(capsys, ["linkage-analyze", "--op", op, "--k", str(k)]) \
            == (2, "", "precondition not met: phase recovery needs a "
                "nonzero entry on every edge\n")

    def test_degree_two_vanishing_exits_2(self, tmp_path, capsys):
        g = path_graph(3)
        h = SupportedMatrix(g, np.zeros(3), -np.ones(2, dtype=np.complex128))
        op = write_op(tmp_path, h)
        code, _, err = run(capsys, ["linkage-analyze", "--op", op,
                                    "--k", "2"])
        assert code == 2 and "degree" in err


class TestTransversalityCheck:
    def test_join_fixture(self, tmp_path, capsys):
        h, k = two_triangle_join()
        op = write_op(tmp_path, h)
        code, out, err = run(capsys, ["transversality-check", "--op", op,
                                      "--k", str(k)])
        assert code == 0
        payload = json.loads(out)
        assert payload["multiplicity"] == 2
        assert payload["transverse"] is False
        assert payload["splits_graph"] is True
        assert payload["support"] == [1, 2, 3, 4]
        assert payload["kernel_witness"] is not None
        assert payload["edge_separated_pair"] is not None

    def test_simple_eigenvalue(self, tmp_path, capsys):
        op = write_op(tmp_path, triangle_op())
        code, out, _ = run(capsys, ["transversality-check", "--op", op,
                                    "--k", "1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["multiplicity"] == 1
        assert payload["transverse"] is True
        assert payload["kernel_witness"] is None
        assert payload["edge_separated_pair"] is None

    def test_eigenspace_is_built_once(self, tmp_path, capsys, monkeypatch):
        import magnodal.cli as cli
        import magnodal.transversality as transversality

        calls = 0
        original = transversality.eigenspace_basis

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        for module in (cli, transversality):
            if hasattr(module, "eigenspace_basis"):
                monkeypatch.setattr(module, "eigenspace_basis", counting)
        h, k = two_triangle_join()
        op = write_op(tmp_path, h)
        code, _, _ = run(capsys, ["transversality-check", "--op", op,
                                  "--k", str(k)])
        assert code == 0
        assert calls == 1

    def test_support_is_found_once(self, tmp_path, capsys, monkeypatch):
        import magnodal.transversality as transversality

        counts = {"support_components": 0, "connected_components": 0}
        for name in counts:
            def counting(*args, _name=name,
                         _inner=getattr(transversality, name), **kwargs):
                counts[_name] += 1
                return _inner(*args, **kwargs)
            for module in (cli, transversality):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting)
        h, k = two_triangle_join()
        op = write_op(tmp_path, h)
        code, out, _ = run(capsys, ["transversality-check", "--op", op,
                                    "--k", str(k)])
        assert code == 0
        payload = json.loads(out)
        assert payload["splits_graph"] is True
        assert payload["edge_separated_pair"] is not None
        assert counts == {"support_components": 1,
                          "connected_components": 1}


class TestCltExperiment:
    def test_tiny_run(self, capsys):
        argv = ["clt-experiment", "--beta-min", "1", "--beta-max", "2",
                "--samples", "2", "--seed", "0"]
        code, out, err = run(capsys, argv)
        assert code == 0
        payload = json.loads(out)
        assert [row["beta"] for row in payload["trend"]] == [1, 2]
        for row in payload["trend"]:
            assert row["samples"] == 2
            assert 0.0 <= row["ks_to_normal"] <= 1.0
        assert "conjecture probe" in payload["note"]
        assert set(payload["histograms"]) == {"1", "2"}
        assert "beta 1" in err

    def test_reproducible(self, capsys):
        argv = ["clt-experiment", "--beta-min", "1", "--beta-max", "1",
                "--samples", "2", "--seed", "7"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, ["clt-experiment", "--beta-min", "0"])
        assert code == 3 and "usage error" in err

    @pytest.mark.parametrize("beta_max", ["11", "16"])
    def test_family_gap_is_a_usage_error(self, capsys, beta_max):
        # checked for the whole range before any sample is drawn
        code, out, err = run(capsys, ["clt-experiment", "--beta-min", "10",
                                      "--beta-max", beta_max])
        assert code == 3 and "usage error" in err
        assert "no complete graph minus a matching" in err
        assert out == "" and "beta 10" not in err

    def test_beta_12_is_reached(self, capsys):
        code, out, _ = run(capsys, ["clt-experiment", "--beta-min", "12",
                                    "--beta-max", "12", "--samples", "1"])
        assert code == 0
        assert [row["beta"] for row in json.loads(out)["trend"]] == [12]


#: Out-of-range option values on the strong-diagonal triangle (n = 3).
OUT_OF_RANGE = [
    ("nodal-dist", "--k", "0"),
    ("nodal-dist", "--k", "4"),
    ("critical-scan", "--k", "9"),
    ("critical-scan", "--starts", "-1"),
    ("transversality-check", "--k", "4"),
    ("clt-experiment", "--samples", "0"),
    ("clt-experiment", "--retry-cap", "-1"),
    ("linkage-analyze", "--emit-fixture", "1"),
    ("linkage-analyze", "--k", "4"),
    ("critical-scan", "--seed", "-1"),
    ("linkage-analyze", "--seed", "-1"),
    ("clt-experiment", "--seed", "-1"),
]


@pytest.mark.parametrize("command,flag,value", OUT_OF_RANGE,
                         ids=lambda x: str(x))
def test_out_of_range_value_is_a_usage_error(tmp_path, capsys, command, flag,
                                             value):
    h = strong_diagonal_fixture(cycle_graph(3))
    argv = {
        "nodal-dist": ["--op", write_op(tmp_path, h)],
        "critical-scan": ["--op", write_op(tmp_path, h), "--k", "1"],
        "transversality-check": ["--op", write_op(tmp_path, h)],
        "clt-experiment": ["--beta-min", "1", "--beta-max", "1"],
        "linkage-analyze": ["--op", write_op(tmp_path, h), "--k", "1"]
        if flag == "--k" else [],
    }[command]
    code, out, err = run(capsys, [command, *argv, flag, value])
    assert code == 3 and "usage error" in err and flag in err
    assert out == ""


#: The options each subcommand accepts (besides -h/--help).
OPTIONS = {
    "spectrum": {"--graph", "--op", "--out", "--format"},
    "nodal-dist": {"--graph", "--op", "--k", "--tol-degeneracy",
                   "--tol-vanish", "--out", "--format"},
    "avg-dist": {"--graph", "--op", "--tol-degeneracy", "--tol-vanish",
                 "--out", "--format", "--classes", "--skip-inadmissible"},
    "critical-scan": {"--graph", "--op", "--k", "--seed", "--tol-degeneracy",
                      "--tol-vanish", "--out", "--format", "--starts"},
    "verify-index": {"--graph", "--op", "--tol-degeneracy", "--tol-vanish",
                     "--out", "--format"},
    "linkage-analyze": {"--graph", "--op", "--k", "--seed",
                        "--tol-degeneracy", "--tol-vanish", "--out",
                        "--emit-fixture"},
    "transversality-check": {"--graph", "--op", "--k", "--tol-degeneracy",
                             "--out"},
    "clt-experiment": {"--seed", "--tol-degeneracy", "--tol-vanish", "--out",
                       "--format", "--family", "--beta-min", "--beta-max",
                       "--samples", "--retry-cap"},
}

#: Options a subcommand does not read, with a value that would parse.
REMOVED = [
    ("spectrum", "--k", "1"),
    ("spectrum", "--seed", "0"),
    ("spectrum", "--tol-degeneracy", "1e-9"),
    ("spectrum", "--tol-vanish", "1e-9"),
    ("nodal-dist", "--seed", "0"),
    ("avg-dist", "--k", "1"),
    ("avg-dist", "--seed", "0"),
    ("verify-index", "--k", "1"),
    ("verify-index", "--seed", "0"),
    ("linkage-analyze", "--format", "csv"),
    ("transversality-check", "--seed", "0"),
    ("transversality-check", "--tol-vanish", "1e-9"),
    ("transversality-check", "--format", "csv"),
    ("clt-experiment", "--graph", "graph.json"),
    ("clt-experiment", "--k", "1"),
]

#: A value for every option that takes one.
VALUES = {"--graph": "graph.json", "--op": "op.json", "--k": "1",
          "--seed": "3", "--tol-degeneracy": "1e-7", "--tol-vanish": "1e-8",
          "--out": "run", "--format": "csv", "--starts": "2",
          "--emit-fixture": "3", "--family": "random-regular-like",
          "--beta-min": "1", "--beta-max": "2", "--samples": "1",
          "--retry-cap": "2"}


def minimal_argv(tmp_path, command):
    """A valid invocation of ``command`` on a small input."""
    if command == "clt-experiment":
        return [command, "--beta-min", "1", "--beta-max", "1",
                "--samples", "1"]
    if command == "linkage-analyze":
        return [command, "--emit-fixture", "3"]
    argv = [command, "--op", write_op(tmp_path, triangle_op())]
    if command in ("critical-scan", "transversality-check"):
        argv += ["--k", "1"]
    if command == "critical-scan":
        argv += ["--starts", "1"]
    return argv


class TestSubcommandOptions:
    def test_each_subcommand_declares_its_own_options(self):
        parser = _build_parser()
        subparsers = next(a for a in parser._actions
                          if isinstance(a.choices, dict))
        assert set(subparsers.choices) == set(OPTIONS)
        for command, sub in subparsers.choices.items():
            declared = {s for a in sub._actions for s in a.option_strings}
            assert declared - {"-h", "--help"} == OPTIONS[command], command
        assert sum(map(len, OPTIONS.values())) == 57

    @pytest.mark.parametrize("command,flag,value", REMOVED,
                             ids=lambda x: str(x))
    def test_unread_option_is_a_usage_error(self, tmp_path, capsys,
                                            command, flag, value):
        assert flag not in OPTIONS[command]
        code, out, err = run(capsys, [*minimal_argv(tmp_path, command),
                                      flag, value])
        assert code == 3 and "usage error" in err and flag in err
        assert out == ""

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_every_option_parses(self, command):
        argv = [command]
        for flag in sorted(OPTIONS[command]):
            argv += [flag] if flag not in VALUES else [flag, VALUES[flag]]
        args = _build_parser().parse_args(argv)
        for flag in OPTIONS[command]:
            key = flag.lstrip("-").replace("-", "_")
            assert getattr(args, key) not in (None, False), flag

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_record_echoes_own_options(self, tmp_path, capsys, command):
        stem = str(tmp_path / "run")
        code, _, _ = run(capsys, [*minimal_argv(tmp_path, command),
                                  "--out", stem])
        assert code == 0
        record = json.loads((tmp_path / "run.json").read_text())
        own = {flag.lstrip("-").replace("-", "_")
               for flag in OPTIONS[command]}
        expected = own - {"out", "tol_degeneracy", "tol_vanish"}
        assert set(record["config"]) == expected | {"command"}
        assert record["config"]["command"] == command
        assert set(record["tolerances"]) \
            == {"degeneracy", "vanish", "product", "real"}


class TestNonFiniteInput:
    """NaN and Infinity (which ``json`` reads) are schema errors."""

    @pytest.mark.parametrize("command", [["spectrum"], ["avg-dist"],
                                         ["avg-dist", "--classes"]])
    @pytest.mark.parametrize("where", ["diag", "offdiag"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       -float("inf"), 10 ** 400],
                             ids=["nan", "inf", "-inf", "huge-int"])
    def test_operator_entry(self, tmp_path, capsys, command, where, value):
        doc = operator_to_json(strong_diagonal_fixture(complete_graph(4)))
        if where == "diag":
            doc["diag"][1] = value
        else:
            doc["offdiag"][2]["re"] = value
        path = tmp_path / "op.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, [command[0], "--op", str(path),
                                      *command[1:]])
        assert code == 3 and "input error" in err and "finite" in err
        assert out == ""

    @pytest.mark.parametrize("flag", ["--tol-degeneracy", "--tol-vanish"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-9", "x"])
    def test_tolerance(self, tmp_path, capsys, flag, value):
        op = write_op(tmp_path, triangle_op())
        code, out, err = run(capsys, ["nodal-dist", "--op", op, "--k", "1",
                                      flag, value])
        assert code == 3 and "usage error" in err and flag in err
        assert out == ""

    def test_zero_tolerance_is_accepted(self, tmp_path, capsys):
        op = write_op(tmp_path, triangle_op())
        code, _, _ = run(capsys, ["nodal-dist", "--op", op, "--k", "1",
                                  "--tol-degeneracy", "0",
                                  "--tol-vanish", "0"])
        assert code == 0

    def test_nan_cannot_switch_off_the_simplicity_check(self, tmp_path,
                                                        capsys):
        g = complete_graph(4)
        zero = SupportedMatrix(g, np.zeros(4),
                               -np.ones(g.num_edges, dtype=np.complex128))
        op = write_op(tmp_path, zero)
        code, _, err = run(capsys, ["nodal-dist", "--op", op, "--k", "2"])
        assert code == 2 and "multiplicity 3" in err
        code, _, err = run(capsys, ["nodal-dist", "--op", op, "--k", "2",
                                    "--tol-degeneracy", "nan"])
        assert code == 3 and "usage error" in err


def test_cycle_basis_failure_is_an_internal_error(tmp_path, capsys,
                                                  monkeypatch):
    op = write_op(tmp_path, triangle_op())
    lose_a_root_path(monkeypatch)
    code, _, err = run(capsys, ["critical-scan", "--op", op, "--k", "1",
                                "--starts", "0"])
    assert code == 1 and "internal check failed" in err
    assert "nonzero boundary" in err


@pytest.fixture
def parser_cache(monkeypatch):
    """Start with no cached parser, whatever ran before."""
    monkeypatch.setattr(cli, "_PARSER", None)


def run_fresh(capsys, monkeypatch, argv):
    """``run`` with a parser built for this call alone."""
    with monkeypatch.context() as m:
        m.setattr(cli, "_parser", _build_parser)
        return run(capsys, argv)


@pytest.mark.usefixtures("parser_cache")
class TestParserReuse:
    """``main`` builds its parser once per process, and the parser keeps
    nothing from one call to the next."""

    def test_built_once(self, tmp_path, capsys, monkeypatch):
        built = 0

        def counting():
            nonlocal built
            built += 1
            return _build_parser()

        monkeypatch.setattr(cli, "_build_parser", counting)
        op = write_op(tmp_path, triangle_op())
        codes = [run(capsys, argv)[0] for argv in [
            ["spectrum", "--op", op],
            ["avg-dist", "--op", op],
            ["nodal-dist", "--op", op, "--seed", "1"],
            ["spectrum", "--op", op, "--format", "csv"],
            ["no-such-command"],
        ] * 3]
        assert codes == [0, 0, 3, 0, 3] * 3
        assert built == 1

    def test_mixed_sequence_matches_fresh_parsers(self, tmp_path, capsys,
                                                  monkeypatch):
        strong = write_op(tmp_path, strong_diagonal_fixture(complete_graph(4)))
        triangle = write_op(tmp_path, strong_diagonal_fixture(cycle_graph(3)),
                            "triangle.json")
        complex_op = write_op(tmp_path, SupportedMatrix(
            path_graph(2), np.zeros(2), np.array([np.exp(0.4j)])),
            "complex.json")
        scan = ["critical-scan", "--op", triangle, "--k", "1",
                "--starts", "2"]

        def sequence(out):
            return [
                ["avg-dist", "--op", strong],
                ["avg-dist", "--op", strong, "--seed", "5"],
                [*scan, "--seed", "5", "--out", str(out / "seeded")],
                [*scan, "--out", str(out / "default")],
                ["spectrum", "--op", str(tmp_path / "missing.json")],
                ["avg-dist", "--op", complex_op],
                ["avg-dist", "--op", strong, "--format", "csv"],
                ["avg-dist", "--op", strong],
            ]

        reused_dir, fresh_dir = tmp_path / "reused", tmp_path / "fresh"
        reused_dir.mkdir()
        fresh_dir.mkdir()
        reused = [run(capsys, argv) for argv in sequence(reused_dir)]
        fresh = [run_fresh(capsys, monkeypatch, argv)
                 for argv in sequence(fresh_dir)]
        assert [code for code, _, _ in reused] == [0, 3, 0, 0, 3, 2, 0, 0]
        assert reused == fresh
        assert reused[-2][1].startswith("surplus,count,prob\n")
        assert reused[-1][1] == reused[0][1]

        def config(out, name):
            return json.loads((out / f"{name}.json").read_text())["config"]

        own = {flag.lstrip("-").replace("-", "_")
               for flag in OPTIONS["critical-scan"]}
        keys = own - {"out", "tol_degeneracy", "tol_vanish"} | {"command"}
        for out in (reused_dir, fresh_dir):
            assert config(out, "seeded")["seed"] == 5
            assert config(out, "default")["seed"] == 0
            assert set(config(out, "default")) == keys
        for name in ("seeded", "default"):
            assert config(reused_dir, name) == config(fresh_dir, name)

    @pytest.mark.parametrize("argv", [["--version"], ["-h"],
                                      ["avg-dist", "-h"]])
    def test_help_and_version_exit(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as fresh:
            _build_parser().parse_args(argv)
        expected = capsys.readouterr()
        assert fresh.value.code == 0 and expected.out
        if argv == ["--version"]:
            assert expected.out == f"{__version__}\n"
        run(capsys, ["spectrum", "--op", write_op(tmp_path, triangle_op())])
        for _ in range(2):
            with pytest.raises(SystemExit) as reused:
                main(argv)
            assert reused.value.code == 0
            assert capsys.readouterr() == expected


def dispatch_corpus() -> list[list[str]]:
    """Argvs for the dispatch check: every subcommand alone, with each
    of its options, with all of them, after ``-h`` and before
    ``--version``; help and version before a command; and an empty
    argv, an unknown command, an unknown, abbreviated, joined or
    extra option, ``--``, a missing ``--op`` and refused values."""
    op = ["--op", "op.json"]
    corpus = [[], ["no-such-command"], ["--version"], ["-h"],
              ["--version", "avg-dist"], ["-h", "avg-dist"],
              ["avg-dist", *op, "--bogus"], ["avg-dist", *op, "--skip"],
              ["avg-dist", *op, "--ver"], ["avg-dist", "--op=op.json"],
              ["avg-dist", *op, "extra"], ["avg-dist", *op, "--", "x"],
              ["nodal-dist", *op, "--k", "0"],
              ["avg-dist", *op, "--tol-vanish", "nan"]]
    for command, flags in sorted(OPTIONS.items()):
        corpus += [[command], [command, "-h"], [command, "--version"]]
        every = [command]
        for flag in sorted(flags):
            value = [VALUES[flag]] if flag in VALUES else []
            corpus.append([command, flag, *value])
            every += [flag, *value]
        corpus.append(every)
    return corpus


class TestDispatch:
    """``main`` hands an argv that starts with a command name straight
    to that command's subparser, and every other argv to the full parse;
    both give the namespace, usage error or exit of the full parse."""

    @pytest.mark.parametrize("argv", dispatch_corpus(),
                             ids=lambda argv: " ".join(argv) or "empty")
    def test_same_outcome_as_the_full_parse(self, capsys, monkeypatch,
                                            argv):
        seen = []

        def record(args):
            seen.append(vars(args))

        def parser():
            """A fresh parser whose commands record their namespace."""
            p = _build_parser()
            for sub in p.commands.values():
                sub.set_defaults(func=record)
            return p

        try:
            expected = ("namespace", vars(parser().parse_args(argv)))
        except cli._UsageError as exc:
            expected = ("usage error", f"usage error: {exc}\n")
        except SystemExit as exc:
            expected = ("exit", exc.code, capsys.readouterr())
        assert capsys.readouterr() == ("", "")
        monkeypatch.setattr(cli, "_parser", parser)
        try:
            code = main(argv)
        except SystemExit as exc:
            got = ("exit", exc.code, capsys.readouterr())
        else:
            out, err = capsys.readouterr()
            if code == 0:
                assert (out, err) == ("", "")
                got = ("namespace", {key: value for key, value
                                     in seen.pop().items() if key != "_t0"})
            else:
                assert (code, out) == (3, "")
                got = ("usage error", err)
        assert got == expected
        assert seen == []

    def test_corpus_takes_every_path(self):
        commands = set(OPTIONS)
        corpus = dispatch_corpus()
        assert {argv[0] for argv in corpus if argv} \
            == commands | {"no-such-command", "--version", "-h"}
        assert sum(len(argv) == 1 and argv[0] in commands
                   for argv in corpus) == len(commands)


#: The records of three runs on ``triangle_op`` with ``--out``, less
#: ``wall_time_s``, as the commands wrote them when the record was built
#: on every run; ``op`` is the operator path.
RECORDS = {
    "spectrum": (["spectrum"], {
        "config": {"command": "spectrum", "format": "json", "graph": None},
        "results": {"eigenvalues": [-1.8022213994821232, 1.1433863496634347,
                                    1.2588350498186887]}}),
    "avg-dist": (["avg-dist", "--skip-inadmissible"], {
        "config": {"classes": False, "command": "avg-dist",
                   "format": "json", "graph": None,
                   "skip_inadmissible": True},
        "results": {"averaged_over": "admissible signings only", "betti": 1,
                    "binomial_l1_deviation": 0, "counts": [12, 12],
                    "mean": 0.5, "n_samples": 24, "skipped_signings": 0,
                    "symmetric_counts": True, "variance": 0.25}}),
    "verify-index": (["verify-index", "--format", "csv"], {
        "config": {"command": "verify-index", "format": "csv",
                   "graph": None},
        "results": {"ok": 6, "skipped": 0, "rows": [
            {"class": [c], "index": index, "k": k, "nullity": 0,
             "reason": "", "status": "ok", "surplus": index}
            for c, k, index in [(0, 1, 1), (0, 2, 0), (0, 3, 1),
                                (1, 1, 0), (1, 2, 1), (1, 3, 0)]]}}),
}


class TestRunRecord:
    """``_emit`` builds the run record only for ``--out``."""

    def test_no_record_without_out(self, tmp_path, capsys, monkeypatch):
        def refuse(args):
            raise AssertionError("run record built without --out")

        monkeypatch.setattr(cli, "_config_echo", refuse)
        for command in sorted(OPTIONS):
            for fmt in (["--format", "csv"] if "--format" in OPTIONS[command]
                        else []), []:
                code, out, _ = run(capsys, [*minimal_argv(tmp_path, command),
                                            *fmt])
                assert code == 0 and out

    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_record_is_unchanged(self, tmp_path, capsys, name):
        argv, expected = RECORDS[name]
        op = write_op(tmp_path, triangle_op())
        stem = tmp_path / "run"
        code, out, _ = run(capsys, [*argv, "--op", op, "--out", str(stem)])
        assert code == 0
        record = json.loads((tmp_path / "run.json").read_text())
        assert record.pop("wall_time_s") >= 0
        assert record == {
            "artifact": {"name": "magnodal", "version": __version__},
            "config": {**expected["config"], "op": op},
            "results": expected["results"],
            "tolerances": {"degeneracy": 1e-08, "product": 1e-12,
                           "real": 1e-09, "vanish": 1e-08}}

    def test_record_reads_the_product_cuts_when_written(self, tmp_path,
                                                         capsys,
                                                         monkeypatch):
        """The record's product cuts are ``nodal``'s when the record is
        written, the cuts the kernel read: a patched cut shows."""
        import magnodal.nodal as nodal

        monkeypatch.setattr(nodal, "PRODUCT_DEGENERATE_TOL", 2e-3)
        monkeypatch.setattr(nodal, "PRODUCT_REAL_TOL", 3e-9)
        op = write_op(tmp_path, triangle_op())
        code, _, _ = run(capsys, ["nodal-dist", "--op", op,
                                  "--out", str(tmp_path / "run")])
        assert code == 0
        record = json.loads((tmp_path / "run.json").read_text())
        assert record["tolerances"] == {"degeneracy": 1e-08, "product": 2e-3,
                                        "real": 3e-9, "vanish": 1e-08}
