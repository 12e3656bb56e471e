"""End-to-end command-line runs: exit codes, payloads, determinism."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from magnodal import __version__, cli
from magnodal.cli import _build_parser, main
from magnodal.families import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_operator,
    strong_diagonal_fixture,
    two_triangle_join,
)
from magnodal.graphs import Graph, graph_to_json
from magnodal.operators import SupportedMatrix, operator_to_json


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


def half_admissible_op():
    g = Graph(3, ((0, 1), (0, 2), (1, 2)))
    return SupportedMatrix(g, np.array([0.0, 1.5, 5.0]),
                           np.array([-1.0, 0.5, -1.0], dtype=np.complex128))


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

    def test_single_position_degenerate_exits_2(self, tmp_path, capsys):
        g = cycle_graph(3)
        h = SupportedMatrix(g, np.zeros(3), -np.ones(3, dtype=np.complex128))
        op = write_op(tmp_path, h)
        code, _, err = run(capsys, ["nodal-dist", "--op", op, "--k", "2"])
        assert code == 2
        assert "precondition" in err


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


GOLDEN = json.loads((Path(__file__).parent / "data" / "avg_dist_golden.json")
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
        import magnodal.graphs as graphs

        walked = []
        original = graphs._bfs_walk

        def counting(g):
            walked.append(g)
            return original(g)

        monkeypatch.setattr(graphs, "_bfs_walk", counting)
        op = write_op(tmp_path, strong_diagonal_fixture(complete_graph(5)))
        code, _, _ = run(capsys, ["critical-scan", "--op", op, "--k", "2",
                                  "--starts", "4"])
        assert code == 0
        assert len(walked) == 1

    def test_one_cycle_basis_per_graph(self, tmp_path, capsys, monkeypatch):
        import magnodal.graphs as graphs

        checked = []
        original = graphs.boundary

        def counting(chain):
            checked.append(chain.graph)
            return original(chain)

        monkeypatch.setattr(graphs, "boundary", counting)
        op = write_op(tmp_path, strong_diagonal_fixture(complete_graph(5)))
        code, _, _ = run(capsys, ["critical-scan", "--op", op, "--k", "2",
                                  "--starts", "4"])
        assert code == 0
        # one boundary check per fundamental cycle of K5 (beta 6), all on
        # the one graph the operator file was read into
        assert len(checked) == 6
        assert len({id(g) for g in checked}) == 1

    def test_complex_operator_exits_2(self, tmp_path, capsys):
        g = path_graph(2)
        h = SupportedMatrix(g, np.zeros(2), np.array([np.exp(0.4j)]))
        op = write_op(tmp_path, h)
        code, _, _ = run(capsys, ["critical-scan", "--op", op, "--k", "1"])
        assert code == 2


class TestVerifyIndex:
    def test_triangle(self, tmp_path, capsys):
        op = write_op(tmp_path, strong_diagonal_fixture(complete_graph(3)))
        code, out, err = run(capsys, ["verify-index", "--op", op])
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] == 6 and payload["skipped"] == 0
        assert "verified 6 rows" in err


@pytest.mark.parametrize("argv", [["critical-scan", "--k", "1"],
                                  ["verify-index"]])
def test_beta_over_the_cap_exits_4_before_any_solve(tmp_path, capsys,
                                                    monkeypatch, argv):
    # K8 carries beta 21; uncapped, its 2^21 symmetry points would be
    # solved as one stack
    op = write_op(tmp_path, strong_diagonal_fixture(complete_graph(8)))

    def refuse(*args, **kwargs):
        raise AssertionError("an eigensolve ran before the cap check")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
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

        counts = {"support_of_eigenspace": 0, "connected_components": 0}
        for name in counts:
            def counting(*args, _name=name,
                         _inner=getattr(transversality, name), **kwargs):
                counts[_name] += 1
                return _inner(*args, **kwargs)
            monkeypatch.setattr(transversality, name, counting)
        h, k = two_triangle_join()
        op = write_op(tmp_path, h)
        code, out, _ = run(capsys, ["transversality-check", "--op", op,
                                    "--k", str(k)])
        assert code == 0
        payload = json.loads(out)
        assert payload["splits_graph"] is True
        assert payload["edge_separated_pair"] is not None
        assert counts == {"support_of_eigenspace": 1,
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
        assert set(record["tolerances"]) == {"degeneracy", "vanish"}


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
    import magnodal.graphs as graphs

    op = write_op(tmp_path, triangle_op())
    monkeypatch.setattr(graphs, "boundary",
                        lambda chain: np.ones(chain.graph.n, dtype=np.int64))
    code, _, err = run(capsys, ["verify-index", "--op", op])
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
