"""Torus commands against recorded output.

``verify-index`` prints only integers and strings, so its stdout and
stderr are pinned byte for byte in JSON and CSV.  ``critical-scan``,
``linkage-analyze --emit-fixture`` and ``transversality-check`` print
floats whose last bits depend on the BLAS build; for them only the
integer and string fields are pinned, as ``pinned`` extracts them.
"""

import json
from pathlib import Path

import pytest

from magnodal.cli import main

GOLDEN = json.loads((Path(__file__).parent / "data" / "torus_golden.json")
                    .read_text())

REPORT_KEYS = ("classification", "multiplicity", "vanishing", "morse_index",
               "nullity", "origin")

LINKAGE_KEYS = ("k", "vanishing_vertex", "manifold_dimension",
                "connectivity", "reduced_eigenvalue_index",
                "reduced_surplus", "predicted_index", "hessian_index",
                "hessian_nullity", "manifold_samples_checked")

TRANSVERSALITY_KEYS = ("k", "multiplicity", "codimension", "transverse",
                       "kernel_dimension", "compression_rank", "support",
                       "splits_graph")


def pinned(command: str, payload: dict) -> dict:
    """The integer and string fields of a command's JSON payload."""
    if command == "critical-scan":
        return {
            "k": payload["k"],
            "coverage": payload["coverage"],
            "starts_attempted": payload["starts_attempted"],
            "unconverged": payload["unconverged"],
            "incorrigible_candidates": len(payload["incorrigible_candidates"]),
            "reports": [{key: r[key] for key in REPORT_KEYS}
                        | {"conjugate": r["conjugate_of"] is not None}
                        for r in payload["reports"]],
        }
    if command == "linkage-analyze":
        return {key: payload[key] for key in LINKAGE_KEYS}
    if command == "transversality-check":
        return {key: payload[key] for key in TRANSVERSALITY_KEYS} | {
            "kernel_witness": payload["kernel_witness"] is not None,
            "edge_separated_pair": payload["edge_separated_pair"] is not None,
        }
    raise ValueError(f"no pinned fields for {command}")


def case_id(case) -> str:
    return "-".join([case["command"], case["op"] or "fixture",
                     *(f.lstrip("-") for f in case["flags"])])


def run_case(tmp_path, capsys, case):
    argv = [case["command"], *case["flags"]]
    if case["op"] is not None:
        path = tmp_path / "op.json"
        path.write_text(json.dumps(GOLDEN["operators"][case["op"]]))
        argv += ["--op", str(path)]
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("case", [c for c in GOLDEN["cases"]
                                  if "stdout" in c], ids=case_id)
def test_output_is_unchanged(tmp_path, capsys, case):
    code, out, err = run_case(tmp_path, capsys, case)
    assert code == case["exit"]
    assert out == case["stdout"]
    assert err == case["stderr"]


@pytest.mark.parametrize("case", [c for c in GOLDEN["cases"]
                                  if "pinned" in c], ids=case_id)
def test_pinned_fields_are_unchanged(tmp_path, capsys, case):
    code, out, err = run_case(tmp_path, capsys, case)
    assert code == case["exit"]
    assert err == case["stderr"]
    assert pinned(case["command"], json.loads(out)) == case["pinned"]


def test_cases_cover_every_command():
    modes = {(c["command"], "stdout" in c) for c in GOLDEN["cases"]}
    assert modes == {("verify-index", True), ("critical-scan", False),
                     ("linkage-analyze", False),
                     ("transversality-check", False)}
    verify = [c for c in GOLDEN["cases"] if c["command"] == "verify-index"]
    ops = {c["op"] for c in verify}
    assert len(ops) == 7
    assert {(c["op"], tuple(c["flags"])) for c in verify} == {
        (op, ("--format", f)) for op in ops for f in ("json", "csv")}
    assert any("skipped 0" not in c["stderr"] for c in verify)
