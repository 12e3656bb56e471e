"""The ``BENCH_*.json`` performance records at the root of the repository.

Every record parses and carries what a reader needs to weigh it: what
changed, the command and run length, the method, the claim (null when
the change claims no gain), the numbers per workload, and the machine
and library versions they were taken on.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
FIELDS = {"change", "command", "seconds", "method", "claim", "workloads"}
ENVIRONMENT = {"python", "numpy", "blas", "cpu_model"}


def test_records_are_found():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_has_the_required_fields(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(record, dict)
    assert FIELDS - set(record) == set()
    assert isinstance(record["workloads"], dict) and record["workloads"]
    env = record.get("environment")
    assert isinstance(env, dict)
    assert ENVIRONMENT - set(env) == set()
    assert all(isinstance(env[key], str) and env[key] for key in ENVIRONMENT)
