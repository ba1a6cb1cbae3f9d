"""Each benchmark workload's exact CLI command still writes its reference rows.

Runs ``bench/run.py``'s workloads in-process at seed 1234 with their own
``--threads`` and compares every row with ``bench/reference/<workload>/1234.csv``:
the same columns, row keys and integer columns, and floats within the
benchmark's ``REFERENCE_ATOL``.  Equal bytes are not required, so arithmetic
that only moves the last bits still passes.
"""

import csv
import importlib.util
import sys
from pathlib import Path

import pytest

from crossmesh.cli import run_experiment

BENCH_RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"
SEED = 1234
EXACT_COLUMNS = ("arch", "n", "n_samples", "seed")


def _load_bench_run():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH_RUN)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # @dataclass looks its class's module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


bench = _load_bench_run()


def read_rows(path: Path) -> tuple[list[str], list[dict]]:
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        return reader.fieldnames, list(reader)


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_workload_matches_reference(name, tmp_path, monkeypatch):
    workload = bench.WORKLOADS[name]
    out = tmp_path / "out.csv"
    monkeypatch.chdir(bench.ROOT)  # cli_args names outputs relative to the repository root
    assert run_experiment(workload.cli_args(SEED, out, tmp_path / "out.svg")) == 0
    header, rows = read_rows(out)
    ref_header, ref_rows = read_rows(bench.REFERENCE_DIR / name / f"{SEED}.csv")
    assert header == ref_header
    assert len(rows) == len(ref_rows)
    for row, ref in zip(rows, ref_rows):
        for column in header:
            if column in EXACT_COLUMNS:
                assert row[column] == ref[column], (column, ref)
            else:
                assert abs(float(row[column]) - float(ref[column])) <= bench.REFERENCE_ATOL, (column, ref)
