"""Seeded inputs: the same seed gives the same inputs, another seed gives
other inputs with the same expected answers."""

import subprocess
import sys
from pathlib import Path

import pytest

import workloads

BENCH = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_fingerprint(fp, workload):
    a = workloads.make_inputs(fp, workload, 5)
    b = workloads.make_inputs(fp, workload, 5)
    assert a.fingerprint() == b.fingerprint()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_other_inputs_same_answers(fp, workload):
    a = workloads.make_inputs(fp, workload, 5)
    b = workloads.make_inputs(fp, workload, 6)
    assert a.fingerprint() != b.fingerprint()
    assert [q.expected for q in a.queries] == [q.expected for q in b.queries]
    assert [q.source for q in a.queries] == [q.source for q in b.queries]


@pytest.mark.parametrize("workload", ["search", "detect", "certify"])
def test_other_seed_moves_the_points(fp, workload):
    a = workloads.make_inputs(fp, workload, 5)
    b = workloads.make_inputs(fp, workload, 6)
    moved = [qa.config.points != qb.config.points for qa, qb in zip(a.queries, b.queries)]
    assert sum(moved) >= len(moved) // 2


def test_workload_shapes(fp):
    sizes = {w: len(workloads.make_inputs(fp, w, 0).queries) for w in workloads.WORKLOADS}
    assert sizes == {"search": 715, "detect": 400, "cyclotomic": 4, "certify": 12}
    detect = workloads.make_inputs(fp, "detect", 0).queries
    assert sum(q.expected for q in detect) == 50


def test_refuses_to_run_without_the_library(tmp_path):
    # a directory holding only the benchmark: no src/, so no result line
    dst = tmp_path / "perfbench"
    dst.mkdir()
    for f in BENCH.glob("*.py"):
        (dst / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((BENCH.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "detect", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
