"""Traced-run coverage: each wrapped function is called on the workloads
that should reach it and on no other, and the wrappers come off again."""

import sys

import pytest

import tracing
import workloads

# a cheap slice of each workload that still reaches every active boundary
SLICES = {
    "search": lambda qs: qs[:60],  # holds hit 49
    "detect": lambda qs: qs[:16],  # two positives
    "cyclotomic": lambda qs: qs[:3],  # F3 .. F5, F5 positive at degree 7
    "certify": lambda qs: [q for q in qs if q.label in ("F3 d=2", "excluded-pair")] + qs[:1],
}


def traced_slice(fp, workload):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        inputs = workloads.make_inputs(fp, workload, 1)
        tracer.mark_queries()
        queries = SLICES[workload](inputs.queries)
        for q in queries:
            assert workloads.run_query(fp, inputs, q) == q.expected, q.label
    finally:
        tracer.remove()
    return tracer, queries


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_coverage(fp, workload):
    tracer, queries = traced_slice(fp, workload)
    assert tracer.coverage_mismatches(workload, len(queries)) == []
    m = tracer.layer_metrics(len(queries), 0.0)
    assert m["field.scalar_mul.calls"] > 0
    assert m["linsys.cells"] > 0
    assert (m["poly.symbolic.grid_bound"] > 0) == (workload == "certify")
    for b in tracing.BOUNDARIES:
        assert m[f"{b}.self_s"] >= 0
    assert tracer.leftover_wrappers() == 0


def test_counts_on_the_search_slice(fp):
    tracer, queries = traced_slice(fp, "search")
    m = tracer.layer_metrics(len(queries), 0.0)
    passing = [q for q in queries if q.expected[0]]
    hits = [q for q in queries if q.expected[1]]
    assert len(hits) == 1
    # the filter, plus two histograms per equivalence test
    assert m["geom.analyze_lines.calls"] == len(queries) + 2 * len(hits)
    assert m["unexpected.detect_unexpected.calls"] == len(passing)
    assert m["unexpected.positives"] == len(hits)
    # a negative stops after one sample; a positive draws all three
    assert m["unexpected.samples_per_verdict"] == (len(passing) + 2 * len(hits)) / len(queries)


def test_wrappers_cover_every_namespace_and_come_off(fp):
    modules = [m for n, m in sys.modules.items() if n == "fatpoints" or n.startswith("fatpoints.")]
    before = {(id(m), k): v for m in modules for k, v in vars(m).items()}
    mul = fp.Scalar.__mul__
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert fp.unexpected.system_dimension is fp.linsys.system_dimension
        assert fp.unexpected.system_dimension.__wrapped__ is before[(id(fp.linsys), "system_dimension")]
        assert fp.detect_unexpected is fp.unexpected.detect_unexpected
        assert fp.Scalar.__mul__ is not mul
    finally:
        tracer.remove()
    after = {(id(m), k): v for m in modules for k, v in vars(m).items()}
    assert after == before
    assert fp.Scalar.__mul__ is mul


def test_self_time_subtracts_children():
    t = tracing.Tracer()
    t.spans = [
        ["unexpected.detect_unexpected", 0, 100, -1],
        ["linsys.system_dimension", 10, 50, 0],
        ["poly.rank_of_fraction_rows", 20, 45, 1],
        ["linsys.system_dimension", 60, 90, 0],
    ]
    m = t.layer_metrics(1, 0.0)
    assert m["unexpected.detect_unexpected.self_s"] == (100 - 40 - 30) / 1e9
    assert m["linsys.system_dimension.self_s"] == (40 - 25 + 30) / 1e9
    assert m["poly.rank_of_fraction_rows.self_s"] == 25 / 1e9
    assert m["linsys.system_dimension.calls"] == 2
