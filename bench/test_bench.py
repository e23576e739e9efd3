"""Tests of the benchmark's own arithmetic and tracing.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import stats
import tracing

BENCH = Path(__file__).resolve().parent


def test_tail_percentile_is_highest_with_ten_beyond():
    for n in range(20, 3000):
        p = stats.tail_percentile(n)
        assert stats.beyond(p, n) >= stats.MIN_BEYOND
        assert all(stats.beyond(q, n) < stats.MIN_BEYOND for q in stats.TAIL_LADDER if q > p)


@pytest.mark.parametrize(
    "n, expected", [(20, 50), (37, 70), (38, 70), (64, 80), (100, 90), (1000, 99), (10000, 99.9)]
)
def test_tail_percentile_examples(n, expected):
    assert stats.tail_percentile(n) == expected


def test_tail_percentile_needs_ten_beyond_the_median():
    with pytest.raises(ValueError):
        stats.tail_percentile(19)


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(100, 0, -1)]
    assert stats.percentile(values, 50) == 50.0
    assert stats.percentile(values, 80) == 80.0
    assert stats.percentile([3.0], 99.9) == 3.0


def test_self_times_subtract_direct_children_only():
    # root 10 s holds a (3 s) and b (4 s); a holds c (1 s).
    durations = [10.0, 3.0, 4.0, 1.0]
    parents = [-1, 0, 0, 1]
    assert stats.self_times(durations, parents) == [3.0, 2.0, 4.0, 1.0]
    assert sum(stats.self_times(durations, parents)) == durations[0]


def test_scaled_divides_by_the_median_probe_around_each_job():
    # The machine runs at half speed for the last two jobs: their probes
    # take twice as long, and so do the jobs.
    seconds = [1.0, 2.0, 3.0, 8.0, 10.0]
    probes = [0.5, 0.5, 0.5, 1.0, 1.0]
    assert stats.scaled(seconds, probes, 0.5, 0) == [1.0, 2.0, 3.0, 4.0, 5.0]
    # A window of one probe each side: medians 0.5, 0.5, 0.5, 1.0, 1.0.
    assert stats.scaled(seconds, probes, 0.5, 1) == [1.0, 2.0, 3.0, 4.0, 5.0]
    # One slow probe among steady ones does not move its neighbours.
    assert stats.scaled([1.0] * 5, [0.5, 0.5, 9.0, 0.5, 0.5], 0.5, 2) == [1.0] * 5


def test_tracer_nests_benchmark_spans():
    tracer = tracing.Tracer()
    tracer.current_job = 7
    with tracer.span("bench.outer"):
        with tracer.span("bench.inner"):
            pass
    assert list(tracer.parent) == [-1, 0]
    assert list(tracer.job) == [7, 7]
    assert tracer.start[0] <= tracer.start[1] <= tracer.end[1] <= tracer.end[0]


def test_layer_metrics_are_the_per_layer_metrics_of_benchmark_json():
    names = set(tracing.Tracer().layer_metrics()) | {"trace.overhead_s"}
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert names == {m["name"] for m in spec["per_layer"]}


def test_install_wraps_every_binding_and_uninstall_restores():
    oracle = pytest.importorskip("induced_decomp.oracle")
    import induced_decomp

    original = oracle.complete_graph
    from_edges = oracle.SmallGraph.__dict__["from_edges"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert induced_decomp.complete_graph is oracle.complete_graph is not original
        oracle.complete_graph(4)
        oracle.SmallGraph.from_edges(3, [(1, 2)])
    finally:
        tracer.uninstall()
    assert induced_decomp.complete_graph is oracle.complete_graph is original
    assert oracle.SmallGraph.__dict__["from_edges"] is from_edges
    assert tracer.missing == []
    metrics = tracer.layer_metrics()
    assert metrics["oracle.graph_edges"] == 6 + 1
    assert metrics["trace.spans"] == 2


def test_spec_states_the_tail_percentile_of_each_workload():
    jobs = pytest.importorskip("jobs")
    spec = json.loads((BENCH / "spec.json").read_text())
    for workload in jobs.WORKLOADS:
        n = sum(len(group) for group in jobs.build(workload, 0))
        assert spec["tail"][workload] == {"percentile": stats.tail_percentile(n), "jobs_per_pass": n}


def test_seed_permutes_jobs_but_keeps_the_mix():
    jobs = pytest.importorskip("jobs")
    for workload in jobs.WORKLOADS:
        a, b = jobs.build(workload, 1), jobs.build(workload, 2)
        assert jobs.build(workload, 1) == a
        assert sorted(j.key for g in a for j in g if j.kind != "lookup") == sorted(
            j.key for g in b for j in g if j.kind != "lookup"
        )
