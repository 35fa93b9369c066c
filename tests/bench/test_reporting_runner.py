"""Unit tests for the benchmark harness plumbing (reporting, runner, workloads)."""

import json
import math

import pytest

from repro.bench import reporting, workloads
from repro.bench.runner import QueryTimings, measure_queries, time_call
from repro.graph import datasets


class TestFormatting:
    def test_format_value(self):
        assert reporting.format_value(None) == "-"
        assert reporting.format_value(float("nan")) == "-"
        assert reporting.format_value(0.5) == "0.500"
        assert reporting.format_value(123456.0) == "1.23e+05"
        assert reporting.format_value("abc") == "abc"
        assert reporting.format_value(7) == "7"

    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}]
        rendered = reporting.format_table(rows, title="demo")
        lines = rendered.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(no rows)" in reporting.format_table([], title="empty")

    def test_format_table_column_subset(self):
        rows = [{"a": 1, "b": 2, "c": 3}]
        rendered = reporting.format_table(rows, columns=["c", "a"])
        header = rendered.splitlines()[0]
        assert header.split() == ["c", "a"]

    def test_save_results_round_trip(self, tmp_path):
        payload = {"rows": [{"a": 1, "b": float("nan")}]}
        path = reporting.save_results("unit-test", payload, rendered="hello",
                                      directory=tmp_path)
        stored = json.loads(path.read_text())
        assert stored["rows"][0]["a"] == 1
        assert stored["rows"][0]["b"] is None
        assert (tmp_path / "unit-test.txt").read_text() == "hello"


class TestRunner:
    def test_time_call(self):
        result, elapsed = time_call(lambda: sum(range(1000)))
        assert result == 499500
        assert elapsed >= 0

    def test_query_timings_statistics(self):
        timings = QueryTimings("MCSP")
        for value in (0.1, 0.2, 0.3):
            timings.add(value)
        assert timings.mean == pytest.approx(0.2)
        assert timings.minimum == pytest.approx(0.1)
        assert timings.maximum == pytest.approx(0.3)
        record = timings.to_dict()
        assert record["samples"] == 3

    def test_query_timings_empty(self):
        timings = QueryTimings("MCSS")
        assert math.isnan(timings.mean)

    def test_measure_queries(self):
        timings = measure_queries(lambda a, b: a + b, [(1, 2), (3, 4)], "sum")
        assert len(timings.seconds) == 2
        assert timings.query_type == "sum"


class TestWorkloads:
    def test_paper_params(self):
        params = workloads.paper_params()
        assert params.c == 0.6
        assert params.walk_steps == 10
        assert params.index_walkers == 100

    def test_dataset_specs_order(self):
        names = [spec.name for spec in workloads.dataset_specs("large")]
        assert names == list(datasets.PAPER_DATASET_NAMES)
        assert len(workloads.dataset_specs("small")) == 2

    def test_query_workload_determinism(self):
        graph = datasets.load("wiki-vote")
        assert workloads.query_pairs(graph, 4) == workloads.query_pairs(graph, 4)
        assert workloads.query_sources(graph, 3) == workloads.query_sources(graph, 3)
        for i, j in workloads.query_pairs(graph, 4):
            assert 0 <= i < graph.n_nodes
            assert 0 <= j < graph.n_nodes

    def test_budgets_cover_all_tiers(self):
        for tier in ("small", "medium", "large"):
            assert tier in workloads.RDD_INDEX_WALKERS
            assert tier in workloads.QUERY_WALKERS
            assert tier in workloads.RDD_QUERY_WALKERS
        assert workloads.RDD_INDEX_WALKERS["small"] >= workloads.RDD_INDEX_WALKERS["large"]
        assert workloads.RDD_QUERY_WALKERS["small"] >= workloads.RDD_QUERY_WALKERS["large"]

    def test_paper_cluster(self):
        assert workloads.PAPER_CLUSTER.machines == 10
