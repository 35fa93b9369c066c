"""Batch planning: deduplication and the query line format."""

import pytest

from repro.errors import CloudWalkerError
from repro.service import (
    PairQuery,
    SourceQuery,
    TopKQuery,
    parse_query,
    plan_batch,
    required_sources,
)


class TestRequiredSources:
    def test_pair_needs_both_endpoints(self):
        assert required_sources(PairQuery(3, 9)) == (3, 9)

    def test_self_pair_needs_nothing(self):
        assert required_sources(PairQuery(4, 4)) == ()

    def test_source_and_topk_need_one(self):
        assert required_sources(SourceQuery(5)) == (5,)
        assert required_sources(TopKQuery(5, k=3)) == (5,)

    def test_unknown_query_type_rejected(self):
        with pytest.raises(CloudWalkerError):
            required_sources("pair 1 2")  # type: ignore[arg-type]


class TestPlanBatch:
    def test_deduplicates_preserving_first_reference_order(self):
        plan = plan_batch([
            PairQuery(3, 9), SourceQuery(9), TopKQuery(3, k=5), PairQuery(9, 12),
        ])
        assert plan.sources == [3, 9, 12]
        assert plan.source_references == 6
        assert plan.deduplicated == 3

    def test_self_pairs_produce_empty_plan(self):
        plan = plan_batch([PairQuery(1, 1), PairQuery(2, 2)])
        assert plan.sources == []

    def test_empty_batch(self):
        plan = plan_batch([])
        assert plan.sources == [] and plan.deduplicated == 0


class TestParseQuery:
    def test_pair(self):
        assert parse_query("pair 3 17") == PairQuery(3, 17)

    def test_source(self):
        assert parse_query("source 5") == SourceQuery(5)

    def test_topk_with_and_without_k(self):
        assert parse_query("topk 5 3") == TopKQuery(5, k=3)
        assert parse_query("topk 5", default_k=7) == TopKQuery(5, k=7)

    def test_case_insensitive_keyword(self):
        assert parse_query("PAIR 1 2") == PairQuery(1, 2)

    @pytest.mark.parametrize("text", [
        "", "pair 1", "pair 1 2 3", "source", "topk", "walk 1 2",
        "pair one two", "topk 5 0",
    ])
    def test_malformed_lines_rejected(self, text):
        with pytest.raises(CloudWalkerError):
            parse_query(text)


class TestParseEdge:
    def test_parses_pairs(self):
        from repro.service import parse_edge

        assert parse_edge("3 17") == (3, 17)
        assert parse_edge("  0\t9 ") == (0, 9)

    @pytest.mark.parametrize("text", ["", "1", "1 2 3", "a b", "1 b",
                                      "-1 2", "1 -2"])
    def test_rejects_malformed_lines(self, text):
        from repro.service import parse_edge

        with pytest.raises(CloudWalkerError):
            parse_edge(text)

    def test_rejections_name_the_offending_input(self):
        """Surplus tokens and negative ids are refused with the input
        quoted — the message a REPL operator or HTTP client actually sees."""
        from repro.errors import WireFormatError
        from repro.service import parse_edge

        with pytest.raises(WireFormatError, match=r"'1 2 3'.*surplus tokens"):
            parse_edge("1 2 3")
        with pytest.raises(WireFormatError,
                           match=r"'-1 2'.*non-negative"):
            parse_edge("-1 2")
        # WireFormatError doubles as ValueError for protocol code.
        with pytest.raises(ValueError):
            parse_edge("3 -9")
