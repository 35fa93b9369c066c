"""Unit tests for the dataset registry."""

import math

import pytest

from repro.errors import DatasetNotFoundError
from repro.graph import datasets


class TestRegistry:
    def test_paper_datasets_registered(self):
        for name in datasets.PAPER_DATASET_NAMES:
            assert name in datasets.names()

    def test_get_unknown_raises(self):
        with pytest.raises(DatasetNotFoundError):
            datasets.get("no-such-dataset")

    def test_load_builds_graph(self):
        graph = datasets.load("wiki-vote")
        assert graph.n_nodes > 0
        assert graph.n_edges > 0
        assert graph.name == "wiki-vote"

    def test_load_is_deterministic(self):
        assert datasets.load("wiki-vote") == datasets.load("wiki-vote")

    def test_sizes_strictly_increase_across_paper_datasets(self):
        edges = [datasets.load(name).n_edges for name in datasets.PAPER_DATASET_NAMES]
        assert edges == sorted(edges)
        assert len(set(edges)) == len(edges)

    def test_paper_stats_match_paper_table(self):
        spec = datasets.get("clue-web")
        assert spec.paper.nodes == pytest.approx(1e9)
        assert spec.paper.edges == pytest.approx(42.6e9)
        assert spec.paper.human_nodes == "1.0B"
        assert spec.paper.human_size == "401.1GB"

    def test_iter_paper_datasets_tiers(self):
        small = [s.name for s in datasets.iter_paper_datasets("small")]
        medium = [s.name for s in datasets.iter_paper_datasets("medium")]
        large = [s.name for s in datasets.iter_paper_datasets("large")]
        assert small == ["wiki-vote", "wiki-talk"]
        assert set(small) < set(medium) < set(large)
        assert large == list(datasets.PAPER_DATASET_NAMES)

    def test_iter_paper_datasets_bad_tier(self):
        with pytest.raises(DatasetNotFoundError):
            list(datasets.iter_paper_datasets("gigantic"))

    def test_scaling_factor(self):
        graph = datasets.load("wiki-vote")
        factor = datasets.scaling_factor("wiki-vote", graph)
        assert factor > 1.0
        assert not math.isnan(factor)

    def test_scaling_factor_nan_for_non_paper_dataset(self):
        graph = datasets.load("communities")
        assert math.isnan(datasets.scaling_factor("communities", graph))

    def test_human_formatting(self):
        stats = datasets.PaperStats(nodes=500, edges=2.4e6, size_bytes=45.6e6)
        assert stats.human_nodes == "500"
        assert stats.human_edges == "2.4M"
        assert stats.human_size == "45.6MB"
