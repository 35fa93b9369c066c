"""Index save -> load -> serve round trips (service cold start)."""

import numpy as np
import pytest

from repro.config import ShardingParams, UpdateParams
from repro.core.index import DiagonalIndex, SnapshotStore
from repro.errors import CloudWalkerError
from repro.service import QueryService, TopKQuery


class TestRoundTrip:
    def test_save_load_preserves_payload(self, service_index, tmp_path):
        path = tmp_path / "index.npz"
        service_index.save(path)
        loaded = DiagonalIndex.load(path)
        assert np.array_equal(loaded.diagonal, service_index.diagonal)
        assert loaded.params == service_index.params
        assert loaded.n_nodes == service_index.n_nodes
        assert loaded.n_edges == service_index.n_edges

    def test_cold_start_produces_identical_topk(
        self, service_graph, service_index, service_params, tmp_path
    ):
        path = tmp_path / "index.npz"
        service_index.save(path)
        warm = QueryService(service_graph, service_index, service_params)
        cold = QueryService.from_index_file(service_graph, path)
        for node in (0, 5, 42):
            assert cold.top_k(node, k=10) == warm.top_k(node, k=10)

    def test_cold_start_produces_identical_scores(
        self, service_graph, service_index, service_params, tmp_path
    ):
        path = tmp_path / "index.npz"
        service_index.save(path)
        warm = QueryService(service_graph, service_index, service_params)
        cold = QueryService.from_index_file(service_graph, path)
        assert cold.single_pair(3, 9) == warm.single_pair(3, 9)
        assert np.array_equal(cold.single_source(7), warm.single_source(7))

    def test_save_twice_round_trips(self, service_index, tmp_path):
        # Overwriting an existing index must behave like a fresh save.
        path = tmp_path / "index.npz"
        service_index.save(path)
        service_index.save(path)
        loaded = DiagonalIndex.load(path)
        assert np.array_equal(loaded.diagonal, service_index.diagonal)


class TestAtomicity:
    def test_no_temp_file_left_behind(self, service_index, tmp_path):
        path = tmp_path / "index.npz"
        service_index.save(path)
        assert path.exists()
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_suffix_appended_when_missing(self, service_index, tmp_path):
        service_index.save(tmp_path / "index")
        assert (tmp_path / "index.npz").exists()

    def test_corrupted_file_rejected(self, tmp_path):
        path = tmp_path / "broken.npz"
        path.write_bytes(b"not an npz payload")
        with pytest.raises(CloudWalkerError):
            DiagonalIndex.load(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CloudWalkerError):
            DiagonalIndex.load(tmp_path / "absent.npz")

    def test_cold_start_from_wrong_graph_rejected(self, service_index, tmp_path):
        from repro.graph import generators

        path = tmp_path / "index.npz"
        service_index.save(path)
        with pytest.raises(CloudWalkerError):
            QueryService.from_index_file(generators.cycle_graph(7), path)


class TestRestoredLineage:
    @pytest.mark.parametrize("restart_shards", [None, 2])
    @pytest.mark.parametrize("auto", [False, True], ids=["explicit", "auto"])
    def test_restored_service_snapshots_into_its_own_lineage(
        self, service_graph, service_params, tmp_path, auto, restart_shards
    ):
        """A 3-shard lineage reopened by a default (one-shard) or a 2-shard
        ``from_snapshot`` continues it: after an update both an explicit
        save and the ``snapshot_every`` auto-save land in that lineage."""
        with QueryService.build(service_graph, service_params,
                                sharding=ShardingParams(num_shards=3)) as origin:
            origin.save_snapshot(tmp_path)
        update_params = (UpdateParams(snapshot_dir=tmp_path, snapshot_every=1)
                         if auto else None)
        sharding = (ShardingParams(num_shards=restart_shards)
                    if restart_shards else None)
        with QueryService.from_snapshot(service_graph, tmp_path,
                                        update_params=update_params,
                                        sharding=sharding) as restored:
            assert restored.num_shards == (restart_shards or 1)
            assert restored.add_edges([(0, 117), (1, 118)]) is not None
            assert restored.save_snapshot(tmp_path)[0] == 2
            assert restored.stats()["snapshots_written"] == 1
            expected = restored.run_batch([TopKQuery(0, k=5)])
        version, index, _system = SnapshotStore(tmp_path).load()
        assert (version, index.n_edges) == (2, restored.graph.n_edges)
        with QueryService.from_snapshot(restored.graph, tmp_path) as reopened:
            assert reopened.run_batch([TopKQuery(0, k=5)]) == expected
