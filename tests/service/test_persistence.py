"""Index save -> load -> serve round trips (service cold start)."""

import numpy as np
import pytest

from repro.config import ShardingParams, UpdateParams
from repro.core.index import DiagonalIndex, ShardedIndex, SnapshotStore
from repro.errors import CloudWalkerError
from repro.graph.partition import ShardPlan
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
    @pytest.mark.parametrize("auto", [False, True], ids=["explicit", "auto"])
    def test_restored_service_snapshots_into_its_own_lineage(
        self, service_graph, service_params, tmp_path, auto
    ):
        """A 3-shard lineage reopened by a default ``from_snapshot`` serves
        under the lineage's plan, so after an update both an explicit save
        and the ``snapshot_every`` auto-save land in that lineage."""
        with QueryService.build(service_graph, service_params,
                                sharding=ShardingParams(num_shards=3)) as origin:
            origin.save_snapshot(tmp_path)
        update_params = (UpdateParams(snapshot_dir=tmp_path, snapshot_every=1)
                         if auto else None)
        with QueryService.from_snapshot(service_graph, tmp_path,
                                        update_params=update_params) as restored:
            assert restored.num_shards == 3
            assert restored.add_edges([(0, 117), (1, 118)]) is not None
            assert restored.save_snapshot(tmp_path)[0] == 2
            assert restored.stats()["snapshots_written"] == 1
            expected = restored.run_batch([TopKQuery(0, k=5)])
        version, sharded_index, _system = SnapshotStore(tmp_path).load()
        assert (version, sharded_index.plan.num_shards) == (2, 3)
        with QueryService.from_snapshot(restored.graph, tmp_path) as reopened:
            assert reopened.run_batch([TopKQuery(0, k=5)]) == expected

    def test_shard_versions_survive_a_restart(self, tmp_path):
        """Entry k is the version at which shard k's rows were last
        re-estimated — on the writer and, from the plan record, after a
        restart (a localized edit leaves most shards at version 1)."""
        from repro.config import SimRankParams
        from repro.graph import generators

        graph = generators.copying_model_graph(300, out_degree=4, seed=0)
        params = SimRankParams(c=0.6, walk_steps=4, jacobi_iterations=3,
                               index_walkers=10, query_walkers=20, seed=3)
        with QueryService.build(
                graph, params,
                sharding=ShardingParams(num_shards=8,
                                        strategy="contiguous")) as writer:
            writer.add_edges([(290, 295)])
            written = writer.shard_versions
            writer.save_snapshot(tmp_path)
            updated = writer.graph
        assert 1 in written and 2 in written
        with QueryService.from_snapshot(updated, tmp_path) as restored:
            assert restored.shard_versions == written
            assert [row["version"] for row in restored.stats()["shards"]] \
                == written
            # An update after the restart bumps only the shards it touches.
            restored.add_edges([(291, 296)])
            touched = restored._walker.last_touched_shards
            assert restored.shard_versions == [
                3 if shard in touched else version
                for shard, version in enumerate(written)]

    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_restore_serves_the_newest_versions_plan(
            self, service_graph, service_params, tmp_path, num_shards):
        """A lineage whose newest version carries another plan (as older
        builds wrote) restarts under that plan, with its versions and the
        unchanged system byte for byte."""
        with QueryService.build(
                service_graph, service_params,
                update_params=UpdateParams(snapshot_dir=str(tmp_path)),
                sharding=ShardingParams(num_shards=num_shards,
                                        strategy="contiguous")) as writer:
            writer.save_snapshot()
            plan = ShardPlan.for_graph(service_graph, num_shards,
                                       "partitioner")
            system = writer._walker.system
            SnapshotStore(tmp_path).save_snapshot(
                ShardedIndex(index=writer.index, plan=plan,
                             shard_versions=[2] * num_shards),
                system=system, version=2)
            expected = writer.run_batch([TopKQuery(0, k=5)])
        store = SnapshotStore(tmp_path)
        assert store.versions() == [1, 2]
        assert store.load_plan(1).strategy == "contiguous"
        with QueryService.from_snapshot(service_graph, tmp_path) as restored:
            assert restored.index_version == 2
            assert restored.plan == plan
            assert restored.shard_versions == [2] * num_shards
            for name in ("indptr", "indices", "data"):
                assert getattr(restored._walker.system, name).tobytes() == \
                    getattr(system, name).tobytes()
            assert restored.run_batch([TopKQuery(0, k=5)]) == expected
