"""The names the spine benchmark's tracer binds, pinned.

``benchmarks/spine/spans.py`` times serving layers by rebinding module and
class attributes by name, so the serving path must keep looking those names
up at call time: ``repro.service.service.plan_batch`` inside ``run_batch``,
``repro.service.sharded.run_shard_tasks`` inside the cache-miss scatter,
``repro.core.sharding.run_shard_tasks`` inside the index build/update
scatter, and ``run_batch`` / ``add_edges`` on the class that
``repro.service.sharded.ShardedQueryService`` names.
"""

import pytest

import repro.core.sharding as core_sharding
import repro.service.service as service_module
import repro.service.sharded as sharded_module
from repro.config import ShardingParams
from repro.core import queries
from repro.service import PairQuery, QueryService, SourceQuery, TopKQuery


def test_sharded_query_service_names_the_one_class():
    from repro.service import ShardedQueryService

    assert sharded_module.ShardedQueryService is QueryService
    assert ShardedQueryService is QueryService
    with pytest.raises(AttributeError):
        getattr(sharded_module, "NoSuchName")


def test_traced_methods_live_on_the_class_itself():
    assert "run_batch" in QueryService.__dict__
    assert "add_edges" in QueryService.__dict__


def test_merge_top_k_stays_importable_from_sharded():
    from repro.service.sharded import merge_top_k

    assert merge_top_k is queries.merge_top_k


@pytest.mark.parametrize("num_shards", [1, 3])
def test_a_miss_batch_looks_up_each_bound_name_once(
        num_shards, service_graph, service_params, monkeypatch):
    with QueryService.build(
            service_graph, service_params,
            sharding=ShardingParams(num_shards=num_shards)) as service:
        calls = {"plan_batch": 0, "run_shard_tasks": 0}
        for module, name in ((service_module, "plan_batch"),
                             (sharded_module, "run_shard_tasks")):
            real = getattr(module, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        answers = service.run_batch(
            [PairQuery(1, 2), TopKQuery(3, k=5), SourceQuery(7)])
        assert calls == {"plan_batch": 1, "run_shard_tasks": 1}
        assert service.stats()["sources_simulated"] == 4
    monkeypatch.undo()
    reference = QueryService.build(service_graph, service_params)
    expected = reference.run_batch(
        [PairQuery(1, 2), TopKQuery(3, k=5), SourceQuery(7)])
    assert answers[:2] == expected[:2]
    assert answers[2].tobytes() == expected[2].tobytes()


@pytest.mark.parametrize("num_shards", [1, 3])
def test_build_and_update_scatter_through_the_core_sharding_global(
        num_shards, service_graph, service_params, monkeypatch):
    calls = []
    real = core_sharding.run_shard_tasks

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(core_sharding, "run_shard_tasks", counting)
    with QueryService.build(
            service_graph, service_params,
            sharding=ShardingParams(num_shards=num_shards)) as service:
        assert len(calls) == 1
        present = tuple(int(node) for node in service.graph.edge_array()[0])
        assert service.add_edges([(0, 40)]) is not None
        assert len(calls) == 2
        assert service.add_edges([present]) is None
        assert len(calls) == 2
    index, walker = core_sharding.build_sharded_index(
        service_graph, ShardingParams(num_shards=num_shards), service_params)
    walker.backend.close()
    assert len(calls) == 3
    assert index.build_info.monte_carlo_seconds > 0.0
    assert index.build_info.solve_seconds > 0.0


#: ``stats()`` keys the spine reads: its preconditions (hit rate, applied
#: updates, serve backend) and its per-layer deltas.  It reads most of them
#: with a default, so a schema trim would not fail a run — it would
#: silently zero a metric.  (It also reads ``shards`` with a default, for
#: ``shard_load_imbalance``; no shard assignment is kept, so that key is
#: gone and the metric reads 0.0.)
SPINE_STATS_KEYS = (
    "cache_hits", "cache_misses", "cache_evictions", "cache_invalidations",
    "cache_memory_bytes", "updates_applied", "serve_backend",
    "sources_deduplicated", "sources_simulated", "topk_queries",
    "pair_queries", "scatter_payload_bytes",
)


@pytest.mark.parametrize("num_shards", [1, 3])
def test_stats_keep_the_keys_the_spine_reads(num_shards, service_graph,
                                             service_params):
    with QueryService.build(
            service_graph, service_params,
            sharding=ShardingParams(num_shards=num_shards)) as service:
        service.run_batch([PairQuery(1, 2), TopKQuery(3, k=5)])
        assert service.add_edges([(0, 40)]) is not None
        stats = service.stats()
    assert set(SPINE_STATS_KEYS) <= set(stats)
    assert stats["updates_applied"] == 1
    assert stats["serve_backend"] == "serial"
    assert stats["num_shards"] == num_shards
    assert "shards" not in stats
