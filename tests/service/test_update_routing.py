"""Update routing through the services, end to end.

Each test drives a service through a mutation stream and, after every
batch, holds it against a service built from scratch on the same graph:
the affected set is the forward ball of the new edges' heads, the cache
entries dropped are exactly the cached part of that ball, and served
answers and index bytes are the from-scratch ones.  The sharded variant
additionally restarts from a snapshot mid-stream to prove routing carries
on from the restored system.
"""

import numpy as np

from repro.config import ShardingParams
from repro.core.walks import forward_reachable_set
from repro.graph.digraph import DiGraph
from repro.service import (
    PairQuery,
    QueryService,
    SourceQuery,
    TopKQuery,
)

QUERIES = [PairQuery(3, 7), SourceQuery(12), TopKQuery(5, k=6)]


def edge_batches(n_nodes, n_batches, per_batch, seed):
    rng = np.random.default_rng(seed)
    hot = rng.permutation(n_nodes)[: max(4, n_nodes // 20)]
    batches = []
    for _ in range(n_batches):
        batch = []
        while len(batch) < per_batch:
            u = int(rng.integers(0, n_nodes))
            v = int(rng.choice(hot))
            if u != v:
                batch.append((u, v))
        batches.append(batch)
    return batches


def cached_nodes(service):
    return set(service.cache._entries)


def add_edges_checked(service, batch):
    """Apply ``batch``; check its affected set and evictions against the ball."""
    # Re-fill the cache so there is something for the update to evict.
    service.run_batch(QUERIES)
    before = cached_nodes(service)
    new_heads = {v for u, v in batch if not service.graph.has_edge(u, v)}
    result = service.add_edges(batch)
    ball = forward_reachable_set(
        service.graph, new_heads, service.params.walk_steps)
    assert result.affected == ball
    assert before - cached_nodes(service) == before & ball
    assert result.routing_seconds >= 0.0
    return result


def assert_serves_like_a_fresh_build(service):
    reference = QueryService.build(
        DiGraph(service.graph.n_nodes, service.graph.edge_array()),
        service.params)
    assert np.array_equal(service.index.diagonal, reference.index.diagonal)
    for ours, theirs in zip(service.run_batch(QUERIES),
                            reference.run_batch(QUERIES)):
        assert np.array_equal(ours, theirs)


class TestSingleShardEquivalence:
    def test_modes_agree_on_affected_evictions_and_answers(
            self, service_graph, service_index, service_params):
        service = QueryService(service_graph, service_index, service_params)
        for batch in edge_batches(service_graph.n_nodes, 4, 3, seed=101):
            add_edges_checked(service, batch)
            assert_serves_like_a_fresh_build(service)


class TestShardedEquivalenceAcrossRestarts:
    def test_restart_does_not_split_the_modes(self, service_graph,
                                              service_index, service_params,
                                              tmp_path):
        service = QueryService(
            service_graph, service_index, service_params,
            sharding=ShardingParams(num_shards=3),
        )
        batches = edge_batches(service_graph.n_nodes, 4, 3, seed=77)
        for step, batch in enumerate(batches):
            if step == 2:
                # Restart mid-stream: the restored walker attaches the
                # saved system, so routing carries on from it.
                service.save_snapshot(tmp_path)
                service.close()
                service = QueryService.from_snapshot(service.graph, tmp_path)
            add_edges_checked(service, batch)
            assert_serves_like_a_fresh_build(service)
        service.close()
