"""Update routing: ``walks.forward_reachable_set`` and the walker that uses it.

``forward_reachable_set`` is the only answer the system has to "which rows
does this edge batch touch", and the bitwise-reproducibility story hangs off
it: same affected set -> same re-estimated rows -> same index.  It is checked
here against an oracle that shares nothing with it — a BFS over a plain
``{node: successors}`` dict built from the raw edge list, never from the CSR
arrays — and the walker's routed updates against a from-scratch build.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SimRankParams
from repro.core import walks
from repro.core.sharding import ShardedIncrementalWalker
from repro.graph.digraph import DiGraph

WALK_STEPS = 10  # the paper's T


def random_graph(rng, n_nodes, n_edges):
    edges = rng.integers(0, n_nodes, size=(n_edges, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    return DiGraph(n_nodes, [(int(u), int(v)) for u, v in edges])


def naive_ball(edges, seeds, steps):
    """Forward ball by set arithmetic over a dict adjacency."""
    successors = {}
    for u, v in edges:
        successors.setdefault(u, set()).add(v)
    ball = frontier = set(seeds)
    for _ in range(steps):
        frontier = {w for v in frontier for w in successors.get(v, ())} - ball
        if not frontier:
            break
        ball = ball | frontier
    return ball


def edges_among(n_nodes, max_edges):
    node = st.integers(0, n_nodes - 1)
    return st.lists(st.tuples(node, node), max_size=max_edges)


class TestForwardBallAgainstNaiveOracle:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_dict_adjacency_bfs(self, data):
        n_nodes = data.draw(st.integers(1, 24), label="n_nodes")
        edges = data.draw(edges_among(n_nodes, 80), label="edges")
        graph = DiGraph(n_nodes, edges)
        # One with_edges growth step: the graph routing actually runs on is
        # the merged snapshot, possibly with nodes the old one lacked.
        grown_n = n_nodes + data.draw(st.integers(0, 3), label="new_nodes")
        extra = data.draw(edges_among(grown_n, 8), label="extra")
        grown = graph.with_edges(extra, n_nodes=grown_n)

        for on_graph, its_edges in ((graph, edges), (grown, edges + extra)):
            n = on_graph.n_nodes
            seeds = data.draw(
                st.lists(st.integers(0, n - 1), max_size=6), label="seeds")
            steps = data.draw(
                st.sampled_from([-2, 0, 1, 2, WALK_STEPS, n + 5, 10**12]),
                label="steps")
            result = walks.forward_reachable_set(on_graph, seeds, steps)
            assert result == naive_ball(its_edges, seeds, steps)
            assert all(type(node) is int for node in result)


class TestWalkerRouting:
    def test_walker_modes_produce_identical_summaries_and_systems(
            self, from_scratch):
        """An updated walker and a from-scratch build on the same graph
        agree on every byte, batch after batch, and each result's affected
        set is the forward ball of the batch's heads."""
        rng = np.random.default_rng(9)
        graph = random_graph(rng, 40, 90)
        params = SimRankParams.fast_defaults()

        walker = ShardedIncrementalWalker(graph, params=params)
        walker.build()
        for _ in range(4):
            batch = []
            while len(batch) < 3:
                u = int(rng.integers(0, walker.graph.n_nodes))
                v = int(rng.integers(0, walker.graph.n_nodes))
                if u != v:
                    batch.append((u, v))
            new_heads = {v for u, v in batch if not walker.graph.has_edge(u, v)}
            result = walker.add_edges(batch)
            if not new_heads:
                assert result is None
                continue
            assert result.affected == walks.forward_reachable_set(
                walker.graph, new_heads, params.walk_steps)
            assert result.affected_rows == len(result.affected)
            assert result.routing_seconds >= 0.0
            reference = from_scratch(DiGraph(
                walker.graph.n_nodes, walker.graph.edge_array()), params)
            for name in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(walker.system, name),
                                      getattr(reference.system, name)), name
            assert np.array_equal(walker.index.diagonal,
                                  reference.index.diagonal)
