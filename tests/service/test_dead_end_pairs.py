"""Dead-end pairs: answered by SimRank's definition, never walked.

``s(i, j) = 0`` for ``i != j`` when either node has no in-neighbours, and
:meth:`~repro.core.queries.QueryEngine.combine_pair` returns exactly that
``0.0`` for such a pair.  The service answers these pairs without a cache
lookup, simulation or combine, counts them in ``dead_end_pairs`` (and still
in ``pair_queries`` and the planner's load), and the one-off engine shares
the rule (:func:`~repro.core.queries.definitional_pair_score`).  The
property at the bottom pins every pair answer, shortcut or not, to the
combine of freshly simulated distributions across updates that end dead
ends and add new ones.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ServiceParams, ShardingParams, SimRankParams
from repro.core import montecarlo
from repro.core import queries as queries_module
from repro.core.queries import QueryEngine, definitional_pair_score
from repro.graph.digraph import DiGraph
from repro.service import PairQuery, QueryService, TopKQuery


@pytest.fixture(params=[1, 3], ids=["K1", "K3"])
def make_any(request, make_service, make_sharded):
    """The single-shard service and a three-shard one."""
    if request.param == 1:
        return make_service
    return lambda **options: make_sharded(num_shards=3, **options)


def _dead_ends(graph: DiGraph) -> np.ndarray:
    return np.flatnonzero(graph.in_degrees() == 0)


def _count_combines(monkeypatch):
    calls = []
    original = QueryEngine.combine_pair

    def counting(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(QueryEngine, "combine_pair", counting)
    return calls


class TestDeadEndPairs:
    def test_a_batch_of_dead_end_pairs_does_no_walk_work(
            self, make_any, service_graph, monkeypatch):
        service = make_any()
        dead = _dead_ends(service_graph)
        live = np.flatnonzero(service_graph.in_degrees() > 0)
        pairs = [PairQuery(int(dead[0]), int(dead[1])),
                 PairQuery(int(dead[2]), int(live[0])),
                 PairQuery(int(live[1]), int(dead[3])),
                 PairQuery(int(dead[2]), int(live[0]))]
        combines = _count_combines(monkeypatch)
        before = service.stats()
        answers = service.run_batch(pairs)
        after = service.stats()
        assert list(answers) == [0.0] * len(pairs)
        assert all(type(answer) is float and np.signbit(answer) == False
                   for answer in answers)
        assert combines == []
        assert after["sources_simulated"] == before["sources_simulated"]
        assert (after["cache_hits"] + after["cache_misses"]
                == before["cache_hits"] + before["cache_misses"])
        assert after["pair_queries"] - before["pair_queries"] == len(pairs)
        assert after["dead_end_pairs"] - before["dead_end_pairs"] == len(pairs)

    def test_a_self_pair_on_a_dead_end_is_still_one(self, make_any,
                                                    service_graph):
        service = make_any()
        node = int(_dead_ends(service_graph)[0])
        assert service.run_batch([PairQuery(node, node)]) == [1.0]
        stats = service.stats()
        assert stats["dead_end_pairs"] == 0 and stats["pair_queries"] == 1

    def test_live_pairs_beside_dead_ends_are_walked_as_before(
            self, make_any, service_graph, service_index, service_params,
            monkeypatch):
        service = make_any()
        dead = int(_dead_ends(service_graph)[0])
        live = np.flatnonzero(service_graph.in_degrees() > 0)[:3].tolist()
        batch = [PairQuery(live[0], live[1]), PairQuery(dead, live[2]),
                 TopKQuery(dead, k=3), PairQuery(live[1], live[2])]
        combines = _count_combines(monkeypatch)
        answers = service.run_batch(batch)
        assert len(combines) == 2
        engine = QueryEngine(service_graph, service_index, service_params)
        assert answers[0] == engine.single_pair(live[0], live[1])
        assert answers[1] == 0.0
        assert answers[3] == engine.single_pair(live[1], live[2])
        # The top-k on the dead end still simulates it: only pairs shortcut.
        assert service.stats()["sources_simulated"] == 4

    def test_engine_and_service_agree_through_one_rule(
            self, make_service, service_graph, service_index, service_params,
            monkeypatch):
        dead = int(_dead_ends(service_graph)[0])
        live, other = np.flatnonzero(service_graph.in_degrees() > 0)[:2].tolist()
        assert definitional_pair_score(service_graph, dead, live) == 0.0
        assert definitional_pair_score(service_graph, live, dead) == 0.0
        assert definitional_pair_score(service_graph, dead, dead) == 1.0
        assert definitional_pair_score(service_graph, live, live) == 1.0
        assert definitional_pair_score(service_graph, live, other) is None
        engine = QueryEngine(service_graph, service_index, service_params)
        walks = []
        original = montecarlo.estimate_walk_distributions_batch
        monkeypatch.setattr(
            montecarlo, "estimate_walk_distributions_batch",
            lambda *args, **kwargs: walks.append(args) or original(*args, **kwargs))
        assert engine.single_pair(dead, live) == 0.0
        assert engine.exact_single_pair(live, dead) == 0.0
        assert walks == []
        assert make_service().single_pair(dead, live) == 0.0

    def test_a_dead_ends_first_in_edge_ends_the_shortcut(
            self, service_graph, service_params):
        service = QueryService.build(service_graph, service_params)
        dead = int(_dead_ends(service_graph)[0])
        live = int(np.flatnonzero(service_graph.in_degrees() > 0)[0])
        assert service.single_pair(dead, live) == 0.0
        tail = int(service_graph.in_neighbors(live)[0])
        service.add_edges([(tail, dead)])
        answer = service.single_pair(dead, live)
        engine = service.query_engine
        distributions = montecarlo.estimate_walk_distributions_batch(
            service.graph, [dead, live], service.query_params)
        assert answer == engine.combine_pair(distributions[dead],
                                             distributions[live])
        assert answer > 0.0
        assert service.stats()["dead_end_pairs"] == 1


# --------------------------------------------------------------------------- #
# Property: every pair answer is the combine of fresh distributions
# --------------------------------------------------------------------------- #
@st.composite
def _graphs(draw) -> DiGraph:
    n = draw(st.integers(min_value=2, max_value=12))
    node = st.integers(min_value=0, max_value=n - 1)
    return DiGraph(n, draw(st.lists(st.tuples(node, node), max_size=3 * n)))


def _reference(service: QueryService, node_i: int, node_j: int) -> float:
    """The pair's score from the combine of freshly simulated walks."""
    if node_i == node_j:
        return 1.0
    distributions = montecarlo.estimate_walk_distributions_batch(
        service.graph, [node_i, node_j], service.query_params)
    engine = QueryEngine(service.graph, service.index, service.query_params)
    return engine.combine_pair(distributions[node_i], distributions[node_j])


@settings(max_examples=15, deadline=None)
@given(_graphs(), st.sampled_from([1, 2, 5]), st.booleans(),
       st.sampled_from([20, 7]), st.data())
def test_every_pair_answer_is_the_combine_of_fresh_walks(
        graph, num_shards, approximate, walkers, data):
    params = SimRankParams(c=0.6, walk_steps=3, jacobi_iterations=2,
                           index_walkers=10, query_walkers=walkers,
                           seed=data.draw(st.integers(0, 1000)))
    service_params = (ServiceParams(accuracy_budget=0.5, approx_walkers=9,
                                    approx_steps=2)
                      if approximate else ServiceParams())
    with QueryService.build(graph, params, service_params=service_params,
                            sharding=ShardingParams(num_shards=num_shards)
                            ) as service:
        for _round in range(3):
            n = service.graph.n_nodes
            node = st.integers(min_value=0, max_value=n - 1)
            pairs = [PairQuery(i, j) for i, j in data.draw(
                st.lists(st.tuples(node, node), min_size=1, max_size=8))]
            before = service.stats()["dead_end_pairs"]
            answers = service.run_batch(pairs)
            for query, answer in zip(pairs, answers, strict=True):
                expected = _reference(service, query.source, query.target)
                assert np.float64(answer).tobytes() == \
                    np.float64(expected).tobytes()
            dead = service.graph.in_degrees() == 0
            assert service.stats()["dead_end_pairs"] - before == sum(
                query.source != query.target
                and (dead[query.source] or dead[query.target])
                for query in pairs)
            # Give a dead end its first in-edge (when one is left) and add
            # a new node, itself a dead end, with an out-edge.
            edges = [(n, int(data.draw(node)))]
            if dead.any():
                head = int(data.draw(st.sampled_from(np.flatnonzero(dead).tolist())))
                edges.append((int(data.draw(node)), head))
            service.add_edges(edges)


# --------------------------------------------------------------------------- #
# Property: pairs whose walks cannot meet answer 0.0 unwalked, exactly
# --------------------------------------------------------------------------- #
def _level_sets_meet(graph: DiGraph, node_i: int, node_j: int,
                     steps: int) -> bool:
    """Brute force, one pair: do the two exact-step level sets share a node
    at some step ``t <= steps``?"""
    left, right = {node_i}, {node_j}
    for step in range(steps + 1):
        if step:
            left = {int(u) for v in left for u in graph.in_neighbors(v)}
            right = {int(u) for v in right for u in graph.in_neighbors(v)}
        if left & right:
            return True
    return False


@st.composite
def _cyclic_graphs(draw) -> DiGraph:
    """Random graphs with at least one directed cycle through a few nodes."""
    n = draw(st.integers(min_value=3, max_value=14))
    node = st.integers(min_value=0, max_value=n - 1)
    ring = draw(st.lists(node, min_size=2, max_size=n, unique=True))
    edges = list(zip(ring, ring[1:] + ring[:1]))
    return DiGraph(n, edges + draw(st.lists(st.tuples(node, node),
                                            max_size=2 * n)))


@settings(max_examples=15, deadline=None)
@given(_cyclic_graphs(), st.sampled_from([1, 2, 5]), st.booleans(),
       st.data())
def test_unmeetable_pairs_answer_the_combine_of_fresh_walks(
        graph, num_shards, approximate, data):
    params = SimRankParams(c=0.6, walk_steps=4, jacobi_iterations=2,
                           index_walkers=10, query_walkers=20,
                           seed=data.draw(st.integers(0, 1000)))
    service_params = (ServiceParams(accuracy_budget=0.5, approx_walkers=9,
                                    approx_steps=2)
                      if approximate else ServiceParams())
    with QueryService.build(graph, params, service_params=service_params,
                            sharding=ShardingParams(num_shards=num_shards)
                            ) as service:
        steps = service.query_params.walk_steps
        for _round in range(3):
            n = service.graph.n_nodes
            node = st.integers(min_value=0, max_value=n - 1)
            pairs = [PairQuery(i, j) for i, j in data.draw(
                st.lists(st.tuples(node, node), min_size=1, max_size=10))]
            walked = [query for query in pairs
                      if definitional_pair_score(service.graph, query.source,
                                                 query.target) is None]
            verdict = queries_module.pairs_that_can_meet(
                service.graph, [query.source for query in walked],
                [query.target for query in walked], steps)
            unwalked = {query for query, meets in zip(walked, verdict)
                        if not meets}
            before = service.stats()
            answers = service.run_batch(pairs)
            after = service.stats()
            assert (after["unmeetable_pairs"] - before["unmeetable_pairs"]
                    == sum(query in unwalked for query in pairs))
            for query, answer in zip(pairs, answers, strict=True):
                if query in unwalked:
                    expected = _reference(service, query.source,
                                          query.target)
                    assert np.float64(answer).tobytes() == \
                        np.float64(expected).tobytes() == \
                        np.float64(0.0).tobytes()
            # Unbounded, the batched verdict is the per-pair brute force.
            with mock.patch.object(queries_module, "MEET_FRONTIER_CAP", n):
                unbounded = queries_module.pairs_that_can_meet(
                    service.graph, [query.source for query in pairs],
                    [query.target for query in pairs], steps)
            assert unbounded.tolist() == [
                _level_sets_meet(service.graph, query.source, query.target,
                                 steps) for query in pairs]
            # Grow the graph: a new node's out-edge and a random edge.
            service.add_edges([(n, int(data.draw(node))),
                               (int(data.draw(node)), int(data.draw(node)))])


def _unmeetable(graph: DiGraph, steps: int, count: int):
    """The first ``count`` pairs of live endpoints whose walks cannot meet."""
    live = np.flatnonzero(graph.in_degrees() > 0).tolist()
    found = []
    for i in live:
        for j in live:
            if i < j and not queries_module.pairs_that_can_meet(
                    graph, [i], [j], steps)[0]:
                found.append((i, j))
                if len(found) == count:
                    return found
    raise AssertionError("no unmeetable pair of live endpoints")


class TestUnmeetablePairs:
    def test_a_batch_of_unmeetable_pairs_does_no_walk_work(
            self, make_any, service_graph, service_params, monkeypatch):
        service = make_any()
        pairs = [PairQuery(i, j) for i, j in
                 _unmeetable(service_graph, service_params.walk_steps, 3)]
        combines = _count_combines(monkeypatch)
        before = service.stats()
        answers = service.run_batch(pairs)
        after = service.stats()
        assert list(answers) == [0.0] * len(pairs)
        assert all(type(answer) is float and not np.signbit(answer)
                   for answer in answers)
        assert combines == []
        assert after["sources_simulated"] == before["sources_simulated"]
        assert (after["cache_hits"] + after["cache_misses"]
                == before["cache_hits"] + before["cache_misses"])
        assert after["unmeetable_pairs"] - before["unmeetable_pairs"] == 3
        assert after["dead_end_pairs"] == before["dead_end_pairs"]
        assert after["pair_queries"] - before["pair_queries"] == 3

    def test_the_engine_answers_them_unwalked(
            self, service_graph, service_index, service_params, monkeypatch):
        (i, j), = _unmeetable(service_graph, service_params.walk_steps, 1)
        engine = QueryEngine(service_graph, service_index, service_params)
        walks = []
        for name in ("estimate_walk_distributions_batch",
                     "exact_walk_distributions"):
            original = getattr(montecarlo, name)
            monkeypatch.setattr(
                montecarlo, name,
                lambda *args, _original=original, **kwargs:
                walks.append(args) or _original(*args, **kwargs))
        assert engine.single_pair(i, j) == 0.0
        assert engine.exact_single_pair(j, i) == 0.0
        assert walks == []

    def test_a_batch_wide_at_step_one_is_left_to_the_walks(self):
        cap = queries_module.MEET_FRONTIER_CAP
        hub, a, b = 0, cap + 3, cap + 5
        # The hub's in-list outgrows the cap; a and b each have one
        # in-neighbour, a dead end, so their walks cannot meet.
        graph = DiGraph(b + 2, [(j, hub) for j in range(1, cap + 2)]
                        + [(a + 1, a), (b + 1, b)])
        meet = queries_module.pairs_that_can_meet
        assert meet(graph, [a], [b], 4).tolist() == [False]
        # One wide pair of three (a dead end is not wide): the test runs.
        assert meet(graph, [hub, hub, a], [a + 1, b + 1, b], 4).tolist() == [
            False, False, False]
        assert meet(graph, [hub, a], [a, b], 4).tolist() == [True, False]
        # Two of three: every pair is left to the walks.
        assert meet(graph, [hub, hub, a], [a, b, b], 4).tolist() == [True] * 3
        params = SimRankParams(c=0.6, walk_steps=4, jacobi_iterations=2,
                               index_walkers=10, query_walkers=20, seed=3)
        with QueryService.build(graph, params) as service:
            skipped = service.run_batch([PairQuery(hub, a), PairQuery(hub, b),
                                         PairQuery(a, b)])
            assert service.stats()["unmeetable_pairs"] == 0
            tested = service.run_batch([PairQuery(a, b)])
            assert service.stats()["unmeetable_pairs"] == 1
        assert np.float64(skipped[2]).tobytes() == \
            np.float64(tested[0]).tobytes() == np.float64(0.0).tobytes()
