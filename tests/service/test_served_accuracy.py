"""Served accuracy: exact-mode answers track exact SimRank.

The bitwise tests elsewhere prove that every serving route gives the
answers of a from-scratch single-shard service; this one proves that
those answers are *right*.  On a 300-node ``copying_model_graph``
(``out_degree=5``) at c = 0.6, T = 10, L = 3, R = 100 and R' = 1 000 (the
spine's query walkers), exact-mode ``QueryService.run_batch`` answers
are compared with Jeh-Widom ground truth
(:func:`repro.analysis.accuracy.ground_truth_matrix`) for graph and
parameter seeds 0-4: 60 drawn pairs of nodes with in-links, and ten
drawn sources asked as ``source`` and ``topk k=10`` queries.

Measured max abs error per seed (0, 1, 2, 3, 4):

* ``pair``: 0.0051, 0.0084, 0.0011, 0.0018, 0.0082 (mean 4e-5 to 3.1e-4);
* ``source`` (over every node of the vector): 0.0104, 0.0130, 0.0074,
  0.0082, 0.0134;
* ``topk`` (the ranked scores): the same as ``source``.

The threshold, 0.025, is about 1.9 times the largest measured error: a
change that buys speed with accuracy (fewer walks than it claims, a stale
cache entry, a skipped Jacobi sweep) shows here before any bitwise test
can see it, because those compare against a build that would share it.
"""

import numpy as np
import pytest

from repro.analysis.accuracy import ground_truth_matrix
from repro.config import SimRankParams
from repro.graph import generators
from repro.service import PairQuery, QueryService, SourceQuery, TopKQuery

N_NODES = 300
MAX_ABS_ERROR = 0.025


@pytest.mark.parametrize("seed", range(5))
def test_exact_mode_answers_track_ground_truth(seed):
    graph = generators.copying_model_graph(N_NODES, out_degree=5, seed=seed)
    truth = ground_truth_matrix(graph, c=0.6)
    params = SimRankParams(c=0.6, walk_steps=10, jacobi_iterations=3,
                           index_walkers=100, query_walkers=1_000, seed=seed)
    rng = np.random.default_rng(seed)
    live = np.flatnonzero(graph.in_degrees() > 0)
    pairs = [(int(a), int(b)) for a, b in rng.choice(live, size=(60, 2))
             if a != b]
    sources = [int(node) for node in rng.choice(N_NODES, size=10,
                                                replace=False)]
    queries = ([PairQuery(a, b) for a, b in pairs]
               + [SourceQuery(s) for s in sources]
               + [TopKQuery(s, k=10) for s in sources])
    with QueryService.build(graph, params) as service:
        answers = service.run_batch(queries)
    pair_answers = answers[:len(pairs)]
    source_answers = answers[len(pairs):len(pairs) + len(sources)]
    topk_answers = answers[len(pairs) + len(sources):]

    pair_errors = [abs(answer - truth[a, b])
                   for answer, (a, b) in zip(pair_answers, pairs)]
    source_errors = [float(np.abs(answer - truth[s]).max())
                     for answer, s in zip(source_answers, sources)]
    topk_errors = [abs(score - truth[s, node])
                   for ranking, s in zip(topk_answers, sources)
                   for node, score in ranking]
    assert max(pair_errors) <= MAX_ABS_ERROR
    assert max(source_errors) <= MAX_ABS_ERROR
    assert max(topk_errors) <= MAX_ABS_ERROR
    # The comparison is not vacuous: the served answers carry real mass.
    assert sum(answer > 0.0 for answer in pair_answers) > 0
    assert all(len(ranking) == 10 for ranking in topk_answers)
