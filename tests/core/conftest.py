"""Shared fixtures for core tests."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.config import SimRankParams
from repro.core import linear_system
from repro.core.diagonal import build_diagonal_index
from repro.graph import generators


@pytest.fixture(scope="session")
def small_params() -> SimRankParams:
    """Cheap parameters that keep Monte-Carlo tests fast but meaningful."""
    return SimRankParams(
        c=0.6, walk_steps=6, jacobi_iterations=5, index_walkers=80,
        query_walkers=800, seed=7,
    )


@pytest.fixture(scope="session")
def from_scratch():
    """``from_scratch(graph, params)``: the ``system`` and ``index`` a
    from-scratch build on ``graph`` produces — the reference every
    maintained (sharded, updated) index must match bitwise."""
    def build(graph, params):
        return SimpleNamespace(system=linear_system.build_system(graph, params),
                               index=build_diagonal_index(graph, params))
    return build


@pytest.fixture(scope="session")
def small_graph():
    """A web-like graph small enough for exact all-pairs ground truth."""
    return generators.copying_model_graph(80, out_degree=5, copy_prob=0.6, seed=11)


@pytest.fixture(scope="session")
def ground_truth_simrank(small_graph):
    """Jeh-Widom SimRank matrix computed with networkx (reference)."""
    import networkx as nx

    similarity = nx.simrank_similarity(
        small_graph.to_networkx(), importance_factor=0.6,
        max_iterations=200, tolerance=1e-10,
    )
    n = small_graph.n_nodes
    return np.array([[similarity[i][j] for j in range(n)] for i in range(n)])
