"""CloudWalker: parallel SimRank computation at scale.

This package reproduces the system described in *"Walking in the Cloud:
Parallel SimRank at Scale"* (PASCO / CloudWalker, SoCC 2015 / PVLDB 2016).

The public API is intentionally small; the most common entry points are:

``repro.graph``
    Directed-graph substrate: CSR graphs, generators, dataset stand-ins.
``repro.engine``
    A Spark-like local cluster-computing engine (RDDs, broadcast variables,
    DAG scheduler) used by the distributed execution models.
``repro.core``
    The CloudWalker algorithm itself: offline diagonal indexing
    (Monte-Carlo + Jacobi) and online MCSP / MCSS / MCAP queries.
``repro.baselines``
    The comparison systems from the paper: naive SimRank, FMT and LIN,
    plus co-citation similarity.
``repro.service``
    The online serving layer: batched query execution over a persistently
    loaded index with an LRU cache of walk distributions, live edge
    insertions folded in incrementally, and versioned index snapshots
    (``QueryService``; ``K`` shards split index builds and updates into
    row tasks, ``K = 1`` by default).

Quick start::

    from repro import CloudWalker, SimRankParams
    from repro.graph import generators

    graph = generators.power_law_graph(n=500, avg_degree=8, seed=7)
    cw = CloudWalker(graph, params=SimRankParams.paper_defaults())
    cw.build_index()
    print(cw.single_pair(3, 17))
    print(cw.single_source(3)[:10])
"""

from repro.config import (
    ClusterSpec,
    ServiceParams,
    ShardingParams,
    SimRankParams,
    UpdateParams,
)
from repro.errors import (
    CloudWalkerError,
    ConfigurationError,
    GraphFormatError,
    IndexNotBuiltError,
    NodeNotFoundError,
)
from repro.graph.digraph import DiGraph

__version__ = "1.0.0"

__all__ = [
    "CloudWalker",
    "ClusterSpec",
    "CloudWalkerError",
    "ConfigurationError",
    "DiGraph",
    "GraphFormatError",
    "IndexNotBuiltError",
    "NodeNotFoundError",
    "QueryService",
    "ServiceParams",
    "ShardingParams",
    "SimRankParams",
    "UpdateParams",
    "__version__",
]


def __getattr__(name: str):
    # CloudWalker and QueryService are imported lazily so that light-weight
    # uses of the graph or engine subpackages do not pull in the whole
    # algorithm stack.
    if name == "CloudWalker":
        from repro.core.cloudwalker import CloudWalker

        return CloudWalker
    if name == "QueryService":
        from repro.service.service import QueryService

        return QueryService
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
