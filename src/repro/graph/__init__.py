"""Graph substrate for CloudWalker.

This subpackage provides everything the algorithms need from a graph:

* :class:`~repro.graph.digraph.DiGraph` — an immutable, CSR-backed directed
  graph with fast in-neighbour and out-neighbour access (SimRank walks follow
  *in*-links, so the in-adjacency is the primary structure).
* :class:`~repro.graph.builder.GraphBuilder` — incremental construction from
  edge streams.
* :mod:`~repro.graph.generators` — synthetic graph generators used to build
  laptop-scale stand-ins for the paper's datasets.
* :mod:`~repro.graph.datasets` — the dataset registry mirroring the paper's
  evaluation graphs (wiki-vote … clue-web).
* :mod:`~repro.graph.partition` — the node partitioner the RDD execution
  model's ingestion can take.
* :mod:`~repro.graph.stats` — degree statistics and size estimates used by
  the dataset table and the cluster cost model.
* :mod:`~repro.graph.io` — edge-list and binary serialisation.
"""

from repro.graph.builder import GraphBuilder
from repro.graph.digraph import DiGraph
from repro.graph import datasets, generators, io, partition, sampling, stats

__all__ = [
    "DiGraph",
    "GraphBuilder",
    "datasets",
    "generators",
    "io",
    "partition",
    "sampling",
    "stats",
]
