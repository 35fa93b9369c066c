"""Graph statistics used by the dataset table and the cluster cost model.

The functions here are deliberately cheap (linear in nodes + edges) because
the benchmark harness calls them for every dataset in every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.graph.digraph import DiGraph


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics of a directed graph.

    ``log_avg_in_degree`` is the ``log d`` factor that appears in the paper's
    MCSS / MCAP complexity bounds (O(T^2 R log d)).
    """

    name: str
    n_nodes: int
    n_edges: int
    avg_in_degree: float
    max_in_degree: int
    zero_in_degree_fraction: float
    avg_out_degree: float
    max_out_degree: int
    memory_bytes: int
    edge_list_bytes: int

    @property
    def log_avg_in_degree(self) -> float:
        """Natural log of the average in-degree, floored at 1.0."""
        return float(np.log(max(self.avg_in_degree, np.e)))

    def to_dict(self) -> Dict[str, float]:
        """Plain-dict view used by report formatters."""
        return {
            "name": self.name,
            "n_nodes": self.n_nodes,
            "n_edges": self.n_edges,
            "avg_in_degree": self.avg_in_degree,
            "max_in_degree": self.max_in_degree,
            "zero_in_degree_fraction": self.zero_in_degree_fraction,
            "avg_out_degree": self.avg_out_degree,
            "max_out_degree": self.max_out_degree,
            "memory_bytes": self.memory_bytes,
            "edge_list_bytes": self.edge_list_bytes,
        }


def compute_stats(graph: DiGraph) -> GraphStats:
    """Compute :class:`GraphStats` for ``graph``."""
    in_degrees = graph.in_degrees()
    out_degrees = graph.out_degrees()
    n = graph.n_nodes
    return GraphStats(
        name=graph.name,
        n_nodes=n,
        n_edges=graph.n_edges,
        avg_in_degree=float(in_degrees.mean()) if n else 0.0,
        max_in_degree=int(in_degrees.max()) if n else 0,
        zero_in_degree_fraction=float((in_degrees == 0).mean()) if n else 0.0,
        avg_out_degree=float(out_degrees.mean()) if n else 0.0,
        max_out_degree=int(out_degrees.max()) if n else 0,
        memory_bytes=graph.memory_bytes(),
        edge_list_bytes=graph.edge_list_bytes(),
    )
