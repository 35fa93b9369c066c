"""Graph sampling utilities.

The scalability experiments need graphs of controllable size with the same
character as a larger original.  Besides generating fresh synthetic graphs,
it is often more faithful to *sample* a large graph down — the approach used
when relating stand-in results to the paper's originals.  Three standard
samplers are provided:

* :func:`random_node_sample` — induced subgraph on a uniform node sample
  (preserves density, breaks connectivity),
* :func:`random_edge_sample` — uniform edge sample (preserves hubs' relative
  degree, thins the graph),
* :func:`forest_fire_sample` — the Leskovec forest-fire sampler (preserves
  community structure and degree skew; the default choice for scaling
  studies).
"""

from __future__ import annotations

from typing import List, Optional, Set

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.digraph import DiGraph


def _check_fraction(fraction: float) -> None:
    if not 0.0 < fraction <= 1.0:
        raise ConfigurationError(f"fraction must be in (0, 1], got {fraction}")


def random_node_sample(graph: DiGraph, fraction: float,
                       seed: Optional[int] = None) -> DiGraph:
    """Induced subgraph on a uniformly random ``fraction`` of the nodes."""
    _check_fraction(fraction)
    rng = np.random.default_rng(seed)
    target = max(1, int(round(graph.n_nodes * fraction)))
    nodes = rng.choice(graph.n_nodes, size=target, replace=False)
    sample = graph.subgraph(sorted(int(node) for node in nodes))
    sample.name = f"{graph.name}-nodesample-{fraction:g}"
    return sample


def random_edge_sample(graph: DiGraph, fraction: float,
                       seed: Optional[int] = None) -> DiGraph:
    """Keep a uniformly random ``fraction`` of the edges (all nodes kept)."""
    _check_fraction(fraction)
    rng = np.random.default_rng(seed)
    edges = graph.edge_array()
    if len(edges) == 0:
        return DiGraph(graph.n_nodes, [], name=f"{graph.name}-edgesample-{fraction:g}")
    keep = rng.random(len(edges)) < fraction
    return DiGraph(graph.n_nodes, edges[keep],
                   name=f"{graph.name}-edgesample-{fraction:g}")


def forest_fire_sample(graph: DiGraph, target_nodes: int,
                       forward_prob: float = 0.35,
                       seed: Optional[int] = None) -> DiGraph:
    """Forest-fire sample with approximately ``target_nodes`` nodes.

    Repeatedly ignites a random seed node and burns outwards along out-links
    with geometric fan-out (probability ``forward_prob`` per additional
    neighbour), collecting burned nodes until the target size is reached;
    the induced subgraph on the burned set is returned with dense ids.
    """
    if target_nodes < 1:
        raise ConfigurationError(f"target_nodes must be >= 1, got {target_nodes}")
    if not 0.0 < forward_prob < 1.0:
        raise ConfigurationError(f"forward_prob must be in (0, 1), got {forward_prob}")
    if graph.n_nodes == 0:
        raise ConfigurationError("cannot sample an empty graph")
    target_nodes = min(target_nodes, graph.n_nodes)
    rng = np.random.default_rng(seed)
    burned: Set[int] = set()
    order: List[int] = []
    while len(burned) < target_nodes:
        seed_node = int(rng.integers(0, graph.n_nodes))
        frontier = [seed_node]
        while frontier and len(burned) < target_nodes:
            node = frontier.pop()
            if node in burned:
                continue
            burned.add(node)
            order.append(node)
            neighbors = [int(v) for v in graph.out_neighbors(node) if int(v) not in burned]
            if not neighbors:
                continue
            # Geometric number of neighbours to burn, at least one.
            burn_count = min(len(neighbors), 1 + int(rng.geometric(1.0 - forward_prob)) - 1)
            rng.shuffle(neighbors)
            frontier.extend(neighbors[:max(burn_count, 1)])
    sample = graph.subgraph(order)
    sample.name = f"{graph.name}-forestfire-{target_nodes}"
    return sample

