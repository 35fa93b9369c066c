"""The *Broadcasting* execution model.

In this model (the faster of the paper's two Spark implementations) the
whole graph is broadcast to every worker.  Work is then embarrassingly
parallel:

* offline indexing — the node set is split into partitions; each task runs
  the Monte-Carlo estimation of its nodes' rows of ``A`` against the
  broadcast graph, and each Jacobi iteration updates each partition's block
  of ``x`` against the broadcast previous iterate;
* online queries — any single worker holding the broadcast graph (plus the
  tiny diagonal index) can answer MCSP / MCSS locally.

The trade-off, reproduced by :class:`~repro.engine.cost_model.ClusterCostModel`,
is that the graph must fit in a single executor's memory — the reason the
paper also provides the RDD model for clue-web.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

import numpy as np

from repro.config import ClusterSpec, SimRankParams
from repro.core import linear_system
from repro.core.index import BuildInfo, DiagonalIndex
from repro.core.jacobi import jacobi_step, relative_residual
from repro.core.queries import QueryEngine
from repro.core.sharding import gather_shard_rows
from repro.engine.context import ClusterContext
from repro.graph.digraph import DiGraph


class BroadcastingModel:
    """CloudWalker with the graph broadcast to every executor.

    Parameters
    ----------
    graph:
        Input graph.
    params:
        Algorithmic parameters.
    context:
        An existing :class:`ClusterContext`; a fresh context is
        created when omitted.
    num_partitions:
        How many node partitions to split the work into (default: the
        context's parallelism).
    """

    name = "broadcasting"

    def __init__(
        self,
        graph: DiGraph,
        params: Optional[SimRankParams] = None,
        context: Optional[ClusterContext] = None,
        cluster: Optional[ClusterSpec] = None,
        num_partitions: Optional[int] = None,
    ) -> None:
        self.graph = graph
        self.params = params or SimRankParams.paper_defaults()
        self.context = context or ClusterContext(cluster=cluster)
        self.num_partitions = num_partitions or self.context.default_parallelism
        self.index: Optional[DiagonalIndex] = None
        self._graph_broadcast = None
        self._index_broadcast = None
        self._query_engine: Optional[QueryEngine] = None

    # ------------------------------------------------------------------ #
    def _broadcast_graph(self):
        if self._graph_broadcast is None:
            self._graph_broadcast = self.context.broadcast(
                self.graph, size_bytes=self.graph.memory_bytes()
            )
        return self._graph_broadcast

    def feasible_on(self, cluster: Optional[ClusterSpec] = None) -> bool:
        """Whether the graph fits in one executor of ``cluster``."""
        model = self.context.cost_model
        if cluster is not None:
            from repro.engine.cost_model import ClusterCostModel

            model = ClusterCostModel(cluster)
        return model.broadcast_fits(self.graph.memory_bytes())

    # ------------------------------------------------------------------ #
    # Offline indexing
    # ------------------------------------------------------------------ #
    def build_index(self) -> DiagonalIndex:
        """Run the offline phase through the engine and return the index."""
        start = time.perf_counter()
        checkpoint = self.context.checkpoint()
        graph_broadcast = self._broadcast_graph()
        params = self.params
        n_nodes = self.graph.n_nodes

        # Phase 1: Monte-Carlo estimation of the rows of A, one task per
        # node partition, each against the broadcast graph.
        nodes_rdd = self.context.parallelize(
            range(n_nodes), self.num_partitions, name="nodes"
        )

        def estimate_rows(nodes) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
            return [linear_system.build_rows(graph_broadcast.value, list(nodes), params)]

        triples = nodes_rdd.map_partitions(estimate_rows).collect()
        monte_carlo_seconds = time.perf_counter() - start

        system = gather_shard_rows(triples, n_nodes)

        # Phase 2: parallel Jacobi.  Each iteration broadcasts the previous
        # iterate and lets every partition update its block of x.
        solve_start = time.perf_counter()
        x = np.full(n_nodes, 1.0 - params.c, dtype=np.float64)
        rhs = np.ones(n_nodes, dtype=np.float64)
        blocks = self._node_blocks(n_nodes)
        block_rows = [
            (block, system[block, :], rhs[block]) for block in blocks if len(block)
        ]
        for _ in range(params.jacobi_iterations):
            x_broadcast = self.context.broadcast(x)
            blocks_rdd = self.context.parallelize(
                block_rows, num_partitions=max(len(block_rows), 1), name="jacobi-blocks"
            )

            def update_block(block_data):
                block_ids, rows, rhs_block = block_data
                return (
                    block_ids,
                    jacobi_step(rows, block_ids, rhs_block, x_broadcast.value),
                )

            updates = blocks_rdd.map(update_block).collect()
            new_x = x.copy()
            for block_ids, values in updates:
                new_x[block_ids] = values
            x = new_x
        solve_seconds = time.perf_counter() - solve_start

        residual = relative_residual(system, x, rhs) if n_nodes else float("nan")

        phase_metrics = self.context.metrics_since(checkpoint, action="build-index")
        build_info = BuildInfo(
            execution_model=self.name,
            monte_carlo_seconds=monte_carlo_seconds,
            solve_seconds=solve_seconds,
            total_seconds=time.perf_counter() - start,
            jacobi_residual=residual,
            system_nnz=int(system.nnz),
            extras={
                "engine_jobs": phase_metrics.num_stages,
                "engine_tasks": phase_metrics.num_tasks,
                "num_partitions": self.num_partitions,
                "graph_broadcast_bytes": self.graph.memory_bytes(),
            },
        )
        self.index = DiagonalIndex(
            diagonal=x,
            params=params,
            graph_name=self.graph.name,
            n_nodes=n_nodes,
            n_edges=self.graph.n_edges,
            build_info=build_info,
        )
        self._query_engine = QueryEngine(self.graph, self.index, params)
        return self.index

    def _node_blocks(self, n_nodes: int) -> List[np.ndarray]:
        boundaries = np.linspace(0, n_nodes, self.num_partitions + 1, dtype=np.int64)
        return [
            np.arange(boundaries[i], boundaries[i + 1], dtype=np.int64)
            for i in range(self.num_partitions)
        ]

    # ------------------------------------------------------------------ #
    # Online queries (executed as single-task engine jobs)
    # ------------------------------------------------------------------ #
    def _require_index(self) -> QueryEngine:
        if self.index is None or self._query_engine is None:
            from repro.errors import IndexNotBuiltError

            raise IndexNotBuiltError("broadcasting-model query")
        return self._query_engine

    def single_pair(self, node_i: int, node_j: int) -> float:
        """MCSP executed on one executor holding the broadcast graph."""
        engine = self._require_index()
        result = self.context.parallelize([(node_i, node_j)], 1, name="mcsp").map(
            lambda pair: engine.single_pair(pair[0], pair[1])
        ).collect()
        return result[0]

    def single_source(self, node: int) -> np.ndarray:
        """MCSS executed on one executor holding the broadcast graph."""
        engine = self._require_index()
        result = self.context.parallelize([node], 1, name="mcss").map(
            engine.single_source
        ).collect()
        return result[0]

    def all_pairs(self, nodes: Optional[List[int]] = None) -> np.ndarray:
        """MCAP: sources are distributed across partitions."""
        engine = self._require_index()
        sources = list(range(self.graph.n_nodes)) if nodes is None else list(nodes)
        rows = self.context.parallelize(sources, self.num_partitions, name="mcap").map(
            lambda source: (source, engine.single_source(source))
        ).collect()
        matrix = np.zeros((self.graph.n_nodes, self.graph.n_nodes), dtype=np.float64)
        for source, scores in rows:
            matrix[source] = scores
        return matrix

    # ------------------------------------------------------------------ #
    def phase_metrics(self, checkpoint: int = 0):
        """Merged engine metrics since ``checkpoint`` (for the cost model)."""
        return self.context.metrics_since(checkpoint, action=f"{self.name}-phase")

    def shutdown(self) -> None:
        """Release the engine context."""
        self.context.shutdown()
