"""The *RDD* execution model.

In this model the graph is **not** replicated: its in-adjacency lives in a
partitioned RDD of ``(node, in_neighbour_array)`` records, which is the only
way to process graphs that do not fit in a single executor's memory (the
paper needs it for clue-web).  Every walk step becomes a join between the
current walker-position RDD and the adjacency RDD, and every aggregation a
``reduce_by_key`` — the engine's shuffle machinery is exercised end to end,
and the constant-factor overhead relative to the broadcasting model is
exactly the gap the paper's Tables 3/4 show.

Random-walk state is kept as collapsed counts ``(current_node, (source,
walker_count))`` rather than individual walkers, so the record count is
bounded by the number of distinct (position, source) pairs.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy import sparse

from repro.config import ClusterSpec, SimRankParams
from repro.core.index import BuildInfo, DiagonalIndex
from repro.core.jacobi import jacobi_step, relative_residual
from repro.engine.context import ClusterContext
from repro.engine.rdd import RDD
from repro.errors import IndexNotBuiltError
from repro.graph.digraph import DiGraph
from repro.graph.partition import HashPartitioner, Partitioner


def _spread_counts(
    rng: np.random.Generator, neighbors: np.ndarray, count: int
) -> List[Tuple[int, int]]:
    """Distribute ``count`` walkers uniformly at random over ``neighbors``.

    For hubs (degree much larger than the walker count) the walkers are
    sampled directly — O(count) — instead of drawing a full multinomial over
    the neighbour array — O(degree); the two procedures are statistically
    identical.
    """
    degree = len(neighbors)
    if degree == 0 or count <= 0:
        return []
    if degree == 1:
        return [(int(neighbors[0]), int(count))]
    if count < degree:
        picks = rng.integers(0, degree, size=count)
        chosen, chosen_counts = np.unique(picks, return_counts=True)
        return [
            (int(neighbors[offset]), int(walkers))
            for offset, walkers in zip(chosen.tolist(), chosen_counts.tolist())
        ]
    allocation = rng.multinomial(count, np.full(degree, 1.0 / degree))
    return [
        (int(node), int(walkers))
        for node, walkers in zip(neighbors.tolist(), allocation.tolist())
        if walkers > 0
    ]


class RDDModel:
    """CloudWalker with the graph stored in a partitioned RDD.

    The public interface mirrors :class:`~repro.core.broadcast_impl.BroadcastingModel`
    so the benchmark harness can swap execution models freely.
    """

    name = "rdd"

    def __init__(
        self,
        graph: DiGraph,
        params: Optional[SimRankParams] = None,
        context: Optional[ClusterContext] = None,
        cluster: Optional[ClusterSpec] = None,
        num_partitions: Optional[int] = None,
        partitioner: Optional[Partitioner] = None,
    ) -> None:
        self.graph = graph
        self.params = params or SimRankParams.paper_defaults()
        self.context = context or ClusterContext(cluster=cluster)
        self.num_partitions = num_partitions or self.context.default_parallelism
        self.partitioner = partitioner or HashPartitioner(self.num_partitions)
        self.index: Optional[DiagonalIndex] = None
        self._adjacency_rdd: Optional[RDD] = None
        self._out_propagation_rdd: Optional[RDD] = None

    # ------------------------------------------------------------------ #
    # Distributed graph representations
    # ------------------------------------------------------------------ #
    def adjacency_rdd(self) -> RDD:
        """Cached RDD of ``(node, in_neighbour_array)`` records."""
        if self._adjacency_rdd is None:
            self._adjacency_rdd = self.context.graph_in_adjacency_rdd(
                self.graph, partitioner=self.partitioner
            ).persist()
        return self._adjacency_rdd

    def out_propagation_rdd(self) -> RDD:
        """Cached RDD used by MCSS reverse propagation.

        Records are ``(src, [(dst, 1/|In(dst)|), ...])`` — for each node, the
        out-edges with the weight its mass contributes to each destination
        under ``P^T``.
        """
        if self._out_propagation_rdd is None:
            in_degrees = self.graph.in_degrees().astype(np.float64)
            records = []
            for src in range(self.graph.n_nodes):
                targets = self.graph.out_neighbors(src)
                weighted = [
                    (int(dst), 1.0 / in_degrees[dst]) for dst in targets if in_degrees[dst] > 0
                ]
                records.append((src, weighted))
            self._out_propagation_rdd = self.context.parallelize(
                records, self.num_partitions, name="out_propagation"
            ).persist()
        return self._out_propagation_rdd

    # ------------------------------------------------------------------ #
    # Distributed random walks
    # ------------------------------------------------------------------ #
    def _walk_step(self, walkers_rdd: RDD, step: int) -> RDD:
        """One reverse step for the whole walker population."""
        seed = self.params.seed or 0

        def advance(record):
            node, (walker_groups, neighbor_lists) = record
            results = []
            # The adjacency side of the cogroup holds exactly one entry for
            # nodes that exist; nodes without walkers contribute nothing and
            # are skipped before any RNG work.
            if not walker_groups or not neighbor_lists:
                return results
            neighbors = neighbor_lists[0]
            rng = np.random.default_rng(seed * 1_000_003 + step * 7_919 + int(node))
            for source, count in walker_groups:
                for next_node, walkers in _spread_counts(rng, neighbors, count):
                    results.append(((next_node, source), walkers))
            return results

        stepped = (
            walkers_rdd.cogroup(self.adjacency_rdd(), self.num_partitions)
            .flat_map(advance)
            .reduce_by_key(lambda a, b: a + b, self.num_partitions)
            .map(lambda pair: (pair[0][0], (pair[0][1], pair[1])))
        )
        return stepped

    def walk_counts_by_step(
        self, sources: List[int], walkers_per_source: int
    ) -> List[List[Tuple[int, int, int]]]:
        """Distributed walk simulation.

        Returns, for each step ``t`` in ``0..T``, a list of
        ``(source, node, count)`` triples describing where the walkers that
        started at ``source`` are located.
        """
        walkers_rdd = self.context.parallelize(
            [(int(source), (int(source), walkers_per_source)) for source in sources],
            self.num_partitions,
            name="walkers",
        )
        per_step: List[List[Tuple[int, int, int]]] = []
        current = walkers_rdd
        for step in range(self.params.walk_steps + 1):
            snapshot = current.map(
                lambda record: (record[1][0], record[0], record[1][1])
            ).collect()
            per_step.append(snapshot)
            if not snapshot:
                # Every walker has died; the remaining steps are empty.
                per_step.extend(
                    [] for _ in range(self.params.walk_steps - step)
                )
                break
            if step < self.params.walk_steps:
                current = self._walk_step(current, step)
        return per_step

    # ------------------------------------------------------------------ #
    # Offline indexing
    # ------------------------------------------------------------------ #
    def build_index(self, index_walkers: Optional[int] = None) -> DiagonalIndex:
        """Run the offline phase entirely through RDD operations."""
        start = time.perf_counter()
        checkpoint = self.context.checkpoint()
        params = self.params
        n_nodes = self.graph.n_nodes
        walkers = index_walkers if index_walkers is not None else params.index_walkers

        per_step = self.walk_counts_by_step(list(range(n_nodes)), walkers)
        monte_carlo_seconds = time.perf_counter() - start

        # Assemble the rows of A from the per-step walker counts.
        contributions: Dict[Tuple[int, int], float] = {}
        decay = 1.0
        for step_records in per_step:
            for source, node, count in step_records:
                probability = count / walkers
                key = (source, node)
                contributions[key] = contributions.get(key, 0.0) + decay * probability * probability
            decay *= params.c
        if contributions:
            keys = np.array(list(contributions.keys()), dtype=np.int64)
            values = np.array(list(contributions.values()), dtype=np.float64)
            system = sparse.csr_matrix(
                (values, (keys[:, 0], keys[:, 1])), shape=(n_nodes, n_nodes)
            )
        else:
            system = sparse.csr_matrix((n_nodes, n_nodes), dtype=np.float64)

        # Parallel Jacobi over an RDD of row blocks.
        solve_start = time.perf_counter()
        x = np.full(n_nodes, 1.0 - params.c, dtype=np.float64)
        rhs = np.ones(n_nodes, dtype=np.float64)
        boundaries = np.linspace(0, n_nodes, self.num_partitions + 1, dtype=np.int64)
        blocks = [
            np.arange(boundaries[i], boundaries[i + 1], dtype=np.int64)
            for i in range(self.num_partitions)
        ]
        block_rows = [
            (block, system[block, :], rhs[block]) for block in blocks if len(block)
        ]
        for _ in range(params.jacobi_iterations):
            x_broadcast = self.context.broadcast(x)
            updates = (
                self.context.parallelize(block_rows, max(len(block_rows), 1), name="jacobi")
                .map(
                    lambda block_data: (
                        block_data[0],
                        jacobi_step(
                            block_data[1], block_data[0], block_data[2], x_broadcast.value
                        ),
                    )
                )
                .collect()
            )
            new_x = x.copy()
            for block_ids, block_values in updates:
                new_x[block_ids] = block_values
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
                "index_walkers_used": walkers,
                "shuffle_bytes": phase_metrics.total_shuffle_bytes,
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
        return self.index

    # ------------------------------------------------------------------ #
    # Online queries (distributed walks + distributed propagation)
    # ------------------------------------------------------------------ #
    def _require_index(self) -> DiagonalIndex:
        if self.index is None:
            raise IndexNotBuiltError("rdd-model query")
        return self.index

    def _query_distributions(
        self, source: int, walkers: Optional[int] = None
    ) -> List[Dict[int, float]]:
        walkers = walkers if walkers is not None else self.params.query_walkers
        per_step = self.walk_counts_by_step([source], walkers)
        distributions: List[Dict[int, float]] = []
        for step_records in per_step:
            distributions.append(
                {node: count / walkers for _source, node, count in step_records}
            )
        return distributions

    def single_pair(self, node_i: int, node_j: int,
                    walkers: Optional[int] = None) -> float:
        """MCSP with the walks executed as RDD jobs."""
        index = self._require_index()
        node_i = self.graph.check_node(node_i)
        node_j = self.graph.check_node(node_j)
        if node_i == node_j:
            return 1.0
        dist_i = self._query_distributions(node_i, walkers)
        dist_j = self._query_distributions(node_j, walkers)
        diagonal = index.diagonal
        total = 0.0
        decay = 1.0
        for step in range(self.params.walk_steps + 1):
            step_i, step_j = dist_i[step], dist_j[step]
            smaller, larger = (step_i, step_j) if len(step_i) < len(step_j) else (step_j, step_i)
            total += decay * sum(
                probability * larger[node] * diagonal[node]
                for node, probability in smaller.items()
                if node in larger
            )
            decay *= self.params.c
        return float(min(total, 1.0))

    def single_source(self, node: int, walkers: Optional[int] = None) -> np.ndarray:
        """MCSS with walks and reverse propagation executed as RDD jobs."""
        index = self._require_index()
        node = self.graph.check_node(node)
        distributions = self._query_distributions(node, walkers)
        diagonal = index.diagonal
        decay_powers = self.params.c ** np.arange(self.params.walk_steps + 1)
        propagation = self.out_propagation_rdd()

        # Reverse-Horner over RDDs: r <- P^T r + c^t (x ∘ v_t), t = T..0.
        current: Dict[int, float] = {}
        for step in range(self.params.walk_steps, -1, -1):
            if step < self.params.walk_steps and current:
                mass_rdd = self.context.parallelize(
                    list(current.items()), self.num_partitions, name="mcss-mass"
                )

                def push(record):
                    _node, (masses, edge_lists) = record
                    if not edge_lists:
                        return []
                    total_mass = sum(masses)
                    return [
                        (dst, total_mass * weight) for dst, weight in edge_lists[0]
                    ]

                pushed = (
                    mass_rdd.cogroup(propagation, self.num_partitions)
                    .flat_map(push)
                    .reduce_by_key(lambda a, b: a + b, self.num_partitions)
                    .collect()
                )
                current = dict(pushed)
            for walker_node, probability in distributions[step].items():
                current[walker_node] = current.get(walker_node, 0.0) + (
                    decay_powers[step] * diagonal[walker_node] * probability
                )
        scores = np.zeros(self.graph.n_nodes, dtype=np.float64)
        for score_node, value in current.items():
            scores[score_node] = value
        scores[node] = 1.0
        np.clip(scores, 0.0, 1.0, out=scores)
        return scores

    def all_pairs(self, nodes: Optional[List[int]] = None,
                  walkers: Optional[int] = None) -> np.ndarray:
        """MCAP: repeated distributed MCSS."""
        sources = list(range(self.graph.n_nodes)) if nodes is None else list(nodes)
        matrix = np.zeros((self.graph.n_nodes, self.graph.n_nodes), dtype=np.float64)
        for source in sources:
            matrix[source] = self.single_source(source, walkers=walkers)
        return matrix

    # ------------------------------------------------------------------ #
    def phase_metrics(self, checkpoint: int = 0):
        """Merged engine metrics since ``checkpoint`` (for the cost model)."""
        return self.context.metrics_since(checkpoint, action=f"{self.name}-phase")

    def shutdown(self) -> None:
        """Release the engine context."""
        self.context.shutdown()
