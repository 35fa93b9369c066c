"""CSR-backed directed graph.

SimRank's random surfers walk *backwards* along edges (a step from node ``v``
moves to a uniformly random in-neighbour of ``v``), so the in-adjacency is
the structure every inner loop touches.  :class:`DiGraph` therefore stores two
compressed-sparse-row (CSR) adjacency structures — one over in-neighbours and
one over out-neighbours — as flat NumPy arrays.  The representation is
immutable after construction, which lets the engine share it across threads
and broadcast it without copies.

Node ids are dense integers ``0 .. n-1``.  Use
:class:`~repro.graph.builder.GraphBuilder` to construct graphs from arbitrary
hashable labels.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.errors import GraphFormatError, NodeNotFoundError
from repro.graph import frontier


class DiGraph:
    """Immutable directed graph with CSR in- and out-adjacency.

    Parameters
    ----------
    n_nodes:
        Number of nodes; node ids are ``0 .. n_nodes - 1``.
    edges:
        Iterable of ``(src, dst)`` pairs.  Parallel edges are removed,
        self-loops are kept (SimRank's definition permits them).
    name:
        Optional human-readable name (datasets set this).
    """

    __slots__ = (
        "_n",
        "_m",
        "name",
        "_in_indptr",
        "_in_indices",
        "_out_indptr",
        "_out_indices",
    )

    def __init__(
        self,
        n_nodes: int,
        edges: Iterable[Tuple[int, int]],
        name: str = "graph",
    ) -> None:
        if n_nodes < 0:
            raise GraphFormatError(f"n_nodes must be >= 0, got {n_nodes}")
        self._n = int(n_nodes)
        self.name = name

        edge_array = self._as_edge_pairs(edges)
        self._check_endpoints(edge_array, self._n)
        if edge_array.shape[0] > 0:
            # Deduplicate parallel edges: sort by (src, dst) then unique rows.
            edge_array = np.unique(edge_array, axis=0)

        self._m = int(edge_array.shape[0])
        src = edge_array[:, 0]
        dst = edge_array[:, 1]

        self._out_indptr, self._out_indices = self._build_csr(src, dst, self._n)
        self._in_indptr, self._in_indices = self._build_csr(dst, src, self._n)

    @staticmethod
    def _as_edge_pairs(edges: Iterable[Tuple[int, int]]) -> np.ndarray:
        """``edges`` as an ``(m, 2)`` int64 array (arrays are taken as is)."""
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        edge_array = np.asarray(edges, dtype=np.int64)
        if edge_array.size == 0:
            edge_array = edge_array.reshape(0, 2)
        if edge_array.ndim != 2 or edge_array.shape[1] != 2:
            raise GraphFormatError(
                f"edges must be (src, dst) pairs, got array of shape {edge_array.shape}"
            )
        return edge_array

    @staticmethod
    def _check_endpoints(edge_array: np.ndarray, n: int) -> None:
        if edge_array.shape[0] > 0:
            lo = edge_array.min()
            hi = edge_array.max()
            if lo < 0 or hi >= n:
                raise GraphFormatError(
                    f"edge endpoints must lie in [0, {n - 1}], "
                    f"found endpoints in [{lo}, {hi}]"
                )

    @staticmethod
    def _build_csr(
        keys: np.ndarray, values: np.ndarray, n: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Build (indptr, indices) grouping ``values`` by ``keys``."""
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        sorted_values = values[order]
        counts = np.bincount(sorted_keys, minlength=n) if len(keys) else np.zeros(n, dtype=np.int64)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return indptr, np.ascontiguousarray(sorted_values, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def n_nodes(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def n_edges(self) -> int:
        """Number of distinct directed edges."""
        return self._m

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:
        return f"DiGraph(name={self.name!r}, n_nodes={self._n}, n_edges={self._m})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        return (
            self._n == other._n
            and self._m == other._m
            and np.array_equal(self._in_indptr, other._in_indptr)
            and np.array_equal(self._in_indices, other._in_indices)
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hashing is enough
        return id(self)

    def check_node(self, node: int) -> int:
        """Validate a node id, returning it as ``int``.

        Raises
        ------
        NodeNotFoundError
            If ``node`` is outside ``0 .. n_nodes - 1``.
        """
        node = int(node)
        if node < 0 or node >= self._n:
            raise NodeNotFoundError(node, self._n)
        return node

    # ------------------------------------------------------------------ #
    # Adjacency access
    # ------------------------------------------------------------------ #
    def in_neighbors(self, node: int) -> np.ndarray:
        """Return the array of in-neighbours of ``node`` (may be empty)."""
        node = self.check_node(node)
        return self._in_indices[self._in_indptr[node] : self._in_indptr[node + 1]]

    def out_neighbors(self, node: int) -> np.ndarray:
        """Return the array of out-neighbours of ``node`` (may be empty)."""
        node = self.check_node(node)
        return self._out_indices[self._out_indptr[node] : self._out_indptr[node + 1]]

    def in_degree(self, node: int) -> int:
        """Number of in-neighbours of ``node``."""
        node = self.check_node(node)
        return int(self._in_indptr[node + 1] - self._in_indptr[node])

    def out_degree(self, node: int) -> int:
        """Number of out-neighbours of ``node``."""
        node = self.check_node(node)
        return int(self._out_indptr[node + 1] - self._out_indptr[node])

    def in_degrees(self) -> np.ndarray:
        """Vector of in-degrees for every node."""
        return np.diff(self._in_indptr)

    def out_degrees(self) -> np.ndarray:
        """Vector of out-degrees for every node."""
        return np.diff(self._out_indptr)

    @property
    def in_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Raw ``(indptr, indices)`` arrays of the in-adjacency."""
        return self._in_indptr, self._in_indices

    @property
    def out_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Raw ``(indptr, indices)`` arrays of the out-adjacency."""
        return self._out_indptr, self._out_indices

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over all ``(src, dst)`` edges in out-CSR order."""
        for src in range(self._n):
            start, stop = self._out_indptr[src], self._out_indptr[src + 1]
            for dst in self._out_indices[start:stop]:
                yield src, int(dst)

    def edge_array(self) -> np.ndarray:
        """Return all edges as an ``(m, 2)`` int64 array in out-CSR order."""
        srcs = np.repeat(np.arange(self._n, dtype=np.int64), self.out_degrees())
        return np.column_stack([srcs, self._out_indices])

    def has_edge(self, src: int, dst: int) -> bool:
        """Return whether the directed edge ``src -> dst`` exists."""
        src = self.check_node(src)
        dst = self.check_node(dst)
        row = self._out_indices[self._out_indptr[src] : self._out_indptr[src + 1]]
        # The CSR rows are sorted by construction (np.unique sorts rows).
        pos = np.searchsorted(row, dst)
        return bool(pos < len(row) and row[pos] == dst)

    def nodes(self) -> range:
        """Return the range of node ids."""
        return range(self._n)

    # ------------------------------------------------------------------ #
    # Linear-algebra views
    # ------------------------------------------------------------------ #
    def transition_matrix(self) -> sparse.csr_matrix:
        """Return the column-normalised in-link transition matrix ``P``.

        ``P[u, v] = 1 / |In(v)|`` when ``u`` is an in-neighbour of ``v`` and 0
        otherwise.  ``P @ e_v`` is then the one-step distribution of a SimRank
        walk starting at ``v``; nodes with no in-neighbours produce an
        all-zero column (the walk dies), matching the SimRank convention that
        ``s(i, j) = 0`` when either node has no in-neighbours.  Row ``u`` of
        ``P`` lists ``u``'s out-neighbours, so its CSR is the out-CSR with
        data ``1 / |In(column)|`` — no COO sort.
        """
        return sparse.csr_matrix(
            (self._inverse_in_degrees()[self._out_indices], self._out_indices,
             self._out_indptr), shape=(self._n, self._n))

    def transition_matrix_t(self) -> sparse.csr_matrix:
        """``P``'s transpose in CSR form: what ``transition_matrix().T.tocsr()``
        gives, byte for byte.

        Row ``v`` of ``P^T`` lists ``v``'s in-neighbours, each at
        ``1 / |In(v)|``, so its CSR is the in-CSR with each row's weight
        repeated.
        """
        return sparse.csr_matrix(
            (np.repeat(self._inverse_in_degrees(), self.in_degrees()),
             self._in_indices, self._in_indptr), shape=(self._n, self._n))

    def _inverse_in_degrees(self) -> np.ndarray:
        """``1 / |In(v)|`` per node, 0 where ``v`` has no in-neighbours."""
        in_deg = self.in_degrees().astype(np.float64)
        with np.errstate(divide="ignore"):
            return np.where(in_deg > 0, 1.0 / in_deg, 0.0)

    def adjacency_matrix(self) -> sparse.csr_matrix:
        """Return the (0/1) adjacency matrix ``A`` with ``A[src, dst] = 1``."""
        srcs = np.repeat(np.arange(self._n, dtype=np.int64), self.out_degrees())
        data = np.ones(self._m, dtype=np.float64)
        return sparse.csr_matrix(
            (data, (srcs, self._out_indices)), shape=(self._n, self._n)
        )

    # ------------------------------------------------------------------ #
    # Derived graphs and interop
    # ------------------------------------------------------------------ #
    def reverse(self) -> "DiGraph":
        """Return the graph with every edge reversed."""
        reversed_edges = self.edge_array()[:, ::-1]
        return DiGraph(self._n, reversed_edges, name=f"{self.name}-reversed")

    def with_edges(
        self, new_edges: Iterable[Tuple[int, int]], n_nodes: Optional[int] = None
    ) -> "DiGraph":
        """Return this graph plus ``new_edges``, at the cost of the change.

        Edges the graph already has and duplicates inside ``new_edges`` are
        dropped; the rest are merged into the sorted out- and in-adjacency
        rows, so the four CSR arrays are byte-for-byte what the constructor
        produces on the union — without re-sorting the existing edges.
        ``n_nodes`` (default: just enough for the largest endpoint, never
        fewer than now) lets the graph grow; new nodes start with empty rows.
        """
        pairs = self._as_edge_pairs(new_edges)
        if n_nodes is None:
            n_nodes = max(self._n, int(pairs.max()) + 1 if len(pairs) else 0)
        if n_nodes < self._n:
            raise GraphFormatError(
                f"n_nodes must be >= {self._n} (a graph only grows), got {n_nodes}"
            )
        self._check_endpoints(pairs, n_nodes)
        pairs = np.unique(pairs, axis=0)
        grown = np.full(n_nodes - self._n, self._m, dtype=np.int64)
        out_indptr = np.concatenate([self._out_indptr, grown])
        in_indptr = np.concatenate([self._in_indptr, grown])

        slots, present = _insertion_slots(
            out_indptr, self._out_indices, pairs[:, 0], pairs[:, 1])
        pairs, slots = pairs[~present], slots[~present]
        out_indices = np.insert(self._out_indices, slots, pairs[:, 1])
        out_indptr[1:] += np.cumsum(np.bincount(pairs[:, 0], minlength=n_nodes))
        # The in-adjacency groups by head, sources ascending within a row.
        pairs = pairs[np.lexsort((pairs[:, 0], pairs[:, 1]))]
        slots, _ = _insertion_slots(
            in_indptr, self._in_indices, pairs[:, 1], pairs[:, 0])
        in_indices = np.insert(self._in_indices, slots, pairs[:, 0])
        in_indptr[1:] += np.cumsum(np.bincount(pairs[:, 1], minlength=n_nodes))
        return DiGraph.resident_restore(
            {"n_nodes": n_nodes, "n_edges": self._m + len(pairs), "name": self.name},
            [in_indptr, in_indices, out_indptr, out_indices],
        )

    def subgraph(self, nodes: Sequence[int]) -> "DiGraph":
        """Return the induced subgraph on ``nodes`` with ids relabelled 0..k-1.

        The order of ``nodes`` defines the new ids.
        """
        nodes = [self.check_node(v) for v in nodes]
        keep = set(nodes)
        relabel = {old: new for new, old in enumerate(nodes)}
        new_edges: List[Tuple[int, int]] = []
        for old in nodes:
            for dst in self.out_neighbors(old):
                dst = int(dst)
                if dst in keep:
                    new_edges.append((relabel[old], relabel[dst]))
        return DiGraph(len(nodes), new_edges, name=f"{self.name}-sub")

    def to_networkx(self):
        """Convert to a :class:`networkx.DiGraph` (for cross-checking)."""
        import networkx as nx

        nx_graph = nx.DiGraph()
        nx_graph.add_nodes_from(range(self._n))
        nx_graph.add_edges_from(self.edges())
        return nx_graph

    @classmethod
    def from_networkx(cls, nx_graph, name: Optional[str] = None) -> "DiGraph":
        """Build from a :class:`networkx.DiGraph` with integer or other labels.

        Non-integer (or non-dense) labels are relabelled to 0..n-1 in sorted
        order of their string representation.
        """
        nodes = list(nx_graph.nodes())
        dense = all(isinstance(v, (int, np.integer)) for v in nodes) and (
            len(nodes) == 0 or (min(nodes) == 0 and max(nodes) == len(nodes) - 1)
        )
        if dense:
            mapping = {v: int(v) for v in nodes}
        else:
            mapping = {v: i for i, v in enumerate(sorted(nodes, key=str))}
        edges = [(mapping[u], mapping[v]) for u, v in nx_graph.edges()]
        return cls(len(nodes), edges, name=name or "from-networkx")

    @classmethod
    def from_edge_list(
        cls, edges: Sequence[Tuple[int, int]], n_nodes: Optional[int] = None, name: str = "graph"
    ) -> "DiGraph":
        """Build a graph from an edge list, inferring ``n_nodes`` if omitted."""
        if n_nodes is None:
            n_nodes = 0
            for src, dst in edges:
                n_nodes = max(n_nodes, int(src) + 1, int(dst) + 1)
        return cls(n_nodes, edges, name=name)

    # ------------------------------------------------------------------ #
    # Residency protocol (zero-copy sharing across worker processes)
    # ------------------------------------------------------------------ #
    def resident_export(self):
        """Export this graph as ``(meta, arrays)`` for shared-memory residency.

        The arrays are the four CSR buffers exactly as held in memory; the
        meta dict carries the scalars needed to rebuild the object around
        them.  Used by :meth:`repro.engine.executor.ExecutorBackend.
        ensure_resident` so process-backend scatter tasks ship a handle
        instead of the graph.
        """
        meta = {"n_nodes": self._n, "n_edges": self._m, "name": self.name}
        return meta, [
            self._in_indptr, self._in_indices,
            self._out_indptr, self._out_indices,
        ]

    @classmethod
    def resident_restore(cls, meta, arrays) -> "DiGraph":
        """Rebuild a graph around exported CSR buffers **without copying**.

        ``arrays`` may be views over a shared-memory segment: the restored
        graph adopts them as-is, so a worker process serves queries straight
        out of the shared buffer.  The CSR invariants (sorted rows, dense
        indptr) were established by the exporting graph's constructor and
        are preserved byte-for-byte, which is what keeps every walk, query
        and ranking bitwise-identical to the exporting process.
        """
        in_indptr, in_indices, out_indptr, out_indices = arrays
        graph = cls.__new__(cls)
        graph._n = int(meta["n_nodes"])
        graph._m = int(meta["n_edges"])
        graph.name = meta["name"]
        graph._in_indptr = in_indptr
        graph._in_indices = in_indices
        graph._out_indptr = out_indptr
        graph._out_indices = out_indices
        return graph

    # ------------------------------------------------------------------ #
    # Size accounting (used by the dataset table and the cost model)
    # ------------------------------------------------------------------ #
    def memory_bytes(self) -> int:
        """Actual in-memory footprint of the CSR arrays, in bytes."""
        return int(
            self._in_indptr.nbytes
            + self._in_indices.nbytes
            + self._out_indptr.nbytes
            + self._out_indices.nbytes
        )

    def edge_list_bytes(self) -> int:
        """Size of the graph as a plain-text edge list (paper's "Size" column).

        The paper reports on-disk sizes of the raw edge lists; we approximate
        a text edge list as ``2 * 8`` bytes per edge plus separators, which is
        what :func:`repro.graph.io.write_edge_list` actually produces on
        average for ids of this magnitude.
        """
        if self._m == 0:
            return 0
        digits = max(1, int(np.ceil(np.log10(max(self._n, 2)))))
        return int(self._m * (2 * digits + 2))


def _insertion_slots(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray, values: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Where ``values[j]`` belongs in the sorted CSR row ``rows[j]``, and
    whether the row already holds it: one search over the touched rows'
    entries gathered as ascending ``row * n + node`` keys.
    """
    n = len(indptr) - 1
    touched = np.unique(rows)
    held = frontier.expand(indptr, indices, touched * n + touched, n)[0]
    wanted = rows * n + values
    at = np.searchsorted(held, wanted)
    slots = indptr[rows] + at - np.searchsorted(held, rows * n)
    return slots, np.append(held, -1)[at] == wanted
