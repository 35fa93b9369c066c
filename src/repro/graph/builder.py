"""Incremental graph construction with arbitrary node labels.

:class:`DiGraph` requires dense integer node ids.  Real edge lists (and the
paper's datasets) use arbitrary identifiers, so :class:`GraphBuilder` maps
labels to dense ids on the fly and records the mapping so query results can
be translated back.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from repro.errors import GraphFormatError
from repro.graph.digraph import DiGraph


class GraphBuilder:
    """Accumulates edges with arbitrary hashable labels and builds a DiGraph.

    Example
    -------
    >>> builder = GraphBuilder()
    >>> builder.add_edge("alice", "bob")
    >>> builder.add_edge("bob", "carol")
    >>> graph, labels = builder.build(name="tiny"), builder.labels()
    >>> graph.n_nodes, graph.n_edges
    (3, 2)
    """

    def __init__(self) -> None:
        self._ids: Dict[Hashable, int] = {}
        self._labels: List[Hashable] = []
        self._edges: List[Tuple[int, int]] = []

    def node_id(self, label: Hashable) -> int:
        """Return the dense id for ``label``, creating one if needed."""
        node = self._ids.get(label)
        if node is None:
            node = len(self._labels)
            self._ids[label] = node
            self._labels.append(label)
        return node

    def add_edge(self, src_label: Hashable, dst_label: Hashable) -> None:
        """Add a directed edge between two labelled nodes."""
        self._edges.append((self.node_id(src_label), self.node_id(dst_label)))

    def add_edges(self, edges: Iterable[Tuple[Hashable, Hashable]]) -> None:
        """Add many edges at once."""
        for src, dst in edges:
            self.add_edge(src, dst)

    @property
    def n_nodes(self) -> int:
        """Number of distinct labels seen so far."""
        return len(self._labels)

    @property
    def n_edges(self) -> int:
        """Number of edges added so far (before deduplication)."""
        return len(self._edges)

    def labels(self) -> List[Hashable]:
        """Return labels indexed by dense node id."""
        return list(self._labels)

    def build(self, name: str = "graph", n_nodes: Optional[int] = None) -> DiGraph:
        """Materialise the accumulated edges as an immutable :class:`DiGraph`.

        Parameters
        ----------
        name:
            Name stored on the graph.
        n_nodes:
            Override the node count (must be >= the number of labels seen);
            useful to include trailing isolated nodes.
        """
        count = len(self._labels)
        if n_nodes is not None:
            if n_nodes < count:
                raise GraphFormatError(
                    f"n_nodes={n_nodes} is smaller than the {count} labels already added"
                )
            count = n_nodes
        return DiGraph(count, self._edges, name=name)
