"""Graph serialisation: text edge lists and a compact binary format.

The paper reads its datasets from on-disk edge lists (the dataset table's
"Size" column is the edge-list size); the same formats are provided here so
examples can round-trip graphs and so the dataset-table benchmark can report
a real on-disk size for the stand-ins.

Two formats:

* **Edge list** — one ``src<sep>dst`` pair per line, ``#`` comments allowed
  (SNAP-compatible).
* **Binary** — ``.npz`` with the two CSR arrays; loads an order of magnitude
  faster and is used by the examples for cached datasets.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterator, Optional, Tuple, Union

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.builder import GraphBuilder
from repro.graph.digraph import DiGraph

PathLike = Union[str, os.PathLike]


def write_edge_list(graph: DiGraph, path: PathLike, separator: str = "\t") -> int:
    """Write ``graph`` as a text edge list; returns the number of bytes written.

    A header comment records the node and edge counts, mirroring SNAP files.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        handle.write(f"# {graph.name}\n")
        handle.write(f"# nodes: {graph.n_nodes} edges: {graph.n_edges}\n")
        for src, dst in graph.edges():
            handle.write(f"{src}{separator}{dst}\n")
    return path.stat().st_size


def iter_edge_list(path: PathLike, separator: Optional[str] = None) -> Iterator[Tuple[str, str]]:
    """Yield raw ``(src, dst)`` label pairs from a text edge list.

    Lines starting with ``#`` are comments; blank lines are ignored.
    ``separator=None`` splits on arbitrary whitespace.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(separator)
            if len(parts) < 2:
                raise GraphFormatError(
                    f"{path}:{line_no}: expected 'src dst', got {line!r}"
                )
            yield parts[0], parts[1]


def read_edge_list(
    path: PathLike,
    separator: Optional[str] = None,
    name: Optional[str] = None,
    relabel: bool = True,
) -> DiGraph:
    """Read a text edge list into a :class:`DiGraph`.

    Parameters
    ----------
    relabel:
        When true (default), node labels are mapped to dense ids in order of
        first appearance (SNAP files often have sparse ids).  When false,
        labels must already be dense non-negative integers.
    """
    path = Path(path)
    graph_name = name or path.stem
    if relabel:
        builder = GraphBuilder()
        for src, dst in iter_edge_list(path, separator):
            builder.add_edge(src, dst)
        return builder.build(name=graph_name)
    edges = []
    for src, dst in iter_edge_list(path, separator):
        try:
            edges.append((int(src), int(dst)))
        except ValueError as exc:
            raise GraphFormatError(
                f"{path}: relabel=False requires integer node ids, got {src!r}, {dst!r}"
            ) from exc
    return DiGraph.from_edge_list(edges, name=graph_name)


def save_binary(graph: DiGraph, path: PathLike) -> None:
    """Save ``graph`` in the compact ``.npz`` binary format."""
    in_indptr, in_indices = graph.in_csr
    out_indptr, out_indices = graph.out_csr
    np.savez_compressed(
        Path(path),
        name=np.array(graph.name),
        n_nodes=np.array(graph.n_nodes, dtype=np.int64),
        in_indptr=in_indptr,
        in_indices=in_indices,
        out_indptr=out_indptr,
        out_indices=out_indices,
    )


def load_binary(path: PathLike) -> DiGraph:
    """Load a graph previously written by :func:`save_binary`."""
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as data:
            n_nodes = int(data["n_nodes"])
            name = str(data["name"])
            out_indptr = data["out_indptr"]
            out_indices = data["out_indices"]
    except (OSError, KeyError, ValueError) as exc:
        raise GraphFormatError(f"cannot load binary graph from {path}: {exc}") from exc
    srcs = np.repeat(np.arange(n_nodes, dtype=np.int64), np.diff(out_indptr))
    edges = np.column_stack([srcs, out_indices])
    return DiGraph(n_nodes, edges, name=name)
