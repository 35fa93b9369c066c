"""Sparse frontier steps over a CSR adjacency: the one row gather.

A frontier is many node sets in one int64 array of packed keys
``column * n + node`` (a column is a query source, a pair side, a touched
row).  Propagation steps frontiers over out-lists, the meet test over
in-lists; the update ball, the index maintainer and
:meth:`~repro.graph.digraph.DiGraph.with_edges` gather rows with it too.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def row_slots(indptr: np.ndarray,
              rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(positions, counts)``: every CSR slot of row ``rows[0]``, then of
    ``rows[1]``, …, each row's in CSR order, and each row's length.  Rows
    may repeat and may be empty.
    """
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    return (np.arange(total) + np.repeat(starts - (ends - counts), counts),
            counts)


def expand(indptr: np.ndarray, indices: np.ndarray, keys: np.ndarray,
           n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Step packed ``column * n + node`` keys to ``column * n + neighbour``.

    Returns ``(stepped, positions, counts)``: one stepped key per slot of
    each key's row, keys in input order and rows in CSR order (a node with
    an empty row yields none), the CSR slot each was read from, and the
    terms per input key.
    """
    nodes = keys % n
    positions, counts = row_slots(indptr, nodes)
    return (np.repeat(keys - nodes, counts) + indices[positions], positions,
            counts)
