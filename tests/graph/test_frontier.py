"""The one CSR frontier gather against a per-row Python reference."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph import frontier


@st.composite
def _frontiers(draw):
    """``(n, rows, keys)``: a CSR's sorted rows and ``(column, node)`` keys
    in any order, repeats included."""
    n = draw(st.integers(1, 6))
    node = st.integers(0, n - 1)
    rows = draw(st.lists(st.lists(node, unique=True, max_size=n).map(sorted),
                         min_size=n, max_size=n))
    columns = draw(st.integers(1, 4))
    keys = draw(st.lists(st.tuples(st.integers(0, columns - 1), node),
                         max_size=12))
    return n, rows, keys


def _reference(rows, keys, n):
    """Row by row: the slots, counts and stepped keys of each key."""
    starts = np.cumsum([0] + [len(row) for row in rows])
    positions, counts, stepped = [], [], []
    for column, node in keys:
        counts.append(len(rows[node]))
        for offset, neighbour in enumerate(rows[node]):
            positions.append(starts[node] + offset)
            stepped.append(column * n + neighbour)
    return positions, counts, stepped


@settings(max_examples=200)
@given(_frontiers())
@example((3, [[1], [], [0, 2]], []))                        # no keys
@example((3, [[1], [], [0, 2]], [(0, 1), (2, 1)]))          # degree-0 rows
@example((3, [[1], [], [0, 2]], [(1, 2), (0, 2), (1, 2)]))  # repeated rows
@example((1, [[0]], [(0, 0), (3, 0), (1, 0)]))              # n = 1
@example((1, [[]], [(0, 0), (2, 0)]))
def test_gather_and_expansion_match_the_per_row_reference(case):
    n, rows, pairs = case
    indptr = np.cumsum([0] + [len(row) for row in rows]).astype(np.int64)
    indices = np.array([v for row in rows for v in row], dtype=np.int64)
    keys = np.array([column * n + node for column, node in pairs],
                    dtype=np.int64)
    positions, counts, stepped = _reference(rows, pairs, n)

    slots, lengths = frontier.row_slots(indptr, keys % n)
    assert slots.tolist() == positions
    assert lengths.tolist() == counts

    expanded, slots, lengths = frontier.expand(indptr, indices, keys, n)
    assert expanded.dtype == np.int64
    assert expanded.tolist() == stepped
    assert slots.tolist() == positions
    assert lengths.tolist() == counts
