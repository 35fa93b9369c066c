"""Ranking-quality metrics.

SimRank is mostly consumed through rankings ("which nodes are most similar
to v?"), so besides absolute score error the evaluation needs ranking
metrics: the top-k ordering, precision@k and average precision.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def top_k_indices(scores: np.ndarray, k: int, exclude: int = -1) -> np.ndarray:
    """Indices of the ``k`` largest scores (optionally excluding one index)."""
    scores = np.asarray(scores, dtype=np.float64)
    working = scores.copy()
    if 0 <= exclude < len(working):
        working[exclude] = -np.inf
    k = min(k, len(working))
    if k <= 0:
        return np.array([], dtype=np.int64)
    candidates = np.argpartition(-working, kth=k - 1)[:k]
    return candidates[np.argsort(-working[candidates], kind="stable")]


def precision_at_k(scores: np.ndarray, relevant: Sequence[int], k: int,
                   exclude: int = -1) -> float:
    """Fraction of the top-k results that are relevant."""
    if k <= 0:
        return 0.0
    relevant_set = set(int(r) for r in relevant)
    top = top_k_indices(scores, k, exclude=exclude)
    if len(top) == 0:
        return 0.0
    return sum(1 for node in top if int(node) in relevant_set) / len(top)


def average_precision(scores: np.ndarray, relevant: Sequence[int],
                      exclude: int = -1) -> float:
    """Average precision of the full ranking induced by ``scores``."""
    relevant_set = set(int(r) for r in relevant)
    if not relevant_set:
        return 0.0
    ranking = top_k_indices(scores, len(scores), exclude=exclude)
    hits = 0
    precisions = []
    for position, node in enumerate(ranking, start=1):
        if int(node) in relevant_set:
            hits += 1
            precisions.append(hits / position)
    if not precisions:
        return 0.0
    return float(np.mean(precisions))

