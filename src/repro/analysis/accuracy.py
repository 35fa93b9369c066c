"""Accuracy evaluation of estimated SimRank scores.

Provides a uniform way to answer "how close is this estimator to the truth?"
for all the estimators in the repository (CloudWalker's MCSP/MCSS, FMT, LIN,
exact linearized evaluation) against either of two references:

* the exact linearized SimRank given an exact diagonal (what CloudWalker
  converges to as the Monte-Carlo budget grows), or
* ground-truth Jeh-Widom SimRank from the naive power iteration.

Full matrices are only feasible on small graphs, so the module also supports
sampled-pair evaluation for larger ones.

The same machinery powers the serving layer's *accuracy budget*
(``ServiceParams.accuracy_budget``): :func:`calibrate_query_budget` walks a
ladder of reduced ``(query_walkers, walk_steps)`` operating points, scores
each with the exact serving estimator against :func:`exact_linearized_matrix`
ground truth, and returns the cheapest point whose mean absolute error fits
the budget.  See ``docs/scenarios.md`` for the serving-side semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.naive_simrank import naive_simrank
from repro.config import SimRankParams
from repro.core import montecarlo
from repro.core.diagonal import DiagonalIndex, exact_diagonal
from repro.core.exact import linearized_simrank_matrix
from repro.core.queries import QueryEngine
from repro.errors import ConfigurationError
from repro.graph.digraph import DiGraph

PairScorer = Callable[[int, int], float]


@dataclass(frozen=True)
class AccuracyReport:
    """Error statistics of an estimator over a set of node pairs."""

    estimator: str
    n_pairs: int
    mean_abs_error: float
    max_abs_error: float
    rmse: float
    mean_signed_error: float

    def to_dict(self) -> Dict[str, float]:
        return {
            "estimator": self.estimator,
            "n_pairs": self.n_pairs,
            "mean_abs_error": self.mean_abs_error,
            "max_abs_error": self.max_abs_error,
            "rmse": self.rmse,
            "mean_signed_error": self.mean_signed_error,
        }


def sample_pairs(graph: DiGraph, count: int, seed: int = 0,
                 distinct: bool = True) -> List[Tuple[int, int]]:
    """Sample random node pairs for accuracy evaluation.

    ``distinct=True`` (default) excludes self-pairs, whose similarity is 1 by
    definition and would only dilute the error statistics.
    """
    if graph.n_nodes < 2:
        return []
    rng = np.random.default_rng(seed)
    pairs: List[Tuple[int, int]] = []
    while len(pairs) < count:
        i, j = rng.integers(0, graph.n_nodes, size=2)
        if distinct and i == j:
            continue
        pairs.append((int(i), int(j)))
    return pairs


def ground_truth_matrix(graph: DiGraph, c: float = 0.6, iterations: int = 50) -> np.ndarray:
    """Jeh-Widom SimRank ground truth (naive power iteration)."""
    return naive_simrank(graph, c=c, iterations=iterations, tolerance=1e-9)


def exact_linearized_matrix(graph: DiGraph,
                            params: Optional[SimRankParams] = None) -> np.ndarray:
    """Exact linearized SimRank (exact diagonal + exact evaluation)."""
    params = params or SimRankParams.paper_defaults()
    return linearized_simrank_matrix(graph, exact_diagonal(graph, params), params)


def evaluate_pairs(
    scorer: PairScorer,
    reference: np.ndarray,
    pairs: Sequence[Tuple[int, int]],
    estimator_name: str = "estimator",
) -> AccuracyReport:
    """Score ``pairs`` with ``scorer`` and compare against ``reference``."""
    if not pairs:
        return AccuracyReport(estimator_name, 0, float("nan"), float("nan"),
                              float("nan"), float("nan"))
    errors = []
    for node_i, node_j in pairs:
        errors.append(scorer(node_i, node_j) - float(reference[node_i, node_j]))
    errors = np.asarray(errors, dtype=np.float64)
    return AccuracyReport(
        estimator=estimator_name,
        n_pairs=len(pairs),
        mean_abs_error=float(np.abs(errors).mean()),
        max_abs_error=float(np.abs(errors).max()),
        rmse=float(np.sqrt((errors ** 2).mean())),
        mean_signed_error=float(errors.mean()),
    )


@dataclass(frozen=True)
class BudgetCalibration:
    """Outcome of :func:`calibrate_query_budget`.

    Attributes
    ----------
    budget:
        The mean-absolute-error budget the calibration targeted.
    walkers:
        Chosen query-walker count (the cheapest rung fitting the budget).
    walk_steps:
        Chosen walk-step count of the same rung.
    predicted_mean_error:
        Mean absolute error of the chosen rung on the calibration pairs.
    predicted_max_error:
        Maximum absolute error of the chosen rung on the calibration pairs.
    within_budget:
        Whether any rung (including the full-cost one) fit the budget; when
        ``False`` the most accurate rung was returned instead and the caller
        should treat the budget as unattainable at these parameters.
    n_pairs:
        Number of sampled calibration pairs.
    ladder:
        Per-rung diagnostics, cheapest first: each entry carries ``walkers``,
        ``walk_steps``, ``cost`` (walkers x steps) and the rung's error
        statistics.
    """

    budget: float
    walkers: int
    walk_steps: int
    predicted_mean_error: float
    predicted_max_error: float
    within_budget: bool
    n_pairs: int
    ladder: Tuple[Dict[str, Any], ...]

    def to_dict(self) -> Dict[str, Any]:
        """Return a plain-dict representation (JSON-serialisable)."""
        return {
            "budget": self.budget,
            "walkers": self.walkers,
            "walk_steps": self.walk_steps,
            "predicted_mean_error": self.predicted_mean_error,
            "predicted_max_error": self.predicted_max_error,
            "within_budget": self.within_budget,
            "n_pairs": self.n_pairs,
            "ladder": list(self.ladder),
        }


def default_budget_ladder(params: SimRankParams) -> List[Tuple[int, int]]:
    """Candidate ``(walkers, walk_steps)`` rungs for budget calibration.

    Walker counts are geometric fractions of the exact ``query_walkers``
    (1/16 .. 1/1) crossed with half-length and full-length walks, sorted by
    simulation cost ``walkers * walk_steps`` so calibration can stop at the
    first (cheapest) rung that fits the budget.
    """
    walker_rungs = sorted({
        max(1, params.query_walkers // fraction)
        for fraction in (16, 8, 4, 2, 1)
    })
    step_rungs = sorted({max(1, params.walk_steps // 2), params.walk_steps})
    ladder = [(w, t) for w in walker_rungs for t in step_rungs]
    ladder.sort(key=lambda rung: (rung[0] * rung[1], rung[0]))
    return ladder


def calibrate_query_budget(
    graph: DiGraph,
    index: DiagonalIndex,
    params: SimRankParams,
    budget: float,
    ladder: Optional[Sequence[Tuple[int, int]]] = None,
    n_pairs: int = 48,
    seed: Optional[int] = None,
    margin: float = 0.8,
) -> BudgetCalibration:
    """Pick the cheapest ``(walkers, walk_steps)`` point fitting ``budget``.

    Every rung is scored with the *actual serving estimator* — batched
    Monte-Carlo walk distributions on the ``(seed, source)`` streams plus
    :meth:`repro.core.queries.QueryEngine.combine_pair` — against
    :func:`exact_linearized_matrix` ground truth, so the calibration error
    is exactly the error the service realises on those pairs.  Ground truth
    is quadratic in graph size: calibrate on the graph you serve only when
    it is small, otherwise calibrate on a sampled subgraph offline and pass
    the chosen point via ``ServiceParams.approx_walkers`` /
    ``approx_steps``.

    ``margin`` shrinks the acceptance threshold (a rung is accepted when its
    calibration mean error is ``<= budget * margin``) so fresh traffic with
    different pairs still lands within the declared budget.  When no rung
    fits, the most accurate rung is returned with ``within_budget=False``.
    """
    if not 0 < budget < 1:
        raise ConfigurationError(f"budget must be in (0, 1), got {budget}")
    if not 0 < margin <= 1:
        raise ConfigurationError(f"margin must be in (0, 1], got {margin}")
    rungs = list(ladder) if ladder is not None else default_budget_ladder(params)
    if not rungs:
        raise ConfigurationError("calibration ladder is empty")
    pair_seed = seed if seed is not None else (params.seed or 0)
    pairs = sample_pairs(graph, n_pairs, seed=pair_seed)
    reference = exact_linearized_matrix(graph, params)
    sources = sorted({node for pair in pairs for node in pair})

    evaluated: List[Dict[str, Any]] = []
    chosen: Optional[Dict[str, Any]] = None
    for walkers, steps in rungs:
        rung_params = params.with_(query_walkers=walkers, walk_steps=steps)
        engine = QueryEngine(graph, index, rung_params)
        distributions = montecarlo.estimate_walk_distributions_batch(
            graph, sources, rung_params, walkers=walkers
        )

        def scorer(i: int, j: int) -> float:
            if i == j:
                return 1.0
            return engine.combine_pair(distributions[i], distributions[j])

        report = evaluate_pairs(scorer, reference, pairs,
                                estimator_name=f"mcsp[{walkers}x{steps}]")
        entry = {
            "walkers": walkers,
            "walk_steps": steps,
            "cost": walkers * steps,
            "mean_abs_error": report.mean_abs_error,
            "max_abs_error": report.max_abs_error,
            "rmse": report.rmse,
        }
        evaluated.append(entry)
        if report.mean_abs_error <= budget * margin:
            chosen = entry
            break

    within = chosen is not None
    if chosen is None:
        chosen = min(evaluated, key=lambda entry: entry["mean_abs_error"])
    return BudgetCalibration(
        budget=budget,
        walkers=chosen["walkers"],
        walk_steps=chosen["walk_steps"],
        predicted_mean_error=chosen["mean_abs_error"],
        predicted_max_error=chosen["max_abs_error"],
        within_budget=within,
        n_pairs=len(pairs),
        ladder=tuple(evaluated),
    )
