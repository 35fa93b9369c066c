"""The accuracy-budget calibration honours its declared budget when served.

Satellite contract of the scenario harness: for budgets in {0.05, 0.01},
a service built on ``calibrate_query_budget``'s operating point must
realize a mean absolute error vs :func:`~repro.analysis.accuracy.
exact_linearized_matrix` within the budget — across shard counts
K in {1, 2, 5} and on two different graph shapes.  The calibration's own
*predicted* error is measured on a held-out sample; these tests re-measure
on fresh pairs through the full (sharded) serving stack, so the bound is
checked end to end, not just at calibration time.
"""

import numpy as np
import pytest

from repro.analysis import accuracy
from repro.config import ServiceParams, ShardingParams, SimRankParams
from repro.core.diagonal import build_diagonal_index
from repro.errors import ConfigurationError
from repro.graph import generators
from repro.service import PairQuery, QueryService

PARAMS = SimRankParams(c=0.6, walk_steps=5, jacobi_iterations=4,
                       index_walkers=60, query_walkers=500, seed=17)
BUDGETS = (0.05, 0.01)
SHARD_COUNTS = (1, 2, 5)


def _setups():
    """(name, graph) per shape — two structurally different graphs."""
    return [
        ("copying", generators.copying_model_graph(70, out_degree=4, seed=3)),
        ("erdos", generators.erdos_renyi_graph(70, avg_degree=4, seed=5)),
    ]


@pytest.fixture(scope="module", params=_setups(), ids=lambda setup: setup[0])
def shape(request):
    """One graph shape with its index and exact reference matrix."""
    _, graph = request.param
    index = build_diagonal_index(graph, PARAMS)
    reference = accuracy.exact_linearized_matrix(graph, PARAMS)
    return graph, index, reference


def _served_mean_error(service, graph, reference):
    """Mean |served - exact| over a fresh sample of pair queries."""
    pairs = accuracy.sample_pairs(graph, 40, seed=123)
    answers = service.run_batch([PairQuery(s, t) for s, t in pairs])
    deltas = [abs(float(answer) - float(reference[s, t]))
              for (s, t), answer in zip(pairs, answers)]
    return float(np.mean(deltas))


class TestCalibration:
    @pytest.mark.parametrize("budget", BUDGETS)
    def test_calibration_predicts_within_budget(self, shape, budget):
        graph, index, _ = shape
        calibration = accuracy.calibrate_query_budget(graph, index, PARAMS,
                                                      budget)
        assert calibration.within_budget, (
            f"budget {budget} unreachable at query_walkers="
            f"{PARAMS.query_walkers}: ladder {calibration.ladder}"
        )
        assert calibration.predicted_mean_error <= budget
        assert 1 <= calibration.walkers <= PARAMS.query_walkers
        assert 1 <= calibration.walk_steps <= PARAMS.walk_steps

    def test_tighter_budgets_never_pick_cheaper_operating_points(self, shape):
        graph, index, _ = shape
        loose = accuracy.calibrate_query_budget(graph, index, PARAMS, 0.05)
        tight = accuracy.calibrate_query_budget(graph, index, PARAMS, 0.01)
        assert (tight.walkers * tight.walk_steps
                >= loose.walkers * loose.walk_steps)

    def test_calibration_is_deterministic(self, shape):
        graph, index, _ = shape
        first = accuracy.calibrate_query_budget(graph, index, PARAMS, 0.05)
        again = accuracy.calibrate_query_budget(graph, index, PARAMS, 0.05)
        assert first == again

    def test_invalid_budgets_are_rejected(self, shape):
        graph, index, _ = shape
        for bad in (0.0, -0.1, 1.0, 2.0):
            with pytest.raises(ConfigurationError):
                accuracy.calibrate_query_budget(graph, index, PARAMS, bad)


class TestServedErrorWithinBudget:
    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_realized_error_meets_the_budget(self, shape, budget, num_shards):
        graph, index, reference = shape
        service_params = ServiceParams(accuracy_budget=budget)
        if num_shards == 1:
            service = QueryService(graph, index, PARAMS, service_params)
        else:
            service = QueryService(
                graph, index, PARAMS, service_params,
                sharding=ShardingParams(num_shards=num_shards),
            )
        try:
            stats = service.stats()
            assert stats["approx_mode"] is True
            assert stats["accuracy_budget"] == budget
            realized = _served_mean_error(service, graph, reference)
        finally:
            service.close()
        assert realized <= budget, (
            f"served mean error {realized:.5f} exceeds budget {budget} "
            f"at K={num_shards} (calibrated to "
            f"{service.budget_calibration.walkers} walkers x "
            f"{service.budget_calibration.walk_steps} steps)"
        )

    def test_exact_mode_is_at_least_as_accurate_as_any_budget(self, shape):
        graph, index, reference = shape
        exact = QueryService(graph, index, PARAMS)
        approx = QueryService(graph, index, PARAMS,
                              ServiceParams(accuracy_budget=0.05))
        try:
            exact_error = _served_mean_error(exact, graph, reference)
            approx_error = _served_mean_error(approx, graph, reference)
        finally:
            exact.close()
            approx.close()
        assert exact_error <= 0.05
        assert approx_error <= 0.05
        # The reduced operating point must actually be reduced.
        assert (approx.query_params.query_walkers * approx.query_params.walk_steps
                < PARAMS.query_walkers * PARAMS.walk_steps)
