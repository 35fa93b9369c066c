"""Shared fixtures for the query-service tests.

The diagonal index is built once per session and shared by every service
test (building it is by far the slowest step); each test gets its *own*
:class:`QueryService` from the ``make_service`` factory so cache state never
leaks between tests.
"""

import pytest

from repro.config import ServiceParams, ShardingParams, SimRankParams
from repro.core.diagonal import build_diagonal_index
from repro.core.queries import QueryEngine
from repro.graph import generators
from repro.service import QueryService


@pytest.fixture(scope="session")
def service_params() -> SimRankParams:
    """Cheap deterministic parameters for service tests."""
    return SimRankParams(
        c=0.6, walk_steps=5, jacobi_iterations=4, index_walkers=60,
        query_walkers=300, seed=13,
    )


@pytest.fixture(scope="session")
def service_graph():
    """A small web-like graph shared across the service suite."""
    return generators.copying_model_graph(120, out_degree=5, copy_prob=0.6, seed=23)


@pytest.fixture(scope="session")
def service_index(service_graph, service_params):
    """One pre-built diagonal index shared by every service test."""
    return build_diagonal_index(service_graph, service_params)


@pytest.fixture()
def make_service(service_graph, service_index, service_params):
    """Factory producing a fresh service (fresh cache) per call."""

    def factory(**service_overrides) -> QueryService:
        return QueryService(
            service_graph, service_index, service_params,
            ServiceParams(**service_overrides) if service_overrides else None,
        )

    return factory


@pytest.fixture()
def make_sharded(service_graph, service_index, service_params):
    """Factory producing a fresh sharded service per call."""

    def factory(num_shards=3, **service_overrides) -> QueryService:
        return QueryService(
            service_graph, service_index, service_params,
            ServiceParams(**service_overrides) if service_overrides else None,
            sharding=ShardingParams(num_shards=num_shards),
        )

    return factory


@pytest.fixture()
def direct_engine(service_graph, service_index, service_params) -> QueryEngine:
    """A plain core query engine over the same graph + index."""
    return QueryEngine(service_graph, service_index, service_params)
