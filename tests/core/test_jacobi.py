"""Unit tests for the Jacobi / Gauss-Seidel / exact solvers."""

import numpy as np
import pytest
from scipy import sparse

from repro.config import SimRankParams
from repro.core import linear_system
from repro.core.jacobi import (
    SolveResult,
    exact_solve,
    gauss_seidel_solve,
    jacobi_solve,
    jacobi_step,
    relative_residual,
)
from repro.errors import SolverError
from repro.graph import generators


def _diagonally_dominant_system(n=30, seed=0):
    rng = np.random.default_rng(seed)
    matrix = rng.random((n, n)) * 0.02
    np.fill_diagonal(matrix, 1.0 + rng.random(n))
    rhs = rng.random(n) + 0.5
    return sparse.csr_matrix(matrix), rhs


class TestJacobiSolve:
    def test_converges_to_exact_solution(self):
        system, rhs = _diagonally_dominant_system()
        expected = exact_solve(system, rhs).x
        result = jacobi_solve(system, rhs, iterations=50)
        assert np.allclose(result.x, expected, atol=1e-8)
        assert result.method == "jacobi"
        assert result.iterations == 50

    def test_residual_decreases(self):
        system, rhs = _diagonally_dominant_system()
        result = jacobi_solve(system, rhs, iterations=10)
        assert result.residuals[-1] < result.residuals[0]
        assert result.final_residual == result.residuals[-1]

    def test_three_iterations_enough_on_simrank_system(self):
        # The paper uses L=3; on a real indexing system this should already
        # give a small residual.
        graph = generators.copying_model_graph(80, out_degree=5, seed=6)
        params = SimRankParams(c=0.6, walk_steps=6, index_walkers=100, seed=2)
        system = linear_system.build_system(graph, params)
        rhs = np.ones(graph.n_nodes)
        result = jacobi_solve(system, rhs, iterations=3,
                              initial=np.full(graph.n_nodes, 0.4))
        assert result.final_residual < 0.05

    def test_zero_diagonal_rows_keep_initial_value(self):
        system = sparse.csr_matrix(np.array([[0.0, 0.0], [0.0, 2.0]]))
        rhs = np.array([1.0, 4.0])
        result = jacobi_solve(system, rhs, iterations=5, initial=np.array([7.0, 0.0]))
        assert result.x[0] == pytest.approx(7.0)
        assert result.x[1] == pytest.approx(2.0)

    def test_dimension_mismatch_raises(self):
        system, rhs = _diagonally_dominant_system()
        with pytest.raises(SolverError):
            jacobi_solve(system, rhs[:-1])
        with pytest.raises(SolverError):
            jacobi_solve(sparse.csr_matrix(np.ones((2, 3))), np.ones(2))
        with pytest.raises(SolverError):
            jacobi_solve(system, rhs, initial=np.ones(3))

    def test_zero_iterations_returns_initial(self):
        system, rhs = _diagonally_dominant_system()
        initial = np.full_like(rhs, 0.25)
        result = jacobi_solve(system, rhs, iterations=0, initial=initial)
        assert np.array_equal(result.x, initial)
        assert result.residuals == []
        assert result.final_residual == float("inf")

    def test_no_residual_tracking(self):
        system, rhs = _diagonally_dominant_system()
        result = jacobi_solve(system, rhs, iterations=3, track_residuals=False)
        assert result.residuals == []

    def test_tracked_residual_is_the_relative_residual(self):
        system, rhs = _diagonally_dominant_system()
        result = jacobi_solve(system, rhs, iterations=2)
        assert result.final_residual == relative_residual(system, result.x, rhs)
        assert relative_residual(system, result.x, np.zeros_like(rhs)) == \
            float(np.linalg.norm(system @ result.x))

    @pytest.mark.parametrize("iterations", [0, 1, 3])
    def test_maintainer_reports_the_tracked_residual_bytes(self, iterations):
        """The index maintainer solves untracked and computes one residual;
        it reports the bytes a tracked solve ends on (``inf`` after zero
        sweeps), for a build and for an update."""
        from repro.core.sharding import ShardedIncrementalWalker

        params = SimRankParams(c=0.6, walk_steps=4, jacobi_iterations=iterations,
                               index_walkers=30, seed=5)
        graph = generators.copying_model_graph(60, out_degree=4, seed=2)
        walker = ShardedIncrementalWalker(graph, 2, params=params)
        for step in ("build", "update"):
            if step == "build":
                walker.build()
            else:
                assert walker.add_edges([(0, 33), (7, 21)]) is not None
            n = walker.graph.n_nodes
            tracked = jacobi_solve(walker.system, np.ones(n),
                                   iterations=iterations,
                                   initial=np.full(n, 1.0 - params.c))
            reported = walker.index.build_info.jacobi_residual
            assert np.float64(reported).tobytes() == \
                np.float64(tracked.final_residual).tobytes(), step
            assert walker.index.diagonal.tobytes() == tracked.x.tobytes()


class TestJacobiStep:
    def test_block_update_matches_full_jacobi(self):
        system, rhs = _diagonally_dominant_system(n=20, seed=3)
        x_prev = np.full(20, 0.5)
        full = jacobi_solve(system, rhs, iterations=1, initial=x_prev).x
        # Update the same iterate block by block.
        blocked = x_prev.copy()
        for block in (np.arange(0, 7), np.arange(7, 15), np.arange(15, 20)):
            blocked[block] = jacobi_step(
                system.tocsr()[block, :], block, rhs[block], x_prev
            )
        assert np.allclose(blocked, full)

    def test_single_row_block(self):
        system, rhs = _diagonally_dominant_system(n=5, seed=4)
        x_prev = np.ones(5)
        value = jacobi_step(system.tocsr()[[2], :], np.array([2]), rhs[[2]], x_prev)
        expected = jacobi_solve(system, rhs, iterations=1, initial=x_prev).x[2]
        assert value[0] == pytest.approx(expected)


class TestOtherSolvers:
    def test_gauss_seidel_converges_faster_than_jacobi(self):
        system, rhs = _diagonally_dominant_system(seed=5)
        jacobi_result = jacobi_solve(system, rhs, iterations=3)
        gs_result = gauss_seidel_solve(system, rhs, iterations=3)
        assert gs_result.final_residual <= jacobi_result.final_residual
        assert gs_result.method == "gauss-seidel"

    def test_exact_solve(self):
        system, rhs = _diagonally_dominant_system(seed=6)
        result = exact_solve(system, rhs)
        assert result.final_residual < 1e-10
        assert result.method == "exact"

    def test_exact_solve_singular_raises(self):
        singular = sparse.csr_matrix(np.zeros((3, 3)))
        with pytest.raises(SolverError):
            exact_solve(singular, np.ones(3))

    def test_gauss_seidel_skips_zero_diagonal(self):
        system = sparse.csr_matrix(np.array([[0.0, 1.0], [0.0, 2.0]]))
        result = gauss_seidel_solve(system, np.array([1.0, 2.0]), iterations=2,
                                    initial=np.array([3.0, 0.0]))
        assert result.x[0] == pytest.approx(3.0)
        assert result.x[1] == pytest.approx(1.0)


class TestSolveResult:
    def test_dataclass_fields(self):
        result = SolveResult(x=np.ones(3), iterations=2, residuals=[0.5, 0.1])
        assert result.final_residual == 0.1
