"""Linear-system solvers for the diagonal correction vector.

CloudWalker solves ``A x = 1`` with the Jacobi method because every
component update

    x_i  <-  ( b_i - sum_{j != i} a_ij x_j ) / a_ii

depends only on the *previous* iterate, so all n updates can run in parallel
— the property the paper exploits on Spark.  This module provides:

* :func:`jacobi_solve` — the paper's solver (vectorised, L iterations);
* :func:`jacobi_step` — a single iteration on a block of rows, used by the
  distributed execution models to update their partition of ``x``;
* :func:`gauss_seidel_solve` and :func:`exact_solve` — sequential baselines
  used by the convergence ablation (figure F1);
* :class:`SolveResult` — solution plus per-iteration residual history;
* :func:`relative_residual` — the residual norm the results report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

from repro.errors import SolverError


@dataclass
class SolveResult:
    """Solution of the indexing linear system.

    Attributes
    ----------
    x:
        The solution vector (the diagonal of ``D``).
    iterations:
        Number of iterations actually performed.
    residuals:
        Relative residual ``||A x - b|| / ||b||`` after each iteration.
    method:
        Name of the solver that produced the result.
    """

    x: np.ndarray
    iterations: int
    residuals: List[float] = field(default_factory=list)
    method: str = "jacobi"

    @property
    def final_residual(self) -> float:
        """Residual after the last iteration (``inf`` if never computed)."""
        return self.residuals[-1] if self.residuals else float("inf")


def _validate_system(system: sparse.spmatrix, rhs: np.ndarray) -> np.ndarray:
    if system.shape[0] != system.shape[1]:
        raise SolverError(f"system matrix must be square, got shape {system.shape}")
    rhs = np.asarray(rhs, dtype=np.float64).ravel()
    if rhs.shape[0] != system.shape[0]:
        raise SolverError(
            f"right-hand side has {rhs.shape[0]} entries, expected {system.shape[0]}"
        )
    return rhs


def relative_residual(system: sparse.spmatrix, x: np.ndarray, rhs: np.ndarray) -> float:
    """``||system @ x - rhs|| / ||rhs||`` (the plain residual norm when
    ``rhs`` is zero) — one SpMV."""
    denominator = float(np.linalg.norm(rhs))
    if denominator == 0.0:
        return float(np.linalg.norm(system @ x))
    return float(np.linalg.norm(system @ x - rhs) / denominator)


def jacobi_solve(
    system: sparse.spmatrix,
    rhs: np.ndarray,
    iterations: int = 3,
    initial: Optional[np.ndarray] = None,
    track_residuals: bool = True,
) -> SolveResult:
    """Solve ``system @ x = rhs`` with ``iterations`` Jacobi sweeps.

    Rows with a zero diagonal (possible only for isolated anomalies in a
    Monte-Carlo estimated system) keep their initial value.
    """
    rhs = _validate_system(system, rhs)
    system = system.tocsr()
    diagonal = system.diagonal()
    safe_diagonal = np.where(diagonal != 0.0, diagonal, 1.0)
    x = (
        np.asarray(initial, dtype=np.float64).copy()
        if initial is not None
        else np.full_like(rhs, fill_value=float(rhs.mean() or 1.0))
    )
    if x.shape != rhs.shape:
        raise SolverError(
            f"initial guess has shape {x.shape}, expected {rhs.shape}"
        )
    residuals: List[float] = []
    for _ in range(iterations):
        off_diagonal = system @ x - diagonal * x
        updated = (rhs - off_diagonal) / safe_diagonal
        x = np.where(diagonal != 0.0, updated, x)
        if track_residuals:
            residuals.append(relative_residual(system, x, rhs))
    return SolveResult(x=x, iterations=iterations, residuals=residuals, method="jacobi")


def jacobi_step(
    system_rows: sparse.spmatrix,
    row_ids: np.ndarray,
    rhs_block: np.ndarray,
    x_previous: np.ndarray,
) -> np.ndarray:
    """One Jacobi update for a block of rows (distributed execution models).

    Parameters
    ----------
    system_rows:
        The block's rows of ``A`` (shape ``len(row_ids) x n``).
    row_ids:
        Global node ids of those rows (needed to read their diagonal entry).
    rhs_block:
        Right-hand side restricted to the block.
    x_previous:
        The full previous iterate (broadcast to every partition).

    Returns the updated values for the block, in the same order as
    ``row_ids``.
    """
    system_rows = system_rows.tocsr()
    row_ids = np.asarray(row_ids, dtype=np.int64)
    diagonal = np.asarray(system_rows[np.arange(len(row_ids)), row_ids]).ravel()
    safe_diagonal = np.where(diagonal != 0.0, diagonal, 1.0)
    full_products = system_rows @ x_previous
    off_diagonal = full_products - diagonal * x_previous[row_ids]
    updated = (rhs_block - off_diagonal) / safe_diagonal
    return np.where(diagonal != 0.0, updated, x_previous[row_ids])


def gauss_seidel_solve(
    system: sparse.spmatrix,
    rhs: np.ndarray,
    iterations: int = 3,
    initial: Optional[np.ndarray] = None,
) -> SolveResult:
    """Sequential Gauss-Seidel sweeps (ablation baseline: faster convergence
    per iteration, but inherently sequential so not what the paper runs)."""
    rhs = _validate_system(system, rhs)
    csr = system.tocsr()
    x = (
        np.asarray(initial, dtype=np.float64).copy()
        if initial is not None
        else np.full_like(rhs, fill_value=float(rhs.mean() or 1.0))
    )
    residuals: List[float] = []
    indptr, indices, data = csr.indptr, csr.indices, csr.data
    for _ in range(iterations):
        for row in range(csr.shape[0]):
            start, stop = indptr[row], indptr[row + 1]
            cols = indices[start:stop]
            values = data[start:stop]
            diag_mask = cols == row
            diagonal = values[diag_mask].sum()
            if diagonal == 0.0:
                continue
            off_sum = float(values[~diag_mask] @ x[cols[~diag_mask]])
            x[row] = (rhs[row] - off_sum) / diagonal
        residuals.append(relative_residual(csr, x, rhs))
    return SolveResult(x=x, iterations=iterations, residuals=residuals,
                       method="gauss-seidel")


def exact_solve(system: sparse.spmatrix, rhs: np.ndarray) -> SolveResult:
    """Direct sparse solve (ground truth for the convergence ablation)."""
    rhs = _validate_system(system, rhs)
    try:
        with np.errstate(all="ignore"):
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                x = sparse_linalg.spsolve(system.tocsc(), rhs)
    except Exception as exc:  # singular matrix etc.
        raise SolverError(f"direct solve failed: {exc}") from exc
    x = np.asarray(x, dtype=np.float64).ravel()
    if not np.isfinite(x).all():
        raise SolverError("direct solve produced non-finite values (singular system?)")
    result = SolveResult(x=x, iterations=1, method="exact")
    result.residuals.append(relative_residual(system, x, rhs))
    return result
