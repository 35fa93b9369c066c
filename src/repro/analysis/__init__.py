"""Analysis toolkit: accuracy evaluation, ranking metrics and ablations.

The paper's evaluation needs more than timings: the convergence figure
measures estimation error, and the design choices (number of walkers, walk
truncation, solver) deserve ablations.  This subpackage collects those
tools so benchmarks, examples and downstream users share one
implementation:

* :mod:`~repro.analysis.accuracy` — error metrics of estimated SimRank
  scores against a reference (exact linearization or Jeh–Widom ground
  truth), with pair-sampling utilities for graphs too large for full
  matrices.
* :mod:`~repro.analysis.ranking` — ranking-quality metrics (top-k
  ordering, precision@k, average precision).
* :mod:`~repro.analysis.ablation` — parameter sweeps over the knobs the
  paper fixes (R, R', T, L) returning tidy records ready for tabulation.
* :mod:`~repro.analysis.validation` — cheap post-build sanity checks of a
  diagonal index (bounds, residual, spot-check against exact queries).
"""

from repro.analysis import ablation, accuracy, ranking, validation

__all__ = ["ablation", "accuracy", "ranking", "validation"]
