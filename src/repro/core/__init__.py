"""CloudWalker core: offline diagonal indexing and online SimRank queries.

The pipeline mirrors the paper:

1. :mod:`~repro.core.walks` / :mod:`~repro.core.montecarlo` — Monte-Carlo
   simulation of the reverse (in-link) random walks that estimate
   ``P^t e_i``.
2. :mod:`~repro.core.linear_system` — assembly of the linear system
   ``A x = 1`` whose solution is the diagonal correction ``D``.
3. :mod:`~repro.core.jacobi` — the (parallel) Jacobi solver, plus
   Gauss-Seidel and exact solves used for ablations.
4. :mod:`~repro.core.index` — the persisted :class:`DiagonalIndex`.
5. :mod:`~repro.core.queries` — the online queries MCSP (single pair),
   MCSS (single source) and MCAP (all pairs).
6. :mod:`~repro.core.broadcast_impl` / :mod:`~repro.core.rdd_impl` — the two
   distributed execution models from the paper (graph broadcast to every
   worker vs. graph stored in an RDD), built on :mod:`repro.engine`.
7. :mod:`~repro.core.cloudwalker` — the user-facing facade.

Modules are imported where they are used (``from repro.core.cloudwalker
import CloudWalker``); the package itself imports nothing, so the serving
side loads only the modules it calls.
"""
