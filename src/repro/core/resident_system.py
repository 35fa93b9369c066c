"""The maintained linear system as a residency-exportable view.

The executor's resident registry broadcasts the *graph* into shared memory
(:meth:`repro.graph.digraph.DiGraph.resident_export`); this module extends
the protocol to the other large object the build side fans out over — the
maintained linear system's rows, together with the plan's node-to-shard
assignment that says which rows a migration slice task keeps.  A
:class:`ResidentSystem` is a thin immutable *view* over arrays owned by the
walker; it exists so the identity-keyed registry
(:meth:`repro.engine.executor.ExecutorBackend.ensure_resident`) has one
object whose lifetime tracks the index lineage:

* the walker caches the view while the underlying ``system`` object stays
  the same, so repeated fan-outs reuse one registration;
* any lineage event — ``add_edges`` splicing a new system, a ``with_plan``
  migration clone — produces a **new view**, and the registry bumps the
  residency epoch exactly like a graph swap.

Export layout: the system's three CSR buffers (``data``, ``indices``,
``indptr``) followed by the assignment, with the system shape in the meta
dict.  Restoration is zero-copy: the worker-side
:meth:`ResidentSystem.resident_restore` wraps the shared-memory views in a
``scipy.sparse.csr_matrix`` without copying, so a migration slice task
ships a handle plus a shard id instead of the ``n x n`` system.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np
from scipy import sparse


class ResidentSystem:
    """Immutable residency view over the maintained system + assignment.

    Parameters
    ----------
    system:
        The maintained linear system (``IncrementalCloudWalker.system``)
        as a CSR matrix.
    assignment:
        The plan's per-node shard assignment (``ShardPlan.assign``), one
        entry per system row.
    """

    __slots__ = ("system", "assignment")

    def __init__(self, system: sparse.csr_matrix,
                 assignment: np.ndarray) -> None:
        self.system = system
        self.assignment = assignment

    # ------------------------------------------------------------------ #
    # Residency protocol (mirrors DiGraph.resident_export/resident_restore)
    # ------------------------------------------------------------------ #
    def resident_export(self) -> Tuple[Dict[str, Any], List[np.ndarray]]:
        """Export as ``(meta, arrays)`` for shared-memory residency."""
        meta = {"system_shape": tuple(int(d) for d in self.system.shape)}
        return meta, [self.system.data, self.system.indices,
                      self.system.indptr, self.assignment]

    @classmethod
    def resident_restore(cls, meta: Dict[str, Any],
                         arrays: List[np.ndarray]) -> "ResidentSystem":
        """Rebuild the view around exported buffers **without copying**.

        The CSR matrix is constructed directly from the shared-memory
        views (``(data, indices, indptr)`` adoption, no canonicalisation
        pass), so the restored system is byte-for-byte the exporter's —
        the property every bitwise-identity gate downstream rests on.
        """
        data, indices, indptr, assignment = arrays
        system = sparse.csr_matrix(
            (data, indices, indptr), shape=meta["system_shape"], copy=False
        )
        return cls(system=system, assignment=assignment)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def memory_bytes(self) -> int:
        """Footprint of the exported arrays — one copy per *pool*, not per
        worker: process workers map the single shared segment."""
        return int(self.system.data.nbytes + self.system.indices.nbytes
                   + self.system.indptr.nbytes + self.assignment.nbytes)

    def __repr__(self) -> str:
        return (f"ResidentSystem(system{self.system.shape}, "
                f"assignment[{len(self.assignment)}])")
