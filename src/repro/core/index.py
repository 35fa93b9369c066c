"""The persisted CloudWalker index: the diagonal correction vector.

The whole offline phase of CloudWalker produces a single vector ``x`` with
one entry per node (the diagonal of the correction matrix ``D``).  Every
online query only needs ``x`` and the graph, so the index is tiny compared to
the graph itself — the property that lets CloudWalker answer "big SimRank"
queries with "instant response".

Two persistence layers live here:

:class:`DiagonalIndex`
    The index payload itself plus provenance, with atomic ``.npz``
    save/load.
:class:`SnapshotStore`
    A served index's versioned lineage: per version one index file and an
    optional file holding the maintained linear system (so incremental
    maintenance survives restarts), at every shard count.
"""

from __future__ import annotations

import contextlib
import os
import re
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np
from scipy import sparse

from repro.config import SimRankParams
from repro.errors import CloudWalkerError
from repro.graph.digraph import DiGraph

PathLike = Union[str, os.PathLike]


def atomic_write(path: Path, writer: Callable[[Any], None]) -> None:
    """Write a file atomically: temp file in the target directory + rename.

    ``writer`` receives an open binary file handle.  A reader pointed at
    ``path`` can never observe a half-written file even if the writer
    crashes mid-save; concurrent writers cannot truncate each other's
    in-progress writes because every writer gets a unique temp name —
    whichever rename lands last wins with a complete file either way.
    Shared by :meth:`DiagonalIndex.save` and :class:`SnapshotStore`.
    """
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            writer(handle)
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise


@dataclass
class BuildInfo:
    """Provenance of an index build (used by benchmarks; see docs/DESIGN.md)."""

    execution_model: str = "local"
    monte_carlo_seconds: float = 0.0
    solve_seconds: float = 0.0
    total_seconds: float = 0.0
    jacobi_residual: float = float("nan")
    system_nnz: int = 0
    extras: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """Timings and diagnostics as a plain dict (merged into summaries)."""
        return {
            "execution_model": self.execution_model,
            "monte_carlo_seconds": self.monte_carlo_seconds,
            "solve_seconds": self.solve_seconds,
            "total_seconds": self.total_seconds,
            "jacobi_residual": self.jacobi_residual,
            "system_nnz": self.system_nnz,
            **self.extras,
        }


@dataclass
class DiagonalIndex:
    """The diagonal correction vector ``x = diag(D)`` plus provenance.

    Attributes
    ----------
    diagonal:
        One float per node.
    params:
        The parameters used to build the index.
    graph_name / n_nodes / n_edges:
        Fingerprint of the graph the index was built for; queries check the
        node count so a stale index cannot silently be used with a different
        graph.
    build_info:
        Timings and diagnostics of the build.
    """

    diagonal: np.ndarray
    params: SimRankParams
    graph_name: str
    n_nodes: int
    n_edges: int
    build_info: BuildInfo = field(default_factory=BuildInfo)

    def __post_init__(self) -> None:
        self.diagonal = np.asarray(self.diagonal, dtype=np.float64).ravel()
        if self.diagonal.shape[0] != self.n_nodes:
            raise CloudWalkerError(
                f"diagonal has {self.diagonal.shape[0]} entries but the graph "
                f"has {self.n_nodes} nodes"
            )

    def validate_for(self, graph: DiGraph) -> None:
        """Raise if the index does not match ``graph``.

        Both dimensions of the fingerprint are checked: a graph with the
        right node count but a different edge count is a *stale* graph (for
        example, the pre-update edge list paired with a post-update
        snapshot), and serving it against this index would silently produce
        answers for a graph that no longer exists.
        """
        if graph.n_nodes != self.n_nodes:
            raise CloudWalkerError(
                f"index was built for a graph with {self.n_nodes} nodes but the "
                f"query graph has {graph.n_nodes}"
            )
        if graph.n_edges != self.n_edges:
            raise CloudWalkerError(
                f"index was built for a graph with {self.n_edges} edges but the "
                f"query graph has {graph.n_edges}; the graph is stale relative "
                f"to this index (or vice versa)"
            )

    @property
    def memory_bytes(self) -> int:
        """Size of the index payload (one float per node)."""
        return int(self.diagonal.nbytes)

    def summary(self) -> Dict[str, Any]:
        """Human-readable summary used by reports."""
        return {
            "graph_name": self.graph_name,
            "n_nodes": self.n_nodes,
            "n_edges": self.n_edges,
            "diag_min": float(self.diagonal.min()) if self.n_nodes else float("nan"),
            "diag_max": float(self.diagonal.max()) if self.n_nodes else float("nan"),
            "diag_mean": float(self.diagonal.mean()) if self.n_nodes else float("nan"),
            "index_bytes": self.memory_bytes,
            **self.build_info.to_dict(),
        }

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, path: PathLike) -> None:
        """Save the index as a compressed ``.npz`` file.

        The write is atomic (temp file + rename in the target directory), so
        a query service cold-starting from ``path`` can never observe a
        half-written index even if a concurrent re-index crashes mid-save.
        """
        path = Path(path)
        if path.suffix != ".npz":
            # np.savez would append the suffix itself; do it explicitly so
            # the rename below targets the file load() will be pointed at.
            path = path.with_name(path.name + ".npz")
        params = self.params.to_dict()
        atomic_write(path, lambda handle: self._write_npz(handle, params))

    def _write_npz(self, handle, params: Dict[str, Any]) -> None:
        np.savez_compressed(
            handle,
            diagonal=self.diagonal,
            graph_name=np.array(self.graph_name),
            n_nodes=np.array(self.n_nodes, dtype=np.int64),
            n_edges=np.array(self.n_edges, dtype=np.int64),
            params_keys=np.array(list(params.keys())),
            params_values=np.array(
                [repr(value) for value in params.values()]
            ),
            execution_model=np.array(self.build_info.execution_model),
            timings=np.array(
                [
                    self.build_info.monte_carlo_seconds,
                    self.build_info.solve_seconds,
                    self.build_info.total_seconds,
                    self.build_info.jacobi_residual,
                    float(self.build_info.system_nnz),
                ]
            ),
        )

    @classmethod
    def load(cls, path: PathLike) -> "DiagonalIndex":
        """Load an index previously written by :meth:`save`."""
        path = Path(path)
        try:
            with np.load(path, allow_pickle=False) as data:
                params_dict = {
                    key: _parse_literal(value)
                    for key, value in zip(
                        data["params_keys"].tolist(), data["params_values"].tolist()
                    )
                }
                timings = data["timings"]
                build_info = BuildInfo(
                    execution_model=str(data["execution_model"]),
                    monte_carlo_seconds=float(timings[0]),
                    solve_seconds=float(timings[1]),
                    total_seconds=float(timings[2]),
                    jacobi_residual=float(timings[3]),
                    system_nnz=int(timings[4]),
                )
                return cls(
                    diagonal=data["diagonal"],
                    params=SimRankParams.from_dict(params_dict),
                    graph_name=str(data["graph_name"]),
                    n_nodes=int(data["n_nodes"]),
                    n_edges=int(data["n_edges"]),
                    build_info=build_info,
                )
        except (OSError, KeyError, ValueError) as exc:
            raise CloudWalkerError(f"cannot load index from {path}: {exc}") from exc


def _parse_literal(text: str) -> Any:
    """Parse the repr of a params value back into a Python object."""
    if text == "None":
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text.strip("'\"")


# --------------------------------------------------------------------------- #
# The snapshot lineage
# --------------------------------------------------------------------------- #
class SnapshotStore:
    """Versioned, bounded-retention snapshots of a served index.

    One lineage layout whatever the shard count — a version is an index
    file plus an optional system file::

        <directory>/
            system-v<NNNNNNNN>.npz   # optional: the maintained linear system
            index-v<NNNNNNNN>.npz    # the diagonal index: the commit marker

    :meth:`save_snapshot` writes them through :func:`atomic_write` in that
    order, so a version exists once its index file does, and
    :meth:`versions` lists the index files.  A crash before the index
    write leaves debris that every load ignores and the next save of that
    version replaces.  The system is written as the service maintains it
    and loads byte-equal, which is what makes incremental maintenance
    survive restarts: a fresh process attaches it
    (:meth:`~repro.core.sharding.ShardedIncrementalWalker.attach`) and
    updates for the cost of the affected rows, instead of re-estimating
    every row first.  Nothing in a version depends on how many row tasks
    built it, so any shard count may continue any lineage.

    Versions only move forward (saving the newest one again is a no-op)
    and retention prunes every file of the oldest versions — including the
    ``plan-v*.json`` records that lineages written by older builds carry
    beside each version; loads ignore those records.  A
    ``shard_plan.json`` with one store per shard (an older per-shard
    layout) is refused with a migration hint instead of being shadowed by
    a new lineage at v1.
    """

    _FILE = re.compile(r"^(index|system|plan)-v(\d{8})\.(npz|json)$")

    def __init__(self, directory: PathLike, retain: int = 5) -> None:
        if retain < 1:
            raise CloudWalkerError(f"snapshot retention must be >= 1, got {retain}")
        self.directory = Path(directory)
        self.retain = retain

    # ------------------------------------------------------------------ #
    def _path(self, kind: str, version: int) -> Path:
        # "plan" is an older build's per-version record: only pruned.
        suffix = "json" if kind == "plan" else "npz"
        return self.directory / f"{kind}-v{version:08d}.{suffix}"

    def index_path(self, version: int) -> Path:
        """Path of the index file (the commit marker) of ``version``."""
        return self._path("index", version)

    def system_path(self, version: int) -> Path:
        """Path of the (optional) linear-system file of ``version``."""
        return self._path("system", version)

    def _files(self) -> Dict[str, List[int]]:
        """The versions on disk of each file kind, committed or not."""
        found: Dict[str, List[int]] = {"index": [], "system": [], "plan": []}
        if self.directory.is_dir():
            for entry in self.directory.iterdir():
                match = self._FILE.match(entry.name)
                if match and entry.name == self._path(
                        match.group(1), int(match.group(2))).name:
                    found[match.group(1)].append(int(match.group(2)))
        return found

    def _refuse_legacy(self) -> None:
        """Raise on a per-shard layout, which this store no longer reads."""
        if (self.directory / "shard_plan.json").exists():
            stores = self.directory / "shard-00"
            indexed = sorted(stores.glob("index-v*.npz"))
            source = indexed[-1] if indexed else stores / "index-vN.npz"
            raise CloudWalkerError(
                f"{self.directory} holds a per-shard snapshot lineage "
                "(shard_plan.json plus shard-NN/ stores), a layout no longer "
                "read; migrate it into a new directory with 'snapshot save "
                f"--dir NEW --index {source}'"
            )

    # ------------------------------------------------------------------ #
    def versions(self) -> List[int]:
        """Committed versions, ascending: the index files.  Raises on a
        per-shard layout (see the class docstring)."""
        self._refuse_legacy()
        return sorted(self._files()["index"])

    def latest_version(self) -> Optional[int]:
        """The newest committed version, or None for an empty store."""
        versions = self.versions()
        return versions[-1] if versions else None

    def save_snapshot(
        self,
        index: DiagonalIndex,
        system: Optional[sparse.spmatrix] = None,
        version: Optional[int] = None,
    ) -> int:
        """Persist ``index`` (and optionally its system) as a version.

        Returns the version written.  ``version`` defaults to ``latest + 1``
        (1 for an empty store); an already-listed version is a no-op, and
        one below the newest is refused, so a restarted writer cannot
        silently shadow newer state.  The system (written as the caller
        maintains it) lands before the index file, so a crash leaves the
        previous version the newest committed one.
        """
        versions = self.versions()
        latest = versions[-1] if versions else None
        if version is None:
            version = (latest or 0) + 1
        elif version in versions:
            return version
        elif latest is not None and version < latest:
            raise CloudWalkerError(
                f"snapshot version must increase: latest is {latest}, got {version}"
            )
        self.directory.mkdir(parents=True, exist_ok=True)
        if system is None:
            # A crashed save of this version may have left a system file.
            with contextlib.suppress(OSError):
                self.system_path(version).unlink()
        else:
            csr = sparse.csr_matrix(system)
            atomic_write(
                self.system_path(version),
                lambda handle: np.savez_compressed(
                    handle, data=csr.data, indices=csr.indices,
                    indptr=csr.indptr,
                    shape=np.asarray(csr.shape, dtype=np.int64),
                ),
            )
        index.save(self.index_path(version))
        self.prune()
        return version

    def load(
        self, version: Optional[int] = None
    ) -> Tuple[int, DiagonalIndex, Optional[sparse.csr_matrix]]:
        """Load a snapshot as ``(version, index, system)``.

        ``version`` defaults to the newest committed one.  ``system`` is
        None when the version was saved without one (callers then
        re-estimate it once, as when attaching to a plain index file).
        """
        versions = self.versions()
        if version is None:
            if not versions:
                raise CloudWalkerError(f"no snapshots found in {self.directory}")
            version = versions[-1]
        elif version not in versions:
            raise CloudWalkerError(
                f"version {version} is not a snapshot in {self.directory} "
                f"(have {versions})"
            )
        index = DiagonalIndex.load(self.index_path(version))
        system: Optional[sparse.csr_matrix] = None
        path = self.system_path(version)
        if path.exists():
            try:
                with np.load(path, allow_pickle=False) as data:
                    system = sparse.csr_matrix(
                        (data["data"], data["indices"], data["indptr"]),
                        shape=tuple(int(extent) for extent in data["shape"]),
                    )
            except (OSError, KeyError, ValueError) as exc:
                raise CloudWalkerError(
                    f"cannot load system from {path}: {exc}") from exc
        return version, index, system

    def describe(self, version: int) -> Dict[str, Any]:
        """Cheap metadata of one version, without loading the diagonal.

        Reads only the scalar entries of the index ``.npz`` (lazy
        per-member access), so listing a directory of
        large-graph snapshots stays O(versions), not O(versions x index
        size).
        """
        path = self.index_path(version)
        try:
            with np.load(path, allow_pickle=False) as data:
                n_nodes, n_edges = int(data["n_nodes"]), int(data["n_edges"])
        except (OSError, KeyError, ValueError) as exc:
            raise CloudWalkerError(f"cannot read snapshot {path}: {exc}") from exc
        return {
            "n_nodes": n_nodes,
            "n_edges": n_edges,
            "has_system": self.system_path(version).exists(),
        }

    def prune(self, retain: Optional[int] = None) -> List[int]:
        """Keep the newest ``retain`` versions; returns the removed ones.

        Every file of an older version goes, crash debris and an older
        build's plan records included — the index files first, so an
        interrupted prune never leaves a committed version without its
        system.
        """
        retain = retain if retain is not None else self.retain
        if retain < 1:
            raise CloudWalkerError(f"snapshot retention must be >= 1, got {retain}")
        versions = self.versions()
        if len(versions) <= retain:
            return []
        oldest_kept = versions[-retain]
        files = self._files()
        for kind in ("index", "system", "plan"):
            for version in files[kind]:
                if version < oldest_kept:
                    with contextlib.suppress(OSError):
                        self._path(kind, version).unlink()
        return versions[:-retain]

    def __repr__(self) -> str:
        return (
            f"SnapshotStore(directory={str(self.directory)!r}, "
            f"versions={self.versions()}, retain={self.retain})"
        )
