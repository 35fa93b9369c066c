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
:class:`ShardedIndex` / :class:`SnapshotStore`
    A deployment's view — the (broadcast) diagonal plus a
    :class:`~repro.graph.partition.ShardPlan` and per-shard versions — and
    its versioned lineage: per version one index file, an optional file
    holding the maintained linear system (so incremental maintenance
    survives restarts) and one plan record, at every shard count.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse

from repro.config import SimRankParams
from repro.errors import CloudWalkerError
from repro.graph.digraph import DiGraph
from repro.graph.partition import ShardPlan

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
# Deployments and their snapshot lineage
# --------------------------------------------------------------------------- #
@dataclass
class ShardedIndex:
    """The serving state of a sharded deployment.

    The diagonal itself is *broadcast*: every shard serves from the same
    full vector (it is one float per node — the paper ships it to every
    worker for the online phase).  What is sharded is the *maintenance*
    state: each shard owns the rows of the linear system for the nodes the
    plan assigns to it, and carries its own version counter that only moves
    when an update re-estimates one of its rows.

    Attributes
    ----------
    index:
        The global :class:`DiagonalIndex` (identical on every shard).
    plan:
        Node-to-shard assignment; also routes edge insertions and the
        serving load counters.
    shard_versions:
        Per-shard generation counters, aligned with the plan's shard ids.
        ``shard_versions[k]`` is the global :attr:`index version
        <repro.service.QueryService.index_version>` at which shard ``k``'s
        rows were last (re-)estimated.
    """

    index: DiagonalIndex
    plan: ShardPlan
    shard_versions: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.shard_versions:
            self.shard_versions = [1] * self.plan.num_shards
        if len(self.shard_versions) != self.plan.num_shards:
            raise CloudWalkerError(
                f"{len(self.shard_versions)} shard versions for a plan with "
                f"{self.plan.num_shards} shards"
            )

    @property
    def num_shards(self) -> int:
        """Number of shards (``K``) in the plan."""
        return self.plan.num_shards

    def validate_for(self, graph: DiGraph) -> None:
        """Raise if the (global) index does not match ``graph``."""
        self.index.validate_for(graph)

    def touch(self, shards: Sequence[int], version: int) -> None:
        """Record that an update at global ``version`` re-estimated rows of
        ``shards``."""
        for shard in shards:
            self.shard_versions[shard] = version

    def summary(self) -> Dict[str, Any]:
        """Human-readable summary (index summary plus shard layout)."""
        return {
            **self.index.summary(),
            "num_shards": self.num_shards,
            "shard_strategy": self.plan.strategy,
            "shard_versions": list(self.shard_versions),
        }


class SnapshotStore:
    """Versioned, bounded-retention snapshots of a deployment.

    One lineage layout for every shard count — a version is three files::

        <directory>/
            system-v<NNNNNNNN>.npz   # optional: the maintained linear system
            plan-v<NNNNNNNN>.json    # {"plan": ..., "shard_versions": [...]}
            index-v<NNNNNNNN>.npz    # the diagonal index: the commit marker

    :meth:`save_snapshot` writes them through :func:`atomic_write` in that
    order, so a version exists once its index file does, and
    :meth:`versions` lists the index files whose plan record loads.  A
    crash before the index write leaves debris that every load ignores and
    the next save of that version replaces; a corrupt plan record rolls
    loads back to the previous version.  The system is written as the
    service maintains it and loads byte-equal, which is what makes
    incremental maintenance survive restarts: a fresh process attaches it
    (:meth:`~repro.core.sharding.ShardedIncrementalWalker.attach`) and
    updates for the cost of the affected rows, instead of re-estimating
    every row first.

    Versions only move forward (saving the newest one again is a no-op),
    retention prunes all three files of the oldest versions, and the shard
    count is fixed per directory; each version's plan record holds the
    assignment that version was saved under (lineages written by older
    builds may change it between versions, and each loads under its own).  Two older layouts are refused with a
    migration hint instead of being shadowed by a new lineage at v1: index
    files with no loadable plan record (a single-store lineage), and a
    ``shard_plan.json`` with one store per shard.
    """

    _FILE = re.compile(r"^(index|system|plan)-v(\d{8})\.(npz|json)$")

    def __init__(self, directory: PathLike, retain: int = 5) -> None:
        if retain < 1:
            raise CloudWalkerError(f"snapshot retention must be >= 1, got {retain}")
        self.directory = Path(directory)
        self.retain = retain

    # ------------------------------------------------------------------ #
    def _path(self, kind: str, version: int) -> Path:
        suffix = "json" if kind == "plan" else "npz"
        return self.directory / f"{kind}-v{version:08d}.{suffix}"

    def index_path(self, version: int) -> Path:
        """Path of the index file (the commit marker) of ``version``."""
        return self._path("index", version)

    def system_path(self, version: int) -> Path:
        """Path of the (optional) linear-system file of ``version``."""
        return self._path("system", version)

    def plan_path(self, version: int) -> Path:
        """Path of the plan record of ``version``."""
        return self._path("plan", version)

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

    def _read_record(self, version: int) -> Tuple[ShardPlan, List[int]]:
        path = self.plan_path(version)
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
            plan = ShardPlan.from_dict(record["plan"])
            shard_versions = [int(value) for value in record["shard_versions"]]
            if len(shard_versions) != plan.num_shards:
                raise ValueError(f"{len(shard_versions)} shard versions for "
                                 f"{plan.num_shards} shards")
        except (OSError, ValueError, KeyError, TypeError,
                CloudWalkerError) as exc:
            raise CloudWalkerError(
                f"cannot load plan record {path}: {exc}") from exc
        return plan, shard_versions

    def _refuse_legacy(self, indexed: List[int], committed: List[int]) -> None:
        """Raise on a directory holding a layout this store no longer reads."""
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
        if indexed and not committed:
            raise CloudWalkerError(
                f"{self.directory} holds index files but no loadable plan "
                "record: a single-store snapshot lineage (index-v*.npz "
                "without plan-v*.json), or every plan record is corrupt; "
                "migrate it into a new directory with 'snapshot save --dir "
                f"NEW --index {self.index_path(indexed[-1])}'"
            )

    # ------------------------------------------------------------------ #
    def versions(self) -> List[int]:
        """Committed versions, ascending: index files whose plan record
        loads.  Raises on a legacy layout (see the class docstring)."""
        indexed = sorted(self._files()["index"])
        committed = []
        for version in indexed:
            with contextlib.suppress(CloudWalkerError):
                self._read_record(version)
                committed.append(version)
        self._refuse_legacy(indexed, committed)
        return committed

    def latest_version(self) -> Optional[int]:
        """The newest committed version, or None for an empty store."""
        versions = self.versions()
        return versions[-1] if versions else None

    def load_plan(self, version: Optional[int] = None) -> ShardPlan:
        """The :class:`ShardPlan` of ``version`` (default: the newest)."""
        if version is None:
            version = self.latest_version()
            if version is None:
                raise CloudWalkerError(f"no snapshots found in {self.directory}")
        return self._read_record(version)[0]

    def save_snapshot(
        self,
        sharded: ShardedIndex,
        system: Optional[sparse.spmatrix] = None,
        version: Optional[int] = None,
    ) -> int:
        """Persist ``sharded`` (and optionally its system) as a version.

        Returns the version written.  ``version`` defaults to ``latest + 1``
        (1 for an empty store); an already-listed version is a no-op, and
        one below the newest is refused, so a restarted writer cannot
        silently shadow newer state.  The plan's shard count must match the
        newest version's.  The system (written as the caller maintains it)
        and the plan record land before the index file, so a crash leaves
        the previous version the newest committed one.
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
        if latest is not None:
            lineage = self.load_plan(latest).num_shards
            if lineage != sharded.num_shards:
                raise CloudWalkerError(
                    f"snapshot directory {self.directory} holds a "
                    f"{lineage}-shard lineage; the shard count is immutable "
                    f"per directory (got a {sharded.num_shards}-shard plan) "
                    "— re-shard into a fresh directory"
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
        record = json.dumps({"plan": sharded.plan.to_dict(),
                             "shard_versions": list(sharded.shard_versions)})
        atomic_write(self.plan_path(version),
                     lambda handle: handle.write(record.encode("utf-8")))
        sharded.index.save(self.index_path(version))
        self.prune()
        return version

    def load(
        self, version: Optional[int] = None
    ) -> Tuple[int, ShardedIndex, Optional[sparse.csr_matrix]]:
        """Load a snapshot as ``(version, sharded_index, system)``.

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
        plan, shard_versions = self._read_record(version)
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
        sharded = ShardedIndex(index=index, plan=plan,
                               shard_versions=shard_versions)
        return version, sharded, system

    def describe(self, version: int) -> Dict[str, Any]:
        """Cheap metadata of one version, without loading the diagonal.

        Reads only the scalar entries of the index ``.npz`` (lazy
        per-member access) and the plan record, so listing a directory of
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
            "num_shards": self.load_plan(version).num_shards,
            "has_system": self.system_path(version).exists(),
        }

    def prune(self, retain: Optional[int] = None) -> List[int]:
        """Keep the newest ``retain`` versions; returns the removed ones.

        Every file of an older version goes, crash debris included — the
        index files first, so an interrupted prune never leaves a
        committed version without its plan record.
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


def save_snapshot(
    index: DiagonalIndex,
    directory: PathLike,
    system: Optional[sparse.spmatrix] = None,
    retain: int = 5,
) -> int:
    """Convenience wrapper: persist a plain index into ``directory`` as a
    one-shard deployment (the layout ``snapshot save`` starts)."""
    sharded = ShardedIndex(index=index, plan=ShardPlan.hashed(1))
    return SnapshotStore(directory, retain=retain).save_snapshot(
        sharded, system=system)


def load_latest(directory: PathLike) -> Tuple[int, DiagonalIndex]:
    """Convenience wrapper: load the newest snapshot's index from ``directory``."""
    version, sharded, _system = SnapshotStore(directory).load()
    return version, sharded.index
