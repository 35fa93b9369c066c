"""The persisted CloudWalker index: the diagonal correction vector.

The whole offline phase of CloudWalker produces a single vector ``x`` with
one entry per node (the diagonal of the correction matrix ``D``).  Every
online query only needs ``x`` and the graph, so the index is tiny compared to
the graph itself — the property that lets CloudWalker answer "big SimRank"
queries with "instant response".

Three persistence layers live here:

:class:`DiagonalIndex`
    The index payload itself plus provenance, with atomic ``.npz``
    save/load.
:class:`SnapshotStore`
    Versioned, bounded-retention snapshots of one shard's index, optionally
    carrying the Monte-Carlo linear system (or the shard's rows of it) so
    incremental maintenance survives restarts.
:class:`ShardedIndex` / :class:`ShardedSnapshotStore`
    A deployment's view: the (broadcast) diagonal plus a
    :class:`~repro.graph.partition.ShardPlan` and per-shard versions, and
    the one lineage format the service uses — a snapshot directory
    holding one :class:`SnapshotStore` per shard (one for K = 1), each
    persisting the full diagonal next to *its own rows* of the linear
    system.
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
# Versioned snapshots
# --------------------------------------------------------------------------- #
class SnapshotStore:
    """Versioned, bounded-retention snapshots of a diagonal index.

    A snapshot directory holds one ``index-v<NNNNNNNN>.npz`` per version
    (written through the same atomic machinery as :meth:`DiagonalIndex.save`)
    and, optionally, a ``system-v<NNNNNNNN>.npz`` with the Monte-Carlo
    linear system ``A`` the index was solved from.  Persisting the system is
    what makes incremental maintenance survive restarts: a fresh process can
    :meth:`repro.core.sharding.ShardedIncrementalWalker.attach` the loaded
    system and update it for the cost of the affected rows only, instead of
    re-estimating every row first.

    Versions are monotonically increasing integers; :meth:`save_snapshot`
    assigns ``latest + 1`` and prunes snapshots beyond ``retain`` so a
    long-running update stream cannot fill the disk.  A service lineage
    holds one such store per shard (:class:`ShardedSnapshotStore`).
    """

    _INDEX_PATTERN = re.compile(r"^index-v(\d{8})\.npz$")

    def __init__(self, directory: PathLike, retain: int = 5) -> None:
        if retain < 1:
            raise CloudWalkerError(f"snapshot retention must be >= 1, got {retain}")
        self.directory = Path(directory)
        self.retain = retain

    # ------------------------------------------------------------------ #
    def index_path(self, version: int) -> Path:
        """Path of the index file for ``version``."""
        return self.directory / f"index-v{version:08d}.npz"

    def system_path(self, version: int) -> Path:
        """Path of the (optional) linear-system file for ``version``."""
        return self.directory / f"system-v{version:08d}.npz"

    def versions(self) -> List[int]:
        """All snapshot versions present on disk, ascending."""
        if not self.directory.is_dir():
            return []
        found = []
        for entry in self.directory.iterdir():
            match = self._INDEX_PATTERN.match(entry.name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found)

    def latest_version(self) -> Optional[int]:
        """The newest version on disk, or None for an empty store."""
        versions = self.versions()
        return versions[-1] if versions else None

    # ------------------------------------------------------------------ #
    def save_snapshot(
        self,
        index: DiagonalIndex,
        system: Optional[sparse.spmatrix] = None,
        version: Optional[int] = None,
    ) -> int:
        """Persist ``index`` (and optionally its system) as a new version.

        Returns the version written.  ``version`` defaults to ``latest + 1``
        (1 for an empty store); passing an explicit version must not move
        backwards, so restarted writers cannot silently shadow newer state.
        """
        latest = self.latest_version()
        if version is None:
            version = (latest or 0) + 1
        elif latest is not None and version <= latest:
            raise CloudWalkerError(
                f"snapshot version must increase: latest is {latest}, got {version}"
            )
        self.directory.mkdir(parents=True, exist_ok=True)
        index.save(self.index_path(version))
        if system is not None:
            csr = sparse.csr_matrix(system)
            atomic_write(
                self.system_path(version),
                lambda handle: np.savez_compressed(
                    handle,
                    data=csr.data,
                    indices=csr.indices,
                    indptr=csr.indptr,
                    shape=np.asarray(csr.shape, dtype=np.int64),
                ),
            )
        self.prune()
        return version

    def load(self, version: int) -> DiagonalIndex:
        """Load the index of a specific version."""
        return DiagonalIndex.load(self.index_path(version))

    def describe(self, version: int) -> Dict[str, Any]:
        """Cheap metadata of one snapshot, without loading the diagonal.

        Reads only the scalar entries of the ``.npz`` (lazy per-member
        access), so listing a directory of large-graph snapshots stays
        O(versions), not O(versions x index size).
        """
        path = self.index_path(version)
        try:
            with np.load(path, allow_pickle=False) as data:
                n_nodes, n_edges = int(data["n_nodes"]), int(data["n_edges"])
        except (OSError, KeyError, ValueError) as exc:
            raise CloudWalkerError(f"cannot read snapshot {path}: {exc}") from exc
        return {
            "version": version,
            "n_nodes": n_nodes,
            "n_edges": n_edges,
            "has_system": self.system_path(version).exists(),
            "path": str(path),
        }

    def load_latest(self) -> Tuple[int, DiagonalIndex]:
        """Load the newest snapshot as ``(version, index)``."""
        latest = self.latest_version()
        if latest is None:
            raise CloudWalkerError(f"no snapshots found in {self.directory}")
        return latest, self.load(latest)

    def load_system(self, version: Optional[int] = None) -> Optional[sparse.csr_matrix]:
        """Load the linear system of ``version`` (latest by default).

        Returns None when the snapshot was saved without a system — callers
        fall back to re-estimating it (see ``ShardedIncrementalWalker.attach``).
        """
        if version is None:
            version = self.latest_version()
            if version is None:
                return None
        path = self.system_path(version)
        if not path.exists():
            return None
        try:
            with np.load(path, allow_pickle=False) as data:
                shape = tuple(int(extent) for extent in data["shape"])
                return sparse.csr_matrix(
                    (data["data"], data["indices"], data["indptr"]), shape=shape
                )
        except (OSError, KeyError, ValueError) as exc:
            raise CloudWalkerError(f"cannot load system from {path}: {exc}") from exc

    def prune(self, retain: Optional[int] = None) -> List[int]:
        """Delete all but the newest ``retain`` versions; returns the removed."""
        retain = retain if retain is not None else self.retain
        if retain < 1:
            raise CloudWalkerError(f"snapshot retention must be >= 1, got {retain}")
        versions = self.versions()
        removed = versions[:-retain] if len(versions) > retain else []
        for version in removed:
            with contextlib.suppress(OSError):
                self.index_path(version).unlink()
            with contextlib.suppress(OSError):
                self.system_path(version).unlink()
        return removed

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
    """Convenience wrapper: persist one snapshot into ``directory``."""
    return SnapshotStore(directory, retain=retain).save_snapshot(index, system=system)


def load_latest(directory: PathLike) -> Tuple[int, DiagonalIndex]:
    """Convenience wrapper: load the newest snapshot from ``directory``."""
    return SnapshotStore(directory).load_latest()


# --------------------------------------------------------------------------- #
# Sharded deployments
# --------------------------------------------------------------------------- #
@dataclass
class ShardedIndex:
    """The serving state of a sharded deployment.

    The diagonal itself is *broadcast*: every shard serves from the same
    full vector (it is one float per node — the paper ships it to every
    worker for the online phase).  What is sharded is the *maintenance*
    state: each shard owns the rows of the linear system for the nodes the
    plan assigns to it, and carries its own version counter that only moves
    when an update's affected set holds one of its rows.

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


class ShardedSnapshotStore:
    """Versioned snapshots of a deployment — one store per shard.

    The only lineage format: the service writes and reads it at every
    shard count, a one-shard lineage being ``shard_plan.json`` plus ``shard-00/``.
    Layout of a snapshot directory::

        <directory>/
            shard_plan.json         # the lineage's base ShardPlan
            shard_plan-v*.json      # plan generations: the plan effective
                                    #   FROM that snapshot version on
            shard-00/               # a plain SnapshotStore per shard:
                index-v*.npz        #   the (global) diagonal index
                system-v*.npz       #   ONLY this shard's rows of the system
            shard-01/
            ...

    Every shard directory is a plain :class:`SnapshotStore`, so all its
    guarantees carry over unchanged: atomic writes, monotone versions,
    bounded retention.  A *consistent* sharded snapshot is a version present
    in **every** shard store; :meth:`versions` returns exactly those, so a
    crash that wrote only some shards rolls back to the last complete
    version on load.  The partial files are ignored by every load, replaced
    (never adopted) if a later save reuses their version number, and
    eventually dropped by retention pruning.

    **Plan generations.**  A live rebalance changes the shard plan without
    starting a new lineage: the save that first uses a new plan also writes
    ``shard_plan-v{version}.json``, and the plan *governing* a version is
    the newest generation at or before it (the base ``shard_plan.json``
    when none is).  The shard *count* stays immutable per directory — only
    the node-to-shard assignment migrates — so the consistency intersection
    is well-defined across generations.  A version whose governing plan
    file is corrupt is excluded from :meth:`versions`, rolling loads back
    to the last version with a readable plan; the per-shard system blocks
    sum to the same full system under any plan, so a rollback (or a crash
    between the plan write and the shard writes) can never change answers,
    only which placement serves them.
    """

    PLAN_FILE = "shard_plan.json"
    _PLAN_PATTERN = re.compile(r"^shard_plan-v(\d{8})\.json$")

    def __init__(self, directory: PathLike, retain: int = 5) -> None:
        if retain < 1:
            raise CloudWalkerError(f"snapshot retention must be >= 1, got {retain}")
        self.directory = Path(directory)
        self.retain = retain

    # ------------------------------------------------------------------ #
    def shard_store(self, shard: int) -> SnapshotStore:
        """The plain :class:`SnapshotStore` of one shard."""
        return SnapshotStore(self.directory / f"shard-{shard:02d}",
                             retain=self.retain)

    def plan_path(self, version: int) -> Path:
        """Path of the plan-generation file effective from ``version`` on."""
        return self.directory / f"shard_plan-v{version:08d}.json"

    def plan_generation_versions(self) -> List[int]:
        """Snapshot versions at which a new plan generation took effect."""
        if not self.directory.exists():
            return []
        found = []
        for path in self.directory.iterdir():
            match = self._PLAN_PATTERN.match(path.name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found)

    def _governing_plan_path(self, version: int) -> Path:
        """File holding the plan that governs snapshot ``version``."""
        generations = [gen for gen in self.plan_generation_versions()
                       if gen <= version]
        if generations:
            return self.plan_path(max(generations))
        return self.directory / self.PLAN_FILE

    def _load_plan_file(self, path: Path) -> ShardPlan:
        try:
            return ShardPlan.from_dict(json.loads(path.read_text(encoding="utf-8")))
        except (OSError, ValueError, KeyError) as exc:
            raise CloudWalkerError(f"cannot load shard plan from {path}: {exc}") from exc

    def load_plan(self, version: Optional[int] = None) -> ShardPlan:
        """Load the :class:`ShardPlan` governing ``version``.

        Without a version: the plan governing the newest consistent
        snapshot, or the base plan for a store with no consistent version
        yet.  Raises :class:`~repro.errors.CloudWalkerError` when the
        governing plan file is absent or corrupt.
        """
        if version is None:
            version = self.latest_version()
            if version is None:
                return self._load_plan_file(self.directory / self.PLAN_FILE)
        return self._load_plan_file(self._governing_plan_path(version))

    def _save_plan(self, plan: ShardPlan, version: int) -> None:
        """Record ``plan`` as the one governing snapshots from ``version``.

        First save of the lineage writes the base ``shard_plan.json``.
        Later saves compare against the plan governing the versions
        *before* this one: an unchanged plan writes nothing (and removes a
        crashed save's same-version generation debris, which may describe
        a plan that was never adopted); a changed plan — a rebalance —
        writes a new generation file at ``version``.  The shard count is
        immutable per directory either way.
        """
        base = self.directory / self.PLAN_FILE

        def writer(handle) -> None:
            handle.write(json.dumps(plan.to_dict(), indent=2).encode("utf-8"))

        if not base.exists():
            self.directory.mkdir(parents=True, exist_ok=True)
            atomic_write(base, writer)
            return
        effective = self._load_plan_file(self._governing_plan_path(version - 1))
        if effective == plan:
            with contextlib.suppress(OSError):
                self.plan_path(version).unlink()
            return
        if effective.num_shards != plan.num_shards:
            raise CloudWalkerError(
                f"snapshot directory {self.directory} holds a "
                f"{effective.num_shards}-shard lineage; the shard count is "
                f"immutable per directory (got a {plan.num_shards}-shard "
                "plan) — re-shard into a fresh directory"
            )
        atomic_write(self.plan_path(version), writer)

    # ------------------------------------------------------------------ #
    def versions(self) -> List[int]:
        """Versions present in *every* shard store (consistent snapshots).

        A version whose governing plan file does not load is excluded:
        a crash (or corruption) that damaged a new plan generation rolls
        the store back to the last version with a readable plan.  A
        directory holding a single-store lineage (``index-v*.npz`` at its
        root, the layout plain services wrote before every lineage became
        sharded) is refused, so no lineage starts next to it at v1.
        """
        plan_path = self.directory / self.PLAN_FILE
        if not plan_path.exists():
            legacy = SnapshotStore(self.directory)
            latest = legacy.latest_version()
            if latest is not None:
                raise CloudWalkerError(
                    f"{self.directory} holds a single-store snapshot lineage "
                    "(index-v*.npz at its root, without shard_plan.json), a "
                    "layout no longer read; migrate it into a new directory "
                    f"with 'snapshot save --dir NEW --index "
                    f"{legacy.index_path(latest)}'"
                )
            return []
        plan = self._load_plan_file(plan_path)
        common: Optional[set] = None
        for shard in range(plan.num_shards):
            present = set(self.shard_store(shard).versions())
            common = present if common is None else common & present
        return sorted(
            version for version in (common or ())
            if self._plan_loadable(version)
        )

    def _plan_loadable(self, version: int) -> bool:
        try:
            self._load_plan_file(self._governing_plan_path(version))
            return True
        except CloudWalkerError:
            return False

    def latest_version(self) -> Optional[int]:
        """Newest consistent version, or None for an empty store."""
        versions = self.versions()
        return versions[-1] if versions else None

    def save_snapshot(
        self,
        sharded: ShardedIndex,
        shard_systems: Optional[Sequence[Optional[sparse.spmatrix]]] = None,
        version: Optional[int] = None,
    ) -> int:
        """Persist one consistent sharded snapshot; returns its version.

        Writes the plan (the base file on the first save; a new
        generation file when the plan changed — a rebalance), then every
        shard's store: the global diagonal index plus, when
        ``shard_systems`` is given, that shard's system block.
        ``version`` defaults to ``latest + 1``.  The plan lands *before*
        the shard files on purpose: a crash in between leaves ``version``
        inconsistent, so loads roll back to the previous version under its
        own plan and the orphaned generation is replaced (or removed) by
        the next save.  A shard already holding ``version`` is skipped
        only when that version is *consistent* (present in every shard) —
        a genuine re-save no-op.  A shard file at ``version`` that is not
        consistent is the debris of a crashed earlier save and may
        describe different data, so it is replaced, never adopted into the
        new snapshot.
        """
        consistent = set(self.versions())
        if version is None:
            version = (max(consistent) if consistent else 0) + 1
        self._save_plan(sharded.plan, version)
        for shard in range(sharded.num_shards):
            store = self.shard_store(shard)
            if store.latest_version() == version:
                if version in consistent:
                    continue
                with contextlib.suppress(OSError):
                    store.index_path(version).unlink()
                with contextlib.suppress(OSError):
                    store.system_path(version).unlink()
            system = shard_systems[shard] if shard_systems is not None else None
            store.save_snapshot(sharded.index, system=system, version=version)
        return version

    def load(
        self, version: Optional[int] = None
    ) -> Tuple[int, ShardedIndex, Optional[sparse.csr_matrix]]:
        """Load a consistent snapshot as ``(version, sharded_index, system)``.

        ``version`` defaults to the newest consistent one.  The plan is
        the one *governing* that version (a lineage that rebalanced loads
        older versions under their original plan).  The returned system is
        the gather (sum) of the per-shard blocks — bitwise-equal to the
        system the writing service maintained — or None when any shard
        was saved without its block (callers then re-estimate, just like
        attaching to a plain index file).
        """
        if version is None:
            version = self.latest_version()
            if version is None:
                raise CloudWalkerError(
                    f"no consistent sharded snapshots found in {self.directory}"
                )
        elif version not in self.versions():
            raise CloudWalkerError(
                f"version {version} is not a consistent snapshot in "
                f"{self.directory} (have {self.versions()})"
            )
        plan = self.load_plan(version)
        index = self.shard_store(0).load(version)
        system: Optional[sparse.csr_matrix] = None
        blocks: List[sparse.csr_matrix] = []
        for shard in range(plan.num_shards):
            block = self.shard_store(shard).load_system(version)
            if block is None:
                blocks = []
                break
            blocks.append(block)
        if blocks:
            system = blocks[0]
            for block in blocks[1:]:
                system = system + block
            system = system.tocsr()
            system.eliminate_zeros()
            system.sort_indices()
        sharded = ShardedIndex(index=index, plan=plan,
                               shard_versions=[version] * plan.num_shards)
        return version, sharded, system

    def describe(self, version: int) -> Dict[str, Any]:
        """Cheap metadata of one consistent version, without loading it.

        Graph sizes come from shard 0 (every shard stores the same
        diagonal); ``systems`` counts the shards that saved their system
        block — fewer than ``num_shards`` means :meth:`load` returns no
        system and the first update estimates it once.
        """
        plan = self.load_plan(version)
        infos = [self.shard_store(shard).describe(version)
                 for shard in range(plan.num_shards)]
        return {
            "n_nodes": infos[0]["n_nodes"],
            "n_edges": infos[0]["n_edges"],
            "num_shards": plan.num_shards,
            "systems": sum(1 for info in infos if info["has_system"]),
        }

    def prune(self, retain: Optional[int] = None) -> List[int]:
        """Prune every shard store to the newest ``retain`` versions.

        Returns the consistent versions removed.  Plan-generation files
        that no longer govern any remaining version are removed with the
        snapshots that needed them; the base plan and any generation newer
        than the newest consistent version (an in-flight save) are always
        kept.
        """
        before = self.versions()
        base = self.directory / self.PLAN_FILE
        if not base.exists():
            return []
        plan = self._load_plan_file(base)
        for shard in range(plan.num_shards):
            self.shard_store(shard).prune(retain)
        remaining = self.versions()
        generations = self.plan_generation_versions()
        governing = set()
        for version in remaining:
            effective = [gen for gen in generations if gen <= version]
            if effective:
                governing.add(max(effective))
        for gen in generations:
            if gen not in governing and remaining and gen <= max(remaining):
                with contextlib.suppress(OSError):
                    self.plan_path(gen).unlink()
        return [version for version in before if version not in remaining]

    def __repr__(self) -> str:
        return (
            f"ShardedSnapshotStore(directory={str(self.directory)!r}, "
            f"versions={self.versions()}, retain={self.retain})"
        )
