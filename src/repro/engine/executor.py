"""Local execution backends for engine tasks.

A *task* is a zero-argument callable.  The index maintainer's row
estimation and the service's cache-miss scatter hand a backend a list of
tasks; the backend returns their results in order.  Two backends are provided, named
in :data:`BACKENDS` — the one list the config validators and the CLI's
``choices`` read:

``SerialBackend``
    Runs tasks in the calling thread.  Deterministic, easiest to debug, and
    the default: the walks hold the GIL, so a thread pool never beat it
    (``ROADMAP.md`` item 15(a)) and there is none.
``ProcessBackend``
    A ``ProcessPoolExecutor``; requires tasks (and the data they close over)
    to be picklable, so it is opt-in.

Pooled backends hold their workers **across** ``run`` calls, so a service
that scatters work per query batch pays the pool spin-up once, not per
batch.  The flip side is an explicit lifecycle: owners must call
:meth:`ExecutorBackend.close` (or use the backend as a context manager)
when done — the query services, the CLI and the benchmarks all do.  A
closed backend is safe to reuse: the next ``run`` transparently recreates
the pool.

Resident objects
----------------
Backends also carry a **resident object registry**: large read-mostly
objects (the served graph) are registered once per pool
epoch via :meth:`ExecutorBackend.ensure_resident` and subsequent tasks
ship only a small :class:`ResidentHandle` instead of the object itself.
Tasks call :func:`resolve_resident` to get the object back:

* ``SerialBackend`` tasks run in the registering process, so the
  handle simply carries the object reference — zero
  copies, zero serialisation, and the exact same task code as the
  process path;
* ``ProcessBackend`` exports the object's arrays into one
  ``multiprocessing.shared_memory`` segment at registration time; each
  worker attaches the segment **once**, reconstructs the object as
  zero-copy NumPy views over the shared buffer, and caches it for every
  later task carrying the same handle.  Scatter payloads therefore stay
  O(per-task arguments) instead of O(object), regardless of batch rate.

Registration is identity-keyed: ``ensure_resident(key, obj)`` reuses the
existing registration while ``obj`` is the same object, and re-registers
(bumping the handle's epoch and releasing the old segment) when the owner
swaps the object — which is exactly what a live graph update does.
:meth:`ExecutorBackend.shutdown` (and therefore ``close`` and the
broken-pool recovery path) releases every resident registration, so
shared-memory segments can never outlive their pool's owner; a later
``ensure_resident`` transparently re-exports.

Objects that define ``resident_export()`` / ``resident_restore()`` (see
:class:`repro.graph.digraph.DiGraph`) are exported as raw arrays and
restored zero-copy; any other picklable object falls back to a pickled
blob in shared memory, still materialised once per worker per epoch.
"""

from __future__ import annotations

import itertools
import os
import pickle
import threading
from collections import OrderedDict
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.errors import ConfigurationError

T = TypeVar("T")
Task = Callable[[], T]

#: Per-worker cache of attached shared-memory residents, keyed by token.
#: Bounded: residency epochs (live updates) retire old tokens, and keeping
#: every historical segment mapped would leak worker memory.
_ATTACHED_RESIDENTS: "OrderedDict[str, Tuple[Any, Any]]" = OrderedDict()
_ATTACHED_CAPACITY = 4

_TOKEN_COUNTER = itertools.count(1)


@dataclass(frozen=True)
class _ArraySpec:
    """Placement of one exported array inside a shared-memory segment."""

    dtype: str
    shape: Tuple[int, ...]
    offset: int


@dataclass(frozen=True)
class ResidentHandle:
    """A small, picklable reference to a registered resident object.

    This is what scatter tasks close over instead of the object itself:
    a token (unique per registration, so a re-registered graph can never
    be confused with its predecessor), and — for the shared-memory kind —
    the segment name, the array layout and a pickled restore recipe.
    Resolve with :func:`resolve_resident`.

    Attributes
    ----------
    token:
        Globally unique registration id (key, epoch and registering pid).
    kind:
        ``"local"`` (in-process table) or ``"shm"`` (shared memory).
    epoch:
        Registration generation of the key on its backend; bumped every
        time the owner swaps the object (e.g. after ``add_edges``).
    shm_name:
        Shared-memory segment name (``"shm"`` kind only).
    arrays:
        Layout of the exported arrays inside the segment.
    meta:
        Pickled ``(restore_cls, meta_dict)`` recipe; ``restore_cls`` is
        ``None`` for the pickled-blob fallback.
    """

    token: str
    kind: str
    epoch: int = 0
    shm_name: Optional[str] = None
    arrays: Tuple[_ArraySpec, ...] = ()
    meta: bytes = b""
    obj: Any = None
    """The object itself (``"local"`` kind only).  A local handle carries
    its object directly — tasks run in the registering process, so the
    reference costs nothing, and the object's lifetime follows ordinary
    garbage collection (no process-global registry to leak into when a
    backend is dropped without ``close``)."""


def _attach_shared_memory(name: str):
    """Attach an existing segment without resource-tracker double-counting.

    Python 3.13+ supports ``track=False`` (an attach does not own the
    segment, so it must not be tracked for cleanup); older versions attach
    normally, which is clean under the default ``fork`` start method
    (parent and workers share one resource tracker, and the owner's
    ``unlink`` unregisters the name exactly once).
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - depends on Python version
        return shared_memory.SharedMemory(name=name)


def resolve_resident(handle: ResidentHandle) -> Any:
    """Return the object a :class:`ResidentHandle` refers to.

    Callable from anywhere a task runs: the registering process (serial
    backend — the handle carries the reference) or a pool worker
    (process backend — attaches the shared-memory segment on first use,
    restores the object as zero-copy views, and serves every later task
    for the same token from a per-worker cache).
    """
    if handle.kind == "local":
        return handle.obj
    cached = _ATTACHED_RESIDENTS.get(handle.token)
    if cached is not None:
        _ATTACHED_RESIDENTS.move_to_end(handle.token)
        return cached[0]
    shm = _attach_shared_memory(handle.shm_name)
    views = [
        np.ndarray(spec.shape, dtype=np.dtype(spec.dtype),
                   buffer=shm.buf, offset=spec.offset)
        for spec in handle.arrays
    ]
    restore_cls, meta = pickle.loads(handle.meta)
    if restore_cls is None:
        obj = pickle.loads(views[0].tobytes())
    else:
        obj = restore_cls.resident_restore(meta, views)
    _ATTACHED_RESIDENTS[handle.token] = (obj, shm)
    while len(_ATTACHED_RESIDENTS) > _ATTACHED_CAPACITY:
        _token, (_old, old_shm) = _ATTACHED_RESIDENTS.popitem(last=False)
        try:
            old_shm.close()
        except BufferError:  # views still referenced somewhere; GC will reap
            pass
    return obj


class ExecutorBackend:
    """Interface: run a batch of tasks and return their results in order.

    ``max_workers`` is how many tasks it runs at once; callers split work
    into at most that many tasks.
    """

    name = "abstract"
    max_workers: int

    def __init__(self) -> None:
        # key -> (object, handle, backend-specific resources)
        self._residents: Dict[str, Tuple[Any, ResidentHandle, Any]] = {}
        self._resident_epochs: Dict[str, int] = {}
        self._resident_lock = threading.Lock()

    def run(self, tasks: Sequence[Task]) -> List[T]:
        """Execute ``tasks`` and return their results, input-ordered."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Resident object registry
    # ------------------------------------------------------------------ #
    def ensure_resident(self, key: str, obj: Any) -> ResidentHandle:
        """Register ``obj`` under ``key`` (idempotent per object identity).

        Returns the handle tasks should close over.  While the caller keeps
        passing the *same* object the existing registration (and its
        worker-side materialisations) are reused; passing a different
        object — a post-update graph — releases the old registration and
        starts a new epoch.  Cheap enough to call on every scatter.
        """
        with self._resident_lock:
            entry = self._residents.get(key)
            if entry is not None and entry[0] is obj:
                return entry[1]
            if entry is not None:
                self._release_resident(entry)
            epoch = self._resident_epochs.get(key, 0) + 1
            self._resident_epochs[key] = epoch
            token = f"{key}/{epoch}/{os.getpid()}/{next(_TOKEN_COUNTER)}"
            handle, resources = self._register_resident(token, epoch, obj)
            self._residents[key] = (obj, handle, resources)
            return handle

    def resident_handle(self, key: str) -> Optional[ResidentHandle]:
        """The current handle registered under ``key`` (None if absent)."""
        with self._resident_lock:
            entry = self._residents.get(key)
            return entry[1] if entry is not None else None

    def release_residents(self) -> None:
        """Release every resident registration (shared memory included).

        Safe to call repeatedly and with broken pools: releasing is a
        parent-side operation (drop the table entry, unlink the segment)
        that never talks to workers.  Workers still holding an attached
        segment keep their mapping until they exit — unlink only removes
        the name — so in-flight tasks cannot crash.
        """
        with self._resident_lock:
            entries = list(self._residents.values())
            self._residents.clear()
        for entry in entries:
            self._release_resident(entry)

    def _register_resident(
        self, token: str, epoch: int, obj: Any
    ) -> Tuple[ResidentHandle, Any]:
        """Default (in-process) registration: tasks run where we run.

        The handle carries the object reference itself, so nothing is
        registered globally and nothing can leak: dropping the backend
        (with or without ``close``) drops the last owning reference, and
        outstanding handles keep the object alive exactly as long as they
        themselves are reachable.
        """
        return ResidentHandle(token=token, kind="local", epoch=epoch,
                              obj=obj), None

    def _release_resident(self, entry: Tuple[Any, ResidentHandle, Any]) -> None:
        """Nothing to free for local residents (plain references)."""

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def shutdown(self) -> None:
        """Release pooled resources and resident registrations."""
        self.release_residents()

    def close(self) -> None:
        """Alias of :meth:`shutdown`, matching the context-manager exit.

        Owners of pooled backends (services, CLI loops, benchmarks) call
        this when they stop scattering work; a closed backend recreates its
        pool on the next :meth:`run` — and re-registers residents on the
        next :meth:`ensure_resident` — so closing is never destructive.
        """
        self.shutdown()

    def __enter__(self) -> "ExecutorBackend":
        """Context-manager entry: the backend itself."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: release pooled workers."""
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialBackend(ExecutorBackend):
    """Run every task sequentially in the calling thread."""

    name = "serial"
    max_workers = 1

    def run(self, tasks: Sequence[Task]) -> List[T]:
        """Call each task in order; no pool, no concurrency."""
        return [task() for task in tasks]


class ProcessBackend(ExecutorBackend):
    """Run tasks on a persistent process pool (tasks must be picklable).

    The pool is created on first :meth:`run` and kept until
    :meth:`shutdown` — scattering per query batch through worker processes
    would otherwise pay a fork per batch.  Owners that forget to close
    leak workers until process exit, which is why every service exposes
    ``close()`` and the CLI paths run inside ``try/finally``.

    Attributes
    ----------
    last_payload_bytes:
        Pickled size of each task of the most recent :meth:`run`, in
        submission order.  A free by-product of the fail-fast picklability
        check; the payload regression tests read it to prove scatter
        payloads stay O(arguments) once the graph is resident.
    total_payload_bytes:
        Cumulative pickled task bytes across every ``run`` of this
        backend's lifetime.
    """

    name = "processes"

    last_payload_bytes: List[int]
    total_payload_bytes: int

    def __init__(self, max_workers: int = 2) -> None:
        super().__init__()
        if max_workers < 1:
            raise ConfigurationError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_lock = threading.Lock()
        self.last_payload_bytes: List[int] = []
        self.total_payload_bytes = 0

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
            return self._pool

    def _payload_check(self, tasks: Sequence[Task]) -> List[int]:
        """Pickle every task (fail-fast) and return the payload sizes.

        Submitting an unpicklable task would only surface as an opaque
        PicklingError from a worker future; pickling here yields an early,
        named diagnostic — and the blob sizes double as the scatter-payload
        instrumentation the residency tests and benchmarks assert on.
        """
        sizes: List[int] = []
        for position, task in enumerate(tasks):
            try:
                sizes.append(len(pickle.dumps(task)))
            except Exception as exc:
                raise ConfigurationError(
                    f"task {position} of {len(tasks)} cannot be sent to the "
                    f"process backend because it is not picklable ({exc}); "
                    "use module-level functions instead of closures or "
                    "lambdas, or switch to the 'serial' backend"
                ) from exc
        return sizes

    def _record_payload(self, sizes: List[int]) -> None:
        """Publish one run's payload sizes (locked: runs may be concurrent)."""
        with self._pool_lock:
            self.last_payload_bytes = sizes
            self.total_payload_bytes += sum(sizes)

    def run(self, tasks: Sequence[Task]) -> List[T]:
        """Pickle-check, submit and gather; results keep the input order."""
        self._record_payload(self._payload_check(tasks))
        pool = self._ensure_pool()
        try:
            futures = [pool.submit(_call, task) for task in tasks]
            return [future.result() for future in futures]
        except BrokenExecutor:
            # A dead worker (OOM kill, signal) permanently breaks a
            # ProcessPoolExecutor.  Discard it so the *next* run re-forks a
            # healthy pool instead of re-raising BrokenProcessPool forever;
            # the caller still sees this batch's failure.  shutdown() also
            # releases resident shared memory — a broken pool must never
            # pin segments (the owner re-registers against the fresh pool).
            self.shutdown()
            raise

    def shutdown(self) -> None:
        """Terminate the worker processes; the next ``run`` re-forks them."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        super().shutdown()

    # ------------------------------------------------------------------ #
    # Shared-memory residency
    # ------------------------------------------------------------------ #
    def _register_resident(
        self, token: str, epoch: int, obj: Any
    ) -> Tuple[ResidentHandle, Any]:
        """Export ``obj`` into one shared-memory segment.

        Objects implementing the residency protocol (``resident_export``
        returning ``(meta_dict, [arrays])`` plus a ``resident_restore``
        classmethod) are laid out as raw arrays and restored zero-copy in
        the workers; anything else is pickled into the segment and
        unpickled once per worker.
        """
        from multiprocessing import shared_memory

        if hasattr(obj, "resident_export"):
            meta_dict, source_arrays = obj.resident_export()
            restore_cls: Optional[type] = type(obj)
        else:
            blob = np.frombuffer(pickle.dumps(obj), dtype=np.uint8)
            meta_dict, source_arrays = {}, [blob]
            restore_cls = None
        arrays = [np.ascontiguousarray(array) for array in source_arrays]
        specs: List[_ArraySpec] = []
        offset = 0
        for array in arrays:
            # Align every array to its itemsize so the worker-side views
            # are valid regardless of the preceding arrays' dtypes.
            itemsize = array.dtype.itemsize
            offset = -(-offset // itemsize) * itemsize
            specs.append(_ArraySpec(dtype=array.dtype.str,
                                    shape=tuple(array.shape), offset=offset))
            offset += array.nbytes
        shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        for spec, array in zip(specs, arrays):
            view = np.ndarray(array.shape, dtype=array.dtype,
                              buffer=shm.buf, offset=spec.offset)
            view[...] = array
            del view  # release the exported buffer so close() stays legal
        handle = ResidentHandle(
            token=token, kind="shm", epoch=epoch, shm_name=shm.name,
            arrays=tuple(specs), meta=pickle.dumps((restore_cls, meta_dict)),
        )
        return handle, shm

    def _release_resident(self, entry: Tuple[Any, ResidentHandle, Any]) -> None:
        shm = entry[2]
        if shm is None:
            return
        try:
            shm.close()
        except BufferError:  # pragma: no cover - a live view in this process
            pass
        try:
            shm.unlink()
        except FileNotFoundError:  # already unlinked (double release)
            pass


def _call(task: Task) -> T:
    return task()


BACKENDS = (SerialBackend.name, ProcessBackend.name)
"""Every backend name a config field or a CLI flag accepts."""


def check_backend(name: str, field: str = "backend") -> None:
    """Raise :class:`ConfigurationError` unless ``name`` is in :data:`BACKENDS`."""
    if name not in BACKENDS:
        raise ConfigurationError(
            f"{field} must be one of {BACKENDS}, got {name!r}")


def make_backend(name: str, max_workers: int = 4) -> ExecutorBackend:
    """The backend ``name`` names; ``max_workers`` bounds a process pool."""
    check_backend(name)
    if name == ProcessBackend.name:
        return ProcessBackend(max_workers=max_workers)
    return SerialBackend()
