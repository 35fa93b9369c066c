"""Exception hierarchy for the CloudWalker reproduction.

All exceptions raised deliberately by this package derive from
:class:`CloudWalkerError` so callers can catch package-level failures with a
single ``except`` clause while letting genuine programming errors propagate.
"""

from __future__ import annotations


class CloudWalkerError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class ConfigurationError(CloudWalkerError):
    """Raised when parameters are inconsistent or out of their valid range."""


class GraphFormatError(CloudWalkerError):
    """Raised when an edge list / graph file cannot be parsed."""


class WireFormatError(CloudWalkerError, ValueError):
    """Raised when a wire line (CLI or HTTP) cannot be parsed.

    Covers the textual protocols shared by the ``serve`` REPL, the batch
    files and the HTTP/JSON tier: query lines (``pair i j``, ``source i``,
    ``topk i [k]``) and edge lines (``<src> <dst>``).  The message always
    names the offending input verbatim, so a client reading a 400 response
    (or an operator reading the REPL echo) can see *which* line was bad,
    not just why.  Subclasses :class:`ValueError` so protocol code can
    catch wire-validation failures with a plain ``except ValueError``
    while package-level ``except CloudWalkerError`` handlers keep working.
    """


class ServiceOverloadedError(CloudWalkerError):
    """Raised when the serving tier refuses work to protect itself.

    The HTTP tier's admission control maps this to backpressure status
    codes: a query submitted past ``ServiceParams.max_in_flight`` (503 —
    the serve pool is saturated) or an update past the pending-edge bound
    (429 — the update queue is saturated).  Clients should retry with
    backoff; nothing about the service is broken.
    """

    def __init__(self, what: str, current: int, bound: int) -> None:
        super().__init__(
            f"{what}: {current} in flight >= bound {bound}; retry with backoff"
        )
        self.what = what
        self.current = current
        self.bound = bound


class NodeNotFoundError(CloudWalkerError, KeyError):
    """Raised when a query references a node id outside the graph."""

    def __init__(self, node: int, n_nodes: int) -> None:
        super().__init__(
            f"node {node!r} is not a valid node id (graph has {n_nodes} nodes, "
            f"valid ids are 0..{n_nodes - 1})"
        )
        self.node = node
        self.n_nodes = n_nodes


class IndexNotBuiltError(CloudWalkerError):
    """Raised when an online query is issued before the offline index exists."""

    def __init__(self, operation: str = "query") -> None:
        super().__init__(
            f"cannot run {operation}: the diagonal index has not been built yet; "
            "call build_index() first"
        )
        self.operation = operation


class EngineError(CloudWalkerError):
    """Base class for failures inside the cluster-computing engine."""


class JobExecutionError(EngineError):
    """Raised when a task inside an engine job fails.

    The original exception is chained (``raise ... from exc``) and also kept
    on :attr:`cause` for programmatic inspection.
    """

    def __init__(self, stage: str, partition: int, cause: BaseException) -> None:
        super().__init__(
            f"task failed in stage {stage!r}, partition {partition}: {cause!r}"
        )
        self.stage = stage
        self.partition = partition
        self.cause = cause


class CapacityExceededError(EngineError):
    """Raised by the cluster cost model when a plan does not fit the cluster.

    The broadcasting execution model requires the whole graph to fit in a
    single executor's memory; when it does not, this error is raised so the
    caller can fall back to the RDD model (mirroring the paper's motivation
    for having both).
    """

    def __init__(self, required_bytes: float, available_bytes: float, what: str) -> None:
        super().__init__(
            f"{what} requires {required_bytes / 1e9:.2f} GB but only "
            f"{available_bytes / 1e9:.2f} GB are available per executor"
        )
        self.required_bytes = required_bytes
        self.available_bytes = available_bytes
        self.what = what


class SolverError(CloudWalkerError):
    """Raised when the linear-system solver cannot make progress."""


class DatasetNotFoundError(CloudWalkerError, KeyError):
    """Raised when an unknown dataset name is requested from the registry."""

    def __init__(self, name: str, available: list[str]) -> None:
        super().__init__(
            f"unknown dataset {name!r}; available datasets: {', '.join(sorted(available))}"
        )
        self.name = name
        self.available = list(available)


class StreamDerivationError(CloudWalkerError):
    """Raised when the walk kernel's random streams would differ from NumPy's.

    The kernel derives the PCG64 state of every ``(seed, source)`` stream
    itself (:mod:`repro.core.streams`) instead of building one
    ``SeedSequence`` per source; every row, answer and pinned checksum rests
    on that derivation matching :func:`repro.core.walks.make_rng`.  It is
    checked once per process and seed, and a mismatch — a NumPy release
    that changed its seeding — stops the kernel rather than silently
    producing different walks.
    """

    def __init__(self, seed: int, stream: int, numpy_version: str) -> None:
        super().__init__(
            f"derived PCG64 state of stream {stream} under seed {seed} differs "
            f"from make_rng's with NumPy {numpy_version}; the kernel's stream "
            "derivation must be updated to this NumPy's SeedSequence seeding"
        )
        self.seed = seed
        self.stream = stream
        self.numpy_version = numpy_version
