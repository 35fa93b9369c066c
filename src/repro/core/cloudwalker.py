"""The CloudWalker facade — the package's main entry point.

``CloudWalker`` ties the whole pipeline together: pick an execution model,
build (or load) the diagonal index, then answer single-pair, single-source,
top-k and all-pairs queries.

Example
-------
>>> from repro import CloudWalker, SimRankParams
>>> from repro.graph import generators
>>> graph = generators.copying_model_graph(300, out_degree=6, seed=1)
>>> cw = CloudWalker(graph, params=SimRankParams.fast_defaults())
>>> cw.build_index()                                        # doctest: +ELLIPSIS
DiagonalIndex(...)
>>> 0.0 <= cw.single_pair(3, 7) <= 1.0
True
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.config import ClusterSpec, SimRankParams
from repro.core.broadcast_impl import BroadcastingModel
from repro.core.diagonal import DiagonalEstimator
from repro.core.index import DiagonalIndex
from repro.core.queries import QueryEngine
from repro.core.rdd_impl import RDDModel
from repro.engine.context import ClusterContext
from repro.errors import ConfigurationError, IndexNotBuiltError
from repro.graph.digraph import DiGraph

PathLike = Union[str, os.PathLike]


class CloudWalker:
    """Parallel SimRank with offline diagonal indexing and online queries.

    Parameters
    ----------
    graph:
        The input directed graph (SimRank walks follow in-links).
    params:
        Algorithmic parameters; defaults to the paper's values
        (c=0.6, T=10, L=3, R=100, R'=10000).
    mode:
        Execution model for the offline phase:

        * ``"local"`` — single-process vectorised implementation (default;
          what a library user wants on one machine);
        * ``"broadcasting"`` — the paper's broadcast model, run through the
          cluster engine (the ``"local"`` index, byte for byte);
        * ``"rdd"`` — the paper's RDD model, run through the cluster engine
          (its own sampler: equal to ``"local"`` up to Monte-Carlo noise).
    context / cluster:
        Optional engine context and simulated cluster for the distributed
        modes.
    exact:
        Build the index from exact walk distributions instead of Monte-Carlo
        (small graphs only; useful for accuracy studies).
    """

    _MODES = ("local", "broadcasting", "rdd")

    def __init__(
        self,
        graph: DiGraph,
        params: Optional[SimRankParams] = None,
        mode: str = "local",
        context: Optional[ClusterContext] = None,
        cluster: Optional[ClusterSpec] = None,
        exact: bool = False,
    ) -> None:
        if mode not in self._MODES:
            raise ConfigurationError(
                f"mode must be one of {self._MODES}, got {mode!r}"
            )
        self.graph = graph
        self.params = params or SimRankParams.paper_defaults()
        self.mode = mode
        self.exact = exact
        self.index: Optional[DiagonalIndex] = None
        self._query_engine: Optional[QueryEngine] = None
        self._model: Optional[Union[BroadcastingModel, RDDModel]] = None
        if mode == "broadcasting":
            self._model = BroadcastingModel(
                graph, params=self.params, context=context, cluster=cluster
            )
        elif mode == "rdd":
            self._model = RDDModel(
                graph, params=self.params, context=context, cluster=cluster
            )

    # ------------------------------------------------------------------ #
    # Offline phase
    # ------------------------------------------------------------------ #
    def build_index(self, **kwargs) -> DiagonalIndex:
        """Build the diagonal index with the configured execution model."""
        if self.mode == "local":
            estimator = DiagonalEstimator(
                self.graph, params=self.params, exact=self.exact,
                solver=kwargs.pop("solver", "jacobi"),
            )
            self.index = estimator.build()
        else:
            assert self._model is not None
            self.index = self._model.build_index(**kwargs)
        self._query_engine = QueryEngine(self.graph, self.index, self.params)
        return self.index

    def set_index(self, index: DiagonalIndex) -> None:
        """Attach a previously built/loaded index."""
        index.validate_for(self.graph)
        self.index = index
        self._query_engine = QueryEngine(self.graph, index, self.params)

    def save_index(self, path: PathLike) -> None:
        """Persist the index to ``path`` (``.npz``)."""
        self._require_index()
        assert self.index is not None
        self.index.save(path)

    def load_index(self, path: PathLike) -> DiagonalIndex:
        """Load an index from ``path`` and attach it."""
        index = DiagonalIndex.load(path)
        self.set_index(index)
        return index

    @property
    def is_indexed(self) -> bool:
        """Whether an index is available for queries."""
        return self.index is not None

    def _require_index(self) -> QueryEngine:
        if self._query_engine is None:
            raise IndexNotBuiltError()
        return self._query_engine

    # ------------------------------------------------------------------ #
    # Online queries
    # ------------------------------------------------------------------ #
    def single_pair(self, node_i: int, node_j: int,
                    walkers: Optional[int] = None, exact: bool = False) -> float:
        """SimRank score of one node pair (MCSP)."""
        engine = self._require_index()
        if exact:
            return engine.exact_single_pair(node_i, node_j)
        return engine.single_pair(node_i, node_j, walkers=walkers)

    def single_source(self, node: int, walkers: Optional[int] = None,
                      exact: bool = False) -> np.ndarray:
        """SimRank scores of ``node`` against every node (MCSS)."""
        engine = self._require_index()
        if exact:
            return engine.exact_single_source(node)
        return engine.single_source(node, walkers=walkers)

    def top_k(self, node: int, k: int = 10,
              walkers: Optional[int] = None) -> List[Tuple[int, float]]:
        """The ``k`` nodes most similar to ``node`` (by MCSS scores)."""
        return self._require_index().top_k(node, k=k, walkers=walkers)

    def all_pairs(self, walkers: Optional[int] = None,
                  nodes: Optional[List[int]] = None) -> np.ndarray:
        """Full similarity matrix (MCAP); O(n^2) memory, small graphs only."""
        return self._require_index().all_pairs(walkers=walkers, nodes=nodes)

    # ------------------------------------------------------------------ #
    def query_engine(self) -> QueryEngine:
        """Direct access to the underlying :class:`QueryEngine`."""
        return self._require_index()

    def execution_model(self) -> Optional[Union[BroadcastingModel, RDDModel]]:
        """The distributed execution model, if one is configured."""
        return self._model

    def shutdown(self) -> None:
        """Release engine resources held by a distributed execution model."""
        if self._model is not None:
            self._model.shutdown()

    def __repr__(self) -> str:
        indexed = "indexed" if self.is_indexed else "not indexed"
        return (
            f"CloudWalker(graph={self.graph.name!r}, n_nodes={self.graph.n_nodes}, "
            f"mode={self.mode!r}, {indexed})"
        )
