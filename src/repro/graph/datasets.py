"""Dataset registry: laptop-scale stand-ins for the paper's evaluation graphs.

The paper evaluates on five real graphs:

=============  ==========  ==========  =========
dataset        nodes       edges       size
=============  ==========  ==========  =========
wiki-vote      7.1 K       103 K       476.8 KB
wiki-talk      2.4 M       5 M         45.6 MB
twitter-2010   42 M        1.5 B       11.4 GB
uk-union       131 M       5.5 B       48.3 GB
clue-web       1 B         42.6 B      401.1 GB
=============  ==========  ==========  =========

Those graphs are proprietary crawls or SNAP downloads far beyond a laptop, so
this module registers deterministic synthetic stand-ins whose *relative*
sizes preserve the ordering (each dataset is several times larger than the
previous one) and whose in-degree skew matches web/social graphs.  Benchmarks
that sweep "the paper's datasets" iterate this registry; the scaling factors
are recorded so EXPERIMENTS.md can relate stand-in results to the paper's
tables.

Each entry also carries the paper's original statistics so the dataset table
(T1) can print both columns side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import DatasetNotFoundError
from repro.graph import generators
from repro.graph.digraph import DiGraph


@dataclass(frozen=True)
class PaperStats:
    """The statistics the paper reports for the original dataset."""

    nodes: float
    edges: float
    size_bytes: float

    @property
    def human_nodes(self) -> str:
        return _human_count(self.nodes)

    @property
    def human_edges(self) -> str:
        return _human_count(self.edges)

    @property
    def human_size(self) -> str:
        return _human_bytes(self.size_bytes)


@dataclass(frozen=True)
class DatasetSpec:
    """A registered dataset stand-in.

    Attributes
    ----------
    name:
        Registry key, e.g. ``"wiki-vote"``.
    description:
        What the original dataset is and what the stand-in preserves.
    paper:
        The original statistics from the paper's dataset table.
    builder:
        Zero-argument callable producing the stand-in :class:`DiGraph`.
    default_seed:
        Seed baked into ``builder`` (recorded for provenance).
    tier:
        ``"small"``, ``"medium"`` or ``"large"`` — benchmarks use tiers to
        decide which baselines are feasible on which datasets, mirroring the
        N/A and '-' cells of the paper's comparison table.
    """

    name: str
    description: str
    paper: PaperStats
    builder: Callable[[], DiGraph]
    default_seed: int
    tier: str


def _human_count(value: float) -> str:
    for unit, scale in (("B", 1e9), ("M", 1e6), ("K", 1e3)):
        if value >= scale:
            return f"{value / scale:.1f}{unit}"
    return f"{value:.0f}"


def _human_bytes(value: float) -> str:
    for unit, scale in (("GB", 1e9), ("MB", 1e6), ("KB", 1e3)):
        if value >= scale:
            return f"{value / scale:.1f}{unit}"
    return f"{value:.0f}B"


_REGISTRY: Dict[str, DatasetSpec] = {}


def _register(spec: DatasetSpec) -> DatasetSpec:
    _REGISTRY[spec.name] = spec
    return spec


def names() -> List[str]:
    """Names of all registered datasets, in paper order then extras."""
    return list(_REGISTRY)


def get(name: str) -> DatasetSpec:
    """Return the spec registered under ``name``.

    Raises
    ------
    DatasetNotFoundError
        If no dataset with that name exists.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise DatasetNotFoundError(name, list(_REGISTRY)) from None


def load(name: str) -> DiGraph:
    """Build and return the stand-in graph registered under ``name``."""
    return get(name).builder()


def iter_paper_datasets(max_tier: str = "large") -> Iterator[DatasetSpec]:
    """Iterate the five paper datasets, optionally truncated by tier.

    ``max_tier="small"`` yields only wiki-vote; ``"medium"`` adds wiki-talk
    and twitter-2010; ``"large"`` yields all five.
    """
    order = {"small": 0, "medium": 1, "large": 2}
    if max_tier not in order:
        raise DatasetNotFoundError(max_tier, list(order))
    limit = order[max_tier]
    for name in PAPER_DATASET_NAMES:
        spec = get(name)
        if order[spec.tier] <= limit:
            yield spec


# --------------------------------------------------------------------------- #
# Paper dataset stand-ins.
#
# Stand-in sizes keep the relative ordering of the originals while remaining
# laptop-friendly: each successive dataset is roughly 3-6x larger than the
# previous one (the originals grow 10-50x per step, which would not fit the
# time budget of a pure-Python benchmark run).
# --------------------------------------------------------------------------- #
PAPER_DATASET_NAMES: Tuple[str, ...] = (
    "wiki-vote",
    "wiki-talk",
    "twitter-2010",
    "uk-union",
    "clue-web",
)

_register(
    DatasetSpec(
        name="wiki-vote",
        description=(
            "Stand-in for SNAP wiki-Vote (7.1K nodes / 103K edges): small, "
            "dense voting graph; preferential-attachment stand-in with "
            "comparable average degree."
        ),
        paper=PaperStats(nodes=7.1e3, edges=103e3, size_bytes=476.8e3),
        builder=lambda: generators.preferential_attachment_graph(
            n=500, out_degree=10, seed=101, name="wiki-vote"
        ),
        default_seed=101,
        tier="small",
    )
)

_register(
    DatasetSpec(
        name="wiki-talk",
        description=(
            "Stand-in for wiki-Talk (2.4M nodes / 5M edges): sparse "
            "communication graph with many low-in-degree nodes; power-law "
            "stand-in with average degree ~2."
        ),
        paper=PaperStats(nodes=2.4e6, edges=5e6, size_bytes=45.6e6),
        builder=lambda: generators.power_law_graph(
            n=2_400, avg_degree=2.5, exponent=2.3, seed=102, name="wiki-talk"
        ),
        default_seed=102,
        tier="small",
    )
)

_register(
    DatasetSpec(
        name="twitter-2010",
        description=(
            "Stand-in for twitter-2010 (42M nodes / 1.5B edges): follower "
            "graph with heavy in-degree skew; power-law stand-in with "
            "average degree ~36."
        ),
        paper=PaperStats(nodes=42e6, edges=1.5e9, size_bytes=11.4e9),
        builder=lambda: generators.power_law_graph(
            n=8_000, avg_degree=36.0, exponent=2.0, seed=103, name="twitter-2010"
        ),
        default_seed=103,
        tier="medium",
    )
)

_register(
    DatasetSpec(
        name="uk-union",
        description=(
            "Stand-in for uk-union web crawl (131M nodes / 5.5B edges): "
            "web graph with locally dense host-level structure; copying-model "
            "stand-in with average degree ~42."
        ),
        paper=PaperStats(nodes=131e6, edges=5.5e9, size_bytes=48.3e9),
        builder=lambda: generators.copying_model_graph(
            n=12_000, out_degree=42, copy_prob=0.6, seed=104, name="uk-union"
        ),
        default_seed=104,
        tier="medium",
    )
)

_register(
    DatasetSpec(
        name="clue-web",
        description=(
            "Stand-in for clue-web (1B nodes / 42.6B edges), the largest "
            "graph the paper indexes (10x larger than any prior SimRank "
            "result): copying-model stand-in, the largest graph in this "
            "registry."
        ),
        paper=PaperStats(nodes=1e9, edges=42.6e9, size_bytes=401.1e9),
        builder=lambda: generators.copying_model_graph(
            n=25_000, out_degree=43, copy_prob=0.55, seed=105, name="clue-web"
        ),
        default_seed=105,
        tier="large",
    )
)

# Extra, non-paper datasets used by examples and effectiveness benchmarks.
_register(
    DatasetSpec(
        name="communities",
        description=(
            "Planted-partition graph with 8 communities of 40 nodes; "
            "ground truth for the effectiveness benchmark (F3)."
        ),
        paper=PaperStats(nodes=320, edges=0, size_bytes=0),
        builder=lambda: generators.community_graph(
            n_communities=8, community_size=40, p_in=0.25, p_out=0.01,
            seed=106, name="communities",
        ),
        default_seed=106,
        tier="small",
    )
)

_register(
    DatasetSpec(
        name="citations",
        description=(
            "Copying-model citation-style graph used by the recommendation "
            "and link-prediction examples."
        ),
        paper=PaperStats(nodes=1_500, edges=0, size_bytes=0),
        builder=lambda: generators.copying_model_graph(
            n=1_500, out_degree=10, copy_prob=0.5, seed=107, name="citations"
        ),
        default_seed=107,
        tier="small",
    )
)


def scaling_factor(name: str, graph: Optional[DiGraph] = None) -> float:
    """Return (paper edge count) / (stand-in edge count) for a paper dataset.

    Benchmarks report this factor next to measured times so readers can see
    how far the stand-in is from the original.
    """
    spec = get(name)
    stand_in = graph if graph is not None else spec.builder()
    if stand_in.n_edges == 0 or spec.paper.edges == 0:
        return float("nan")
    return spec.paper.edges / stand_in.n_edges
