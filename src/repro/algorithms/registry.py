"""Registry of runnable algorithms and their concrete :class:`Algorithm` wrappers.

The registry maps the names used in task parameters (``"cyclerank"``,
``"pagerank"``, ...) to :class:`~repro.algorithms.base.Algorithm` instances.
The seven algorithms of the paper are pre-registered; users add their own
with :func:`register_algorithm`, which is all it takes for a new algorithm to
become selectable from the task builder, the gateway API and the CLI.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..exceptions import AlgorithmNotFoundError, InvalidParameterError
from ..graph.digraph import DirectedGraph
from ..ranking.result import Ranking
from ..scoring import available_scoring_functions
from .base import Algorithm, AlgorithmSpec, ParameterSpec
from .cheirank import cheirank, personalized_cheirank, personalized_cheirank_batch
from .cyclerank import cyclerank, cyclerank_batch
from .hits import hits, personalized_hits, personalized_hits_batch
from .katz import katz_centrality, personalized_katz, personalized_katz_batch
from .pagerank import DEFAULT_TOL, pagerank
from .personalized_pagerank import personalized_pagerank, personalized_pagerank_batch
from .ppr_montecarlo import ppr_montecarlo, ppr_montecarlo_batch
from .ppr_push import ppr_push, ppr_push_batch
from .twodrank import combine_twodrank

__all__ = [
    "register_algorithm",
    "get_algorithm",
    "available_algorithms",
    "run_algorithm",
    "run_batch",
    "PAPER_ALGORITHMS",
]

_ALPHA_SPEC = ParameterSpec(
    name="alpha",
    kind="float",
    default=0.85,
    minimum=0.0,
    maximum=1.0,
    description="damping factor: probability of following an edge instead of teleporting",
)

_MAX_ITER_SPEC = ParameterSpec(
    name="max_iter",
    kind="int",
    default=1000,
    minimum=1,
    description="maximum number of power-iteration steps",
)


class _PageRankAlgorithm(Algorithm):
    """Global PageRank (registry name ``pagerank``)."""

    spec = AlgorithmSpec(
        name="pagerank",
        display_name="PageRank",
        personalized=False,
        parameters=(_ALPHA_SPEC, _MAX_ITER_SPEC),
        description="Global importance from incoming connections (random-surfer model).",
    )

    def _execute(self, graph: DirectedGraph, *, source, parameters) -> Ranking:
        return pagerank(graph, alpha=parameters["alpha"], max_iter=parameters["max_iter"])


class _PersonalizedPageRankAlgorithm(Algorithm):
    """Personalized PageRank (registry name ``personalized-pagerank``)."""

    spec = AlgorithmSpec(
        name="personalized-pagerank",
        display_name="Pers. PageRank",
        personalized=True,
        parameters=(_ALPHA_SPEC, _MAX_ITER_SPEC),
        description="PageRank whose teleport always returns to the reference node.",
    )

    def _execute(self, graph: DirectedGraph, *, source, parameters) -> Ranking:
        return personalized_pagerank(
            graph, source, alpha=parameters["alpha"], max_iter=parameters["max_iter"]
        )

    def _execute_batch(self, graph: DirectedGraph, *, sources, parameters) -> List[Ranking]:
        return personalized_pagerank_batch(
            graph, sources, alpha=parameters["alpha"], max_iter=parameters["max_iter"]
        )


class _CheiRankAlgorithm(Algorithm):
    """Global CheiRank (registry name ``cheirank``)."""

    spec = AlgorithmSpec(
        name="cheirank",
        display_name="CheiRank",
        personalized=False,
        parameters=(_ALPHA_SPEC, _MAX_ITER_SPEC),
        description="PageRank computed on the transposed graph (outgoing connections).",
    )

    def _execute(self, graph: DirectedGraph, *, source, parameters) -> Ranking:
        return cheirank(graph, alpha=parameters["alpha"], max_iter=parameters["max_iter"])


class _PersonalizedCheiRankAlgorithm(Algorithm):
    """Personalized CheiRank (registry name ``personalized-cheirank``)."""

    spec = AlgorithmSpec(
        name="personalized-cheirank",
        display_name="Pers. CheiRank",
        personalized=True,
        parameters=(_ALPHA_SPEC, _MAX_ITER_SPEC),
        description="Personalized PageRank on the transposed graph.",
    )

    def _execute(self, graph: DirectedGraph, *, source, parameters) -> Ranking:
        return personalized_cheirank(
            graph, source, alpha=parameters["alpha"], max_iter=parameters["max_iter"]
        )

    def _execute_batch(self, graph: DirectedGraph, *, sources, parameters) -> List[Ranking]:
        return personalized_cheirank_batch(
            graph, sources, alpha=parameters["alpha"], max_iter=parameters["max_iter"]
        )


class _DerivedAlgorithm(Algorithm):
    """An algorithm built from the rankings of its declared ``spec.inputs``.

    A run runs each input's :meth:`~Algorithm.run_batch` with the same
    sources and parameters, then hands each source's input rankings to
    :meth:`combine`.  The platform takes the inputs from its result cache
    instead, through the same ``combine``, so both paths agree bit for bit
    (every input column is batch-invariant).
    """

    def _execute(self, graph: DirectedGraph, *, source, parameters) -> Ranking:
        return self._execute_batch(graph, sources=[source], parameters=parameters)[0]

    def _execute_batch(self, graph: DirectedGraph, *, sources, parameters) -> List[Ranking]:
        columns = [
            get_algorithm(name).run_batch(graph, sources=sources, parameters=parameters)
            for name in self.spec.inputs
        ]
        return [self.combine(inputs, parameters) for inputs in zip(*columns)]


class _TwoDRankAlgorithm(_DerivedAlgorithm):
    """Global 2DRank (registry name ``2drank``)."""

    spec = AlgorithmSpec(
        name="2drank",
        display_name="2DRank",
        personalized=False,
        parameters=(_ALPHA_SPEC, _MAX_ITER_SPEC),
        description="Two-dimensional combination of PageRank and CheiRank (ranking only).",
        inputs=("pagerank", "cheirank"),
    )

    def combine(self, input_rankings, parameters) -> Ranking:
        return combine_twodrank(
            *input_rankings, algorithm="2DRank", parameters=_twodrank_parameters(parameters)
        )


class _PersonalizedTwoDRankAlgorithm(_DerivedAlgorithm):
    """Personalized 2DRank (registry name ``personalized-2drank``)."""

    spec = AlgorithmSpec(
        name="personalized-2drank",
        display_name="Pers. 2DRank",
        personalized=True,
        parameters=(_ALPHA_SPEC, _MAX_ITER_SPEC),
        description="2DRank built from Personalized PageRank and Personalized CheiRank.",
        inputs=("personalized-pagerank", "personalized-cheirank"),
    )

    def combine(self, input_rankings, parameters) -> Ranking:
        return combine_twodrank(
            *input_rankings,
            algorithm="Personalized 2DRank",
            parameters=_twodrank_parameters(parameters),
        )


def _twodrank_parameters(parameters: Mapping[str, Any]) -> Dict[str, Any]:
    """A 2DRank's recorded parameters: those its inputs ran with."""
    return {
        "alpha": parameters["alpha"],
        "tol": DEFAULT_TOL,
        "max_iter": parameters["max_iter"],
    }


class _CycleRankAlgorithm(Algorithm):
    """CycleRank (registry name ``cyclerank``)."""

    spec = AlgorithmSpec(
        name="cyclerank",
        display_name="Cyclerank",
        personalized=True,
        parameters=(
            ParameterSpec(
                name="k",
                kind="int",
                default=3,
                minimum=2,
                maximum=10,
                description="maximum cycle length K considered by Equation 1",
            ),
            ParameterSpec(
                name="sigma",
                kind="str",
                default="exp",
                choices=tuple(available_scoring_functions()),
                description="scoring function weighting cycles by their length",
            ),
        ),
        description="Personalized relevance from the cycles through the reference node.",
    )

    def _execute(self, graph: DirectedGraph, *, source, parameters) -> Ranking:
        return cyclerank(
            graph, source, max_cycle_length=parameters["k"], scoring=parameters["sigma"]
        )

    def _execute_batch(self, graph: DirectedGraph, *, sources, parameters) -> List[Ranking]:
        return cyclerank_batch(
            graph, sources, max_cycle_length=parameters["k"], scoring=parameters["sigma"]
        )


class _PushPPRAlgorithm(Algorithm):
    """Forward-push approximate PPR (registry name ``ppr-push``, extension)."""

    spec = AlgorithmSpec(
        name="ppr-push",
        display_name="PPR (push)",
        personalized=True,
        parameters=(
            _ALPHA_SPEC,
            ParameterSpec(
                name="epsilon",
                kind="float",
                default=1e-6,
                minimum=0.0,
                description="per-out-degree residual threshold (accuracy/locality trade-off)",
            ),
        ),
        description="Local forward-push approximation of Personalized PageRank.",
    )

    def _execute(self, graph: DirectedGraph, *, source, parameters) -> Ranking:
        return ppr_push(
            graph, source, alpha=parameters["alpha"], epsilon=parameters["epsilon"]
        )

    def _execute_batch(self, graph: DirectedGraph, *, sources, parameters) -> List[Ranking]:
        return ppr_push_batch(
            graph, sources, alpha=parameters["alpha"], epsilon=parameters["epsilon"]
        )


class _MonteCarloPPRAlgorithm(Algorithm):
    """Monte-Carlo approximate PPR (registry name ``ppr-montecarlo``, extension)."""

    spec = AlgorithmSpec(
        name="ppr-montecarlo",
        display_name="PPR (Monte Carlo)",
        personalized=True,
        parameters=(
            _ALPHA_SPEC,
            ParameterSpec(
                name="num_walks",
                kind="int",
                default=10_000,
                minimum=1,
                description="number of random walks simulated from the reference node",
            ),
            ParameterSpec(
                name="seed",
                kind="int",
                default=0,
                description="pseudo-random generator seed",
            ),
        ),
        description="Monte-Carlo random-walk estimate of Personalized PageRank.",
    )

    def _execute(self, graph: DirectedGraph, *, source, parameters) -> Ranking:
        return ppr_montecarlo(
            graph,
            source,
            alpha=parameters["alpha"],
            num_walks=parameters["num_walks"],
            seed=parameters["seed"],
        )

    def _execute_batch(self, graph: DirectedGraph, *, sources, parameters) -> List[Ranking]:
        return ppr_montecarlo_batch(
            graph,
            sources,
            alpha=parameters["alpha"],
            num_walks=parameters["num_walks"],
            seed=parameters["seed"],
        )


_HITS_MAX_ITER_SPEC = ParameterSpec(
    name="max_iter",
    kind="int",
    default=5000,
    minimum=1,
    description="maximum number of HITS iterations (its contraction can be slow)",
)


class _HitsAlgorithm(Algorithm):
    """Global HITS authorities (registry name ``hits``, extension)."""

    spec = AlgorithmSpec(
        name="hits",
        display_name="HITS",
        personalized=False,
        parameters=(
            ParameterSpec(
                name="scores",
                kind="str",
                default="authority",
                choices=("authority", "hub"),
                description="rank by authority or by hub score",
            ),
            _HITS_MAX_ITER_SPEC,
        ),
        description="Hubs-and-authorities mutual reinforcement (Kleinberg).",
    )

    def _execute(self, graph: DirectedGraph, *, source, parameters) -> Ranking:
        return hits(graph, scores=parameters["scores"], max_iter=parameters["max_iter"])


class _PersonalizedHitsAlgorithm(Algorithm):
    """Rooted HITS (registry name ``personalized-hits``, extension)."""

    spec = AlgorithmSpec(
        name="personalized-hits",
        display_name="Pers. HITS",
        personalized=True,
        parameters=(
            _ALPHA_SPEC,
            ParameterSpec(
                name="scores",
                kind="str",
                default="authority",
                choices=("authority", "hub"),
                description="rank by authority or by hub score",
            ),
            _HITS_MAX_ITER_SPEC,
        ),
        description="HITS whose authority mass restarts at the reference node.",
    )

    def _execute(self, graph: DirectedGraph, *, source, parameters) -> Ranking:
        return personalized_hits(
            graph, source, alpha=parameters["alpha"], scores=parameters["scores"],
            max_iter=parameters["max_iter"],
        )

    def _execute_batch(self, graph: DirectedGraph, *, sources, parameters) -> List[Ranking]:
        return personalized_hits_batch(
            graph, sources, alpha=parameters["alpha"], scores=parameters["scores"],
            max_iter=parameters["max_iter"],
        )


_BETA_SPEC = ParameterSpec(
    name="beta",
    kind="float",
    default=0.05,
    minimum=0.0,
    description="walk-length damping factor (must stay below 1 / spectral radius)",
)


class _KatzAlgorithm(Algorithm):
    """Global Katz centrality (registry name ``katz``, extension)."""

    spec = AlgorithmSpec(
        name="katz",
        display_name="Katz",
        personalized=False,
        parameters=(_BETA_SPEC, _MAX_ITER_SPEC),
        description="Damped count of incoming walks of every length.",
    )

    def _execute(self, graph: DirectedGraph, *, source, parameters) -> Ranking:
        return katz_centrality(graph, beta=parameters["beta"], max_iter=parameters["max_iter"])


class _PersonalizedKatzAlgorithm(Algorithm):
    """Personalized Katz index (registry name ``personalized-katz``, extension)."""

    spec = AlgorithmSpec(
        name="personalized-katz",
        display_name="Pers. Katz",
        personalized=True,
        parameters=(_BETA_SPEC, _MAX_ITER_SPEC),
        description="Damped count of walks from the reference node (Katz relatedness index).",
    )

    def _execute(self, graph: DirectedGraph, *, source, parameters) -> Ranking:
        return personalized_katz(
            graph, source, beta=parameters["beta"], max_iter=parameters["max_iter"]
        )

    def _execute_batch(self, graph: DirectedGraph, *, sources, parameters) -> List[Ranking]:
        return personalized_katz_batch(
            graph, sources, beta=parameters["beta"], max_iter=parameters["max_iter"]
        )


#: The seven algorithms showcased in the paper, in the order it lists them.
PAPER_ALGORITHMS = (
    "cyclerank",
    "pagerank",
    "personalized-pagerank",
    "cheirank",
    "personalized-cheirank",
    "2drank",
    "personalized-2drank",
)

_REGISTRY: Dict[str, Algorithm] = {}


def register_algorithm(algorithm: Algorithm, *, replace: bool = False) -> Algorithm:
    """Register an :class:`Algorithm` instance under its spec name.

    Set ``replace=True`` to overwrite an existing registration (useful in
    tests and when experimenting with variants).

    An algorithm declaring ``spec.inputs`` is refused unless every input is
    a registered algorithm with a native batch kernel, no inputs of its
    own, the same personalization and the same parameter specs: an input
    query reuses the derived query's source and parameters as given, and
    the platform computes a missing input inline on the thread that needs
    it, so an input must never wait on anything itself.
    """
    name = algorithm.name
    if not name:
        raise InvalidParameterError("algorithm spec must define a non-empty name")
    if name in _REGISTRY and not replace:
        raise InvalidParameterError(
            f"algorithm {name!r} is already registered; pass replace=True to overwrite"
        )
    for input_name in algorithm.spec.inputs:
        _check_input(algorithm, input_name)
    _REGISTRY[name] = algorithm
    return algorithm


def _check_input(algorithm: Algorithm, input_name: str) -> None:
    """Raise unless ``input_name`` can serve as an input of ``algorithm``."""
    candidate = _REGISTRY.get(input_name)
    problem = None
    if candidate is None:
        problem = "is not a registered algorithm"
    elif candidate.spec.inputs:
        problem = "declares inputs of its own"
    elif not candidate.has_native_batch:
        problem = "has no native batch kernel"
    elif candidate.is_personalized != algorithm.is_personalized:
        problem = "differs in personalization"
    elif candidate.spec.parameters != algorithm.spec.parameters:
        problem = "takes different parameters"
    if problem is not None:
        raise InvalidParameterError(
            f"algorithm {algorithm.name!r} cannot use {input_name!r} as an input: "
            f"it {problem}"
        )


def get_algorithm(name: str) -> Algorithm:
    """Return the registered algorithm called ``name``.

    Lookup is case-insensitive and tolerant of ``_`` vs ``-``.
    """
    normalized = name.strip().lower().replace("_", "-")
    algorithm = _REGISTRY.get(normalized)
    if algorithm is None:
        raise AlgorithmNotFoundError(name)
    return algorithm


def available_algorithms(*, personalized: Optional[bool] = None) -> List[str]:
    """Return registered algorithm names, optionally filtered by personalization."""
    names = []
    for name, algorithm in sorted(_REGISTRY.items()):
        if personalized is None or algorithm.is_personalized == personalized:
            names.append(name)
    return names


def run_algorithm(
    name: str,
    graph: DirectedGraph,
    *,
    source: Optional[str] = None,
    parameters: Optional[Mapping[str, Any]] = None,
) -> Ranking:
    """Look up ``name`` in the registry and run it on ``graph``."""
    return get_algorithm(name).run(graph, source=source, parameters=parameters)


def run_batch(
    name: str,
    graph: DirectedGraph,
    *,
    sources: Sequence[Optional[str]],
    parameters: Optional[Mapping[str, Any]] = None,
) -> List[Ranking]:
    """Run ``name`` for many sources sharing one parameter set.

    Algorithms with a native batch kernel (the PageRank family and the PPR
    approximations) amortise the per-graph work across the batch; every other
    algorithm transparently falls back to a per-source loop.
    """
    return get_algorithm(name).run_batch(graph, sources=sources, parameters=parameters)


for _algorithm_class in (
    _PageRankAlgorithm,
    _PersonalizedPageRankAlgorithm,
    _CheiRankAlgorithm,
    _PersonalizedCheiRankAlgorithm,
    _TwoDRankAlgorithm,
    _PersonalizedTwoDRankAlgorithm,
    _CycleRankAlgorithm,
    _PushPPRAlgorithm,
    _MonteCarloPPRAlgorithm,
    _HitsAlgorithm,
    _PersonalizedHitsAlgorithm,
    _KatzAlgorithm,
    _PersonalizedKatzAlgorithm,
):
    register_algorithm(_algorithm_class())
