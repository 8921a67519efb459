"""Relevance-ranking algorithms for directed graphs.

The seven algorithms showcased by the paper's demo:

=======================  ==============================  ====================
Registry name            Function                        Personalized?
=======================  ==============================  ====================
``pagerank``             :func:`pagerank`                no
``personalized-pagerank`` :func:`personalized_pagerank`  yes (reference node)
``cheirank``             :func:`cheirank`                no
``personalized-cheirank`` :func:`personalized_cheirank`  yes
``2drank``               :func:`twodrank`                no
``personalized-2drank``  :func:`personalized_twodrank`   yes
``cyclerank``            :func:`cyclerank`               yes
=======================  ==============================  ====================

plus two approximate Personalized PageRank solvers used as extensions and in
the ablation benchmarks: the forward-push local algorithm
(:func:`ppr_push`) and the Monte-Carlo random-walk estimator
(:func:`ppr_montecarlo`).

Every function takes a :class:`~repro.graph.digraph.DirectedGraph` and
returns a :class:`~repro.ranking.result.Ranking`.  The class-based interface
(:class:`~repro.algorithms.base.Algorithm` plus the registry in
:mod:`~repro.algorithms.registry`) is what the platform uses to look up an
algorithm by name from task parameters — and what makes it "easy to add new
algorithms", as the paper puts it.
"""

from __future__ import annotations

from .base import Algorithm, AlgorithmSpec, ParameterSpec
from .cheirank import cheirank, personalized_cheirank, personalized_cheirank_batch
from .cycle_enumeration import (
    CycleSearchEngine,
    count_cycles_by_length,
    enumerate_cycles_through,
    enumerate_cycles_through_dict,
    simple_cycles_up_to_length,
)
from .cyclerank import cyclerank, cyclerank_batch, CycleRankStatistics
from .hits import hits, personalized_hits, personalized_hits_batch
from .katz import katz_centrality, personalized_katz, personalized_katz_batch
from .pagerank import pagerank, power_iteration_batch
from .personalized_pagerank import personalized_pagerank, personalized_pagerank_batch
from .ppr_montecarlo import ppr_montecarlo, ppr_montecarlo_batch
from .ppr_push import ppr_push, ppr_push_batch
from .registry import (
    available_algorithms,
    get_algorithm,
    register_algorithm,
    run_algorithm,
    run_batch,
)
from .twodrank import (
    combine_twodrank,
    personalized_twodrank,
    personalized_twodrank_batch,
    twodrank,
    two_dimensional_order,
)

__all__ = [
    # functional interface
    "pagerank",
    "personalized_pagerank",
    "personalized_pagerank_batch",
    "cheirank",
    "personalized_cheirank",
    "personalized_cheirank_batch",
    "twodrank",
    "personalized_twodrank",
    "personalized_twodrank_batch",
    "two_dimensional_order",
    "combine_twodrank",
    "cyclerank",
    "cyclerank_batch",
    "CycleRankStatistics",
    "ppr_push",
    "ppr_push_batch",
    "ppr_montecarlo",
    "ppr_montecarlo_batch",
    "hits",
    "personalized_hits",
    "personalized_hits_batch",
    "katz_centrality",
    "personalized_katz",
    "personalized_katz_batch",
    "power_iteration_batch",
    # cycle enumeration
    "CycleSearchEngine",
    "enumerate_cycles_through",
    "enumerate_cycles_through_dict",
    "count_cycles_by_length",
    "simple_cycles_up_to_length",
    # class-based interface / registry
    "Algorithm",
    "AlgorithmSpec",
    "ParameterSpec",
    "register_algorithm",
    "get_algorithm",
    "available_algorithms",
    "run_algorithm",
    "run_batch",
]
