"""Hypothesis property tests: the lazy, columnar :class:`Ranking` against an oracle.

The oracle orders node ids by ``(-score, label, id)`` with Python's
``sorted``.  Scores come from a small pool, so exact ties (also at the top-k
boundary) are the common case, and labels come from a two-letter alphabet, so
duplicate labels are common too.  Every way of passing labels is covered:
``None``, a list, and a shared ndarray (longer than the scores, so the
ranking keeps a prefix view).
"""

from __future__ import annotations

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.registry import run_batch
from repro.graph.compiled import compiled_of
from repro.graph.generators import preferential_attachment_graph
from repro.ranking.result import Ranking

SCORE_POOL = [0.0, 0.125, 1 / 3, 0.5, 1.0, 2.0]


@st.composite
def rankings(draw):
    """Strategy: ``(ranking, scores, labels)`` with the labels the oracle sees."""
    size = draw(st.integers(min_value=0, max_value=24))
    scores = draw(st.lists(st.sampled_from(SCORE_POOL), min_size=size, max_size=size))
    mode = draw(st.sampled_from(["none", "list", "shared"]))
    if mode == "none":
        return Ranking(scores), scores, [f"#{i}" for i in range(size)]
    extra = draw(st.integers(min_value=0, max_value=3)) if mode == "shared" else 0
    labels = draw(
        st.lists(st.text(alphabet="ab", max_size=2), min_size=size + extra,
                 max_size=size + extra)
    )
    if mode == "list":
        return Ranking(scores, labels=labels), scores, labels
    shared = np.asarray(labels, dtype=str)
    shared.setflags(write=False)
    ranking = Ranking(scores, labels=shared)
    assert size == 0 or np.shares_memory(ranking.labels, shared)
    return ranking, scores, labels[:size]


def _oracle_order(scores, labels):
    return sorted(range(len(scores)), key=lambda node: (-scores[node], labels[node], node))


@settings(max_examples=200, deadline=None)
@given(rankings())
def test_order_ranks_and_lookups_match_the_oracle(case):
    ranking, scores, labels = case
    order = _oracle_order(scores, labels)
    assert ranking.ordered_nodes() == order
    rank = {node: position + 1 for position, node in enumerate(order)}
    for node in range(len(scores)):
        assert ranking.rank_of(node) == rank[node]
        label = ranking.label_of(node)
        assert type(label) is str and label == labels[node]
        assert label in ranking
        # A label resolves to the first node id carrying it.
        assert ranking.rank_of(label) == rank[labels.index(label)]
        assert ranking.score_of(label) == scores[labels.index(label)]
    assert "missing" not in ranking
    assert ranking.as_label_dict() == dict(zip(labels, scores))
    assert ranking.labels.tolist() == list(labels) and not ranking.labels.flags.writeable


@settings(max_examples=200, deadline=None)
@given(rankings(), st.data())
def test_top_k_with_exclusions_matches_the_oracle(case, data):
    ranking, scores, labels = case
    k = data.draw(st.integers(min_value=0, max_value=len(scores) + 2))
    exclude = data.draw(st.sets(st.sampled_from(sorted(set(labels)) + ["missing"])))
    order = _oracle_order(scores, labels)
    expected = [
        (node, labels[node], scores[node], position + 1)
        for position, node in enumerate(order)
        if labels[node] not in exclude
    ][:k]
    entries = ranking.top(k, exclude=exclude)
    assert [entry.as_tuple() for entry in entries] == expected
    assert all(type(entry.label) is str for entry in entries)
    assert ranking.top_labels(k, exclude=exclude) == [label for _, label, _, _ in expected]


@settings(max_examples=100, deadline=None)
@given(rankings())
def test_dict_round_trip_through_json(case):
    ranking, scores, labels = case
    serialised = ranking.to_dict()
    assert serialised["labels"] == list(labels)
    assert serialised["scores"] == [float(score) for score in scores]
    restored = Ranking.from_dict(json.loads(json.dumps(serialised)))
    assert restored.to_dict() == serialised
    assert restored.ordered_nodes() == ranking.ordered_nodes()
    assert [e.as_tuple() for e in restored] == [e.as_tuple() for e in ranking]


def test_rankings_of_one_batch_share_the_artifact_labels():
    graph = preferential_attachment_graph(60, 3, seed=5)
    compiled = compiled_of(graph)
    shared = compiled.labels_array()
    assert not shared.flags.writeable
    for algorithm in ("personalized-pagerank", "cyclerank"):
        batch = run_batch(algorithm, compiled, sources=["#0", "#1", "#2"])
        assert len(batch) == 3
        for ranking in batch:
            assert np.shares_memory(ranking.labels, shared)
