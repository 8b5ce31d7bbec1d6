"""Standard-Parseval scoring: hand fixtures, invariants, per-relation rows."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from rstkit import (
    EmptyCorpus,
    Leaf,
    Node,
    ParsevalCounts,
    SegmentationMismatch,
    micro_f1,
    micro_scores,
    node_table,
    per_relation_rows,
    score_document,
)
from rstkit.metrics import LEVELS, RelationRow, round1

from conftest import make_edus, random_tree


def _tables(pairs):
    """(predicted, gold) tree pairs as the node tables the scorers read."""
    return [(node_table(p), node_table(g)) for p, g in pairs]


def _corpus_counts(pairs, include_root=True) -> ParsevalCounts:
    """Document counts of (predicted, gold) tables summed; micro averaging
    happens on the sums."""
    return sum(
        (score_document(p, g, include_root) for p, g in pairs), ParsevalCounts()
    )

NS = "nucleus-satellite"
NN = "nucleus-nucleus"


def _left3(rel_inner="Elaboration", rel_root="Elaboration", nuc_inner=NS):
    edus = make_edus(3)
    inner = Node(Leaf(edus[0]), Leaf(edus[1]), nuc_inner, rel_inner)
    return Node(inner, Leaf(edus[2]), NS, rel_root)


def _right3(rel_inner="Elaboration", rel_root="Elaboration"):
    edus = make_edus(3)
    inner = Node(Leaf(edus[1]), Leaf(edus[2]), NS, rel_inner)
    return Node(Leaf(edus[0]), inner, NS, rel_root)


# ---------------------------------------------------------------------------
# Rounding


@pytest.mark.parametrize(
    "value,expected",
    [
        (0.25, 0.3),
        (-0.25, -0.3),
        (66.666, 66.7),
        (33.333333, 33.3),
        (50.0, 50.0),
        (100.0, 100.0),
        (0.0, 0.0),
        (0.04, 0.0),
        (-0.04, 0.0),
    ],
)
def test_round1_half_away_from_zero(value, expected):
    assert round1(value) == expected


# ---------------------------------------------------------------------------
# Hand fixtures


def test_shape_mismatch_scores_fifty_everywhere():
    counts = score_document(node_table(_right3()), node_table(_left3()))
    assert counts.predicted == 2 and counts.gold == 2
    assert counts.matched_span == 1
    scores = micro_f1(counts)
    for level in LEVELS:
        assert scores[level] == 50.0


def test_relation_flip_halves_relation_and_full():
    counts = score_document(
        node_table(_left3(rel_inner="Background")), node_table(_left3())
    )
    scores = micro_f1(counts)
    assert scores["span"] == 100.0
    assert scores["nuclearity"] == 100.0
    assert scores["relation"] == 50.0
    assert scores["full"] == 50.0


def test_nuclearity_flip_halves_nuclearity_and_full():
    counts = score_document(node_table(_left3(nuc_inner=NN)), node_table(_left3()))
    scores = micro_f1(counts)
    assert scores["span"] == 100.0
    assert scores["nuclearity"] == 50.0
    assert scores["relation"] == 100.0
    assert scores["full"] == 50.0


def _micro_macro_corpus():
    # document A: one internal node, predicted perfectly
    a_edus = make_edus(2)
    a = Node(Leaf(a_edus[0]), Leaf(a_edus[1]), NS, "Elaboration")

    # document B: three internal nodes, only the root span agrees
    edus = make_edus(4)
    b_gold = Node(
        Node(Node(Leaf(edus[0]), Leaf(edus[1]), NS, "Joint"),
             Leaf(edus[2]), NS, "Joint"),
        Leaf(edus[3]), NS, "Elaboration",
    )
    b_pred = Node(
        Leaf(edus[0]),
        Node(Leaf(edus[1]),
             Node(Leaf(edus[2]), Leaf(edus[3]), NS, "Joint"), NS, "Joint"),
        NS, "Elaboration",
    )
    return [(a, a), (b_pred, b_gold)]


def test_micro_pools_counts_rather_than_averaging_documents():
    pairs = _micro_macro_corpus()
    micro = micro_f1(_corpus_counts(_tables(pairs)))
    for level in LEVELS:
        assert abs(micro[level] - 50.0) <= 0.05

    per_doc = [micro_f1(score_document(p, g)) for p, g in _tables(pairs)]
    assert per_doc[0]["full"] == 100.0
    assert per_doc[1]["full"] == 33.3
    macro_full = sum(d["full"] for d in per_doc) / len(per_doc)
    assert abs(macro_full - 66.65) <= 0.05
    assert abs(micro["full"] - macro_full) > 10  # the two averages disagree


def test_self_evaluation_is_exactly_perfect(minicorpus):
    counts = _corpus_counts((doc.nodes, doc.nodes) for doc in minicorpus)
    scores = micro_scores(counts)
    for level in LEVELS:
        assert scores[level].precision == 100.0
        assert scores[level].recall == 100.0
        assert scores[level].f1 == 100.0


# ---------------------------------------------------------------------------
# Root handling


def test_exclude_root_drops_the_document_span():
    gold = node_table(_left3(rel_inner="Joint"))
    assert gold[(1, 3)] == [2, NS, "Elaboration"]
    counts = score_document(gold, gold, include_root=False)
    assert counts.predicted == counts.gold == counts.matched_full == 1
    assert score_document(gold, gold).matched_full == 2
    # the tuple left is the inner one, (1, 2)
    rows = per_relation_rows([(gold, gold)], include_root=False)
    assert [(row.relation, row.gold, row.matched) for row in rows] == [("Joint", 1, 1)]


def test_exclude_root_can_zero_a_document():
    counts = score_document(node_table(_right3()), node_table(_left3()), include_root=False)
    assert counts.predicted == 1 and counts.gold == 1
    assert counts.matched_span == 0
    scores = micro_f1(counts)
    assert all(scores[level] == 0.0 for level in LEVELS)


def test_two_edu_corpus_without_root_is_empty():
    edus = make_edus(2)
    tree = Node(Leaf(edus[0]), Leaf(edus[1]), NS, "Elaboration")
    counts = score_document(node_table(tree), node_table(tree), include_root=False)
    assert counts.predicted == 0 and counts.gold == 0
    with pytest.raises(EmptyCorpus):
        micro_f1(counts)


# ---------------------------------------------------------------------------
# Errors and degenerate inputs


def test_segmentation_mismatch_rejected():
    three = _left3()
    edus4 = make_edus(4)
    four = Node(Leaf(edus4[0]),
                Node(Leaf(edus4[1]),
                     Node(Leaf(edus4[2]), Leaf(edus4[3]), NS, "Joint"),
                     NS, "Joint"),
                NS, "Joint")
    with pytest.raises(SegmentationMismatch, match="3 EDUs"):
        score_document(node_table(three), node_table(four))
    with pytest.raises(SegmentationMismatch, match="3 EDUs"):
        per_relation_rows([(node_table(three), node_table(four))])


def test_single_edu_documents_contribute_nothing():
    leaf = Leaf(make_edus(1)[0])
    counts = score_document(node_table(leaf), node_table(leaf))
    assert counts == ParsevalCounts()
    with pytest.raises(EmptyCorpus, match="no tuples"):
        micro_f1(counts)


def test_empty_corpus_rejected():
    with pytest.raises(EmptyCorpus):
        micro_f1(_corpus_counts([]))


def test_counts_add_componentwise():
    a = ParsevalCounts(2, 2, 2, 1, 2, 1)
    b = ParsevalCounts(3, 3, 1, 1, 0, 0)
    total = a + b
    assert total == ParsevalCounts(5, 5, 3, 2, 2, 1)
    with pytest.raises(ValueError, match="unknown level"):
        total.matched("edu")


def test_leaf_has_no_tuples():
    leaf = node_table(Leaf(make_edus(1)[0]))
    assert leaf == {}
    assert score_document(leaf, leaf, include_root=False) == ParsevalCounts()
    assert per_relation_rows([(leaf, leaf)]) == []


# ---------------------------------------------------------------------------
# Invariants over random tree pairs


def test_precision_equals_recall_and_levels_are_monotone():
    rng = random.Random(20260819)
    for _ in range(500):
        n = rng.randint(2, 12)
        edus = make_edus(n)
        predicted = random_tree(rng, edus)
        gold = random_tree(rng, edus)
        counts = score_document(node_table(predicted), node_table(gold))
        assert counts.predicted == counts.gold == n - 1
        scores = micro_scores(counts)
        for level in LEVELS:
            assert scores[level].precision == scores[level].recall
        assert counts.matched_span >= counts.matched_nuclearity
        assert counts.matched_span >= counts.matched_relation
        assert counts.matched_nuclearity >= counts.matched_full
        assert counts.matched_relation >= counts.matched_full
        self_scores = micro_f1(score_document(node_table(gold), node_table(gold)))
        assert all(self_scores[level] == 100.0 for level in LEVELS)


@given(
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=12),
                  st.integers(min_value=0, max_value=2**32)),
        min_size=1, max_size=4,
    ),
    st.booleans(),
)
def test_per_relation_rows_sum_to_the_counts_of_score_document(docs, include_root):
    # both read one tuple set: a relation's row counts a tuple of that
    # relation, so the columns summed are the document counts summed
    pairs = []
    for n, seed in docs:
        rng = random.Random(seed)
        edus = make_edus(n)
        relations = ("Elaboration", "Joint", "Contrast")
        pairs.append((node_table(random_tree(rng, edus, relations)),
                      node_table(random_tree(rng, edus, relations))))
    counts = _corpus_counts(pairs, include_root)
    rows = per_relation_rows(pairs, include_root=include_root)
    assert sum(row.predicted for row in rows) == counts.predicted
    assert sum(row.gold for row in rows) == counts.gold
    assert sum(row.matched for row in rows) == counts.matched_relation


# ---------------------------------------------------------------------------
# Per-relation reporting


def test_per_relation_rows_counts_and_order():
    pairs = _micro_macro_corpus()
    rows = per_relation_rows(_tables(pairs))
    # both labels appear twice in gold; the tie breaks alphabetically
    assert [row.relation for row in rows] == ["Elaboration", "Joint"]
    by_name = {row.relation: row for row in rows}
    # gold: 2 Elaboration (roots), 2 Joint; predicted the same shape-wise
    assert by_name["Elaboration"].gold == 2
    assert by_name["Elaboration"].predicted == 2
    assert by_name["Elaboration"].matched == 2
    assert by_name["Elaboration"].f1 == 100.0
    assert by_name["Joint"].gold == 2
    assert by_name["Joint"].predicted == 2
    assert by_name["Joint"].matched == 0
    assert by_name["Joint"].f1 == 0.0


def test_per_relation_rows_seeded_with_inventory(inventory):
    pairs = _micro_macro_corpus()
    rows = per_relation_rows(_tables(pairs), relations=inventory.relations)
    assert len(rows) == len(inventory.relations)
    zero = [row for row in rows if row.relation == "Topic-Change"]
    assert zero and zero[0].predicted == 0 and zero[0].gold == 0
    assert zero[0].f1 == 0.0
    # frequency order first, then name
    golds = [row.gold for row in rows]
    assert golds == sorted(golds, reverse=True)
    tail = [row.relation for row in rows if row.gold == 0]
    assert tail == sorted(tail)


def test_relation_row_f1_rounds_half_up():
    row = RelationRow(relation="X", predicted=3, gold=3, matched=1)
    assert row.f1 == 33.3
    row = RelationRow(relation="X", predicted=2, gold=2, matched=1)
    assert row.f1 == 50.0


def test_gold_relation_counts_order_by_count_then_name():
    golds = [(g, g) for _, g in _tables(_micro_macro_corpus())]
    rows = per_relation_rows(golds)
    assert [(row.relation, row.gold) for row in rows] == [
        ("Elaboration", 2), ("Joint", 2)
    ]
    assert all(row.predicted == row.matched == row.gold for row in rows)
    no_root = per_relation_rows(golds, include_root=False)
    assert [(row.relation, row.gold) for row in no_root] == [("Joint", 2)]
