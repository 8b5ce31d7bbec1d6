"""Top-down splitting engine: bounds, closure, correction notes, deep trees."""

from __future__ import annotations

import random

import pytest

from rstkit import (
    EmptyDocument,
    Leaf,
    Node,
    ParsePolicy,
    ReplayOracle,
    ScriptedOracle,
    SplitPrompts,
    internal_nodes,
    parse_top_down,
    write_tree,
)

from conftest import chain_tree, check_tree, make_edus


# ---------------------------------------------------------------------------
# Split bounds


def _bounds(span: tuple[int, int]) -> tuple[int, int]:
    """Inclusive bounds of the split answers a span's prompt offers."""
    texts = [edu.text for edu in make_edus(max(span))]
    labels = SplitPrompts(texts).labels(*span)
    return int(labels[0]), int(labels[-1])


@pytest.mark.parametrize(
    "span,expected",
    [((1, 5), (0, 3)), ((3, 4), (0, 0)), ((7, 20), (0, 12)), ((1, 2), (0, 0))],
)
def test_relative_index_bounds(span, expected):
    assert _bounds(span) == expected
    prompts = SplitPrompts([edu.text for edu in make_edus(span[1])])
    assert prompts.render(*span).endswith(f"Split point (0 - {expected[1]}):")


@pytest.mark.parametrize("span", [(2, 2), (5, 3)])
def test_degenerate_span_has_no_split(span):
    with pytest.raises(ValueError, match="at least two EDUs"):
        SplitPrompts([edu.text for edu in make_edus(5)]).render(*span)


# ---------------------------------------------------------------------------
# Replay closure


def test_replay_reproduces_gold_on_minicorpus(minicorpus, inventory):
    for doc in minicorpus:
        result = parse_top_down(doc.edus, ReplayOracle(doc.tree), inventory)
        assert result.tree == doc.tree, doc.doc_id
        assert result.corrected_count == 0, doc.doc_id


def test_trace_has_one_split_per_internal_node(minicorpus, inventory):
    for doc in minicorpus[:6]:
        n = len(doc.edus)
        result = parse_top_down(doc.edus, ReplayOracle(doc.tree), inventory)
        kinds = [e.kind for e in result.trace]
        assert kinds.count("split") == n - 1
        assert kinds.count("nuclearity") == n - 1
        assert kinds.count("relation") == n - 1


def test_decisions_follow_preorder_left_first(minicorpus, inventory):
    doc = minicorpus[7]
    result = parse_top_down(doc.edus, ReplayOracle(doc.tree), inventory)
    split_states = [e.state for e in result.trace if e.kind == "split"]
    expected = [
        f"span=({node.span[0]},{node.span[1]})"
        for node in internal_nodes(doc.tree)
    ]
    assert split_states == expected


# ---------------------------------------------------------------------------
# Correction notes


def _three_edu_parse(first_answer, inventory):
    script = [first_answer, "nucleus-nucleus", "Joint",
              "nucleus-satellite", "Elaboration"]
    return parse_top_down(make_edus(3), ScriptedOracle(script), inventory)


def test_out_of_range_integer_resolves_to_zero(inventory):
    result = _three_edu_parse("7", inventory)
    first = result.trace[0]
    assert first.kind == "split"
    assert first.raw == "7"
    assert first.resolved == "0"
    assert first.corrected and first.note == "out-of-range"
    # k = 0 means the left half is the single first EDU
    assert isinstance(result.tree, Node)
    assert result.tree.left == Leaf(make_edus(3)[0])


def test_negative_integer_is_out_of_range(inventory):
    result = _three_edu_parse("-1", inventory)
    first = result.trace[0]
    assert first.resolved == "0"
    assert first.corrected and first.note == "out-of-range"


def test_non_integer_answer_is_unparseable(inventory):
    result = _three_edu_parse("banana", inventory)
    first = result.trace[0]
    assert first.resolved == "0"
    assert first.corrected and first.note == "unparseable"


def test_leading_zeros_accepted_in_range(inventory):
    result = _three_edu_parse("01", inventory)
    first = result.trace[0]
    assert first.resolved == "1"
    assert not first.corrected
    # k = 1: left half holds EDUs 1-2
    assert result.tree.left.span == (1, 2)


@pytest.mark.parametrize("raw,resolved", [("+1", "1"), ("-0", "0")])
def test_signed_integer_in_range_is_read_by_value(inventory, raw, resolved):
    result = _three_edu_parse(raw, inventory)
    first = result.trace[0]
    assert first.raw == raw
    assert first.resolved == resolved
    assert not first.corrected and first.note == ""
    assert result.tree.left.span == (1, 1 + int(resolved))


def test_two_edu_span_is_forced_by_default(inventory):
    script = ["nucleus-satellite", "Elaboration"]
    result = parse_top_down(make_edus(2), ScriptedOracle(script), inventory)
    split_entry = result.trace[0]
    assert split_entry.kind == "split"
    assert split_entry.forced and split_entry.prompt is None
    assert split_entry.resolved == "0"
    assert result.query_count == 2


def test_two_edu_span_queried_when_forcing_disabled(inventory):
    policy = ParsePolicy(skip_forced=False)
    script = ["9", "nucleus-satellite", "Elaboration"]
    result = parse_top_down(make_edus(2), ScriptedOracle(script), inventory,
                            policy)
    split_entry = result.trace[0]
    assert not split_entry.forced
    assert split_entry.prompt.endswith("Split point (0 - 0):")
    assert split_entry.corrected and split_entry.note == "out-of-range"


# ---------------------------------------------------------------------------
# Garbage tolerance


def _garbage_oracle(seed=0):
    rng = random.Random(seed)
    junk = ["".join(rng.choices("qwerty -42.", k=rng.randint(0, 12)))
            for _ in range(41)]
    return ScriptedOracle(junk, cycle=True)


def test_garbage_always_yields_valid_tree(inventory):
    for n in (1, 2, 3, 8, 17):
        result = parse_top_down(make_edus(n), _garbage_oracle(n), inventory)
        check_tree(result.tree, n)
        kinds = [e.kind for e in result.trace]
        assert kinds.count("split") == max(n - 1, 0)
        nodes = list(internal_nodes(result.tree))
        assert len(nodes) == max(n - 1, 0)
        for node in nodes:
            lo, hi = _bounds(node.span)
            assert lo <= node.left.span[1] - node.span[0] <= hi


# ---------------------------------------------------------------------------
# Deep documents: the engine must not recurse


@pytest.mark.parametrize("right_heavy", [True, False])
def test_thousand_edu_chain_round_trip(right_heavy, inventory):
    n = 1000
    edus = make_edus(n)
    gold = chain_tree(edus, right_heavy=right_heavy)
    result = parse_top_down(edus, ReplayOracle(gold), inventory)
    assert write_tree(result.tree) == write_tree(gold)
    assert result.corrected_count == 0
    splits = [e for e in result.trace if e.kind == "split"]
    assert len(splits) == n - 1


# ---------------------------------------------------------------------------
# Edges


def test_single_edu_document(inventory):
    edus = make_edus(1)
    result = parse_top_down(edus, ScriptedOracle([]), inventory)
    assert result.tree == Leaf(edus[0])
    assert result.trace == ()


def test_empty_document_rejected(inventory):
    with pytest.raises(EmptyDocument):
        parse_top_down([], ScriptedOracle([]), inventory)


def test_same_answers_same_parse(inventory):
    answers = ["1", "satellite-nucleus", "Background"] * 8
    edus = make_edus(6)
    first = parse_top_down(edus, ScriptedOracle(answers, cycle=True), inventory)
    second = parse_top_down(edus, ScriptedOracle(answers, cycle=True), inventory)
    assert first.tree == second.tree
    assert first.trace == second.trace
