"""Shift-reduce engine: replay closure, correction semantics."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from rstkit import (
    EmptyDocument,
    Leaf,
    ParsePolicy,
    ReplayExhausted,
    ReplayOracle,
    ScriptedOracle,
    parse_bottom_up,
    trace_to_jsonl,
)

from conftest import check_tree, make_edus, random_document


# ---------------------------------------------------------------------------
# Replay closure


def test_replay_reproduces_gold_on_minicorpus(minicorpus, inventory):
    for doc in minicorpus:
        result = parse_bottom_up(doc.edus, ReplayOracle(doc.nodes), inventory)
        assert result.tree == doc.tree, doc.doc_id
        assert result.corrected_count == 0, doc.doc_id


def test_replay_closure_without_skipping_forced(minicorpus, inventory):
    policy = ParsePolicy(skip_forced=False)
    doc = minicorpus[2]
    result = parse_bottom_up(doc.edus, ReplayOracle(doc.nodes), inventory, policy)
    n = len(doc.edus)
    assert result.tree == doc.tree
    assert len(result.trace) == 4 * n - 3
    asked = Counter(entry.kind for entry in result.trace if not entry.forced)
    assert asked == {"action": 2 * n - 1, "nuclearity": n - 1, "relation": n - 1}
    assert all(entry.prompt is not None for entry in result.trace)


def test_empty_replay_script_exhausts(inventory):
    # a 2-EDU parse is all forced moves until the nuclearity query
    with pytest.raises(ReplayExhausted):
        parse_bottom_up(make_edus(2), ScriptedOracle([]), inventory)


# ---------------------------------------------------------------------------
# Garbage tolerance and correction semantics


def _garbage_oracle(seed=0):
    rng = random.Random(seed)
    junk = ["".join(rng.choices("abcxyz0189 #!", k=rng.randint(0, 14)))
            for _ in range(37)]
    return ScriptedOracle(junk, cycle=True)


def test_garbage_always_yields_valid_tree(inventory):
    for n in (1, 2, 3, 7, 16):
        edus = make_edus(n)
        result = parse_bottom_up(edus, _garbage_oracle(n), inventory)
        check_tree(result.tree, n)
        actions = [e for e in result.trace if e.kind == "action"]
        assert len(actions) == 2 * n - 1
        shifts = [e for e in actions if e.resolved == "shift"]
        reduces = [e for e in actions if e.resolved == "reduce"]
        assert len(shifts) == n
        assert len(reduces) == n - 1


def test_correction_defaults_and_flags(inventory):
    # every open action query gets junk: default is shift while legal
    edus = make_edus(4)
    result = parse_bottom_up(edus, _garbage_oracle(), inventory)
    queried = [e for e in result.trace if not e.forced]
    assert queried and all(e.corrected for e in queried)
    assert all(e.note == "unparseable" for e in queried)
    for entry in queried:
        if entry.kind == "action":
            assert entry.resolved == "shift"
        elif entry.kind == "nuclearity":
            assert entry.resolved == inventory.default_nuclearity
            assert entry.resolved == "nucleus-satellite"
        else:
            assert entry.resolved == inventory.default_relation
            assert entry.resolved == "Elaboration"


def test_unparseable_action_falls_back_to_sole_legal_action(inventory):
    # junk on a reduce-only state must correct to reduce, not shift
    edus = make_edus(2)
    policy = ParsePolicy(skip_forced=False)
    oracle = ScriptedOracle(["?", "?", "?", "?", "?"], cycle=True)
    result = parse_bottom_up(edus, oracle, inventory, policy)
    check_tree(result.tree, 2)
    final_action = [e for e in result.trace if e.kind == "action"][-1]
    assert final_action.resolved == "reduce"
    assert final_action.corrected and final_action.note == "unparseable"


def test_illegal_note_when_forcing_is_disabled(inventory):
    edus = make_edus(2)
    policy = ParsePolicy(skip_forced=False)
    oracle = ScriptedOracle(["reduce"], cycle=True)
    result = parse_bottom_up(edus, oracle, inventory, policy)
    check_tree(result.tree, 2)
    first = result.trace[0]
    assert first.kind == "action"
    assert first.raw == "reduce"
    assert first.resolved == "shift"
    assert first.corrected and first.note == "illegal"
    # once two items are stacked, reduce is legal and accepted as-is
    legal_reduce = [e for e in result.trace
                    if e.kind == "action" and e.resolved == "reduce"]
    assert legal_reduce and not any(e.corrected for e in legal_reduce)


def test_default_policy_never_reports_illegal(inventory):
    # forced skipping means queries occur only when both actions are legal
    for n in (2, 5, 9):
        result = parse_bottom_up(make_edus(n), _garbage_oracle(n), inventory)
        assert all(e.note != "illegal" for e in result.trace)


# ---------------------------------------------------------------------------
# Edges


def test_single_edu_document(inventory):
    edus = make_edus(1)
    result = parse_bottom_up(edus, ScriptedOracle([]), inventory)
    assert result.tree == Leaf(edus[0])
    assert len(result.trace) == 1
    only = result.trace[0]
    assert only.forced and only.resolved == "shift" and only.prompt is None
    assert result.query_count == 0


def test_empty_document_rejected(inventory):
    with pytest.raises(EmptyDocument):
        parse_bottom_up([], ScriptedOracle([]), inventory)


def test_same_answers_same_parse(inventory):
    answers = ["shift", "reduce", "nucleus-nucleus", "Joint"] * 10
    edus = make_edus(5)
    first = parse_bottom_up(edus, ScriptedOracle(answers, cycle=True), inventory)
    second = parse_bottom_up(edus, ScriptedOracle(answers, cycle=True), inventory)
    assert first.tree == second.tree
    assert first.trace == second.trace


def test_trace_serialization_round_trip(inventory):
    import json

    doc = random_document(random.Random(5), 6)
    result = parse_bottom_up(doc.edus, ReplayOracle(doc.nodes), inventory)
    text = trace_to_jsonl(result.trace)
    assert text.endswith("\n")
    rows = [json.loads(line) for line in text.splitlines()]
    assert len(rows) == len(result.trace)
    assert rows[0]["step"] == 0
    for row, entry in zip(rows, result.trace):
        assert row["kind"] == entry.kind
        assert row["resolved"] == entry.resolved
        assert row["forced"] == entry.forced
        if entry.prompt is None:
            assert row["prompt_id"] is None
        else:
            assert row["prompt_id"].startswith(entry.kind + ":")
    assert trace_to_jsonl([]) == ""
