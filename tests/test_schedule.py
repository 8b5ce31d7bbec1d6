"""Bounded-exhaustive check of the round schedule.

Every binary tree shape over 1 to MAX_EDUS EDUs (196 shapes up to 7) goes
through both engines, with forced decisions skipped and asked. Asked a
round at a time through one cache that documents on three threads share,
each parse must give the trace and tree of a serial parse, for gold answers
and for answers drawn from a hash of the prompt. A gold parse must rebuild
its tree, and every tree built from garbage answers with forced decisions
skipped must replay to itself with no correction. Each gold parse asked a
round at a time must take as many rounds as its closed form gives.

With --hypothesis-profile=deep the bound is 10 EDUs (6918 shapes).
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import pytest

from rstkit import (
    ACTION,
    NUCLEARITY_PATTERNS,
    CachedOracle,
    Document,
    Edu,
    Leaf,
    Node,
    ParsePolicy,
    ReplayOracle,
)
from rstkit.training import ENGINES

from conftest import FunctionOracle, deep

MAX_EDUS = 10 if deep() else 7

_GARBAGE = ("shift", "reduce", "banana", "7", "0", "1", "-1", "nucleus-nucleus",
            "satellite-nucleus", "Joint", "Elaboration", "")


@lru_cache(maxsize=None)
def _splits(first: int, last: int) -> tuple[tuple[int, ...], ...]:
    """Every binary shape over EDUs first..last, as its split points in
    pre-order (a split k puts first..k on the left)."""
    if first == last:
        return ((),)
    return tuple(
        (k, *left, *right)
        for k in range(first, last)
        for left in _splits(first, k)
        for right in _splits(k + 1, last)
    )


def _tree(edus, splits, labels):
    """The tree over all of ``edus`` that ``splits`` gives, its nodes
    labelled in pre-order from ``labels``."""
    splits, labels = iter(splits), iter(labels)

    def build(first, last):
        if first == last:
            return Leaf(edus[first - 1])
        k = next(splits)
        nuclearity, relation = next(labels)
        return Node(build(first, k), build(k + 1, last), nuclearity, relation)

    return build(1, len(edus))


def _documents(inventory) -> list[Document]:
    """One document per shape. EDU texts name their document, so no two
    documents share a prompt, and node labels vary with the shape."""
    relations = inventory.relations
    docs = []
    for n in range(1, MAX_EDUS + 1):
        for splits in _splits(1, n):
            number = len(docs)
            edus = tuple(Edu(i, f"doc {number} unit {i}.") for i in range(1, n + 1))
            labels = [
                (NUCLEARITY_PATTERNS[(number + i) % 3],
                 relations[(number * 7 + i) % len(relations)])
                for i in range(n - 1)
            ]
            docs.append(Document(f"shape{number}", edus, _tree(edus, splits, labels)))
    return docs


def _garbage(query):
    """Any kind of answer, picked by the prompt alone."""
    digest = hashlib.sha1(query.prompt.encode("utf-8")).digest()
    if digest[0] % 3 == 0:
        return query.valid_labels[digest[1] % len(query.valid_labels)]
    return _GARBAGE[digest[1] % len(_GARBAGE)]


@pytest.fixture(scope="module")
def shape_documents(inventory):
    return _documents(inventory)


def test_every_shape_is_counted(shape_documents):
    catalan = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786]
    assert len(shape_documents) == sum(catalan[:MAX_EDUS])


@pytest.mark.parametrize("policy", [ParsePolicy(), ParsePolicy(skip_forced=False)],
                         ids=["skip-forced", "query-forced"])
@pytest.mark.parametrize("answers", ["gold", "garbage"])
@pytest.mark.parametrize("strategy", sorted(ENGINES))
def test_schedule_changes_nothing_on_every_small_shape(
    shape_documents, inventory, strategy, answers, policy
):
    parse = ENGINES[strategy]
    docs = shape_documents
    serial = []
    table: dict[str, str] = {}
    for doc in docs:
        oracle = ReplayOracle(doc.tree) if answers == "gold" else FunctionOracle(_garbage)
        result = parse(doc.edus, oracle, inventory, policy)
        serial.append(result)
        if answers == "gold":
            assert result.tree == doc.tree
            assert result.corrected_count == 0
            for entry in result.trace:
                if entry.prompt is not None:
                    assert table.setdefault(entry.prompt, entry.raw) == entry.raw
        elif policy.skip_forced:
            # any tree replays to itself (the gold ones just did)
            replayed = parse(doc.edus, ReplayOracle(result.tree), inventory, policy)
            assert replayed.tree == result.tree
            assert replayed.corrected_count == 0

    # asked a round at a time, documents on threads that share one cache,
    # as `rstkit parse` runs them over HTTP
    answer = (lambda query: table[query.prompt]) if answers == "gold" else _garbage
    cache = CachedOracle(FunctionOracle(answer), None)
    with ThreadPoolExecutor(max_workers=3) as pool:
        results = list(pool.map(
            lambda doc: parse(doc.edus, cache, inventory, policy), docs
        ))
    for doc, expected, result in zip(docs, serial, results):
        assert result.trace == expected.trace, doc.doc_id
        assert result.tree == expected.tree, doc.doc_id


class _RoundCounter:
    """Answers each round of a parse in one call from a gold replay, and
    counts the rounds."""

    def __init__(self, tree):
        self.replay = ReplayOracle(tree)
        self.rounds = 0

    def answer_many(self, queries):
        self.rounds += 1
        return [self.replay.complete(query) for query in queries]


def _depth(tree) -> int:
    """The internal nodes on the tree's longest root-to-leaf path."""
    return 0 if isinstance(tree, Leaf) else 1 + max(_depth(tree.left), _depth(tree.right))


@pytest.mark.parametrize("policy", [ParsePolicy(), ParsePolicy(skip_forced=False)],
                         ids=["skip-forced", "query-forced"])
def test_gold_rounds_follow_the_closed_forms(shape_documents, inventory, policy):
    """Bottom-up, each round asks one action, and the last reduce's
    nuclearity and relation take two rounds more: queried actions + 2.
    Top-down, each round asks the splits of one tree level, and the deepest
    node's nuclearity and relation take two rounds more, its split a round
    only where forced splits are asked: depth + 1, or depth + 2. A one-EDU
    document has no label to ask, so its rounds are its queried actions."""
    for doc in shape_documents:
        bottom_up, top_down = _RoundCounter(doc.tree), _RoundCounter(doc.tree)
        result = ENGINES["bottom-up"](doc.edus, bottom_up, inventory, policy)
        assert result.tree == doc.tree
        actions = sum(entry.kind == ACTION and not entry.forced for entry in result.trace)
        assert ENGINES["top-down"](doc.edus, top_down, inventory, policy).tree == doc.tree
        if len(doc.edus) == 1:
            expected = (actions, 0)
        else:
            expected = (actions + 2, _depth(doc.tree) + (1 if policy.skip_forced else 2))
        assert (bottom_up.rounds, top_down.rounds) == expected, doc.doc_id
