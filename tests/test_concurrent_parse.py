"""Concurrent decisions: an oracle that offers answer_many gets every ready
query of a round at once, and the parse comes out exactly as a serial one."""

from __future__ import annotations

import hashlib
import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from rstkit import (
    CachedOracle,
    Document,
    ParsePolicy,
    node_table,
    trace_to_jsonl,
    write_tree,
)
from rstkit.training import ENGINES, gold_walk

from conftest import FunctionOracle, chain_tree, make_edus, random_document


def _documents() -> list[Document]:
    rng = random.Random(17)
    docs = [random_document(rng, n, f"rand{n}") for n in (1, 2, 3, 9, 24, 40)]
    for n, right_heavy in ((12, True), (30, False)):
        edus = make_edus(n, rng)
        docs.append(Document(f"chain{n}", edus, node_table(chain_tree(edus, right_heavy))))
    return docs


def _gold_answers(doc: Document, strategy: str, policy: ParsePolicy, inventory):
    table = {}
    for example in gold_walk(doc, inventory, strategy, policy):
        table[example.prompt] = example.completion
    return lambda query: table[query.prompt]


_GARBAGE = ("shift", "reduce", "banana", "7", "0", "1", "-1", "nucleus-nucleus",
            "satellite-nucleus", "Joint", "Elaboration", "")


def _garbage_answers(_doc, _strategy, _policy, _inventory):
    """Any kind of answer, picked by the prompt alone: unparseable,
    out-of-range and illegal ones included."""

    def answer(query):
        digest = hashlib.sha1(query.prompt.encode("utf-8")).digest()
        if digest[0] % 3 == 0:
            return query.valid_labels[digest[1] % len(query.valid_labels)]
        return _GARBAGE[digest[1] % len(_GARBAGE)]

    return answer


def _with_latency(answer, seconds=0.001):
    def slow(query):
        time.sleep(seconds)
        return answer(query)

    return slow


@pytest.mark.parametrize("policy", [ParsePolicy(), ParsePolicy(skip_forced=False)],
                         ids=["skip-forced", "query-forced"])
@pytest.mark.parametrize("answers", [_gold_answers, _garbage_answers],
                         ids=["gold", "garbage"])
@pytest.mark.parametrize("strategy", sorted(ENGINES))
def test_prefetched_parse_equals_serial_parse(
    tmp_path, inventory, strategy, answers, policy
):
    engine = ENGINES[strategy]
    notes = set()
    for doc in _documents():
        answer = answers(doc, strategy, policy, inventory)
        serial = engine(doc.edus, FunctionOracle(answer), inventory, policy)
        cache = CachedOracle(
            FunctionOracle(_with_latency(answer)), tmp_path / doc.doc_id
        )
        try:
            concurrent = engine(doc.edus, cache, inventory, policy)
        finally:
            cache.close()
        assert write_tree(concurrent.tree) == write_tree(serial.tree)
        assert trace_to_jsonl(concurrent.trace) == trace_to_jsonl(serial.trace)
        notes.update(entry.note for entry in serial.trace if entry.corrected)
    if answers is _gold_answers:
        expected = set()
    elif strategy == "top-down":
        expected = {"unparseable", "out-of-range"}
    elif policy.skip_forced:
        expected = {"unparseable"}  # an illegal action is never asked
    else:
        expected = {"unparseable", "illegal"}
    assert notes == expected


class _RoundCounter:
    """Answers from a gold table and counts rounds; every query must come
    in a round."""

    fingerprint = "gold-rounds"

    def __init__(self, table):
        self.table = table
        self.rounds = 0

    def answer_many(self, queries):
        self.rounds += 1
        return [self.table[query.prompt] for query in queries]

    def complete(self, query):
        raise AssertionError("a batching oracle is asked in rounds")


@pytest.mark.parametrize("strategy,queries,rounds",
                         [("bottom-up", 1238, 598), ("top-down", 911, 164)])
def test_dependent_rounds_on_the_minicorpus(minicorpus, inventory, strategy,
                                            queries, rounds):
    asked = counted = 0
    for doc in minicorpus:
        table = {e.prompt: e.completion for e in gold_walk(doc, inventory, strategy)}
        oracle = _RoundCounter(table)
        result = ENGINES[strategy](doc.edus, oracle, inventory)
        assert write_tree(result.tree) == write_tree(doc.tree)
        asked += result.query_count
        counted += oracle.rounds
    assert (asked, counted) == (queries, rounds)


def test_shared_cache_under_thread_stress(tmp_path, minicorpus, inventory):
    """Documents on more threads than cores share one cache: every distinct
    prompt is fetched once, and every answer is accounted for."""
    fetched: dict[str, int] = {}
    lock = threading.Lock()
    tables = {}
    for doc in minicorpus:
        for strategy in ENGINES:
            for example in gold_walk(doc, inventory, strategy):
                tables[example.prompt] = example.completion

    def answer(query):
        with lock:
            fetched[query.prompt] = fetched.get(query.prompt, 0) + 1
        time.sleep(0.0005)
        return tables[query.prompt]

    cache = CachedOracle(FunctionOracle(answer), tmp_path)
    jobs = [(doc, engine) for doc in minicorpus for engine in ENGINES.values()] * 2
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(
                lambda job: job[1](job[0].edus, cache, inventory), jobs
            ))
    finally:
        sys.setswitchinterval(interval)
        cache.close()
    for (doc, _), result in zip(jobs, results):
        assert write_tree(result.tree) == write_tree(doc.tree)
    assert set(fetched.values()) == {1}
    stats = cache.report()
    assert stats["misses"] == len(fetched)
    assert stats["hits"] + stats["misses"] == sum(r.query_count for r in results)
