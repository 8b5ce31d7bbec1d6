"""Top-level acceptance checks, one per release criterion.

Each test exercises a whole capability end to end and emits a single
uncaptured PASS line so a full run reads as a checklist. Criterion 8 needs
a user-supplied corpus and completion endpoint and skips itself otherwise.
Criterion 4 checked a biaffine scorer that the package no longer has; the
other criteria keep their numbers.
"""

from __future__ import annotations

import json
import os
import random
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from rstkit import (
    LEVELS,
    CachedOracle,
    HttpOracle,
    Leaf,
    Node,
    OracleFailure,
    OracleQuery,
    ParsePolicy,
    ParsevalCounts,
    ReplayOracle,
    ScriptedOracle,
    SplitPrompts,
    micro_f1,
    micro_scores,
    minicorpus_dir,
    parse_bottom_up,
    parse_top_down,
    score_document,
)
from rstkit.cli import main as cli_main
from rstkit.training import ENGINES, example_to_json, gold_walk

from conftest import GOLDEN_DIR, check_tree, make_edus, random_tree
from make_goldens import golden_prompts
from test_oracle import _endpoint, _ok, _query

CORPUS = str(minicorpus_dir())
MANIFEST = str(minicorpus_dir() / "splits.tsv")
MAP = "rst-dt-coarse"
NS = "nucleus-satellite"


def _passed(capsys, line: str) -> None:
    with capsys.disabled():
        print(line)


# ---------------------------------------------------------------------------
# 1. Replay closure over the bundled corpus, both strategies


def test_criterion_1_replay_closure(tmp_path, capsys, minicorpus, inventory):
    started = time.monotonic()
    sizes = sorted(len(doc.edus) for doc in minicorpus)
    assert len(minicorpus) >= 20
    assert sizes[0] == 2 and sizes[-1] == 40

    for strategy, engine in ENGINES.items():
        for doc in minicorpus:
            result = engine(doc.edus, ReplayOracle(doc.tree), inventory)
            assert result.tree == doc.tree, (strategy, doc.doc_id)
            assert result.corrected_count == 0, (strategy, doc.doc_id)

        out = tmp_path / strategy
        assert cli_main([
            "parse", "--corpus-dir", CORPUS, "--manifest", MANIFEST,
            "--relation-map", MAP, "--strategy", strategy, "--out", str(out),
        ]) == 0
        capsys.readouterr()
        assert cli_main([
            "eval", "--gold-dir", CORPUS, "--pred-dir", str(out),
            "--manifest", MANIFEST, "--relation-map", MAP,
        ]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "level\tprecision\trecall\tf1"
        for line in lines[1:]:
            level, precision, recall, f1 = line.split("\t")
            assert (precision, recall, f1) == ("100.0", "100.0", "100.0"), level

    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _passed(capsys, f"criterion 1: PASS — {len(minicorpus)} documents replay "
                    f"to gold under both strategies, all levels 100.0 "
                    f"({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 2. Garbage oracles still produce valid trees at the right sizes


def test_criterion_2_garbage_robustness(capsys, inventory):
    rng = random.Random(90125)
    alphabet = "abcdefxyz 0123456789 -+.?!"

    def junk_oracle() -> ScriptedOracle:
        answers = ["".join(rng.choices(alphabet, k=rng.randint(0, 16)))
                   for _ in range(23)]
        return ScriptedOracle(answers, cycle=True)

    for trial in range(1000):
        n = rng.randint(1, 30)
        edus = make_edus(n, rng)

        result = parse_bottom_up(edus, junk_oracle(), inventory)
        check_tree(result.tree, n)
        actions = [e for e in result.trace if e.kind == "action"]
        assert len(actions) == 2 * n - 1, trial
        assert sum(e.resolved == "shift" for e in actions) == n

        result = parse_top_down(edus, junk_oracle(), inventory)
        check_tree(result.tree, n)
        splits = [e for e in result.trace if e.kind == "split"]
        assert len(splits) == n - 1 if n > 1 else not result.trace

    _passed(capsys, "criterion 2: PASS — 1000 garbage-driven documents gave "
                    "valid trees with exact action and split counts")


# ---------------------------------------------------------------------------
# 3. Metric fixtures and invariants


def _left3(rel_inner="Elaboration", nuc_inner=NS):
    edus = make_edus(3)
    return Node(Node(Leaf(edus[0]), Leaf(edus[1]), nuc_inner, rel_inner),
                Leaf(edus[2]), NS, "Elaboration")


def _right3():
    edus = make_edus(3)
    return Node(Leaf(edus[0]),
                Node(Leaf(edus[1]), Leaf(edus[2]), NS, "Elaboration"),
                NS, "Elaboration")


def test_criterion_3_metric_fixtures(capsys, minicorpus):
    shape = micro_f1(score_document(_right3(), _left3()))
    for level in LEVELS:
        assert abs(shape[level] - 50.0) <= 0.05

    flip = micro_f1(score_document(_left3(rel_inner="Background"), _left3()))
    assert abs(flip["span"] - 100.0) <= 0.05
    assert abs(flip["nuclearity"] - 100.0) <= 0.05
    assert abs(flip["relation"] - 50.0) <= 0.05
    assert abs(flip["full"] - 50.0) <= 0.05

    # micro pools counts; a per-document average would say 66.65 here
    two = make_edus(2)
    perfect = Node(Leaf(two[0]), Leaf(two[1]), NS, "Elaboration")
    four = make_edus(4)
    gold4 = Node(Node(Node(Leaf(four[0]), Leaf(four[1]), NS, "Joint"),
                      Leaf(four[2]), NS, "Joint"),
                 Leaf(four[3]), NS, "Elaboration")
    pred4 = Node(Leaf(four[0]),
                 Node(Leaf(four[1]),
                      Node(Leaf(four[2]), Leaf(four[3]), NS, "Joint"),
                      NS, "Joint"),
                 NS, "Elaboration")
    pairs = [(perfect, perfect), (pred4, gold4)]
    micro = micro_f1(
        sum((score_document(p, g) for p, g in pairs), ParsevalCounts())
    )
    assert abs(micro["full"] - 50.0) <= 0.05
    macro = sum(micro_f1(score_document(p, g))["full"] for p, g in pairs) / 2
    assert abs(macro - 66.65) <= 0.05

    self_scores = micro_scores(sum(
        (score_document(doc.tree, doc.tree) for doc in minicorpus), ParsevalCounts()
    ))
    for level in LEVELS:
        assert self_scores[level].precision == 100.0
        assert self_scores[level].recall == 100.0
        assert self_scores[level].f1 == 100.0

    rng = random.Random(20260818)
    for _ in range(500):
        n = rng.randint(2, 12)
        edus = make_edus(n)
        counts = score_document(random_tree(rng, edus),
                                random_tree(rng, edus))
        scores = micro_scores(counts)
        for level in LEVELS:
            assert scores[level].precision == scores[level].recall
        assert counts.matched_span >= counts.matched_nuclearity >= counts.matched_full
        assert counts.matched_span >= counts.matched_relation >= counts.matched_full

    _passed(capsys, "criterion 3: PASS — hand fixtures within 0.05, "
                    "self-evaluation exactly 100.0, 500 random pairs keep "
                    "P=R and level monotonicity")


# ---------------------------------------------------------------------------
# 5. Prompt goldens and export determinism


def test_criterion_5_prompt_stability(capsys, minicorpus, inventory):
    rendered = golden_prompts()
    assert len(rendered) == 9
    for name, text in rendered.items():
        assert text.encode("utf-8") == (GOLDEN_DIR / name).read_bytes(), name

    rst_line = rendered["relation_rst.txt"].split("\n")[-1]
    instr_line = rendered["relation_instr.txt"].split("\n")[-1]
    assert len(rst_line[len("Relation label ("):-2].split(", ")) == 18
    assert len(instr_line[len("Relation label ("):-2].split(", ")) == 39

    texts = [edu.text for edu in make_edus(5)]
    assert SplitPrompts(texts).render(1, 5) == SplitPrompts(list(texts)).render(1, 5)
    assert SplitPrompts(texts).render(2, 4).startswith("Input:\n0: ")

    docs = minicorpus[:6]
    for strategy in ("bottom-up", "top-down"):
        blobs = [
            "\n".join(
                example_to_json(x)
                for doc in docs
                for x in gold_walk(doc, inventory, strategy)
            ).encode("utf-8")
            for _ in range(2)
        ]
        assert blobs[0] == blobs[1], strategy

    _passed(capsys, "criterion 5: PASS — all nine goldens byte-identical, "
                    "18/39 option lists intact, exports bitwise stable")


# ---------------------------------------------------------------------------
# 6. Correction semantics


def test_criterion_6_correction_defaults(capsys, inventory):
    junk = ScriptedOracle(["certainly!"], cycle=True)
    result = parse_bottom_up(make_edus(3), junk, inventory)
    by_kind: dict[str, list] = {}
    for entry in result.trace:
        if not entry.forced:
            by_kind.setdefault(entry.kind, []).append(entry)
    assert all(e.resolved == "shift" for e in by_kind["action"])
    assert all(e.resolved == "nucleus-satellite"
               for e in by_kind["nuclearity"])
    assert all(e.resolved == "Elaboration" for e in by_kind["relation"])

    # when shift is not legal the sole legal action stands in
    forced_off = ParsePolicy(skip_forced=False)
    result2 = parse_bottom_up(make_edus(2), ScriptedOracle(["?"], cycle=True),
                              inventory, forced_off)
    last_action = [e for e in result2.trace if e.kind == "action"][-1]
    assert last_action.resolved == "reduce" and last_action.corrected

    result3 = parse_top_down(make_edus(3), ScriptedOracle(["?"], cycle=True),
                             inventory)
    first_split = [e for e in result3.trace if e.kind == "split"][0]
    assert first_split.resolved == "0" and first_split.corrected

    for res in (result, result2, result3):
        for entry in res.trace:
            if entry.corrected:
                assert entry.note in ("unparseable", "out-of-range", "illegal")
                assert entry.raw is not None
            if entry.forced:
                assert not entry.corrected

    _passed(capsys, "criterion 6: PASS — invalid answers fall back to shift "
                    "or the sole legal action, split 0, nucleus-satellite, "
                    "Elaboration, always flagged")


# ---------------------------------------------------------------------------
# 7. Live-client behavior against a local endpoint


def test_criterion_7_http_client_suite(capsys, tmp_path):
    started = time.monotonic()

    with _endpoint([_ok(" reduce")]) as (url, seen):
        oracle = HttpOracle(url, model="m", retries=0)
        first = oracle.complete(_query(prompt="stable"))
        second = oracle.complete(_query(prompt="stable"))
        assert first == second == " reduce"
        assert len(seen) == 2
        assert seen[0]["json"] == seen[1]["json"]
        assert seen[0]["json"]["temperature"] == 0.0
        assert seen[0]["json"]["stop"] == ["\n"]

    with _endpoint([(503, {"error": "down"})]) as (url, seen):
        oracle = HttpOracle(url, model="m", retries=2, backoff=0.01)
        with pytest.raises(OracleFailure, match="3 attempts"):
            oracle.complete(_query())
        assert len(seen) == 3

    with _endpoint([_ok("shift")]) as (url, seen):
        cache = CachedOracle(HttpOracle(url, model="m", retries=0),
                             tmp_path / "store")
        q = OracleQuery("action", "cached prompt", ("shift", "reduce"))
        assert cache.complete(q) == "shift"
        assert cache.complete(q) == "shift"
        assert len(seen) == 1
        assert cache.stats() == {"hits": 1, "misses": 1}

    with _endpoint([_ok("nucleus-nucleus")]) as (url, seen):
        cache = CachedOracle(HttpOracle(url, model="m", retries=0),
                             tmp_path / "race")
        q = OracleQuery("nuclearity", "hot", ("nucleus-nucleus",))
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: cache.complete(q), range(8)))
        assert results == ["nucleus-nucleus"] * 8
        assert len(seen) == 1
        # one segment, holding one record
        (segment,) = (tmp_path / "race").glob("*.jsonl")
        assert len(segment.read_text(encoding="utf-8").splitlines()) == 1

    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    _passed(capsys, f"criterion 7: PASS — greedy determinism, retry budget, "
                    f"cache short-circuit and single-write race all hold "
                    f"({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 8. Optional live run against a user-supplied endpoint and corpus


def test_criterion_8_live_endpoint(capsys, tmp_path):
    required = ("RSTKIT_CORPUS_DIR", "RSTKIT_ENDPOINT", "RSTKIT_MODEL")
    missing = [name for name in required if not os.environ.get(name)]
    if missing:
        _passed(capsys, "criterion 8: SKIP — set RSTKIT_CORPUS_DIR, "
                        "RSTKIT_ENDPOINT and RSTKIT_MODEL to score a live "
                        "endpoint on a licensed corpus")
        pytest.skip("gated: missing " + ", ".join(missing))

    corpus = os.environ["RSTKIT_CORPUS_DIR"]
    out = tmp_path / "live"
    assert cli_main([
        "parse", "--corpus-dir", corpus, "--oracle", "http",
        "--endpoint", os.environ["RSTKIT_ENDPOINT"],
        "--model", os.environ["RSTKIT_MODEL"],
        "--relation-map", MAP, "--cache-dir", str(tmp_path / "cache"),
        "--out", str(out),
    ]) == 0
    capsys.readouterr()
    assert cli_main([
        "eval", "--gold-dir", corpus, "--pred-dir", str(out),
        "--relation-map", MAP, "--out", str(tmp_path / "scores.json"),
    ]) == 0
    report = capsys.readouterr().out.strip()
    payload = json.loads((tmp_path / "scores.json").read_text())
    assert set(payload["scores"]) == set(LEVELS)
    _passed(capsys, "criterion 8: PASS — live endpoint scored:\n" + report)
