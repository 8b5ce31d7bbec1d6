"""Gold walks: lockstep with the engines, export format, metadata sidecar."""

from __future__ import annotations

import json
import sys

import pytest

from rstkit import (
    FINE_TUNING_DEFAULTS,
    SPLIT,
    Document,
    Edu,
    KindMismatch,
    Node,
    ParsePolicy,
    ReplayOracle,
    STRATEGIES,
    SplitPrompts,
    example_to_json,
    export_metadata,
    gold_walk,
    minicorpus_dir,
    read_dis,
    write_tree,
)
from rstkit import cli, engine
from rstkit.cli import main
from rstkit.corpus import load_split_manifest
from rstkit.training import ENGINES, KINDS

from conftest import GOLDEN_DIR, chain_tree, make_edus, random_document, random_tree
from make_goldens import golden_exports
import random


def _parse(doc, oracle, inventory, strategy, policy=ParsePolicy()):
    return ENGINES[strategy](doc.edus, oracle, inventory, policy)


# ---------------------------------------------------------------------------
# Lockstep: the walk must emit exactly what the engine asks


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("skip_forced", [True, False])
def test_walk_matches_engine_queries(minicorpus, inventory, strategy,
                                     skip_forced):
    policy = ParsePolicy(skip_forced=skip_forced)
    for doc in minicorpus[:8]:
        examples = list(gold_walk(doc, inventory, strategy, policy))
        result = _parse(doc, ReplayOracle(doc.tree), inventory, strategy, policy)
        asked = [e for e in result.trace if not e.forced]
        assert len(asked) == len(examples), doc.doc_id
        for entry, example in zip(asked, examples):
            assert entry.kind == example.kind
            assert entry.step == example.step
            assert entry.prompt == example.prompt
            assert entry.resolved == example.completion
            assert not entry.corrected


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_walk_lockstep_on_dis_fixture(press_release_path, relmap, inventory,
                                      strategy):
    doc = read_dis(press_release_path, relmap)
    examples = list(gold_walk(doc, inventory, strategy))
    result = _parse(doc, ReplayOracle(doc.tree), inventory, strategy)
    asked = [e for e in result.trace if not e.forced]
    assert [(e.kind, e.prompt, e.resolved) for e in asked] == [
        (x.kind, x.prompt, x.completion) for x in examples
    ]
    assert result.tree == doc.tree


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_walk_that_drifts_from_its_engine_raises(minicorpus, inventory,
                                                 strategy):
    # a gold relation the inventory lacks is corrected to its default, so
    # the replay no longer follows the gold tree
    doc = minicorpus[5]
    root = doc.tree
    drifted = Document(doc.doc_id, doc.edus, Node(
        root.left, root.right, root.nuclearity, "no such relation"
    ))
    message = f"{strategy} replay of {doc.doc_id} corrected 1 gold answers"
    with pytest.raises(KindMismatch, match=message):
        list(gold_walk(drifted, inventory, strategy))


def _scripted_documents(minicorpus):
    docs = list(minicorpus)
    for n in (1, 2, 3, 40):
        edus = make_edus(n)
        for right_heavy in (True, False):
            docs.append(Document(f"chain{n}", edus, chain_tree(edus, right_heavy)))
    for seed in range(12):
        rng = random.Random(seed)
        docs.append(random_document(rng, rng.randint(1, 60), f"rand{seed}"))
    return docs


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("skip_forced", [True, False])
def test_replay_script_is_the_walk_without_prompts(minicorpus, inventory,
                                                   strategy, skip_forced):
    # a replay parse rebuilds the gold tree, and the answers the replay
    # gives, in order, are the walk's completions
    policy = ParsePolicy(skip_forced=skip_forced)
    for doc in _scripted_documents(minicorpus):
        examples = list(gold_walk(doc, inventory, strategy, policy))
        replayed = _parse(doc, ReplayOracle(doc.tree), inventory, strategy,
                          policy)
        assert replayed.tree == doc.tree, doc.doc_id
        answers = [(e.kind, e.raw) for e in replayed.trace if not e.forced]
        assert answers == [(x.kind, x.completion) for x in examples], doc.doc_id


def test_forced_steps_consume_numbering(inventory):
    # 3 EDUs bottom-up: steps 0 and 1 are forced shifts, so the first
    # emitted example is the open shift/reduce choice at step 2
    doc = random_document(random.Random(11), 3)
    examples = list(gold_walk(doc, inventory, "bottom-up"))
    assert examples[0].kind == "action"
    assert examples[0].step == 2
    steps = [x.step for x in examples]
    assert steps == sorted(steps)
    assert len(set(steps)) == len(steps)


def test_walk_counts_without_skipping(inventory):
    n = 7
    doc = random_document(random.Random(3), n)
    policy = ParsePolicy(skip_forced=False)

    bu = list(gold_walk(doc, inventory, "bottom-up", policy))
    by_kind = {}
    for x in bu:
        by_kind[x.kind] = by_kind.get(x.kind, 0) + 1
    assert by_kind == {"action": 2 * n - 1, "nuclearity": n - 1,
                       "relation": n - 1}

    td = list(gold_walk(doc, inventory, "top-down", policy))
    by_kind = {}
    for x in td:
        by_kind[x.kind] = by_kind.get(x.kind, 0) + 1
    assert by_kind == {"split": n - 1, "nuclearity": n - 1, "relation": n - 1}


def test_two_edu_top_down_skips_only_the_split(inventory):
    doc = random_document(random.Random(8), 2)
    examples = list(gold_walk(doc, inventory, "top-down"))
    assert [x.kind for x in examples] == ["nuclearity", "relation"]
    assert [x.step for x in examples] == [1, 2]

    queried = list(gold_walk(doc, inventory, "top-down",
                             ParsePolicy(skip_forced=False)))
    assert [x.kind for x in queried] == ["split", "nuclearity", "relation"]
    assert queried[0].completion == "0"
    assert queried[0].step == 0


def test_relation_prompts_are_teacher_forced(minicorpus, inventory):
    doc = minicorpus[5]
    for strategy in STRATEGIES:
        examples = list(gold_walk(doc, inventory, strategy))
        previous = None
        for x in examples:
            if x.kind == "relation":
                assert previous is not None and previous.kind == "nuclearity"
                line = x.prompt.split("\n")[2]
                assert line == f"Nucleus label: {previous.completion}"
            previous = x


def _chain_dis(n: int, right_heavy: bool, texts=None) -> str:
    """A fully right- or left-branching n-EDU treebank file with short EDU
    texts, or ``texts``, one constituent a line, written without
    recursion."""
    lines = []
    stack: list = [(1, n, "Root", "")]
    while stack:
        item = stack.pop()
        if item is None:
            lines.append(")")
            continue
        lo, hi, role, rel2par = item
        if lo == hi:
            text = f"edu {lo}." if texts is None else texts[lo - 1]
            lines.append(f"( {role} (leaf {lo}){rel2par} (text _!{text}_!) )")
            continue
        lines.append(f"( {role} (span {lo} {hi}){rel2par}")
        mid = lo if right_heavy else hi - 1
        stack.append(None)
        stack.append((mid + 1, hi, "Satellite", " (rel2par elaboration-additional)"))
        stack.append((lo, mid, "Nucleus", " (rel2par span)"))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("right_heavy", [True, False])
def test_deep_chains_under_the_default_recursion_limit(
    tmp_path, capsys, relmap, inventory, right_heavy
):
    n = 1200
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "chain.dis").write_text(_chain_dis(n, right_heavy))
    doc = read_dis(corpus / "chain.dis", relmap)
    assert len(doc.edus) == n
    gold = write_tree(doc.tree)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        for strategy in STRATEGIES:
            walk = list(gold_walk(doc, inventory, strategy))
            result = _parse(doc, ReplayOracle(doc.tree), inventory, strategy)
            assert len(walk) == result.query_count
            assert write_tree(result.tree) == gold

            argv = ("--corpus-dir", str(corpus), "--relation-map",
                    "rst-dt-coarse", "--strategy", strategy)
            out = tmp_path / strategy
            assert main(["parse", *argv, "--out", str(out / "parse")]) == 0
            assert (out / "parse" / "chain.tree").read_text() == gold + "\n"
            assert main(["export-training", *argv, "--out", str(out)]) == 0
            exported = sum(
                len(path.read_text().splitlines())
                for path in out.glob("*.jsonl")
            )
            assert exported == len(walk)
    finally:
        sys.setrecursionlimit(limit)
    capsys.readouterr()


# ---------------------------------------------------------------------------
# Export serialization


def test_example_json_field_names(inventory):
    doc = random_document(random.Random(2), 4)
    example = next(iter(gold_walk(doc, inventory, "bottom-up")))
    record = json.loads(example_to_json(example))
    assert set(record) == {"kind", "prompt", "completion", "document_id",
                           "step"}
    assert record["kind"] == example.kind
    assert record["prompt"] == example.prompt
    assert record["completion"] == example.completion
    assert record["document_id"] == doc.doc_id
    assert record["step"] == example.step


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_export_is_bitwise_deterministic(minicorpus, inventory, strategy):
    docs = minicorpus[:5]

    def render() -> bytes:
        lines = [
            example_to_json(x)
            for d in docs
            for x in gold_walk(d, inventory, strategy)
        ]
        return ("\n".join(lines) + "\n").encode("utf-8")

    first = render()
    second = render()
    assert first == second
    assert len(first.splitlines()) == sum(
        len(list(gold_walk(d, inventory, strategy))) for d in docs
    )


# EDU texts with every C0 control, DEL, the JSON specials, the line and
# paragraph separators, other non-ASCII characters, and empty EDUs
SPECIAL_EDU_TEXTS = (
    "".join(map(chr, range(0x20))),
    'a "quoted" word and a back\\slash',
    "",
    "DEL \x7f, line \u2028 and paragraph \u2029 separators",
    "non-ASCII: café, naïve, 日本語, \U0001F600",
    "plain ASCII text that runs well past thirty characters",
    '\\"\x00\x1b\x7f\u2028é' * 6,
    "",
)


@pytest.mark.parametrize("truncate", [None, 0, 3, 30])
def test_top_down_export_is_json_dumps_of_each_pair(
    tmp_path, monkeypatch, capsys, relmap, inventory, truncate
):
    # split pairs are written from EDU lines escaped one at a time; each line
    # must still be what json.dumps writes for the walk's pair. One document
    # is read from a .dis file, which turns whitespace controls and the
    # separators into spaces; the other holds the texts as they are.
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    n = len(SPECIAL_EDU_TEXTS)
    (corpus / "special.dis").write_text(
        _chain_dis(n, True, SPECIAL_EDU_TEXTS), encoding="utf-8"
    )
    edus = tuple(Edu(i, text) for i, text in enumerate(SPECIAL_EDU_TEXTS, 1))
    unread = Document("unread", edus, random_tree(random.Random(7), edus))
    read_documents = cli.load_documents
    monkeypatch.setattr(
        cli, "load_documents", lambda *args: [*read_documents(*args), unread]
    )
    argv = ["export-training", "--corpus-dir", str(corpus), "--relation-map",
            "rst-dt-coarse", "--strategy", "top-down", "--out", str(tmp_path / "out")]
    if truncate is not None:
        argv += ["--truncate", str(truncate)]
    assert main(argv) == 0
    capsys.readouterr()

    documents = cli.load_documents(corpus, None, None, relmap)
    read = documents[0].edus
    assert "\x00" in read[0].text and '"' in read[1].text and read[2].text == ""
    expected = {kind: [] for kind in KINDS["top-down"]}
    policy = ParsePolicy(truncate_chars=truncate)
    for doc in documents:
        for pair in gold_walk(doc, inventory, "top-down", policy):
            expected[pair.kind].append(json.dumps({
                "kind": pair.kind,
                "prompt": pair.prompt,
                "completion": pair.completion,
                "document_id": pair.doc_id,
                "step": pair.step,
            }, ensure_ascii=False))
    assert expected[SPLIT]
    for kind, lines in expected.items():
        path = tmp_path / "out" / f"top-down.{kind}.jsonl"
        # split on "\n" alone: a record holds U+2028 unescaped
        assert path.read_text(encoding="utf-8").split("\n") == lines + [""]


def test_export_goldens_are_byte_identical():
    # what export-training writes for the trace-golden documents, with
    # forced decisions skipped and with --truncate 30 (make_goldens.py)
    exports = golden_exports()
    for name, text in exports.items():
        assert text.encode("utf-8") == (GOLDEN_DIR / name).read_bytes(), name
    on_disk = {
        path.relative_to(GOLDEN_DIR).as_posix()
        for path in (GOLDEN_DIR / "exports").rglob("*") if path.is_file()
    }
    assert on_disk == set(exports)
    assert len(exports) == 12


def test_export_preserves_document_order(tmp_path):
    manifest = minicorpus_dir() / "splits.tsv"
    assert main([
        "export-training", "--corpus-dir", str(minicorpus_dir()), "--manifest",
        str(manifest), "--split", "test", "--relation-map", "rst-dt-coarse",
        "--strategy", "top-down", "--out", str(tmp_path),
    ]) == 0
    seen = []
    for line in (tmp_path / "top-down.nuclearity.jsonl").read_text().splitlines():
        doc_id = json.loads(line)["document_id"]
        if not seen or seen[-1] != doc_id:
            seen.append(doc_id)
    assert seen == load_split_manifest(manifest)["test"]


# ---------------------------------------------------------------------------
# Work done: what a walk and an export make


@pytest.mark.parametrize("flags", [[], ["--query-forced"], ["--truncate", "30"]])
def test_top_down_export_renders_each_split_prompt_once(
    tmp_path, monkeypatch, capsys, flags
):
    # the walk renders each split prompt from the export's escaped twin, and
    # the export writes that render as it is (a span's prompt is rendered
    # when its parent's split is taken, so not in the order it is written)
    rendered = []
    render = SplitPrompts.render

    def counted(self, first, last):
        rendered.append(render(self, first, last))
        return rendered[-1]

    monkeypatch.setattr(SplitPrompts, "render", counted)
    out = tmp_path / "out"
    assert main([
        "export-training", "--corpus-dir", str(minicorpus_dir()), "--relation-map",
        "rst-dt-coarse", "--strategy", "top-down", "--out", str(out), *flags,
    ]) == 0
    capsys.readouterr()
    lines = (out / "top-down.split.jsonl").read_text(encoding="utf-8").splitlines()
    assert lines
    head = '{"kind": "split", "prompt": "'
    assert all(line.startswith(head) for line in lines)
    written = [line[len(head):].split('", "completion": ', 1)[0] for line in lines]
    assert sorted(rendered) == sorted(written)


def test_only_a_read_of_the_tree_builds_it(
    tmp_path, monkeypatch, capsys, minicorpus, inventory
):
    built = []
    build_tree = engine.build_tree

    def counted(edus, nodes):
        built.append(len(edus))
        return build_tree(edus, nodes)

    monkeypatch.setattr(engine, "build_tree", counted)
    corpus = ["--corpus-dir", str(minicorpus_dir()), "--relation-map", "rst-dt-coarse"]
    for strategy in STRATEGIES:
        for doc in minicorpus:
            assert list(gold_walk(doc, inventory, strategy))
        assert main([
            "export-training", *corpus, "--strategy", strategy,
            "--out", str(tmp_path / f"export-{strategy}"),
        ]) == 0
        for path in sorted(minicorpus_dir().glob("*.dis")):
            assert main([
                "derive-actions", "--file", str(path), "--relation-map",
                "rst-dt-coarse", "--strategy", strategy,
            ]) == 0
    capsys.readouterr()
    assert built == []

    sizes = sorted(len(doc.edus) for doc in minicorpus)
    assert sizes[0] >= 2
    for strategy in STRATEGIES:
        assert main(["parse", *corpus, "--strategy", strategy,
                     "--out", str(tmp_path / strategy)]) == 0
        assert sorted(built) == sizes
        built.clear()
    capsys.readouterr()

    doc = minicorpus[0]
    for strategy in STRATEGIES:
        result = _parse(doc, ReplayOracle(doc.tree), inventory, strategy)
        assert built == []
        tree = result.tree
        assert tree == doc.tree
        assert result.tree is tree
        assert built == [len(doc.edus)]
        built.clear()


# ---------------------------------------------------------------------------
# Metadata sidecar


def test_metadata_pins_fine_tuning_configuration(inventory):
    policy = ParsePolicy(skip_forced=True, truncate_chars=256)
    meta = export_metadata(inventory, "bottom-up", policy,
                           {"action": 10, "nuclearity": 9, "relation": 9})
    ft = meta["fine_tuning"]
    assert ft["epochs"] == 5
    assert ft["batch_size"] == 16
    assert ft["optimizer"] == "adam"
    assert ft["learning_rate"] == 2e-4
    assert ft["lr_schedule"] == "linear-warmup-then-cosine"
    assert ft["warmup_ratio"] == 0.03
    assert ft["gradient_clipping"] == 1.0
    assert ft["lora_r"] == 64
    assert ft["lora_alpha"] == 16
    assert ft["lora_dropout"] == 0.1
    assert ft["lora_targets"] == "all-linear"
    assert ft["quantization"] == "4bit-nf4-double"
    assert ft == FINE_TUNING_DEFAULTS
    assert ft is not FINE_TUNING_DEFAULTS  # sidecar holds its own copy

    assert meta["strategy"] == "bottom-up"
    assert meta["inventory"]["id"] == inventory.id
    assert meta["inventory"]["relations"] == list(inventory.relations)
    assert meta["policy"] == {"skip_forced": True, "truncate_chars": 256}
    assert meta["examples_per_kind"] == {"action": 10, "nuclearity": 9,
                                         "relation": 9}
    json.dumps(meta)  # must be directly serializable


# ---------------------------------------------------------------------------
# Errors


def test_unknown_strategy_rejected(inventory):
    doc = random_document(random.Random(1), 3)
    with pytest.raises(ValueError, match="strategy"):
        list(gold_walk(doc, inventory, "sideways"))



def test_split_prompts_are_for_top_down_walks_only(inventory):
    doc = random_document(random.Random(1), 3)
    prompts = SplitPrompts([edu.text for edu in doc.edus]).escaped()
    with pytest.raises(ValueError, match="bottom-up parse renders no split prompts"):
        list(gold_walk(doc, inventory, "bottom-up", ParsePolicy(), prompts))
