"""Writes the golden prompt and trace files under tests/goldens/.

Run from the repository root:

    PYTHONPATH=src python3 tests/make_goldens.py

The outputs are committed and the byte-stability tests compare against
them, so regenerating must be a no-op unless a template or the correction
rule deliberately changes.

Prompt texts come from the press_release fixture so the goldens double as
readable documentation of each template. Each prompt is rendered the way a
parse renders it: span slots sliced from a ``DocumentText``, split prompts
from ``SplitPrompts``.

Trace goldens (``traces/<strategy>-<policy>/<doc>.trace.jsonl`` and
``.tree``) are parses of a few minicorpus documents under garbage answers
picked by a hash of the prompt, so every correction note and forced
entries show up in them.

Export goldens (``exports/<strategy>[-truncate-30]/<strategy>.<kind>.jsonl``)
are what ``rstkit export-training`` writes for the same documents, with
forced decisions skipped and with ``--truncate 30``.

Derivation goldens (``derivations/<doc>.<strategy>.txt``) are what ``rstkit
derive-actions`` prints for a minicorpus document with relations mapped and
for the press_release fixture with its relations as written.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

from rstkit import (
    EMPTY_SLOT,
    NN,
    NS,
    DocumentText,
    Edu,
    ParsePolicy,
    SplitPrompts,
    action_prompt,
    builtin_inventory,
    builtin_relation_map,
    load_documents,
    minicorpus_dir,
    nuclearity_prompt,
    relation_prompt,
    span_slot,
    trace_to_jsonl,
    write_tree,
)
from rstkit.cli import main as rstkit_main
from rstkit.training import ENGINES, STRATEGIES

from conftest import DATA_DIR, FunctionOracle

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

EDUS = [
    "Westinghouse Electric Corp. said",
    "it will buy Shaw-Walker Co.",
    "Terms weren't disclosed.",
    "Shaw-Walker,",
    "based in Muskegon, Mich.,",
    "makes metal files and desks, and seating and office systems furniture.",
]


def _document(texts) -> DocumentText:
    return DocumentText([Edu(i, text) for i, text in enumerate(texts, 1)])


def golden_prompts() -> dict[str, str]:
    """Golden file name -> the prompt it must hold."""
    press = _document(EDUS)
    instr = _document(["tighten the drain plug", "then refill the reservoir"])

    def slot(first: int, last: int, budget: int | None = None) -> str:
        return span_slot(press, first, last, budget)

    split = SplitPrompts(EDUS)
    return {
        # initial state: empty stack positions render the placeholder
        "action_initial.txt": action_prompt(EMPTY_SLOT, EMPTY_SLOT, slot(1, 1)),
        # stack holds (1,2) and (3,3); EDU 4 heads the queue
        "action_midparse.txt": action_prompt(slot(1, 2), slot(3, 3), slot(4, 4)),
        # queue exhausted near the end of a parse
        "action_empty_queue.txt": action_prompt(slot(1, 2), slot(3, 3), EMPTY_SLOT),
        "nuclearity.txt": nuclearity_prompt(slot(1, 2), slot(3, 3)),
        "relation_rst.txt": relation_prompt(
            slot(1, 2), slot(3, 3), NS, builtin_inventory("rst-dt")
        ),
        "relation_instr.txt": relation_prompt(
            span_slot(instr, 1, 1, None), span_slot(instr, 2, 2, None),
            NN, builtin_inventory("instr-dt"),
        ),
        "split_press.txt": split.render(1, 6),
        # a span late in the document still numbers its EDUs from 0
        "split_pair.txt": split.render(5, 6),
        "action_truncated.txt": action_prompt(
            slot(1, 2, 40), slot(6, 6, 40), slot(3, 3, 40)
        ),
    }


# answers of every kind: labels of each decision kind, numbers (signed,
# zero-padded, past any span here), blank and multi-line text
GARBAGE_ANSWERS = (
    "shift", "reduce", "banana", "7", "0", "1", "-1", "nucleus-nucleus",
    "satellite-nucleus", "Joint", "Elaboration", "", "+1", "02", "-0", "12",
    "3\nbanana", "banana\n1", " Reduce \n", "007",
)

TRACE_DOCUMENTS = ("doc01", "doc05", "doc08")
TRACE_POLICIES = {
    "skip-forced": ParsePolicy(),
    "query-forced": ParsePolicy(skip_forced=False),
    "truncate-30": ParsePolicy(truncate_chars=30),
}


def garbage_answer(query) -> str:
    """Any kind of answer, picked by the prompt alone: a third of the time
    one of the query's valid labels, else one of ``GARBAGE_ANSWERS``."""
    digest = hashlib.sha1(query.prompt.encode("utf-8")).digest()
    if digest[0] % 3 == 0:
        return query.valid_labels[digest[1] % len(query.valid_labels)]
    return GARBAGE_ANSWERS[digest[1] % len(GARBAGE_ANSWERS)]


def golden_traces() -> dict[str, str]:
    """Path under the golden directory -> the trace or tree it must hold."""
    corpus = minicorpus_dir()
    docs = [
        doc for doc in load_documents(
            corpus, corpus / "splits.tsv",
            relation_map=builtin_relation_map("rst-dt-coarse"),
        )
        if doc.doc_id in TRACE_DOCUMENTS
    ]
    inventory = builtin_inventory("rst-dt")
    goldens = {}
    for strategy, parse in ENGINES.items():
        for name, policy in TRACE_POLICIES.items():
            for doc in docs:
                result = parse(doc.edus, FunctionOracle(garbage_answer), inventory, policy)
                stem = f"traces/{strategy}-{name}/{doc.doc_id}"
                goldens[f"{stem}.trace.jsonl"] = trace_to_jsonl(result.trace)
                goldens[f"{stem}.tree"] = write_tree(result.tree) + "\n"
    return goldens


# export golden directory suffix -> the extra export-training flags
EXPORT_POLICIES = {"": [], "-truncate-30": ["--truncate", "30"]}


def golden_exports() -> dict[str, str]:
    """Path under the golden directory -> the training pairs
    ``export-training`` writes to it."""
    corpus = minicorpus_dir()
    goldens = {}
    with tempfile.TemporaryDirectory() as tmp:
        manifest = Path(tmp) / "splits.tsv"
        manifest.write_text(
            "".join(f"golden\t{doc_id}\n" for doc_id in TRACE_DOCUMENTS),
            encoding="utf-8",
        )
        for strategy in STRATEGIES:
            for suffix, flags in EXPORT_POLICIES.items():
                out = Path(tmp) / f"{strategy}{suffix}"
                argv = [
                    "export-training", "--corpus-dir", str(corpus),
                    "--manifest", str(manifest), "--relation-map", "rst-dt-coarse",
                    "--strategy", strategy, "--out", str(out), *flags,
                ]
                with contextlib.redirect_stdout(io.StringIO()):
                    status = rstkit_main(argv)
                if status != 0:
                    raise RuntimeError(f"export-training exited {status}: {argv}")
                for path in sorted(out.glob("*.jsonl")):
                    name = f"exports/{strategy}{suffix}/{path.name}"
                    goldens[name] = path.read_bytes().decode("utf-8")
    return goldens


# derivation golden name -> the .dis file and the extra derive-actions flags
DERIVATIONS = {
    "doc05": (minicorpus_dir() / "doc05.dis", ["--relation-map", "rst-dt-coarse"]),
    "press_release": (DATA_DIR / "press_release.dis", []),
}


def golden_derivations() -> dict[str, str]:
    """Path under the golden directory -> what ``derive-actions`` prints."""
    goldens = {}
    for name, (path, flags) in DERIVATIONS.items():
        for strategy in STRATEGIES:
            argv = ["derive-actions", "--file", str(path), "--strategy", strategy, *flags]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                status = rstkit_main(argv)
            if status != 0:
                raise RuntimeError(f"derive-actions exited {status}: {argv}")
            goldens[f"derivations/{name}.{strategy}.txt"] = out.getvalue()
    return goldens


def main() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    goldens = golden_prompts()
    for name, text in goldens.items():
        (GOLDEN_DIR / name).write_bytes(text.encode("utf-8"))
        print(f"--- {name}")
        print(text)
    traces = golden_traces()
    exports = golden_exports()
    derivations = golden_derivations()
    for name, text in {**traces, **exports, **derivations}.items():
        path = GOLDEN_DIR / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(text.encode("utf-8"))
    print(
        f"wrote {len(goldens)} prompt, {len(traces)} trace, {len(exports)} export "
        f"and {len(derivations)} derivation goldens to {GOLDEN_DIR}"
    )


if __name__ == "__main__":
    main()
