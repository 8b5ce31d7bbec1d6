"""Render three prompt templates the way a parse does, from span slots
sliced out of the joined document text, and export the supervised pairs a
gold walk produces. A gold walk is a replay parse: the engine runs with the
replay oracle, which answers each query with the gold decision, and every
query it puts becomes one (prompt, completion) pair.

Run: python3 demos/prompts_and_export.py
"""

import json

from rstkit import (
    EMPTY_SLOT,
    DocumentText,
    ParsePolicy,
    action_prompt,
    builtin_inventory,
    builtin_relation_map,
    example_to_json,
    export_metadata,
    gold_walk,
    minicorpus_dir,
    nuclearity_prompt,
    read_dis,
    relation_prompt,
    span_slot,
)


def banner(title):
    print(f"--- {title} ---")


def main():
    inventory = builtin_inventory("rst-dt")
    relmap = builtin_relation_map("rst-dt-coarse")
    doc = read_dis(minicorpus_dir() / "doc03.dis", relmap)
    text = DocumentText(doc.edus)
    first, second = span_slot(text, 1, 1, None), span_slot(text, 2, 2, None)

    banner("action prompt (initial state: both stack slots empty)")
    print(action_prompt(EMPTY_SLOT, EMPTY_SLOT, first))
    print()

    banner("nuclearity prompt")
    print(nuclearity_prompt(first, second))
    print()

    banner("relation prompt (nuclearity is teacher-forced into the text)")
    print(relation_prompt(first, second, "nucleus-satellite", inventory))
    print()

    banner(f"gold walk of {doc.doc_id} (top-down), first two pairs as JSONL")
    examples = list(gold_walk(doc, inventory, "top-down"))
    for example in examples[:2]:
        print(example_to_json(example))
    print(f"... {len(examples)} pairs total")
    print()

    counts = {}
    for example in examples:
        counts[example.kind] = counts.get(example.kind, 0) + 1
    banner("metadata sidecar written next to an export")
    meta = export_metadata(inventory, "top-down", ParsePolicy(), counts)
    print(json.dumps(meta["fine_tuning"], indent=2))


if __name__ == "__main__":
    main()
