"""Render the four prompt templates and export the supervised pairs a gold
walk produces. A gold walk is a replay parse: the engine runs with the
replay oracle, which answers each query with the gold decision, and every
query it puts becomes one (prompt, completion) pair.

Run: python3 demos/prompts_and_export.py
"""

import json

from rstkit import (
    ParsePolicy,
    builtin_inventory,
    builtin_relation_map,
    example_to_json,
    export_metadata,
    gold_walk,
    minicorpus_dir,
    read_dis,
    render_action_prompt,
    render_nuclearity_prompt,
    render_relation_prompt,
)


def banner(title):
    print(f"--- {title} ---")


def main():
    inventory = builtin_inventory("rst-dt")
    relmap = builtin_relation_map("rst-dt-coarse")

    banner("action prompt (initial state: both stack slots empty)")
    print(render_action_prompt(None, None, "The committee met on Tuesday"))
    print()

    banner("nuclearity prompt")
    print(render_nuclearity_prompt("The committee met on Tuesday",
                                   "to review the audit,"))
    print()

    banner("relation prompt (nuclearity is teacher-forced into the text)")
    print(render_relation_prompt("The committee met on Tuesday",
                                 "to review the audit,",
                                 "nucleus-satellite", inventory))
    print()

    doc = read_dis(minicorpus_dir() / "doc03.dis", relmap)
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
