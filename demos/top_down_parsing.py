"""Top-down parsing splits a span, labels the pair, and recurses left before
right. Split answers are 0-based and relative to the span, so the prompt for
EDUs 14..19 looks exactly like the prompt for EDUs 1..6.

Run: python3 demos/top_down_parsing.py
"""

from rstkit import (
    ReplayOracle,
    ScriptedOracle,
    SplitPrompts,
    builtin_inventory,
    builtin_relation_map,
    minicorpus_dir,
    parse_top_down,
    read_dis,
    write_tree,
)


def main():
    inventory = builtin_inventory("rst-dt")
    relmap = builtin_relation_map("rst-dt-coarse")
    doc = read_dis(minicorpus_dir() / "doc06.dis", relmap)
    print(f"document {doc.doc_id}: {len(doc.edus)} EDUs")
    print()

    print("the first split prompt renumbers the whole document from 0:")
    prompts = SplitPrompts([edu.text for edu in doc.edus])
    print(prompts.render(1, len(doc.edus)))
    print()

    result = parse_top_down(doc.edus, ReplayOracle(doc.tree), inventory)
    print("replay closure:", result.tree == doc.tree)
    splits = [e for e in result.trace if e.kind == "split"]
    print(f"{len(splits)} splits for {len(doc.edus)} EDUs "
          f"(always n-1), first few:")
    for entry in splits[:4]:
        print(f"  {entry.state:<14} -> k={entry.resolved}"
              + (" (forced: spans of two split one way)" if entry.forced else ""))
    print()

    # out-of-range and unparseable answers correct to 0 with distinct notes
    wild = ScriptedOracle(["99", "nucleus-nucleus", "Joint"], cycle=True)
    result = parse_top_down(doc.edus, wild, inventory)
    first = result.trace[0]
    print(f"answer {first.raw!r} on {first.state} was corrected to "
          f"{first.resolved!r} and flagged {first.note!r}")
    print("tree is still a valid cover:", write_tree(result.tree))


if __name__ == "__main__":
    main()
