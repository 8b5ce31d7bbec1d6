"""Drive the shift-reduce engine from two kinds of oracle: a replay of the
gold tree, then a deliberately useless one, to show that parsing
always terminates with a valid tree and a fully annotated trace.

Run: python3 demos/bottom_up_parsing.py
"""

from rstkit import (
    ReplayOracle,
    ScriptedOracle,
    builtin_inventory,
    builtin_relation_map,
    minicorpus_dir,
    parse_bottom_up,
    read_dis,
    write_tree,
)


def show_trace(result, limit=8):
    for entry in result.trace[:limit]:
        tag = "forced" if entry.forced else ("fixed" if entry.corrected else "ok")
        print(f"  step {entry.step:>2} {entry.kind:<10} -> "
              f"{entry.resolved:<18} [{tag}] {entry.note}")
    if len(result.trace) > limit:
        print(f"  ... {len(result.trace) - limit} more entries")


def main():
    inventory = builtin_inventory("rst-dt")
    relmap = builtin_relation_map("rst-dt-coarse")
    doc = read_dis(minicorpus_dir() / "doc05.dis", relmap)
    print(f"document {doc.doc_id}: {len(doc.edus)} EDUs")
    print()

    result = parse_bottom_up(doc.edus, ReplayOracle(doc.nodes), inventory)
    print("replay oracle reproduces the gold tree:")
    print(" ", write_tree(result.tree))
    print(f"  matches gold: {result.tree == doc.tree}, "
          f"queries: {result.query_count}, corrected: {result.corrected_count}")
    show_trace(result)
    print()

    junk = ScriptedOracle(["hmm", "1234", ""], cycle=True)
    result = parse_bottom_up(doc.edus, junk, inventory)
    print("garbage oracle still yields a valid binary tree:")
    print(" ", write_tree(result.tree))
    print(f"  queries: {result.query_count}, "
          f"corrected: {result.corrected_count} (every open decision)")
    show_trace(result, limit=6)


if __name__ == "__main__":
    main()
