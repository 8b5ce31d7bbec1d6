"""Read an n-ary constituent the way a treebank file stores one: the reader
folds it into binary nodes as each constituent closes. Then replay the
binary tree through both engines to see the decisions each takes.

Run: python3 demos/trees_and_binarization.py
"""

from rstkit import (
    LabelInventory,
    ParsePolicy,
    ReplayOracle,
    parse_bottom_up,
    parse_dis,
    parse_top_down,
    write_tree,
)

# a three-child constituent plus a trailing satellite, as a .dis file
# stores them
DIS = """( Root (span 1 4)
  ( Nucleus (span 1 3) (rel2par span)
    ( Nucleus (leaf 1) (rel2par span) (text _!The committee met on Tuesday_!) )
    ( Satellite (leaf 2) (rel2par purpose) (text _!to review the audit,_!) )
    ( Satellite (leaf 3) (rel2par elaboration)
      (text _!which had taken three months._!) )
  )
  ( Satellite (leaf 4) (rel2par evaluation) (text _!No action was taken._!) )
)"""


def main():
    tree, edus = parse_dis(DIS)
    print(f"{len(edus)} EDUs, binarized:", write_tree(tree))
    print()

    # the replay answers each decision from the tree by the span it is
    # about; the policy asks even the decisions that have one legal answer
    inventory = LabelInventory(
        "demo", ("elaboration", "evaluation", "purpose"), "elaboration"
    )
    every = ParsePolicy(skip_forced=False)

    print("shift-reduce derivation (post-order, 2n-1 actions):")
    result = parse_bottom_up(edus, ReplayOracle(tree), inventory, every)
    for entry in result.trace:
        if entry.kind == "action":
            print(f"  {entry.state:<16} {entry.resolved}")
    print()

    print("split derivation (pre-order, n-1 steps, k is 0-based):")
    result = parse_top_down(edus, ReplayOracle(tree), inventory, every)
    for entry in result.trace:
        if entry.kind == "split":
            print(f"  {entry.state:<16} k={entry.resolved}")


if __name__ == "__main__":
    main()
