"""Read an n-ary constituent the way a treebank file stores one: the reader
folds it into binary nodes as each constituent closes. Then derive both
decision sequences from the binary tree.

Run: python3 demos/trees_and_binarization.py
"""

from rstkit import (
    derive_shift_reduce_sequence,
    derive_split_sequence,
    parse_dis,
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

    print("shift-reduce derivation (post-order, 2n-1 actions):")
    for action in derive_shift_reduce_sequence(tree):
        print(" ", action)
    print()

    print("split derivation (pre-order, n-1 steps, k is 0-based):")
    for step in derive_split_sequence(tree):
        print(f"  span={step.span} k={step.k} "
              f"{step.nuclearity} {step.relation}")


if __name__ == "__main__":
    main()
