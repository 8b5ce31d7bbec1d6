"""Score trees the standard way: one tuple per internal node, read from
the node tables of prediction and gold, matched at four levels,
micro-averaged over the corpus. Two tiny fixtures show what a
shape error and a label error each cost.

Run: python3 demos/evaluation.py
"""

from rstkit import (
    Edu,
    Leaf,
    Node,
    ParsevalCounts,
    builtin_relation_map,
    load_documents,
    micro_f1,
    minicorpus_dir,
    node_table,
    per_relation_rows,
    score_document,
)

NS = "nucleus-satellite"


def three(shape, rel_inner="Elaboration"):
    edus = [Edu(i, f"unit {i}.") for i in (1, 2, 3)]
    if shape == "left":
        inner = Node(Leaf(edus[0]), Leaf(edus[1]), NS, rel_inner)
        return Node(inner, Leaf(edus[2]), NS, "Elaboration")
    inner = Node(Leaf(edus[1]), Leaf(edus[2]), NS, rel_inner)
    return Node(Leaf(edus[0]), inner, NS, "Elaboration")


def show(title, scores):
    print(f"{title}:")
    for level, value in scores.items():
        print(f"  {level:<11} {value}")


def main():
    # both sides are node tables: a document and a parse hold one, and a
    # tree gives its own through node_table
    gold = node_table(three("left"))
    show("bracketing error (left chain predicted as right chain)",
         micro_f1(score_document(node_table(three("right")), gold)))
    print()
    show("relation flip on the inner node only",
         micro_f1(score_document(node_table(three("left", "Background")), gold)))
    print()

    corpus = minicorpus_dir()
    relmap = builtin_relation_map("rst-dt-coarse")
    docs = load_documents(corpus, corpus / "splits.tsv", "test", relmap)
    # micro averaging pools the documents' counts before scoring
    counts = sum((score_document(d.nodes, d.nodes) for d in docs), ParsevalCounts())
    show(f"self-evaluation over the {len(docs)}-document test split",
         micro_f1(counts))
    print()

    print("per-relation rows (gold frequency order, ties by name):")
    rows = per_relation_rows((d.nodes, d.nodes) for d in docs)
    for row in rows[:6]:
        print(f"  {row.relation:<14} predicted={row.predicted:<3} "
              f"gold={row.gold:<3} matched={row.matched:<3} f1={row.f1}")


if __name__ == "__main__":
    main()
