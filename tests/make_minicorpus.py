"""Deterministic builder for the bundled synthetic mini-corpus.

Run from the repository root:

    python3 tests/make_minicorpus.py

The output under src/rstkit/data/minicorpus/ is committed; rerunning must
reproduce it byte for byte (fixed seed). The documents are synthetic but
exercise the structural range the reader must handle: 2-40
EDU documents, constituents with 2-4 children, mono- and multi-nuclear
patterns, embedded-unit "-e" relation variants, mixed-case relation names,
paragraph markers, a text field broken across lines, stray )//TT_ERR tool
noise, and both plain .dis and .out.dis file names.
"""

from __future__ import annotations

import random
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parent.parent / "src/rstkit/data/minicorpus"

# (name, edu count); doc21/doc22 get the .out.dis suffix
DOCS = [
    ("doc01", 2), ("doc02", 3), ("doc03", 4), ("doc04", 5), ("doc05", 6),
    ("doc06", 7), ("doc07", 8), ("doc08", 10), ("doc09", 12), ("doc10", 14),
    ("doc11", 16), ("doc12", 18), ("doc13", 20), ("doc14", 22), ("doc15", 25),
    ("doc16", 28), ("doc17", 31), ("doc18", 34), ("doc19", 37), ("doc20", 40),
    ("doc21", 9), ("doc22", 13),
]
SPLITS = {"train": DOCS[:14], "dev": DOCS[14:18], "test": DOCS[18:]}

# fine-grained names; every one resolves through the bundled coarse map
MULTI_RELS = [
    "list", "sequence", "same-unit", "contrast", "disjunction",
    "temporal-same-time", "analogy", "question-answer",
]
MONO_RELS = [
    "attribution", "background", "circumstance", "elaboration-additional",
    "elaboration-object-attribute-e", "purpose", "evidence", "condition",
    "antithesis", "concession", "consequence-s", "example", "means",
    "manner", "interpretation-s", "summary-s", "temporal-after",
    "problem-solution-s", "definition", "reason", "cause", "result",
    "hypothetical", "comment", "restatement", "rhetorical-question",
]

SUBJECTS = [
    "the committee", "a regional supplier", "the survey", "both plants",
    "the draft report", "an outside auditor", "the council", "its chairman",
    "the pilot program", "the second quarter", "field crews", "the agency",
]
VERBS = [
    "reviewed", "postponed", "approved", "questioned", "expanded",
    "documented", "rejected", "measured", "outlined", "confirmed",
    "suspended", "compared",
]
OBJECTS = [
    "the quarterly filings", "a revised schedule", "the maintenance backlog",
    "three competing bids", "the staffing plan", "earlier estimates",
    "the disputed invoice", "new safety limits", "the merger terms",
    "local enrollment figures", "the pipeline survey", "a shorter route",
]
TAILS = [
    "", "", "", " despite earlier objections", " without further review",
    " before the deadline", " in most districts", " at reduced cost",
    " according to the minutes", " for the third time",
]


def sentence(rng: random.Random) -> str:
    text = (
        f"{rng.choice(SUBJECTS)} {rng.choice(VERBS)} "
        f"{rng.choice(OBJECTS)}{rng.choice(TAILS)}"
    )
    # clause-like EDUs sometimes end mid-sentence
    return text + ("," if rng.random() < 0.25 else ".")


def build(rng: random.Random, lo: int, hi: int) -> dict:
    """Random constituent over EDUs lo..hi; children carry role/rel2par."""
    if lo == hi:
        return {"span": (lo, lo), "leaf": lo}
    size = hi - lo + 1
    n_children = rng.randint(2, min(4, size))
    cuts = sorted(rng.sample(range(lo, hi), n_children - 1))
    bounds = list(zip([lo] + [c + 1 for c in cuts], cuts + [hi]))
    children = [build(rng, a, b) for a, b in bounds]
    if rng.random() < 0.3:
        rel = rng.choice(MULTI_RELS)
        for child in children:
            child["role"] = "Nucleus"
            child["rel2par"] = rel
    else:
        nucleus_at = rng.randrange(n_children)
        for pos, child in enumerate(children):
            if pos == nucleus_at:
                child["role"] = "Nucleus"
                child["rel2par"] = "span"
            else:
                child["role"] = "Satellite"
                child["rel2par"] = rng.choice(MONO_RELS)
    return {"span": (lo, hi), "children": children}


def emit(node: dict, texts: dict[int, str], depth: int = 0) -> str:
    pad = "  " * depth
    if depth == 0:
        head = f"( Root (span {node['span'][0]} {node['span'][1]})"
    elif "leaf" in node:
        return (
            f"{pad}( {node['role']} (leaf {node['leaf']}) "
            f"(rel2par {node['rel2par']}) (text _!{texts[node['leaf']]}_!) )"
        )
    else:
        head = (
            f"{pad}( {node['role']} (span {node['span'][0]} {node['span'][1]}) "
            f"(rel2par {node['rel2par']})"
        )
    body = "\n".join(emit(child, texts, depth + 1) for child in node["children"])
    return f"{head}\n{body}\n{pad})"


def make_doc(rng: random.Random, name: str, n_edus: int) -> str:
    tree = build(rng, 1, n_edus)
    texts = {i: sentence(rng) for i in range(1, n_edus + 1)}
    if name == "doc05":
        texts[2] += " <P>"
    if name == "doc07":
        # text field spanning two physical lines; the reader collapses it
        words = texts[1].split()
        texts[1] = " ".join(words[:2]) + "\n      " + " ".join(words[2:])
    if name == "doc03":
        capitalize_rels(tree)
    out = emit(tree, texts) + "\n"
    if name in ("doc09", "doc16"):
        out = out.replace(")\n", ")//TT_ERR\n", 1)
    return out


def capitalize_rels(node: dict) -> None:
    rel = node.get("rel2par")
    if rel and rel != "span":
        node["rel2par"] = rel[0].upper() + rel[1:]
    for child in node.get("children", ()):
        capitalize_rels(child)


def filename(name: str) -> str:
    return f"{name}.out.dis" if name in ("doc21", "doc22") else f"{name}.dis"


def main() -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    rng = random.Random(7340032)
    for name, n_edus in DOCS:
        (OUT_DIR / filename(name)).write_text(make_doc(rng, name, n_edus))
    lines = ["# synthetic mini-corpus: 22 documents, 2-40 EDUs each"]
    for split, docs in SPLITS.items():
        lines.append(f"!count\t{split}\t{len(docs)}")
    for split, docs in SPLITS.items():
        for name, _ in docs:
            lines.append(f"{split}\t{name}")
    (OUT_DIR / "splits.tsv").write_text("\n".join(lines) + "\n")

    # sanity: every document must read and replay-close
    from conftest import check_tree
    from rstkit import (
        ReplayOracle, builtin_inventory, builtin_relation_map, parse_bottom_up,
        parse_top_down, read_dis,
    )

    inventory = builtin_inventory("rst-dt")
    relmap = builtin_relation_map("rst-dt-coarse")
    for name, n_edus in DOCS:
        doc = read_dis(OUT_DIR / filename(name), relmap)
        check_tree(doc.tree, n_edus)
        for engine in (parse_bottom_up, parse_top_down):
            result = engine(doc.edus, ReplayOracle(doc.nodes), inventory)
            assert result.tree == doc.tree, (name, engine.__name__)
        print(f"{filename(name)}: {n_edus} EDUs ok")
    print(f"wrote {len(DOCS)} documents + splits.tsv to {OUT_DIR}")


if __name__ == "__main__":
    main()
