"""Seeded generator of long synthetic treebank documents.

Writes binary `.dis` files in the news-treebank constituent format: half
are right-branching chains (every split puts one EDU on the left), half
are random binary trees (each split point drawn uniformly). Relation names
are fine-grained treebank names that resolve through the bundled
`rst-dt-coarse` map. Alongside each document the generator returns the
tree it expects a correct parse to produce, in the one-line bracket form,
built from its own model of the document rather than by the package.
The benchmark calls `generate` with the workload seed.

The sizes are fixed; the seed picks texts, labels and random shapes.
"""

from __future__ import annotations

import random
from pathlib import Path

# (shape, EDU count) per document; the sizes are what the workload scales.
DOCUMENTS = (
    ("chain", 250),
    ("random", 500),
    ("chain", 1000),
    ("random", 2000),
)

# fine-grained name -> coarse class, as the rst-dt-coarse map clusters them
MONO_RELATIONS = {
    "attribution": "Attribution",
    "background": "Background",
    "circumstance": "Background",
    "cause": "Cause",
    "result": "Cause",
    "comparison": "Comparison",
    "condition": "Condition",
    "concession": "Contrast",
    "Elaboration-Additional": "Elaboration",
    "elaboration-object-attribute-e": "Elaboration",
    "example": "Elaboration",
    "purpose": "Enablement",
    "evaluation-s": "Evaluation",
    "evidence": "Explanation",
    "reason": "Explanation",
    "manner": "Manner-Means",
    "summary-s": "Summary",
    "temporal-after": "Temporal",
    "topic-shift": "Topic-Change",
    "problem-solution-s": "Topic-Comment",
}
MULTI_RELATIONS = {
    "list": "Joint",
    "disjunction": "Joint",
    "Sequence": "Temporal",
    "temporal-same-time": "Temporal",
    "same-unit": "Same-Unit",
    "contrast": "Contrast",
    "textualorganization": "Textual-Organization",
}

SUBJECTS = (
    "the committee", "a regional supplier", "the survey", "both plants",
    "the draft report", "an outside auditor", "the council", "its chairman",
    "the pilot program", "the second quarter", "field crews", "the agency",
)
VERBS = (
    "reviewed", "postponed", "approved", "questioned", "expanded",
    "documented", "rejected", "measured", "outlined", "confirmed",
)
OBJECTS = (
    "the quarterly filings", "a revised schedule", "the maintenance backlog",
    "three competing bids", "the staffing plan", "earlier estimates",
    "the disputed invoice", "new safety limits", "the merger terms",
)
TAILS = (
    "", "", " despite earlier objections", " without further review",
    " before the deadline", " in most districts", " at reduced cost",
)

def _edu_text(rng: random.Random) -> str:
    text = (
        f"{rng.choice(SUBJECTS)} {rng.choice(VERBS)} "
        f"{rng.choice(OBJECTS)}{rng.choice(TAILS)}"
    )
    return text + ("," if rng.random() < 0.25 else ".")


def _splits(shape: str, n: int, rng: random.Random) -> dict:
    """Binary tree over EDUs 1..n as {(lo, hi): (mid, pattern, fine, coarse)}.

    ``mid`` is the last EDU of the left child.
    """
    nodes = {}
    stack = [(1, n)]
    while stack:
        lo, hi = stack.pop()
        if lo == hi:
            continue
        mid = lo if shape == "chain" else rng.randint(lo, hi - 1)
        pattern = rng.choices(("NS", "SN", "NN"), weights=(6, 2, 2))[0]
        table = MULTI_RELATIONS if pattern == "NN" else MONO_RELATIONS
        fine = rng.choice(sorted(table))
        nodes[(lo, hi)] = (mid, pattern, fine, table[fine])
        stack.append((mid + 1, hi))
        stack.append((lo, mid))
    return nodes


def _child_roles(pattern: str, fine: str) -> tuple[tuple[str, str], tuple[str, str]]:
    if pattern == "NS":
        return ("Nucleus", "span"), ("Satellite", fine)
    if pattern == "SN":
        return ("Satellite", fine), ("Nucleus", "span")
    return ("Nucleus", fine), ("Nucleus", fine)


def _dis_text(n: int, nodes: dict, texts: list[str]) -> str:
    """Constituent file, one constituent per line, written without recursion."""
    lines = []
    # items: (lo, hi, role, rel2par) to open, or None to close
    stack: list = [(1, n, "Root", None)]
    while stack:
        item = stack.pop()
        if item is None:
            lines.append(")")
            continue
        lo, hi, role, rel2par = item
        rel = f" (rel2par {rel2par})" if rel2par else ""
        if lo == hi:
            lines.append(f"( {role} (leaf {lo}){rel} (text _!{texts[lo - 1]}_!) )")
            continue
        lines.append(f"( {role} (span {lo} {hi}){rel}")
        mid, pattern, fine, _ = nodes[(lo, hi)]
        left, right = _child_roles(pattern, fine)
        stack.append(None)
        stack.append((mid + 1, hi) + right)
        stack.append((lo, mid) + left)
    return "\n".join(lines) + "\n"


def _bracket_text(n: int, nodes: dict) -> str:
    """Expected parse in the one-line bracket form, e.g. (NS Cause (leaf 1) (leaf 2))."""
    pieces = []
    stack: list = [(1, n)]
    while stack:
        item = stack.pop()
        if item == ")":
            pieces.append(")")
            continue
        lo, hi = item
        if lo == hi:
            pieces.append(f"(leaf {lo})")
            continue
        mid, pattern, _, coarse = nodes[(lo, hi)]
        pieces.append(f"({pattern} {coarse}")
        stack.append(")")
        stack.append((mid + 1, hi))
        stack.append((lo, mid))
    out = []
    for piece in pieces:
        if out and piece != ")":
            out.append(" ")
        out.append(piece)
    return "".join(out)


def generate(seed: int, out_dir: Path) -> dict[str, str]:
    """Write the documents under ``out_dir``; return doc id -> expected tree."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    expected = {}
    for shape, n in DOCUMENTS:
        doc_id = f"{shape}-{n:04d}"
        nodes = _splits(shape, n, rng)
        texts = [_edu_text(rng) for _ in range(n)]
        (out_dir / f"{doc_id}.dis").write_text(_dis_text(n, nodes, texts))
        expected[doc_id] = _bracket_text(n, nodes)
    return expected
